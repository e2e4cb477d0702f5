"""Layered erasure interference channel model with exact link statistics.

Two transmitter-receiver pairs interfere through four fading links.  Per
channel use, link nAB keeps the top N layers of transmitter A's q-layer
binary word on its way to receiver B, with N drawn from a per-link pmf,
independent across links and uses.  Receivers observe their incoming levels;
transmitters know only the statistics, so everything downstream is a
functional of the four pmfs.  All probability arithmetic here is exact
(fractions.Fraction); floats are confined to Monte Carlo estimation and
plotting.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache


def as_fraction(value) -> Fraction:
    """Convert to Fraction, rejecting floats (silent rounding is never wanted here)."""
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError(f"refusing float {value!r}; pass a string, int or Fraction")
    return Fraction(value)


def _pos(x: Fraction) -> Fraction:
    return x if x > 0 else Fraction(0)


class FadingPmf:
    """Exact pmf of a fading level on {0, ..., q}.

    masses[n] = P(N = n); q is implied by the length of the mass vector.
    Instances are immutable and hashable; the tail vector and the hash are
    computed once, so tail lookups and cache keys cost O(1).
    """

    __slots__ = ("_masses", "_tails", "_hash")

    def __init__(self, masses):
        entries = tuple(as_fraction(m) for m in masses)
        if not entries:
            raise ValueError("pmf needs at least the level-0 mass")
        if any(m < 0 for m in entries):
            raise ValueError("pmf masses must be nonnegative")
        # suffix sums: tails[l] = P(N >= l) for l in 0..q+1
        tails = [Fraction(0)]
        for m in reversed(entries):
            tails.append(tails[-1] + m)
        tails.reverse()
        if tails[0] != 1:
            raise ValueError(f"pmf masses must sum to 1, got {tails[0]}")
        self._masses = entries
        self._tails = tuple(tails)
        self._hash = hash(entries)

    @classmethod
    def point(cls, level: int, q: int) -> "FadingPmf":
        """Deterministic link: P(N = level) = 1."""
        if not 0 <= level <= q:
            raise ValueError(f"level {level} outside {{0..{q}}}")
        return cls(tuple(Fraction(int(n == level)) for n in range(q + 1)))

    @classmethod
    def bernoulli(cls, p) -> "FadingPmf":
        """Single-layer link: P(N = 1) = p, P(N = 0) = 1 - p."""
        p = as_fraction(p)
        return cls((1 - p, p))

    @classmethod
    def uniform(cls, q: int) -> "FadingPmf":
        return cls((Fraction(1, q + 1),) * (q + 1))

    @classmethod
    def from_tails(cls, tails) -> "FadingPmf":
        """Build from the tail vector (P(N >= 1), ..., P(N >= q)).

        The vector must be nonincreasing and bounded by 1; violations surface
        as negative masses in the constructor.
        """
        t = [Fraction(1)] + [as_fraction(v) for v in tails] + [Fraction(0)]
        return cls([t[l] - t[l + 1] for l in range(len(t) - 1)])

    @property
    def q(self) -> int:
        return len(self._masses) - 1

    @property
    def masses(self) -> tuple:
        return self._masses

    def mass(self, n: int) -> Fraction:
        if not 0 <= n <= self.q:
            raise ValueError(f"level {n} outside {{0..{self.q}}}")
        return self._masses[n]

    def __eq__(self, other):
        if not isinstance(other, FadingPmf):
            return NotImplemented
        return self._masses == other._masses

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "FadingPmf([%s])" % ", ".join(str(m) for m in self._masses)


@dataclass(frozen=True)
class ChannelSpec:
    """The four fading pmfs of a two-user channel, all sharing the same q.

    nAB is the link from transmitter A to receiver B: n11/n22 are the direct
    links, n12/n21 the cross (interference) links.  The four levels are
    mutually independent, so joint quantities are computed by products.
    """

    n11: FadingPmf
    n12: FadingPmf
    n21: FadingPmf
    n22: FadingPmf

    def __post_init__(self):
        qs = {self.n11.q, self.n12.q, self.n21.q, self.n22.q}
        if len(qs) != 1:
            raise ValueError(f"all four links must share q, got q values {sorted(qs)}")

    @property
    def q(self) -> int:
        return self.n11.q

    def links(self) -> dict:
        return {"n11": self.n11, "n12": self.n12, "n21": self.n21, "n22": self.n22}


@dataclass(frozen=True)
class LayerCoefficients:
    """Per-layer coefficients of the weighted bounds, plus the tail tables.

    For user 1 and layer l (vectors indexed by l-1):

        alpha1(l) = P(N21 >= l) - P(N21 - N11 >= l)
        beta1(l)  = [P(N22 >= l) - P(N21 - N11 >= l)]^+
        gamma1(l) = [P(N22 - N12 >= l) - P(N21 - N11 >= l)]^+

    and user 2 by the swap n11<->n22, n12<->n21.  tails maps each link name
    to (P(N >= 1), ..., P(N >= q)); diff_tails holds the four difference
    tails "a-b" -> (P(N_a - N_b >= 1), ...).
    """

    alpha1: tuple
    beta1: tuple
    gamma1: tuple
    alpha2: tuple
    beta2: tuple
    gamma2: tuple
    tails: dict
    diff_tails: dict


def _same_q(a: FadingPmf, b: FadingPmf):
    if a.q != b.q:
        raise ValueError(f"pmfs must share q, got {a.q} and {b.q}")


def tail(pmf: FadingPmf, l: int) -> Fraction:
    """P(N >= l).  tail(., 0) = 1 and tail(., q+1) = 0 by convention."""
    if not 0 <= l <= pmf.q + 1:
        raise ValueError(f"l={l} outside {{0..{pmf.q + 1}}}")
    return pmf._tails[l]


@lru_cache(maxsize=8192)
def diff_tail(a: FadingPmf, b: FadingPmf, l: int) -> Fraction:
    """P(N_a - N_b >= l) for independent levels, 1 <= l <= q."""
    _same_q(a, b)
    if not 1 <= l <= a.q:
        raise ValueError(f"l={l} outside {{1..{a.q}}}")
    q = a.q
    return sum(
        (b.masses[m] * a._tails[min(l + m, q + 1)] for m in range(q + 1)),
        Fraction(0),
    )


def expect(pmf: FadingPmf) -> Fraction:
    """E[N], computed through the tail identity sum_l P(N >= l)."""
    return sum(pmf._tails[1:-1], Fraction(0))


def expect_pos_diff(a: FadingPmf, b: FadingPmf) -> Fraction:
    """E[(N_a - N_b)^+] for independent levels."""
    _same_q(a, b)
    return sum((diff_tail(a, b, l) for l in range(1, a.q + 1)), Fraction(0))


def expect_max(a: FadingPmf, b: FadingPmf) -> Fraction:
    """E[max(N_a, N_b)] for independent levels."""
    _same_q(a, b)
    return sum(
        (1 - (1 - tail(a, l)) * (1 - tail(b, l)) for l in range(1, a.q + 1)),
        Fraction(0),
    )


@lru_cache(maxsize=2048)
def pos_diff_pmf(a: FadingPmf, b: FadingPmf) -> FadingPmf:
    """Distribution of (N_a - N_b)^+ for independent levels, again on {0..q}."""
    _same_q(a, b)
    q = a.q
    masses = [Fraction(0)] * (q + 1)
    for m in range(q + 1):
        if b.masses[m] == 0:
            continue
        for n in range(q + 1):
            masses[max(n - m, 0)] += b.masses[m] * a.masses[n]
    return FadingPmf(masses)


def _user_coefficients(own_direct, own_cross, in_cross, other_direct):
    # own_cross is this user's signal at the other receiver; in_cross is the
    # interference arriving at this user's receiver.
    q = own_direct.q
    alpha, beta, gamma = [], [], []
    for l in range(1, q + 1):
        clear = diff_tail(in_cross, own_direct, l)
        alpha.append(tail(in_cross, l) - clear)
        beta.append(_pos(tail(other_direct, l) - clear))
        gamma.append(_pos(diff_tail(other_direct, own_cross, l) - clear))
    return tuple(alpha), tuple(beta), tuple(gamma)


@lru_cache(maxsize=4096)
def layer_coefficients(spec: ChannelSpec) -> LayerCoefficients:
    """All six coefficient vectors and the tail tables they are built from."""
    a1, b1, g1 = _user_coefficients(spec.n11, spec.n12, spec.n21, spec.n22)
    a2, b2, g2 = _user_coefficients(spec.n22, spec.n21, spec.n12, spec.n11)
    q = spec.q
    tails = {
        name: tuple(tail(pmf, l) for l in range(1, q + 1))
        for name, pmf in spec.links().items()
    }
    pairs = (("n11", "n21"), ("n21", "n11"), ("n22", "n12"), ("n12", "n22"))
    diff_tails = {
        f"{x}-{y}": tuple(
            diff_tail(spec.links()[x], spec.links()[y], l) for l in range(1, q + 1)
        )
        for x, y in pairs
    }
    return LayerCoefficients(
        alpha1=a1, beta1=b1, gamma1=g1,
        alpha2=a2, beta2=b2, gamma2=g2,
        tails=tails, diff_tails=diff_tails,
    )


def swap_users(spec: ChannelSpec) -> ChannelSpec:
    """Exchange the two users' roles (n11 <-> n22, n12 <-> n21); an involution."""
    return ChannelSpec(n11=spec.n22, n12=spec.n21, n21=spec.n12, n22=spec.n11)
