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

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import attrgetter, mul


class _Record:
    """A frozen record of the fields its class names in __slots__.

    The constructor binds positional and keyword arguments to those fields
    in order and sets them; a missing, extra, repeated or unknown field
    raises TypeError.  A class that checks its arguments keeps its own
    __init__ and ends it in super().__init__(...) with the checked values.
    A subclass that declares no fields of its own keeps its base's.

    A record equals only a record of its own class with equal fields, and
    hashes, shows and pickles as its fields.  It refuses assignment and
    deletion.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        if cls.__dict__.get("__slots__"):
            cls._names = cls.__slots__
            cls._fields = attrgetter(*cls._names)  # record -> its field values
            # the slots' own setters, past the __setattr__ that refuses
            cls._puts = tuple(getattr(cls, name).__set__ for name in cls._names)

    def __init__(self, *values, **named):
        names = self._names
        if named and named.keys() == set(names[len(values):]):
            values += tuple(map(named.__getitem__, names[len(values):]))
        elif named or len(values) != len(names):
            raise TypeError(f"{type(self).__qualname__}() takes the fields {', '.join(names)}, "
                            f"got {len(values)} positional and {sorted(named)} by keyword")
        for put, value in zip(self._puts, values):
            put(self, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == self._fields(other)

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={value!r}" for name, value in
                          zip(self._names, self._fields(self)))
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        return type(self), self._fields(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def as_fraction(value) -> Fraction:
    """Convert to Fraction, rejecting floats (silent rounding is never wanted here)."""
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError(f"refusing float {value!r}; pass a string, int or Fraction")
    return Fraction(value)


def _digits(n: int) -> int:
    """The decimal digit count of n >= 1, with no int -> str conversion."""
    # 2^(b-1) <= n < 2^b puts floor(log10 n) at k or k - 1, k = floor(b log10 2)
    k = int(n.bit_length() * 0.30102999566398119521)
    return k + (n >= 10 ** k)


def _brief_ratio(num: int, den: int) -> str:
    """num/den (den > 0) for an error message: exact when short, else a
    short float and the digit count, so that a rational of any size prints
    in a few dozen characters and with no int -> str conversion."""
    r = Fraction(num, den)
    n, d = r.numerator, r.denominator
    if n.bit_length() + d.bit_length() <= 128:
        return str(r)
    dn, dd = _digits(abs(n)), _digits(d)
    try:
        value = f"{n / d:#.6g}"
    except OverflowError:
        value = f"about 1e+{dn - dd}"
    return f"{value} (a {dn + dd:,}-digit rational)"


class FadingPmf:
    """Exact pmf of a fading level on {0, ..., q}.

    masses[n] = P(N = n); q is implied by the length of the mass vector.
    Instances are immutable and hashable.  A pmf is held as its tail vector
    of integer numerators over den, the lcm of the reduced mass
    denominators: _int_tails[l] = den * P(N >= l) for l in 0..q+1.  The tails
    and their hash are computed once, so tail lookups and cache keys cost
    O(1); masses are built as Fractions on first read.
    """

    __slots__ = ("_den", "_int_tails", "_hash", "_masses")

    def __init__(self, masses):
        self._init_pairs([(m.numerator, m.denominator) for m in map(as_fraction, masses)])

    @classmethod
    def from_pairs(cls, pairs) -> "FadingPmf":
        """Build from a sequence of integer pairs (n, d), the mass n/d of
        each level in order; d > 0, and n/d need not be reduced."""
        pmf = cls.__new__(cls)
        pmf._init_pairs(pairs)
        return pmf

    def _init_pairs(self, pairs):
        # the one constructor: the masses over the lcm of their denominators,
        # their suffix sums, then the common factor divided out, which leaves
        # the lcm of the reduced denominators, so equal pmfs have equal tails
        if not pairs:
            raise ValueError("pmf needs at least the level-0 mass")
        dens = [d for _, d in pairs]
        if min(dens) < 1:
            raise ValueError("pmf mass denominators must be positive")
        den = lcm(*dens)
        int_tails = [0]
        for n, d in reversed(pairs):
            if n < 0:
                raise ValueError("pmf masses must be nonnegative")
            int_tails.append(int_tails[-1] + n * (den // d))
        int_tails.reverse()
        if int_tails[0] != den:
            raise ValueError(f"pmf masses must sum to 1, got {_brief_ratio(int_tails[0], den)}")
        g = gcd(*int_tails)
        self._den = den // g
        self._int_tails = tuple(t // g for t in int_tails)
        self._hash = hash(self._int_tails)
        self._masses = None

    @classmethod
    def point(cls, level: int, q: int) -> "FadingPmf":
        """Deterministic link: P(N = level) = 1."""
        if not 0 <= level <= q:
            raise ValueError(f"level {level} outside {{0..{q}}}")
        return cls.from_pairs([(int(n == level), 1) for n in range(q + 1)])

    @classmethod
    def bernoulli(cls, p) -> "FadingPmf":
        """Single-layer link: P(N = 1) = p, P(N = 0) = 1 - p."""
        p = as_fraction(p)
        return cls.from_pairs([(p.denominator - p.numerator, p.denominator),
                               (p.numerator, p.denominator)])

    @classmethod
    def uniform(cls, q: int) -> "FadingPmf":
        return cls.from_pairs([(1, q + 1)] * (q + 1))

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
        return len(self._int_tails) - 2

    @property
    def masses(self) -> tuple:
        if self._masses is None:
            t, den = self._int_tails, self._den
            self._masses = tuple(Fraction(t[n] - t[n + 1], den) for n in range(len(t) - 1))
        return self._masses

    def __eq__(self, other):
        if not isinstance(other, FadingPmf):
            return NotImplemented
        # the integer tails, den first, determine the masses and are
        # determined by them: mass equality with no Fraction comparison
        return self._int_tails == other._int_tails

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "FadingPmf([%s])" % ", ".join(str(m) for m in self.masses)


class ChannelSpec(_Record):
    """The four fading pmfs of a two-user channel, all sharing the same q.

    nAB is the link from transmitter A to receiver B: n11/n22 are the direct
    links, n12/n21 the cross (interference) links.  The four levels are
    mutually independent, so joint quantities are computed by products.
    """

    __slots__ = ("n11", "n12", "n21", "n22")

    def __init__(self, n11: FadingPmf, n12: FadingPmf, n21: FadingPmf, n22: FadingPmf):
        qs = {n11.q, n12.q, n21.q, n22.q}
        if len(qs) != 1:
            raise ValueError(f"all four links must share q, got q values {sorted(qs)}")
        super().__init__(n11, n12, n21, n22)

    @property
    def q(self) -> int:
        return self.n11.q

    def links(self) -> dict:
        return {"n11": self.n11, "n12": self.n12, "n21": self.n21, "n22": self.n22}


_COEFFICIENTS = ("alpha1", "beta1", "gamma1", "alpha2", "beta2", "gamma2")


def _fraction_view(key) -> property:
    return property(lambda self: tuple(Fraction(n, self.den) for n in self.ints[key]),
                    doc=f"{key} as a tuple of Fractions, built from ints on each read")


class LayerCoefficients(_Record):
    """Per-layer coefficients of the weighted bounds, plus the tail tables,
    as integer numerators over one positive denominator.

    For user 1 and layer l (vectors indexed by l-1):

        alpha1(l) = P(N21 >= l) - P(N21 - N11 >= l)
        beta1(l)  = [P(N22 >= l) - P(N21 - N11 >= l)]^+
        gamma1(l) = [P(N22 - N12 >= l) - P(N21 - N11 >= l)]^+

    and user 2 the same in its frame, FRAMES[2].  ints maps each coefficient
    name above to its vector, each link name to (P(N >= 1), ..., P(N >= q))
    and each difference key "a-b" to (P(N_a - N_b >= 1), ...), all as
    integer numerators over den.  alpha1 ... gamma2 read a coefficient
    vector as Fractions.
    """

    __slots__ = ("den", "ints")

    alpha1, beta1, gamma1, alpha2, beta2, gamma2 = map(_fraction_view, _COEFFICIENTS)


def _same_q(a: FadingPmf, b: FadingPmf):
    if a.q != b.q:
        raise ValueError(f"pmfs must share q, got {a.q} and {b.q}")


def dominates(a: FadingPmf, b: FadingPmf) -> bool:
    """True iff N_a is stochastically at least N_b: P(N_a >= l) >= P(N_b >= l)
    at every l, so the shared-uniform coupling makes N_b <= N_a pointwise."""
    _same_q(a, b)
    return all(x * b._den >= y * a._den for x, y in zip(a._int_tails, b._int_tails))


def tail(pmf: FadingPmf, l: int) -> Fraction:
    """P(N >= l).  tail(., 0) = 1 and tail(., q+1) = 0 by convention."""
    if not 0 <= l <= pmf.q + 1:
        raise ValueError(f"l={l} outside {{0..{pmf.q + 1}}}")
    return Fraction(pmf._int_tails[l], pmf._den)


@lru_cache(maxsize=8192)
def _diff_tails(a: FadingPmf, b: FadingPmf) -> tuple:
    """nums[l-1] = L_a*L_b * P(N_a - N_b >= l) for l = 1..q, as integers.

    P(N_a - N_b >= l) = sum_m P(N_b = m) P(N_a >= l+m), and with the masses
    and tails of both pmfs as integers over L_a and L_b, the lcms of their
    mass denominators, every term is an integer product.
    """
    _same_q(a, b)
    q = a.q
    at, bt = a._int_tails, b._int_tails
    bm = [bt[m] - bt[m + 1] for m in range(q + 1)]
    return tuple(sum(map(mul, bm, at[l:q + 1])) for l in range(1, q + 1))


def diff_tail(a: FadingPmf, b: FadingPmf, l: int) -> Fraction:
    """P(N_a - N_b >= l) for independent levels, 1 <= l <= q."""
    nums = _diff_tails(a, b)
    if not 1 <= l <= len(nums):
        raise ValueError(f"l={l} outside {{1..{len(nums)}}}")
    return Fraction(nums[l - 1], a._den * b._den)


def expect(pmf: FadingPmf) -> Fraction:
    """E[N], computed through the tail identity sum_l P(N >= l)."""
    return Fraction(sum(pmf._int_tails[1:-1]), pmf._den)


def expect_pos_diff(a: FadingPmf, b: FadingPmf) -> Fraction:
    """E[(N_a - N_b)^+] for independent levels."""
    _same_q(a, b)
    return Fraction(sum(_diff_tails(a, b)), a._den * b._den)


def expect_max(a: FadingPmf, b: FadingPmf) -> Fraction:
    """E[max(N_a, N_b)] = sum_l 1 - P(N_a < l) P(N_b < l) for independent levels."""
    _same_q(a, b)
    da, db = a._den, b._den
    return Fraction(sum(da * db - (da - x) * (db - y)
                        for x, y in zip(a._int_tails[1:-1], b._int_tails[1:-1])), da * db)


def pos_diff_pmf(a: FadingPmf, b: FadingPmf) -> FadingPmf:
    """Distribution of (N_a - N_b)^+ for independent levels, again on {0..q}."""
    _same_q(a, b)
    q = a.q
    at, bt = a._int_tails, b._int_tails
    # the mass convolution, on the mass numerators over L_a and L_b
    nums = [0] * (q + 1)
    for m in range(q + 1):
        bm = bt[m] - bt[m + 1]
        if bm:
            for n in range(q + 1):
                nums[max(n - m, 0)] += bm * (at[n] - at[n + 1])
    den = a._den * b._den
    return FadingPmf.from_pairs([(n, den) for n in nums])


_LINKS = ("n11", "n12", "n21", "n22")
# each user's (N11, N12, N21, N22) link names: user 2 is user 1 of the
# channel with n11 <-> n22 and n12 <-> n21 renamed, as swap_users builds it
FRAMES = {1: ("n11", "n12", "n21", "n22"), 2: ("n22", "n21", "n12", "n11")}
# the difference tails "x-y" that the coefficients of both users read
_PAIRS = tuple(p for n11, _, n21, _ in FRAMES.values() for p in ((n11, n21), (n21, n11)))


@lru_cache(maxsize=4096)
def layer_coefficients(spec: ChannelSpec) -> LayerCoefficients:
    """All six coefficient vectors and the tail tables they are built from.

    Everything is computed and kept as integers over the common denominator
    M = lcm(L11*L21, L22*L12), L the lcm of a link's mass denominators.
    """
    links = spec.links()
    dens = {name: pmf._den for name, pmf in links.items()}
    common = lcm(dens["n11"] * dens["n21"], dens["n22"] * dens["n12"])

    def scaled(nums, den):
        scale = common // den
        return tuple(n * scale for n in nums)

    ints = {name: scaled(pmf._int_tails[1:-1], dens[name]) for name, pmf in links.items()}
    ints.update({f"{x}-{y}": scaled(_diff_tails(links[x], links[y]), dens[x] * dens[y])
                 for x, y in _PAIRS})
    # alpha, beta, gamma as in the class docstring, in each user's frame
    for user, (n11, n12, n21, n22) in FRAMES.items():
        lift, free = ints[f"{n21}-{n11}"], ints[f"{n22}-{n12}"]
        ints[f"alpha{user}"] = tuple(x - c for x, c in zip(ints[n21], lift))
        ints[f"beta{user}"] = tuple(max(x - c, 0) for x, c in zip(ints[n22], lift))
        ints[f"gamma{user}"] = tuple(max(x - c, 0) for x, c in zip(free, lift))
    return LayerCoefficients(common, ints)


def swap_users(spec: ChannelSpec) -> ChannelSpec:
    """Exchange the two users' roles (n11 <-> n22, n12 <-> n21); an involution."""
    return ChannelSpec(n11=spec.n22, n12=spec.n21, n21=spec.n12, n22=spec.n11)
