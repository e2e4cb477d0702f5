"""The six weighted-bound families and their critical weights.

Each user k has three families of weighted rate bounds.  For user 1 with
weight omega in [0, 1] (user 2 mirrors R1 and R2):

    a:  R1 + omega*R2 <= E[N11] + omega*E[(N21-N11)^+]
                         + sum_l [omega*beta1(l) - alpha1(l)]^+
    b:  R1 + omega*R2 <= (1-omega)*E[N11] + omega*E[N21]
                         + sum_l [omega*gamma1(l) - alpha1(l)]^+
                         + omega * sum_l max(P(N11-N21 >= l), P(N12 >= l))
    c:  (1+mu)*R1 + omega*R2 <= E[N11] + omega*E[(N21-N11)^+]
                         + sum_l [omega*gamma1(l) - alpha1(l)]^+
                         + sum_l max(mu*P(N11 >= l), omega*P(N12 >= l))
        for 0 <= mu <= omega.

Every family is piecewise-linear in its weights, so intersecting the
half-planes at the finitely many kink weights already yields the full
region; that critical-weight enumeration is the primary mode, with a dense
weight grid available as a cross-checking fallback.

Evaluation goes through one BoundKernel per (spec, user), built once from
the integer vectors of layer_coefficients.  It holds every quantity the
bounds read as an integer numerator over their denominator D, the
coefficients' own M = lcm(L11*L21, L22*L12), with no second lcm taken here.
Since alpha(l) >= 0, a kink sum is

    sum_l [omega*g(l) - alpha(l)]^+ = omega*G(omega) - A(omega),

G and A summing g and alpha over the layers with g(l) > 0 and
alpha(l)/g(l) < omega; likewise, for omega > 0,

    sum_l max(mu*P(N11 >= l), omega*P(N12 >= l)) = mu*X(mu/omega)
                                  + omega*(E[N12] - Y(mu/omega)),

X and Y summing P(N11 >= l) and P(N12 >= l) over the layers with
P(N12 >= l) < (mu/omega)*P(N11 >= l).  Each sweep keeps its layers sorted
by ratio, as integer pairs (num, den) with integer prefix sums, and finds
the layers below a weight p/r by bisection on the cross-multiplied test
num*r < p*den.  With omega = p/r and mu = m/r over one denominator r, a
bound is then one integer expression over r*D, for example

    r*D * c(p/r, m/r) = r*(E11 - A) + p*(LIFT + G) + m*X + p*(E12 - Y),

and a bound costs O(log q) integer operations on numbers the size of r*D.

The critical weights are integer triples (p, m, r) read off the sweeps'
sorted keys, and they and the grid's weights emit their bounds as
BoundRows: the half-plane of each, ((r+m)*D, p*D, r*D*bound) for user 1,
read off those numerators with no Fraction and no gcd, and intersect takes
the rows as they are.  A WeightedBound, with its Fraction weights, value
and reduced half-plane, is built only for a row that is read: by
active_bounds for the constraints it reports, or by outer_halfplanes and
grid_bounds for every row.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Optional

from .channel import ChannelSpec, as_fraction, layer_coefficients
from .geometry import HalfPlane, RegionPolytope, Row, active_planes, intersect, ratio_order

FAMILIES = ("1a", "1b", "1c", "2a", "2b", "2c")


def _check_user(user):
    if user not in (1, 2):
        raise ValueError(f"user must be 1 or 2, got {user!r}")


def _check_family(family):
    if family not in ("a", "b", "c"):
        raise ValueError(f"family must be 'a', 'b' or 'c', got {family!r}")


def _family_tag(user, family) -> str:
    _check_user(user)
    _check_family(family)
    return f"{user}{family}"


def _check_omega(omega) -> Fraction:
    omega = as_fraction(omega)
    if not 0 <= omega <= 1:
        raise ValueError(f"omega must lie in [0, 1], got {omega}")
    return omega


def _check_mu(omega: Fraction, mu) -> Fraction:
    """mu as a Fraction in [0, omega], for an omega that passed _check_omega."""
    if mu is None or not 0 <= as_fraction(mu) <= omega:
        raise ValueError(f"mu must lie in [0, omega], got mu={mu}, omega={omega}")
    return as_fraction(mu)


@dataclass(frozen=True)
class WeightedBound:
    """One evaluated bound: family tag, weights and right-hand side.

    Families 1a/1b induce R1 + omega*R2 <= value, family 1c induces
    (1+mu)*R1 + omega*R2 <= value; the 2-families mirror R1 and R2.
    """

    family: str
    omega: Fraction
    mu: Optional[Fraction]
    value: Fraction

    def __post_init__(self):
        # the range checks compare numerators and (positive) denominators as
        # integers: a Fraction comparison costs several times as much, and
        # grid_bounds at 256 steps builds 67,334 bounds
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        p, r = self.omega.numerator, self.omega.denominator
        if not 0 <= p <= r:
            raise ValueError(f"omega must lie in [0, 1], got {self.omega}")
        mu = self.mu
        if self.family.endswith("c"):
            if mu is None or not 0 <= mu.numerator * r <= p * mu.denominator:
                raise ValueError(f"c-family needs mu in [0, omega], got {mu}")
        elif mu is not None:
            raise ValueError("mu only applies to c-families")
        if self.value.numerator < 0:
            raise ValueError(f"bound value must be nonnegative, got {self.value}")

    def halfplane(self) -> HalfPlane:
        """The bound's reduced half-plane, built on the first call only."""
        plane = self.__dict__.get("_halfplane")
        if plane is None:
            own, cross = 1 + (self.mu or 0), self.omega
            mirror = self.family[0] == "2"
            plane = HalfPlane(*((cross, own) if mirror else (own, cross)), self.value)
            object.__setattr__(self, "_halfplane", plane)
        return plane


class _Sweep:
    """Layers with den > 0 sorted by num/den, with prefix sums of den and num.

    num and den are integer numerators over the kernel's denominator, so a
    key is the pair (num, den) and keys are compared by cross-multiplying.
    """

    __slots__ = ("keys", "dens", "nums")

    def __init__(self, nums, dens):
        pairs = [(n, d) for n, d in zip(nums, dens) if d > 0]
        self.keys = [pairs[i] for i in ratio_order(pairs)[0]]
        self.dens, self.nums = [0], [0]
        for n, d in self.keys:
            self.dens.append(self.dens[-1] + d)
            self.nums.append(self.nums[-1] + n)

    def below(self, p, r) -> int:
        """How many keys are < p/r, for r > 0; none for p = r = 0."""
        keys = self.keys
        lo, hi = 0, len(keys)
        while lo < hi:
            mid = (lo + hi) // 2
            n, d = keys[mid]
            if n * r < p * d:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def kinks(self) -> list:
        """The kinks inside the weight range, ascending, as reduced pairs:
        (0, 1), each distinct key ratio in (0, 1), then (1, 1)."""
        out, last = [(0, 1)], (0, 1)
        for n, d in self.keys:
            if n >= d:
                break
            if n * last[1] != last[0] * d:  # keys ascend: new iff unequal to the last
                last, g = (n, d), gcd(n, d)
                out.append((n // g, d // g))
        return out + [(1, 1)]


class BoundKernel:
    """One user's three bound families as integers over one denominator D.

    For user 2 the links are renamed n11<->n22, n12<->n21 first.  The sweeps
    are alpha/beta (a-family kinks), alpha/gamma (b- and c-family kinks) and
    P(N12 >= l)/P(N11 >= l) (the c-family top term).  Between two kinks of
    its sweep a bound is affine in omega: with the layers below omega = p/r
    counted by the sweep, r*D times the a- or b-bound is r*const + p*slope
    for the (const, slope) that _a or _b holds at that count; _c and _top
    do the same for the c-family's two sums.  The methods return integer
    numerators over r*D; only this module turns them into Fractions.
    """

    __slots__ = ("den", "beta", "gamma", "top", "_a", "_b", "_c", "_top")

    def __init__(self, den, t11, t21, t12, clear, cross, alpha, beta, gamma):
        # t11, t21, t12: tails; clear: P(N21 - N11 >= l); cross:
        # max(P(N11 - N21 >= l), P(N12 >= l)); all numerators over den
        e11, e21, e12, lift = sum(t11), sum(t21), sum(t12), sum(clear)
        self.den = den
        self.beta = _Sweep(alpha, beta)
        self.gamma = _Sweep(alpha, gamma)
        self.top = _Sweep(t12, t11)
        b_slope = e21 + sum(cross) - e11
        self._a = [(e11 - n, lift + d) for n, d in zip(self.beta.nums, self.beta.dens)]
        self._b = [(e11 - n, b_slope + d) for n, d in zip(self.gamma.nums, self.gamma.dens)]
        self._c = [(e11 - n, lift + d) for n, d in zip(self.gamma.nums, self.gamma.dens)]
        # top term mu*X + omega*(E12 - Y): (X, E12 - Y) per piece
        self._top = [(x, e12 - y) for x, y in zip(self.top.dens, self.top.nums)]

    def a(self, p, r) -> int:
        """r*D times the a-family bound at omega = p/r."""
        const, slope = self._a[self.beta.below(p, r)]
        return r * const + p * slope

    def b(self, p, r) -> int:
        """r*D times the b-family bound at omega = p/r."""
        const, slope = self._b[self.gamma.below(p, r)]
        return r * const + p * slope

    def c(self, p, m, r) -> int:
        """r*D times the c-family bound at omega = p/r, mu = m/r <= omega."""
        const, slope = self._c[self.gamma.below(p, r)]
        own, rest = self._top[self.top.below(m, p)]
        return r * const + p * (slope + rest) + m * own


# link names of (N11, N12, N21) in each user's frame
_FRAMES = {1: ("n11", "n12", "n21"), 2: ("n22", "n21", "n12")}


@lru_cache(maxsize=4096)
def bound_kernel(spec: ChannelSpec, user) -> BoundKernel:
    """The per-(spec, user) tables every bound of that user is evaluated from."""
    _check_user(user)
    co = layer_coefficients(spec)
    ints, (n11, n12, n21) = co.ints, _FRAMES[user]
    t12 = ints[n12]
    return BoundKernel(co.den, ints[n11], ints[n21], t12, ints[f"{n21}-{n11}"],
                       tuple(map(max, ints[f"{n11}-{n21}"], t12)),
                       *(ints[f"{name}{user}"] for name in ("alpha", "beta", "gamma")))


def bound_a(spec: ChannelSpec, user, omega) -> Fraction:
    """Right-hand side of the a-family bound at weight omega."""
    kernel = bound_kernel(spec, user)
    p, r = _check_omega(omega).as_integer_ratio()
    return Fraction(kernel.a(p, r), r * kernel.den)


def bound_b(spec: ChannelSpec, user, omega) -> Fraction:
    """Right-hand side of the b-family bound at weight omega."""
    kernel = bound_kernel(spec, user)
    p, r = _check_omega(omega).as_integer_ratio()
    return Fraction(kernel.b(p, r), r * kernel.den)


def bound_c(spec: ChannelSpec, user, omega, mu) -> Fraction:
    """Right-hand side of the c-family bound at weights (omega, mu), mu <= omega."""
    kernel = bound_kernel(spec, user)
    omega = _check_omega(omega)
    (p, r), (m, s) = omega.as_integer_ratio(), _check_mu(omega, mu).as_integer_ratio()
    t = lcm(r, s)
    return Fraction(kernel.c(p * (t // r), m * (t // s), t), t * kernel.den)


def _kink_weights(kernel: BoundKernel, family) -> list:
    """critical_weights as integer triples (p, m, r), omega = p/r and
    mu = m/r (m = 0 outside family c), in ascending (omega, mu) order."""
    if family != "c":
        sweep = kernel.beta if family == "a" else kernel.gamma
        return [(n, 0, d) for n, d in sweep.kinks()]
    # omega kinks as in family b, mu kinks along rays mu = s*omega: all cell
    # corners of that subdivision of {0 <= mu <= omega <= 1} are products of
    # an omega kink with a ray slope, and omega = 0 has the one corner (0, 0)
    slopes = kernel.top.kinks()
    out = [(0, 0, 1)]
    for p, r in kernel.gamma.kinks()[1:]:
        out += [(p * d, p * n, r * d) for n, d in slopes]
    return out


def critical_weights(spec: ChannelSpec, user, family):
    """Finite weight set whose half-planes already carve the family's region.

    Families a and b return a sorted tuple of omegas, family c a sorted tuple
    of (omega, mu) pairs.  Between adjacent kinks each bound is affine in its
    weights, so the constraint continuum there is implied by the kink
    constraints; ratio kinks above 1 fall outside the weight range and are
    dropped.
    """
    _family_tag(user, family)
    weights = _kink_weights(bound_kernel(spec, user), family)
    if family == "c":
        return tuple((Fraction(p, r), Fraction(m, r)) for p, m, r in weights)
    return tuple(Fraction(p, r) for p, _, r in weights)


class BoundRows(Sequence):
    """Bounds as Rows of their half-planes, for intersect; item i is the
    WeightedBound of row i, built when it is read."""

    __slots__ = ("rows", "_tags")

    def __init__(self):
        self.rows = []  # Rows, for intersect
        self._tags = []  # (family, D, p, m, r) per row

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, i) -> WeightedBound:
        family, den, p, m, r = self._tags[i]
        mu = Fraction(m, r) if family[1] == "c" else None
        return WeightedBound(family, Fraction(p, r), mu, Fraction(self.rows[i][2], r * den))

    def extend(self, spec: ChannelSpec, tag: str, weights):
        """Add family tag's rows at weights (p, m, r), where omega = p/r and
        mu = m/r, and m = 0 outside the c-families."""
        kernel = bound_kernel(spec, int(tag[0]))
        den = kernel.den
        if tag[1] == "c":
            values = [kernel.c(p, m, r) for p, m, r in weights]
        else:
            evaluate = kernel.a if tag[1] == "a" else kernel.b
            values = [evaluate(p, r) for p, _, r in weights]
        rows, tags, mirror = self.rows, self._tags, tag[0] == "2"
        for (p, m, r), value in zip(weights, values):
            # r*D > 0 makes (a, b) != (0, 0)
            if value < 0 or not 0 <= m <= p <= r:
                raise ValueError(f"bound {tag} at omega={p}/{r}, mu={m}/{r}: needs a value "
                                 f">= 0, got {Fraction(value, r * den)}, and 0 <= mu <= omega <= 1")
            own, cross = (r + m) * den, p * den
            rows.append(Row((cross, own, value) if mirror else (own, cross, value)))
            tags.append((tag, den, p, m, r))


def outer_rows(spec: ChannelSpec, families=FAMILIES) -> BoundRows:
    """Bounds of the given families at their critical weights, in the
    order given, omega ascending within a family."""
    out = BoundRows()
    for tag in families:
        if tag not in FAMILIES:
            raise ValueError(f"unknown family {tag!r}")
        out.extend(spec, tag, _kink_weights(bound_kernel(spec, int(tag[0])), tag[1]))
    return out


def grid_rows(spec: ChannelSpec, steps: int) -> BoundRows:
    """Dense-grid fallback: every family at omega = k/steps, mu = j/steps <= omega."""
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    line = [(k, 0, steps) for k in range(steps + 1)]
    fan = [(k, j, steps) for k in range(steps + 1) for j in range(k + 1)]
    out = BoundRows()
    for user in (1, 2):
        for family, weights in (("a", line), ("b", line), ("c", fan)):
            out.extend(spec, f"{user}{family}", weights)
    return out


def family_region(spec: ChannelSpec, user, family) -> RegionPolytope:
    """Region cut out by a single family over all of its weights."""
    return intersect(outer_rows(spec, (_family_tag(user, family),)).rows)


def outer_halfplanes(spec: ChannelSpec) -> list:
    """All six families' bounds at their critical weights, in family order."""
    return list(outer_rows(spec))


def outer_region(spec: ChannelSpec) -> RegionPolytope:
    """The full outer bound: intersection of every family's half-planes."""
    return intersect(outer_rows(spec).rows)


def grid_bounds(spec: ChannelSpec, steps: int) -> list:
    """Dense-grid fallback: every family at omega = k/steps, mu = j/steps <= omega."""
    return list(grid_rows(spec, steps))


def active_bounds(bounds, region: RegionPolytope) -> list:
    """Bounds whose half-planes support the region along an edge.

    The region must be intersect's result on the bounds' half-planes or
    rows, in the bounds' order; it records which of those planes are active
    (active_planes), and only those bounds are read.  Identical half-planes
    keep only the first occurrence, so the family order of outer_halfplanes
    decides the reported provenance.  Degenerate regions (< 3 vertices)
    only require tightness at one vertex.  Raises ValueError when a
    reported bound's half-plane is not the plane the region recorded.
    """
    out = []
    for i, (a, b, c) in active_planes(region, len(bounds)):
        wb = bounds[i]
        p = wb.halfplane()
        # the recorded row is a positive multiple of the plane iff every
        # 2x2 minor vanishes: both have a, b >= 0, not both zero
        if a * p.b != b * p.a or a * p.c != c * p.a or b * p.c != c * p.b:
            raise ValueError("the region was not intersected from these bounds")
        out.append(wb)
    return out
