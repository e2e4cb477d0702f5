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
the integers field of layer_coefficients.  It holds every quantity the
bounds read as an integer numerator over that field's denominator D, the
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

and one Fraction is built per value.  A bound's half-plane puts its weights
and value over one denominator and is built from those integers.  A bound
costs O(log q) integer operations on numbers the size of r*D.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, cmp_to_key, lru_cache
from math import lcm
from typing import Optional

from .channel import ChannelSpec, as_fraction, layer_coefficients
from .geometry import HalfPlane, RegionPolytope, intersect

FAMILIES = ("1a", "1b", "1c", "2a", "2b", "2c")


def _check_user(user):
    if user not in (1, 2):
        raise ValueError(f"user must be 1 or 2, got {user!r}")


def _check_family(family):
    if family not in ("a", "b", "c"):
        raise ValueError(f"family must be 'a', 'b' or 'c', got {family!r}")


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
        # integers: a Fraction comparison costs several times as much, and a
        # dense grid builds tens of thousands of bounds
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
        return self._plane

    @cached_property
    def _plane(self) -> HalfPlane:
        # built once per bound: intersect and the active selection both read
        # it.  The three coefficients go over one denominator as integers,
        # which HalfPlane takes as they are
        omega, mu, value = self.omega, self.mu or 0, self.value
        den = lcm(omega.denominator, mu.denominator, value.denominator)
        own = den + mu.numerator * (den // mu.denominator)
        cross = omega.numerator * (den // omega.denominator)
        rhs = value.numerator * (den // value.denominator)
        if self.family[0] == "1":
            return HalfPlane(own, cross, rhs)
        return HalfPlane(cross, own, rhs)


class _Sweep:
    """Layers with den > 0 sorted by num/den, with prefix sums of den and num.

    num and den are integer numerators over the kernel's denominator, so a
    key is the pair (num, den) and keys are compared by cross-multiplying.
    """

    __slots__ = ("keys", "dens", "nums")

    def __init__(self, nums, dens):
        self.keys = sorted(((n, d) for n, d in zip(nums, dens) if d > 0),
                           key=cmp_to_key(lambda x, y: x[0] * y[1] - y[0] * x[1]))
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

    def ratios(self) -> set:
        """{0, 1} plus every key in [0, 1]: the kinks inside the weight range."""
        return {Fraction(0), Fraction(1), *(Fraction(n, d) for n, d in self.keys if n <= d)}


def _over_one_denominator(omega: Fraction, mu: Fraction) -> tuple:
    """(p, m, r) with omega = p/r and mu = m/r."""
    r = lcm(omega.denominator, mu.denominator)
    return omega.numerator * (r // omega.denominator), mu.numerator * (r // mu.denominator), r


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
    den, ints = layer_coefficients(spec).integers
    n11, n12, n21 = _FRAMES[user]
    t12 = ints[n12]
    return BoundKernel(den, ints[n11], ints[n21], t12, ints[f"{n21}-{n11}"],
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
    p, m, r = _over_one_denominator(omega, _check_mu(omega, mu))
    return Fraction(kernel.c(p, m, r), r * kernel.den)


def critical_weights(spec: ChannelSpec, user, family):
    """Finite weight set whose half-planes already carve the family's region.

    Families a and b return a sorted tuple of omegas, family c a sorted tuple
    of (omega, mu) pairs.  Between adjacent kinks each bound is affine in its
    weights, so the constraint continuum there is implied by the kink
    constraints; ratio kinks above 1 fall outside the weight range and are
    dropped.
    """
    _check_user(user)
    _check_family(family)
    kernel = bound_kernel(spec, user)
    if family == "a":
        return tuple(sorted(kernel.beta.ratios()))
    if family == "b":
        return tuple(sorted(kernel.gamma.ratios()))
    # family c: omega kinks as in family b, mu kinks along rays mu = r*omega;
    # all cell corners of that subdivision of {0 <= mu <= omega <= 1} are
    # products of an omega kink with a ray slope
    omegas = kernel.gamma.ratios()
    slopes = kernel.top.ratios()
    return tuple(sorted({(om, r * om) for om in omegas for r in slopes}))


def family_bounds(spec: ChannelSpec, user, family) -> list:
    """WeightedBounds of one family at its critical weights, omega ascending."""
    weights = critical_weights(spec, user, family)
    kernel = bound_kernel(spec, user)
    tag = f"{user}{family}"
    if family == "c":
        out = []
        for om, mu in weights:
            p, m, r = _over_one_denominator(om, mu)
            out.append(WeightedBound(tag, om, mu, Fraction(kernel.c(p, m, r), r * kernel.den)))
        return out
    evaluate, den = (kernel.a if family == "a" else kernel.b), kernel.den
    return [
        WeightedBound(tag, om, None,
                      Fraction(evaluate(om.numerator, om.denominator), om.denominator * den))
        for om in weights
    ]


def family_region(spec: ChannelSpec, user, family) -> RegionPolytope:
    """Region cut out by a single family over all of its weights."""
    return intersect([wb.halfplane() for wb in family_bounds(spec, user, family)])


def outer_halfplanes(spec: ChannelSpec) -> list:
    """All six families' bounds at their critical weights, in family order."""
    out = []
    for user in (1, 2):
        for family in ("a", "b", "c"):
            out.extend(family_bounds(spec, user, family))
    return out


def outer_region(spec: ChannelSpec) -> RegionPolytope:
    """The full outer bound: intersection of every family's half-planes."""
    return intersect([wb.halfplane() for wb in outer_halfplanes(spec)])


def grid_bounds(spec: ChannelSpec, steps: int) -> list:
    """Dense-grid fallback: every family at omega = k/steps, mu = j/steps <= omega."""
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    weights = [Fraction(k, steps) for k in range(steps + 1)]
    out = []
    for user in (1, 2):
        kernel = bound_kernel(spec, user)
        den = steps * kernel.den  # every value's denominator over the grid
        for tag, evaluate in ((f"{user}a", kernel.a), (f"{user}b", kernel.b)):
            out += [WeightedBound(tag, om, None, Fraction(evaluate(k, steps), den))
                    for k, om in enumerate(weights)]
        tag, c = f"{user}c", kernel.c
        out += [WeightedBound(tag, om, weights[j], Fraction(c(k, j, steps), den))
                for k, om in enumerate(weights) for j in range(k + 1)]
    return out


def active_bounds(bounds, region: RegionPolytope) -> list:
    """Bounds whose half-planes support the region along an edge.

    The bounds' half-planes must hold on the region, as they do for a region
    intersected from them.  With 3 or more vertices such a plane is tight at
    two vertices exactly when it is the line of an edge between the axes (one
    along an axis would pin a rate), so the bounds are looked up in the set
    of those edge lines.  Identical half-planes keep only the first
    occurrence, so the family order of outer_halfplanes decides the reported
    provenance.  Degenerate regions (< 3 vertices) only require tightness at
    one vertex.
    """
    v = region.vertices
    if len(v) >= 3:
        supports = {HalfPlane(y2 - y1, x1 - x2, x1 * y2 - x2 * y1)
                    for (x1, y1), (x2, y2) in zip(v[1:], v[2:])}.__contains__
    else:
        def supports(plane):
            return any(plane.tight(p) for p in v)
    seen = set()
    out = []
    for wb in bounds:
        plane = wb.halfplane()
        if plane in seen:
            continue
        seen.add(plane)
        if supports(plane):
            out.append(wb)
    return out
