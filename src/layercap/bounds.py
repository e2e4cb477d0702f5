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
layer_coefficients in O(q log q) after the O(q^2) coefficient setup.  Since
alpha(l) >= 0, a kink sum is

    sum_l [omega*g(l) - alpha(l)]^+ = omega*G(omega) - A(omega),

G and A summing g and alpha over the layers with g(l) > 0 and
alpha(l)/g(l) < omega; likewise, for omega > 0,

    sum_l max(mu*P(N11 >= l), omega*P(N12 >= l)) = mu*X(mu/omega)
                                  + omega*(sum_l P(N12 >= l) - Y(mu/omega)),

X and Y summing P(N11 >= l) and P(N12 >= l) over the layers with
P(N12 >= l) < (mu/omega)*P(N11 >= l).  Layers sorted by their ratio with
prefix sums turn each of these into one bisection, so a bound costs
O(log q) exact operations.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Optional

from .channel import ChannelSpec, as_fraction, layer_coefficients
from .geometry import HalfPlane, RegionPolytope, intersect

FAMILIES = ("1a", "1b", "1c", "2a", "2b", "2c")


def _check_user(user):
    if user not in (1, 2):
        raise ValueError(f"user must be 1 or 2, got {user!r}")


def _check_omega(omega) -> Fraction:
    omega = as_fraction(omega)
    if not 0 <= omega <= 1:
        raise ValueError(f"omega must lie in [0, 1], got {omega}")
    return omega


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
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if not 0 <= self.omega <= 1:
            raise ValueError(f"omega must lie in [0, 1], got {self.omega}")
        if self.family.endswith("c"):
            if self.mu is None or not 0 <= self.mu <= self.omega:
                raise ValueError(f"c-family needs mu in [0, omega], got {self.mu}")
        elif self.mu is not None:
            raise ValueError("mu only applies to c-families")
        if self.value < 0:
            raise ValueError(f"bound value must be nonnegative, got {self.value}")

    def halfplane(self) -> HalfPlane:
        return self._plane

    @cached_property
    def _plane(self) -> HalfPlane:
        # built once per bound: intersect and the active selection both read it
        own = 1 if self.mu is None else 1 + self.mu
        if self.family[0] == "1":
            return HalfPlane(own, self.omega, self.value)
        return HalfPlane(self.omega, own, self.value)


class _Sweep:
    """Layers with den > 0 sorted by num/den, with prefix sums of den and num."""

    __slots__ = ("keys", "dens", "nums")

    def __init__(self, nums, dens):
        rows = sorted(((n / d, d, n) for n, d in zip(nums, dens) if d > 0),
                      key=lambda row: row[0])
        self.keys = [key for key, _, _ in rows]
        self.dens = [Fraction(0)]
        self.nums = [Fraction(0)]
        for _, d, n in rows:
            self.dens.append(self.dens[-1] + d)
            self.nums.append(self.nums[-1] + n)

    def below(self, x) -> tuple:
        """(sum of den, sum of num) over the layers whose key is < x."""
        i = bisect_left(self.keys, x)
        return self.dens[i], self.nums[i]

    def kinks(self, omega) -> Fraction:
        """sum_l [omega*den(l) - num(l)]^+, given num >= 0."""
        dens, nums = self.below(omega)
        return omega * dens - nums

    def ratios(self) -> set:
        """{0, 1} plus every key in [0, 1]: the kinks inside the weight range."""
        return {Fraction(0), Fraction(1), *self.keys[:bisect_right(self.keys, 1)]}


@dataclass(frozen=True)
class BoundKernel:
    """Everything one user's three bound families need, in that user's frame.

    For user 2 the links are renamed n11<->n22, n12<->n21 first.  The sweeps
    are alpha/beta (a-family kinks), alpha/gamma (b- and c-family kinks) and
    P(N12 >= l)/P(N11 >= l) (the c-family top term).
    """

    e11: Fraction    # E[N11]
    e21: Fraction    # E[N21]
    e12: Fraction    # E[N12] = sum_l P(N12 >= l)
    lift: Fraction   # E[(N21-N11)^+]
    cross: Fraction  # sum_l max(P(N11-N21 >= l), P(N12 >= l))
    alpha_sum: Fraction
    beta: _Sweep
    gamma: _Sweep
    top: _Sweep

    def a(self, omega) -> Fraction:
        return self.e11 + omega * self.lift + self.beta.kinks(omega)

    def b(self, omega) -> Fraction:
        return ((1 - omega) * self.e11 + omega * self.e21
                + self.gamma.kinks(omega) + omega * self.cross)

    def c(self, omega, mu) -> Fraction:
        return self.e11 + omega * self.lift + self.gamma.kinks(omega) + self.top_sum(omega, mu)

    def top_sum(self, omega, mu) -> Fraction:
        """sum_l max(mu*P(N11 >= l), omega*P(N12 >= l)) for 0 <= mu <= omega."""
        if omega == 0:
            return Fraction(0)
        own, cross = self.top.below(mu / omega)
        return mu * own + omega * (self.e12 - cross)


# link names of (N11, N12, N21) in each user's frame
_FRAMES = {1: ("n11", "n12", "n21"), 2: ("n22", "n21", "n12")}


@lru_cache(maxsize=4096)
def bound_kernel(spec: ChannelSpec, user) -> BoundKernel:
    """The per-(spec, user) tables every bound of that user is evaluated from."""
    _check_user(user)
    co = layer_coefficients(spec)
    n11, n12, n21 = _FRAMES[user]
    alpha, beta, gamma = (
        (co.alpha1, co.beta1, co.gamma1) if user == 1
        else (co.alpha2, co.beta2, co.gamma2)
    )
    t11, t12 = co.tails[n11], co.tails[n12]
    zero = Fraction(0)
    return BoundKernel(
        e11=sum(t11, zero),
        e21=sum(co.tails[n21], zero),
        e12=sum(t12, zero),
        lift=sum(co.diff_tails[f"{n21}-{n11}"], zero),
        cross=sum(map(max, co.diff_tails[f"{n11}-{n21}"], t12), zero),
        alpha_sum=sum(alpha, zero),
        beta=_Sweep(alpha, beta),
        gamma=_Sweep(alpha, gamma),
        top=_Sweep(t12, t11),
    )


def bound_a(spec: ChannelSpec, user, omega) -> Fraction:
    """Right-hand side of the a-family bound at weight omega."""
    kernel = bound_kernel(spec, user)
    return kernel.a(_check_omega(omega))


def bound_b(spec: ChannelSpec, user, omega) -> Fraction:
    """Right-hand side of the b-family bound at weight omega."""
    kernel = bound_kernel(spec, user)
    return kernel.b(_check_omega(omega))


def bound_c(spec: ChannelSpec, user, omega, mu) -> Fraction:
    """Right-hand side of the c-family bound at weights (omega, mu), mu <= omega."""
    kernel = bound_kernel(spec, user)
    omega = _check_omega(omega)
    mu = as_fraction(mu)
    if not 0 <= mu <= omega:
        raise ValueError(f"mu must lie in [0, omega], got mu={mu}, omega={omega}")
    return kernel.c(omega, mu)


def critical_weights(spec: ChannelSpec, user, family):
    """Finite weight set whose half-planes already carve the family's region.

    Families a and b return a sorted tuple of omegas, family c a sorted tuple
    of (omega, mu) pairs.  Between adjacent kinks each bound is affine in its
    weights, so the constraint continuum there is implied by the kink
    constraints; ratio kinks above 1 fall outside the weight range and are
    dropped.
    """
    _check_user(user)
    if family not in ("a", "b", "c"):
        raise ValueError(f"family must be 'a', 'b' or 'c', got {family!r}")
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
    tag = f"{user}{family}"
    if family == "a":
        return [
            WeightedBound(tag, om, None, bound_a(spec, user, om))
            for om in critical_weights(spec, user, "a")
        ]
    if family == "b":
        return [
            WeightedBound(tag, om, None, bound_b(spec, user, om))
            for om in critical_weights(spec, user, "b")
        ]
    return [
        WeightedBound(tag, om, mu, bound_c(spec, user, om, mu))
        for om, mu in critical_weights(spec, user, "c")
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
    out = []
    omegas = [Fraction(k, steps) for k in range(steps + 1)]
    for user in (1, 2):
        for om in omegas:
            out.append(WeightedBound(f"{user}a", om, None, bound_a(spec, user, om)))
        for om in omegas:
            out.append(WeightedBound(f"{user}b", om, None, bound_b(spec, user, om)))
        for k, om in enumerate(omegas):
            for j in range(k + 1):
                mu = Fraction(j, steps)
                out.append(WeightedBound(f"{user}c", om, mu, bound_c(spec, user, om, mu)))
    return out


def active_bounds(bounds, region: RegionPolytope) -> list:
    """Bounds whose half-planes support the region along an edge.

    The bounds' half-planes must hold on the region, as they do for a region
    intersected from them.  With 3 or more vertices such a plane is tight at
    two vertices exactly when it is the line of an edge, so the bounds are
    looked up in the set of edge lines.  Identical half-planes keep only the
    first occurrence, so the family order of outer_halfplanes decides the
    reported provenance.  Degenerate regions (< 3 vertices) only require
    tightness at one vertex.
    """
    v = region.vertices
    if len(v) >= 3:
        edges = set()
        for (x1, y1), (x2, y2) in zip(v, v[1:] + v[:1]):
            a, b = y2 - y1, x1 - x2
            if a >= 0 and b >= 0:  # else no HalfPlane: the two axis edges
                edges.add(HalfPlane(a, b, a * x1 + b * y1))
        supports = edges.__contains__
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
