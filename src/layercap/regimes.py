"""Interference-regime classification and the regions known to be tight.

Per layer l the three regime conditions compare tails of the cross links
against the direct links:

    strong:    P(N12 >= l) >= P(N11 >= l)      and  P(N21 >= l) >= P(N22 >= l)
    weak:      P(N11-N21 >= l) >= P(N12 >= l)  and  P(N22-N12 >= l) >= P(N21 >= l)
    moderate:  P(N11 >= l) > P(N12 >= l) > P(N11-N21 >= l)   (strict, both users)

A channel gets the regime label only when the condition holds at every
layer; anything else is "mixed" and keeps its per-layer diagnostics.  The
operations below gate on the per-layer flags rather than the label, so
channels sitting in an overlap (for example strong and weak at once) stay
usable with either toolset.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .channel import (
    ChannelSpec,
    as_fraction,
    expect,
    expect_max,
    expect_pos_diff,
    layer_coefficients,
    swap_users,
    tail,
)
from .bounds import (
    _check_family,
    _check_mu,
    _check_omega,
    _check_user,
    bound_b,
    critical_weights,
    outer_rows,
)
from .geometry import HalfPlane, RegionPolytope, intersect


@dataclass(frozen=True)
class RegimeReport:
    """Regime label plus the per-layer condition flags behind it.

    Tuples are indexed by l-1 for l in {1..q}; the _1/_2 suffix names the
    user whose cross link the condition constrains.  conjecture_precondition
    is true when no layer satisfies either strict moderate chain; that is
    the family of channels for which the outer bound is conjectured to be
    the exact capacity region.
    """

    regime: str
    strong_1: tuple
    strong_2: tuple
    weak_1: tuple
    weak_2: tuple
    moderate_1: tuple
    moderate_2: tuple
    conjecture_precondition: bool


@dataclass(frozen=True)
class CornerAllocation:
    """A sum-rate corner and the layer split that achieves it.

    private_layers collects the layers l with omega_A*gamma1(l) >= alpha1(l)
    (kept private and treated as noise at the other receiver); common_layers
    is the complement.  corner = (E[N11] - sum_private alpha1(l),
    E[(N21-N11)^+] + sum_private gamma1(l)).
    """

    omega_A: Fraction
    private_layers: frozenset
    common_layers: frozenset
    corner: tuple


def classify(spec: ChannelSpec) -> RegimeReport:
    """Evaluate all three per-layer condition pairs and label the regime."""
    # the integer vectors share one positive denominator, so they compare
    # as the probabilities do
    ints = layer_coefficients(spec).ints
    t11, t12, t21, t22 = ints["n11"], ints["n12"], ints["n21"], ints["n22"]
    d1121, d2212 = ints["n11-n21"], ints["n22-n12"]
    q = spec.q
    strong_1 = tuple(t12[i] >= t11[i] for i in range(q))
    strong_2 = tuple(t21[i] >= t22[i] for i in range(q))
    weak_1 = tuple(d1121[i] >= t12[i] for i in range(q))
    weak_2 = tuple(d2212[i] >= t21[i] for i in range(q))
    moderate_1 = tuple(t11[i] > t12[i] > d1121[i] for i in range(q))
    moderate_2 = tuple(t22[i] > t21[i] > d2212[i] for i in range(q))
    if all(strong_1) and all(strong_2):
        regime = "strong"
    elif all(weak_1) and all(weak_2):
        regime = "weak"
    elif all(moderate_1) and all(moderate_2):
        regime = "moderate"
    else:
        regime = "mixed"
    return RegimeReport(
        regime=regime,
        strong_1=strong_1, strong_2=strong_2,
        weak_1=weak_1, weak_2=weak_2,
        moderate_1=moderate_1, moderate_2=moderate_2,
        conjecture_precondition=not (any(moderate_1) or any(moderate_2)),
    )


def _require(spec: ChannelSpec, what: str):
    """Raise unless both users' per-layer `what` flags hold at every layer."""
    rep = classify(spec)
    if not (all(getattr(rep, f"{what}_1")) and all(getattr(rep, f"{what}_2"))):
        raise ValueError(f"channel is not stochastically {what} at every layer")


def strong_region(spec: ChannelSpec) -> RegionPolytope:
    """Capacity region under strong interference: a compound multiple-access region.

    Each receiver must decode both messages, so the region is the
    intersection of the two multiple-access regions and the sum rate is
    capped by the smaller of the two per-receiver sum rates.
    """
    _require(spec, "strong")
    sum_cap = min(expect_max(spec.n11, spec.n21), expect_max(spec.n22, spec.n12))
    return intersect([
        HalfPlane(1, 0, expect(spec.n11)),
        HalfPlane(0, 1, expect(spec.n22)),
        HalfPlane(1, 1, sum_cap),
    ])


def weak_region(spec: ChannelSpec) -> RegionPolytope:
    """Capacity region under weak interference: the two b-family regions meet."""
    _require(spec, "weak")
    rows = outer_rows(spec, ("1b", "2b"))
    return intersect(rows.rows, rows.den)


def weak_sum_capacity(spec: ChannelSpec) -> Fraction:
    """E[(N22-N12)^+] + E[(N11-N21)^+], the weak-regime sum capacity."""
    _require(spec, "weak")
    return expect_pos_diff(spec.n22, spec.n12) + expect_pos_diff(spec.n11, spec.n21)


def weak_corner(spec: ChannelSpec, omega_A) -> CornerAllocation:
    """Layer split and corner point on the omega_A-weighted face of user 1's b-region."""
    _require(spec, "weak")
    omega_A = as_fraction(omega_A)
    if not 0 < omega_A <= 1:
        raise ValueError(f"omega_A must lie in (0, 1], got {omega_A}")
    co = layer_coefficients(spec)
    alpha, gamma = co.alpha1, co.gamma1
    e11, lift = expect(spec.n11), expect_pos_diff(spec.n21, spec.n11)
    private = frozenset(
        l for l in range(1, spec.q + 1)
        if omega_A * gamma[l - 1] >= alpha[l - 1]
    )
    common = frozenset(range(1, spec.q + 1)) - private
    r1 = e11 - sum((alpha[l - 1] for l in private), Fraction(0))
    r2 = lift + sum((gamma[l - 1] for l in private), Fraction(0))
    # the split is chosen so the corner saturates the omega_A bound exactly;
    # anything else means the weak gating above let a bad channel through
    if r1 + omega_A * r2 != bound_b(spec, 1, omega_A):
        raise RuntimeError("corner allocation failed its tightness identity")
    # the corner cedes rate to user 2 only up to user 2's noise-tolerant rate
    if r2 > expect_pos_diff(spec.n22, spec.n12):
        raise RuntimeError("corner allocation exceeds the interference-as-noise rate")
    # the zero-weight corner (own expected rate, residual interference-free
    # rate for the peer) sits on the boundary of the b-region at every weight
    star = (e11, lift)
    for omega in critical_weights(spec, 1, "b"):
        if star[0] + omega * star[1] > bound_b(spec, 1, omega):
            raise RuntimeError("zero-weight corner left the b-region")
    return CornerAllocation(
        omega_A=omega_A, private_layers=private, common_layers=common, corner=(r1, r2)
    )


def moderate_bounds(spec: ChannelSpec, user, family, omega, mu=None) -> Fraction:
    """Simplified weighted bounds valid under (strict) moderate interference.

    family a drops the positive-part clamp from the kink sum, family b
    collapses to (1-omega)*E[N11] + omega*(E[N21] + E[N12]), and family c
    drops its kink sum entirely.  The a-form equals the general bound only
    from the largest kink ratio onward; b and c agree everywhere.  The forms
    are evaluated from the link statistics directly, not through the bound
    kernel, so comparing them with bound_a/b/c checks one against the other.
    """
    _require(spec, "moderate")
    _check_user(user)
    _check_family(family)
    omega = _check_omega(omega)
    if user == 2:
        spec = swap_users(spec)
    n11, n12, n21 = spec.n11, spec.n12, spec.n21
    e11 = expect(n11)
    if family == "b":
        return (1 - omega) * e11 + omega * (expect(n21) + expect(n12))
    lift = expect_pos_diff(n21, n11)
    if family == "a":
        # the kink sum without its clamp: sum_l (omega*beta(l) - alpha(l))
        co = layer_coefficients(spec)
        return e11 + omega * (lift + sum(co.beta1)) - sum(co.alpha1)
    mu = _check_mu(omega, mu)
    top = sum(max(mu * tail(n11, l), omega * tail(n12, l)) for l in range(1, spec.q + 1))
    return e11 + omega * lift + top


@dataclass(frozen=True)
class SymmetricQ1Report:
    """The single-layer symmetric moderate region and its redundancy facts.

    cap_planes are the per-user rate caps R_i <= p_d; a_planes the two
    a-family planes at their kink weight weight_a; sum_plane is
    R1 + R2 <= 2*p_c; c_planes the two normalized c-family planes with
    cross weight weight_c.  a_redundant says whether dropping both a_planes
    leaves the region unchanged; crossing is the intersection point of the
    user-1 a-plane and c-plane boundary lines.
    """

    p_d: Fraction
    p_c: Fraction
    cap_planes: tuple
    a_planes: tuple
    sum_plane: HalfPlane
    c_planes: tuple
    weight_a: Fraction
    weight_c: Fraction
    region: RegionPolytope
    a_redundant: bool
    crossing: tuple


def symmetric_q1_region(p_d, p_c) -> SymmetricQ1Report:
    """Outer-bound polytope for the symmetric single-layer moderate channel.

    Both direct links are Bernoulli(p_d) on one layer, both cross links
    Bernoulli(p_c), with p_d*p_c > p_d - p_c > 0 so the channel is strictly
    moderate.  The seven constraints evaluate the weighted bounds at the
    weights that matter: a-family at omega 0 and at its kink, b-family at
    omega 1, c-family at (1, p_c/p_d).
    """
    p_d, p_c = as_fraction(p_d), as_fraction(p_c)
    if not 0 < p_c <= 1 or not 0 < p_d <= 1:
        raise ValueError("p_d and p_c must be probabilities in (0, 1]")
    if not p_d * p_c > p_d - p_c > 0:
        raise ValueError(
            f"needs p_d*p_c > p_d - p_c > 0, got p_d={p_d}, p_c={p_c}"
        )
    w_a = p_d * p_c / (p_d - p_c + p_d * p_c)
    w_c = p_d / (p_d + p_c)
    lift = p_c * (1 - p_d)  # E[(N21 - N11)^+] for Bernoulli levels
    cap = (HalfPlane(1, 0, p_d), HalfPlane(0, 1, p_d))
    a_pl = (
        HalfPlane(1, w_a, p_d + w_a * lift),
        HalfPlane(w_a, 1, p_d + w_a * lift),
    )
    sum_pl = HalfPlane(1, 1, 2 * p_c)
    c_pl = (
        HalfPlane(1, w_c, p_d + w_c * lift),
        HalfPlane(w_c, 1, p_d + w_c * lift),
    )
    region = intersect(list(cap + a_pl + (sum_pl,) + c_pl))
    without_a = intersect(list(cap + (sum_pl,) + c_pl))
    return SymmetricQ1Report(
        p_d=p_d, p_c=p_c,
        cap_planes=cap, a_planes=a_pl, sum_plane=sum_pl, c_planes=c_pl,
        weight_a=w_a, weight_c=w_c,
        region=region,
        a_redundant=region == without_a,
        crossing=(p_d, lift),
    )
