"""Regime classification, exact capacity regions, corners, and the q=1 display."""

import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from layercap import (
    ChannelSpec,
    FadingPmf,
    bound_a,
    bound_b,
    bound_c,
    classify,
    diff_tail,
    expect_pos_diff,
    layer_coefficients,
    moderate_bounds,
    outer_region,
    strong_region,
    swap_users,
    symmetric_q1_region,
    tail,
    weak_corner,
    weak_region,
    weak_sum_capacity,
)
from layercap import cli, regimes, verification
from layercap.corpus import (
    examples,
    mixed_example,
    random_moderate_spec,
    random_spec,
    random_strong_spec,
    random_weak_spec,
    symmetric_bernoulli,
)
from layercap.verification import verify_inclusions
from strategies import specs

F = Fraction

MOD1 = symmetric_bernoulli(F(4, 5), F(1, 2))
WEAK1 = symmetric_bernoulli(F(9, 10), F(3, 10))
STRONG1 = symmetric_bernoulli(F(1, 2), F(4, 5))
ORIGIN_SPEC = ChannelSpec(*(FadingPmf.point(0, 2) for _ in range(4)))
REGIMES = ("strong", "weak", "moderate")


@pytest.mark.parametrize(
    "spec,label",
    [
        (STRONG1, "strong"),
        (WEAK1, "weak"),
        (MOD1, "moderate"),
        (mixed_example(), "mixed"),
    ],
)
def test_classify_labels(spec, label):
    assert classify(spec).regime == label


def test_classify_zero_levels_is_strong():
    zero = FadingPmf.point(0, 0)
    spec = ChannelSpec(n11=zero, n12=zero, n21=zero, n22=zero)
    rep = classify(spec)
    assert rep.regime == "strong"
    assert rep.conjecture_precondition
    assert rep.conditions["strong"][0] == () and rep.conditions["weak"][0] == ()
    # with no layers every condition holds vacuously, and strong wins
    assert all(rep.holds(r) for r in REGIMES)


def test_conjecture_precondition():
    assert classify(STRONG1).conjecture_precondition
    assert classify(WEAK1).conjecture_precondition
    assert not classify(MOD1).conjecture_precondition


def _user1_flags(spec):
    # the user-1 conditions of the regimes module docstring, from tail and
    # diff_tail Fractions
    layers = range(1, spec.q + 1)
    t11 = [tail(spec.n11, l) for l in layers]
    t12 = [tail(spec.n12, l) for l in layers]
    free = [diff_tail(spec.n11, spec.n21, l) for l in layers]
    return {
        "strong": tuple(b >= a for a, b in zip(t11, t12)),
        "weak": tuple(c >= b for b, c in zip(t12, free)),
        "moderate": tuple(a > b > c for a, b, c in zip(t11, t12, free)),
    }


@settings(max_examples=200, deadline=None)
@given(spec=specs(max_q=4))
@example(spec=ORIGIN_SPEC)  # strong and weak at once: strong wins
@example(spec=symmetric_bernoulli(F(1, 2), F(1, 2)))  # P(N12 >= 1) = P(N11 >= 1)
# P(N12 >= 1) = P(N11 - N21 >= 1) = 1/3 < P(N11 >= 1) = 1/2
@example(spec=symmetric_bernoulli(F(1, 2), F(1, 3)))
def test_classify_matches_the_definitions(spec):
    # a condition stated once for both users is wrong for both at once, which
    # test_classify_swap_symmetry cannot see; user 2 is reached through
    # swap_users here, not through the frame table
    one, two = _user1_flags(spec), _user1_flags(swap_users(spec))
    want = {r: (one[r], two[r]) for r in REGIMES}
    rep = classify(spec)
    assert rep.conditions == want
    # the table's order is the printed order of "conditions"
    assert tuple(rep.conditions) == REGIMES
    met = [r for r in REGIMES if all(one[r]) and all(two[r])]
    assert rep.regime == (met[0] if met else "mixed")
    assert [rep.holds(r) for r in REGIMES] == [r in met for r in REGIMES]
    assert rep.conjecture_precondition == (not any(one["moderate"] + two["moderate"]))


def test_the_report_is_a_value():
    # equal specs built apart give equal reports that hash equal
    a, b = classify(mixed_example()), classify(mixed_example())
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != classify(WEAK1)


def test_strong_region_pinned():
    region = strong_region(STRONG1)
    assert region.vertices == (
        (F(0), F(0)),
        (F(1, 2), F(0)),
        (F(1, 2), F(2, 5)),
        (F(2, 5), F(1, 2)),
        (F(0), F(1, 2)),
    )
    assert region.support(F(1), F(1)) == F(9, 10)
    assert region == outer_region(STRONG1)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32), q=st.integers(0, 4))
def test_strong_region_matches_outer_randomized(seed, q):
    spec = random_strong_spec(random.Random(seed), q)
    assert strong_region(spec) == outer_region(spec)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32), q=st.integers(1, 4))
def test_weak_region_matches_outer_randomized(seed, q):
    spec = random_weak_spec(random.Random(seed), q)
    assert weak_region(spec) == outer_region(spec)


@settings(max_examples=300, deadline=None)
@given(spec=specs())
@example(spec=ORIGIN_SPEC)  # both flag sets hold
def test_capacity_regions_match_outer_whenever_flags_hold(spec):
    # few drawn specs meet either flag set, so filtering on them would trip
    # hypothesis' filter health check: check whichever set holds instead
    rep = classify(spec)
    if rep.holds("strong"):
        assert strong_region(spec) == outer_region(spec)
    if rep.holds("weak"):
        assert weak_region(spec) == outer_region(spec)


def test_weak_region_pinned():
    region = weak_region(WEAK1)
    assert region.vertices == (
        (F(0), F(0)),
        (F(9, 10), F(0)),
        (F(9, 10), F(3, 100)),
        (F(63, 100), F(63, 100)),
        (F(3, 100), F(9, 10)),
        (F(0), F(9, 10)),
    )
    assert weak_sum_capacity(WEAK1) == F(63, 50)
    assert region == outer_region(WEAK1)


def test_weak_sum_capacity_is_support_value():
    rng = random.Random(77)
    for _ in range(20):
        spec = random_weak_spec(rng, rng.randint(1, 3))
        c_sum = weak_sum_capacity(spec)
        assert c_sum == expect_pos_diff(spec.n22, spec.n12) + expect_pos_diff(
            spec.n11, spec.n21
        )
        assert outer_region(spec).support(F(1), F(1)) == c_sum
        assert bound_b(spec, 1, F(1)) == c_sum
        assert bound_b(spec, 2, F(1)) == c_sum


def test_weak_corner_pinned():
    hi = weak_corner(WEAK1, F(1))
    assert hi.corner == (F(63, 100), F(63, 100))
    assert hi.private_layers == frozenset({1})
    assert hi.common_layers == frozenset()
    lo = weak_corner(WEAK1, F(1, 10))
    assert lo.corner == (F(9, 10), F(3, 100))
    assert lo.private_layers == frozenset()
    assert lo.common_layers == frozenset({1})


def test_weak_corner_interference_free():
    zero = FadingPmf.point(0, 2)
    spec = ChannelSpec(
        n11=FadingPmf.uniform(2), n12=zero, n21=zero, n22=FadingPmf.uniform(2)
    )
    assert classify(spec).regime == "weak"
    # with no cross links the corner is the rectangle corner (E N11, E N22)
    for omega in (F(1, 4), F(1)):
        alloc = weak_corner(spec, omega)
        assert alloc.corner == (F(1), F(1))
        assert alloc.private_layers == frozenset({1, 2})


def test_weak_corner_tightness_randomized():
    rng = random.Random(55)
    for _ in range(20):
        spec = random_weak_spec(rng, rng.randint(1, 2))
        for k in (1, 3, 8):
            omega = F(k, 8)
            alloc = weak_corner(spec, omega)
            r1, r2 = alloc.corner
            assert r1 + omega * r2 == bound_b(spec, 1, omega)
            assert alloc.private_layers | alloc.common_layers == set(
                range(1, spec.q + 1)
            )
            assert not alloc.private_layers & alloc.common_layers


def _tightness_fails(real):
    return lambda spec, user, omega: real(spec, user, omega) + 1


def _cap_is_negative(real):
    # user 2's interference-as-noise rate E[(N22-N12)^+] reads -1
    return lambda hi, lo: F(-1) if (hi, lo) == (WEAK1.n22, WEAK1.n12) else real(hi, lo)


def _bound_drops_off_the_weight(real):
    # the bound is 1 lower at every weight but the corner's own
    return lambda spec, user, omega: real(spec, user, omega) - (omega != F(1, 10))


@pytest.mark.parametrize("name, fake, message", [
    ("bound_b", _tightness_fails, "corner allocation failed its tightness identity"),
    ("expect_pos_diff", _cap_is_negative,
     "corner allocation exceeds the interference-as-noise rate"),
    ("bound_b", _bound_drops_off_the_weight, "zero-weight corner left the b-region"),
], ids=["tightness", "interference-as-noise", "zero-weight"])
def test_weak_corner_self_checks_fire(monkeypatch, name, fake, message):
    # each fake breaks one of weak_corner's three checks and leaves the
    # checks before it passing
    monkeypatch.setattr(regimes, name, fake(getattr(regimes, name)))
    with pytest.raises(RuntimeError, match=message):
        weak_corner(WEAK1, F(1, 10))


def test_inclusions_suite_reports_a_failed_corner_check(monkeypatch, capsys):
    # the tightness identity fails at every weight in (0, 1), or at 1 alone,
    # the last critical weight; either way the suite records the error
    # weak_corner raises, and the command exits with a FAIL line
    real = regimes.bound_b
    for broken in (lambda omega: 0 < omega < 1, lambda omega: omega == 1):
        monkeypatch.setattr(regimes, "bound_b",
                            lambda spec, user, omega: real(spec, user, omega) + broken(omega))
        result = verify_inclusions(count=5)
        assert not result.ok
        assert any(line.endswith(": corner allocation failed its tightness identity")
                   for line in result.lines[1:])
        assert cli.main(["verify", "inclusions"]) == cli.EXIT_VERIFY
        assert "[inclusions] FAIL" in capsys.readouterr().out.splitlines()


def test_inclusions_suite_checks_the_weight_1_corner(monkeypatch):
    # the weight-1 corner moved straight down from the noise-tolerant point
    # stays in the b-region, and the mirrored corners keep their first
    # rate, so only the comparison with that point can catch it
    real = verification.weak_corner

    def lowered(spec, omega):
        alloc = real(spec, omega)
        r1, r2 = alloc.corner
        return dataclasses.replace(alloc, corner=(r1, r2 / 2)) if omega == 1 else alloc

    monkeypatch.setattr(verification, "weak_corner", lowered)
    assert verification._check_weak_spec(WEAK1) == [
        "weight-1 corner is not the noise-tolerant point"]


def test_weak_corner_rejects_bad_arguments():
    with pytest.raises(ValueError):
        weak_corner(WEAK1, F(0))
    with pytest.raises(ValueError):
        weak_corner(WEAK1, F(3, 2))
    with pytest.raises(ValueError):
        weak_corner(STRONG1, F(1))


def test_region_gating():
    with pytest.raises(ValueError):
        strong_region(WEAK1)
    with pytest.raises(ValueError):
        weak_region(MOD1)
    with pytest.raises(ValueError):
        weak_sum_capacity(STRONG1)
    with pytest.raises(ValueError):
        moderate_bounds(WEAK1, 1, "a", F(1))


@pytest.mark.parametrize(
    "family,args,value",
    [
        ("a", (F(1), None), F(6, 5)),
        ("b", (F(1), None), F(1)),
        ("c", (F(1), F(5, 8)), F(7, 5)),
        ("c", (F(1), F(1)), F(17, 10)),
    ],
)
def test_moderate_bounds_pinned(family, args, value):
    omega, mu = args
    assert moderate_bounds(MOD1, 1, family, omega, mu) == value


def test_moderate_simplifications_match_general_bounds():
    # the b and c short forms agree with the general bounds everywhere;
    # the a short form drops a clamp and only agrees above the last kink
    rng = random.Random(6021)
    for _ in range(15):
        spec = random_moderate_spec(rng, rng.randint(1, 3))
        for user in (1, 2):
            for k in range(0, 9):
                omega = F(k, 8)
                assert moderate_bounds(spec, user, "b", omega) == bound_b(
                    spec, user, omega
                )
                mu = omega * F(rng.randint(0, 4), 4)
                assert moderate_bounds(spec, user, "c", omega, mu) == bound_c(
                    spec, user, omega, mu
                )
            assert moderate_bounds(spec, user, "a", F(1)) == bound_a(spec, user, F(1))


def moderate_coefficients(spec, user):
    co = layer_coefficients(spec)
    return (getattr(co, f"{name}{user}") for name in ("alpha", "beta", "gamma"))


@settings(max_examples=40, deadline=None)
@given(q=st.integers(1, 5), seed=st.integers(0, 2 ** 32), user=st.sampled_from((1, 2)))
def test_moderate_a_form_is_bound_a_from_the_last_kink(q, seed, user):
    # both are affine on [w, 1], w the largest alpha/beta: bound_a has no
    # kink past it and the a-form none at all, so agreeing at w and at 1
    # they agree on all of it.  Moderate interference makes every
    # alpha < beta, so w < 1
    spec = random_moderate_spec(random.Random(seed), q)
    alpha, beta, _ = moderate_coefficients(spec, user)
    last = max(a / b for a, b in zip(alpha, beta))
    assert last < 1
    for omega in (last, F(1)):
        assert moderate_bounds(spec, user, "a", omega) == bound_a(spec, user, omega)


@settings(max_examples=40, deadline=None)
@given(q=st.integers(1, 5), seed=st.integers(0, 2 ** 32), user=st.sampled_from((1, 2)))
def test_moderate_b_form_is_bound_b_at_every_kink(q, seed, user):
    # the b-form is affine in omega and bound_b is affine between 0, 1 and
    # the kinks alpha/gamma in (0, 1), so agreeing there they agree on [0, 1]
    spec = random_moderate_spec(random.Random(seed), q)
    alpha, _, gamma = moderate_coefficients(spec, user)
    kinks = {a / g for a, g in zip(alpha, gamma) if g and 0 < a / g < 1}
    for omega in {F(0), F(1)} | kinks:
        assert moderate_bounds(spec, user, "b", omega) == bound_b(spec, user, omega)


def test_moderate_a_form_undershoots_below_kink():
    # at omega = 1/4 the clamp in the general a-bound is active for this
    # channel, so the short form must come out strictly smaller
    assert moderate_bounds(MOD1, 1, "a", F(1, 4)) < bound_a(MOD1, 1, F(1, 4))
    assert moderate_bounds(MOD1, 1, "a", F(4, 7)) == bound_a(MOD1, 1, F(4, 7))


def test_symmetric_q1_pinned():
    rep = symmetric_q1_region(F(4, 5), F(1, 2))
    assert rep.weight_a == F(4, 7)
    assert rep.weight_c == F(8, 13)
    assert rep.crossing == (F(4, 5), F(1, 10))
    assert rep.a_redundant
    # per-user cap, sum bound, and the weighted pair (e)
    cap = [p for p in rep.cap_planes if p.b == 0][0]
    assert (cap.a, cap.b, cap.c) == (5, 0, 4)
    assert (rep.sum_plane.a, rep.sum_plane.b, rep.sum_plane.c) == (1, 1, 1)
    # R1 + (8/13) R2 <= 56/65 clears denominators to 65 R1 + 40 R2 <= 56
    e_plane = [p for p in rep.c_planes if p.a < p.b * 2][0]
    assert (e_plane.a, e_plane.b, e_plane.c) == (65, 40, 56)
    assert rep.region == outer_region(symmetric_bernoulli(F(4, 5), F(1, 2)))


def test_symmetric_q1_crossing_on_both_lines():
    rng = random.Random(14)
    for _ in range(40):
        p_c = F(rng.randint(1, 7), 8)
        p_d = p_c + F(rng.randint(1, 8), 16)
        if p_d >= 1 or not (p_d * p_c > p_d - p_c > 0):
            continue
        rep = symmetric_q1_region(p_d, p_c)
        x, y = rep.crossing
        assert y == p_c * (1 - p_d)
        b_plane = rep.a_planes[0]
        assert b_plane.a * x + b_plane.b * y == b_plane.c
        e_plane = rep.c_planes[0]
        assert e_plane.a * x + e_plane.b * y == e_plane.c


def test_symmetric_q1_redundancy_rule():
    # (b) adds nothing iff p_d - p_c >= p_c^2, including the boundary case
    assert symmetric_q1_region(F(4, 5), F(1, 2)).a_redundant
    assert symmetric_q1_region(F(3, 4), F(1, 2)).a_redundant
    assert not symmetric_q1_region(F(3, 5), F(1, 2)).a_redundant
    rng = random.Random(90)
    for _ in range(40):
        p_c = F(rng.randint(1, 7), 8)
        p_d = p_c + F(rng.randint(1, 15), 32)
        if p_d >= 1 or not (p_d * p_c > p_d - p_c > 0):
            continue
        rep = symmetric_q1_region(p_d, p_c)
        assert rep.a_redundant == (p_d - p_c >= p_c * p_c)


def test_symmetric_q1_argument_validation():
    with pytest.raises(ValueError):
        symmetric_q1_region(F(1, 2), F(1, 2))  # p_d - p_c = 0
    with pytest.raises(ValueError):
        symmetric_q1_region(F(9, 10), F(1, 10))  # p_d*p_c < p_d - p_c
    with pytest.raises(ValueError):
        symmetric_q1_region(F(3, 2), F(1, 2))


def test_examples_classify_as_named():
    ex = examples()
    assert classify(ex["strong"]).regime == "strong"
    assert classify(ex["weak"]).regime == "weak"
    assert classify(ex["moderate"]).regime == "moderate"
    assert classify(ex["det"]).regime in ("strong", "weak", "moderate", "mixed")


def test_mixed_flags_are_split():
    rep = classify(mixed_example())
    assert rep.regime == "mixed"
    assert any(map(any, rep.conditions["strong"]))
    assert not rep.holds("strong")


def test_classify_swap_symmetry():
    rng = random.Random(4096)
    for _ in range(25):
        spec = random_spec(rng, rng.randint(1, 3))
        a = classify(spec)
        b = classify(swap_users(spec))
        assert a.regime == b.regime
        # the whole table, each user's flags read off the other's
        assert a.conditions == {r: (u2, u1) for r, (u1, u2) in b.conditions.items()}
