"""Weighted-bound evaluation, critical weights, and the finite-to-continuum step."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from layercap import (
    FAMILIES,
    ChannelSpec,
    FadingPmf,
    HalfPlane,
    WeightedBound,
    active_bounds,
    bound_a,
    bound_b,
    bound_c,
    cli,
    critical_weights,
    expect,
    family_region,
    intersect,
    moderate_bounds,
    outer_region,
    swap_users,
)
from layercap.bounds import grid_bounds, grid_rows, outer_halfplanes, outer_rows
from layercap.corpus import (
    random_moderate_spec,
    random_spec,
    random_strong_spec,
    random_weak_spec,
    symmetric_bernoulli,
)
from strategies import specs, unit_rationals

F = Fraction

MOD1 = symmetric_bernoulli(F(4, 5), F(1, 2))
WEAK1 = symmetric_bernoulli(F(9, 10), F(3, 10))
STRONG1 = symmetric_bernoulli(F(1, 2), F(4, 5))


@pytest.mark.parametrize(
    "fn,args,value",
    [
        (bound_a, (MOD1, 1, F(0)), F(4, 5)),
        (bound_a, (MOD1, 1, F(1)), F(6, 5)),
        (bound_b, (MOD1, 1, F(1)), F(1)),
        (bound_c, (MOD1, 1, F(1), F(5, 8)), F(7, 5)),
        (bound_b, (WEAK1, 1, F(9, 20)), F(1827, 2000)),
        (bound_b, (WEAK1, 1, F(1)), F(63, 50)),
    ],
)
def test_pinned_bound_values(fn, args, value):
    assert fn(*args) == value


def test_symmetric_channel_user_agreement():
    for omega in (F(0), F(1, 3), F(1)):
        assert bound_a(MOD1, 1, omega) == bound_a(MOD1, 2, omega)
        assert bound_b(MOD1, 1, omega) == bound_b(MOD1, 2, omega)


def test_user_two_is_the_swapped_user_one():
    rng = random.Random(31)
    for _ in range(25):
        spec = random_spec(rng, rng.randint(1, 3))
        flipped = swap_users(spec)
        omega = F(rng.randint(0, 8), 8)
        assert bound_a(spec, 2, omega) == bound_a(flipped, 1, omega)
        assert bound_b(spec, 2, omega) == bound_b(flipped, 1, omega)
        mu = omega * F(rng.randint(0, 4), 4)
        assert bound_c(spec, 2, omega, mu) == bound_c(flipped, 1, omega, mu)


def test_critical_weights_pinned():
    assert critical_weights(MOD1, 1, "a") == (F(0), F(4, 7), F(1))
    assert critical_weights(MOD1, 1, "b") == (F(0), F(1))
    assert critical_weights(WEAK1, 1, "a") == (F(0), F(9, 29), F(1))
    assert critical_weights(WEAK1, 1, "b") == (F(0), F(9, 20), F(1))
    pairs = critical_weights(WEAK1, 1, "c")
    assert all(0 <= mu <= om <= 1 for om, mu in pairs)
    assert (F(1), F(1)) in pairs and (F(0), F(0)) in pairs


def test_bounds_affine_between_critical_weights():
    rng = random.Random(99)
    for _ in range(30):
        spec = random_spec(rng, rng.randint(1, 3))
        for user in (1, 2):
            for family, fn in (("a", bound_a), ("b", bound_b)):
                crit = critical_weights(spec, user, family)
                for lo, hi in zip(crit, crit[1:]):
                    mid = (lo + hi) / 2
                    assert fn(spec, user, mid) == (
                        fn(spec, user, lo) + fn(spec, user, hi)
                    ) / 2


def with_examples(cases):
    """Attach each keyword dict in cases to a hypothesis test as an @example."""
    def attach(test):
        for case in cases:
            test = example(**case)(test)
        return test
    return attach


def seeded_convex_cases():
    # 30 seeded random specs and weight pairs, always run as fixed examples
    rng = random.Random(3)
    for _ in range(30):
        spec = random_spec(rng, rng.randint(1, 2))
        w1 = F(rng.randint(0, 16), 16)
        w2 = F(rng.randint(0, 16), 16)
        yield dict(spec=spec, user=1, w1=w1, w2=w2, r1=F(0), r2=F(1))


def seeded_monotone_cases():
    # 25 seeded random specs on the weight grid k/6 and the mu/omega grid
    # k/4, always run as fixed examples
    rng = random.Random(823)
    for _ in range(25):
        spec = random_spec(rng, rng.randint(1, 3))
        yield dict(spec=spec, user=1, weights=[F(k, 6) for k in range(7)],
                   ratios=[F(k, 4) for k in range(5)])


@settings(max_examples=150, deadline=None)
@given(spec=specs(), user=st.sampled_from((1, 2)), w1=unit_rationals(),
       w2=unit_rationals(), r1=unit_rationals(), r2=unit_rationals())
@with_examples(list(seeded_convex_cases()))
def test_bounds_convex_in_weight(spec, user, w1, w2, r1, r2):
    mid = (w1 + w2) / 2
    for fn in (bound_a, bound_b):
        assert fn(spec, user, mid) <= (fn(spec, user, w1) + fn(spec, user, w2)) / 2
    # c is jointly convex in (omega, mu); mu = r*omega keeps both ends and
    # their midpoint inside mu <= omega
    mu1, mu2 = w1 * r1, w2 * r2
    assert bound_c(spec, user, mid, (mu1 + mu2) / 2) <= (
        bound_c(spec, user, w1, mu1) + bound_c(spec, user, w2, mu2)) / 2


@settings(max_examples=150, deadline=None)
@given(spec=specs(), user=st.sampled_from((1, 2)),
       weights=st.lists(unit_rationals(), min_size=2, max_size=8),
       ratios=st.lists(unit_rationals(), min_size=2, max_size=6))
@with_examples(list(seeded_monotone_cases()))
def test_bounds_nondecreasing_in_weights(spec, user, weights, ratios):
    weights, ratios = sorted(weights), sorted(ratios)

    def nondecreasing(vals):
        return all(x <= y for x, y in zip(vals, vals[1:]))

    for fn in (bound_a, bound_b):
        assert nondecreasing([fn(spec, user, w) for w in weights])
    for omega in weights:
        assert nondecreasing([bound_c(spec, user, omega, omega * r) for r in ratios])
    # and in omega at a fixed mu that every omega admits
    mu = weights[0] * ratios[0]
    assert nondecreasing([bound_c(spec, user, w, mu) for w in weights])


def test_finite_constraints_imply_continuum():
    # the polytope built at critical weights must satisfy the bound at
    # every weight, not only the ones it was built from
    rng = random.Random(57)
    for _ in range(12):
        spec = random_spec(rng, rng.randint(1, 2))
        for user in (1, 2):
            ra = family_region(spec, user, "a")
            rb = family_region(spec, user, "b")
            rc = family_region(spec, user, "c")
            for _ in range(20):
                omega = F(rng.randint(0, 64), 64)
                w1, w2 = (F(1), omega) if user == 1 else (omega, F(1))
                assert ra.support(w1, w2) <= bound_a(spec, user, omega)
                assert rb.support(w1, w2) <= bound_b(spec, user, omega)
                mu = omega * F(rng.randint(0, 8), 8)
                wc1, wc2 = (1 + mu, omega) if user == 1 else (omega, 1 + mu)
                assert rc.support(wc1, wc2) <= bound_c(spec, user, omega, mu)


def test_active_bounds_strong_example():
    rows = outer_rows(STRONG1)
    region = outer_region(STRONG1)
    active = active_bounds(rows, region)
    assert {(b.family, b.omega) for b in active} == {
        ("1a", F(0)),
        ("2a", F(0)),
        ("1a", F(1)),
    }


def test_grid_region_contains_exact_region():
    for spec in (MOD1, WEAK1, STRONG1):
        exact = outer_region(spec)
        coarse = [b.halfplane() for b in grid_bounds(spec, 8)]
        from layercap import intersect

        assert exact.subset_of(intersect(coarse))


def test_weighted_bound_validation():
    WeightedBound(family="1a", omega=F(1, 2), mu=None, value=F(1))
    WeightedBound(family="2c", omega=F(1, 2), mu=F(1, 4), value=F(0))
    # the ends of the weight ranges are allowed
    WeightedBound(family="1a", omega=F(0), mu=None, value=F(1))
    WeightedBound(family="2b", omega=F(1), mu=None, value=F(1))
    WeightedBound(family="1c", omega=F(2, 3), mu=F(2, 3), value=F(1))
    WeightedBound(family="2c", omega=F(2, 3), mu=F(0), value=F(1))
    WeightedBound(family="1c", omega=F(2, 3), mu=F(3, 5), value=F(1))
    with pytest.raises(ValueError):
        WeightedBound(family="3a", omega=F(0), mu=None, value=F(1))
    with pytest.raises(ValueError):
        WeightedBound(family="1a", omega=F(3, 2), mu=None, value=F(1))
    with pytest.raises(ValueError):
        WeightedBound(family="2a", omega=F(-1, 2), mu=None, value=F(1))
    with pytest.raises(ValueError):
        WeightedBound(family="1c", omega=F(1, 2), mu=None, value=F(1))
    with pytest.raises(ValueError):
        WeightedBound(family="1c", omega=F(1, 2), mu=F(-1, 4), value=F(1))
    with pytest.raises(ValueError):
        WeightedBound(family="2c", omega=F(2, 3), mu=F(7, 10), value=F(1))
    with pytest.raises(ValueError):
        WeightedBound(family="1a", omega=F(1, 2), mu=F(1, 4), value=F(1))
    with pytest.raises(ValueError):
        WeightedBound(family="1c", omega=F(1, 2), mu=F(3, 4), value=F(1))
    with pytest.raises(ValueError):
        WeightedBound(family="1b", omega=F(1), mu=None, value=F(-1))


def test_halfplane_orientation_per_user():
    hb1 = WeightedBound(family="1b", omega=F(1, 2), mu=None, value=F(2)).halfplane()
    assert (hb1.a, hb1.b, hb1.c) == (2, 1, 4)
    hb2 = WeightedBound(family="2b", omega=F(1, 2), mu=None, value=F(2)).halfplane()
    assert (hb2.a, hb2.b, hb2.c) == (1, 2, 4)
    hc = WeightedBound(family="1c", omega=F(1), mu=F(1), value=F(3)).halfplane()
    assert (hc.a, hc.b, hc.c) == (2, 1, 3)


def test_bound_argument_validation():
    with pytest.raises(ValueError):
        bound_a(MOD1, 3, F(1, 2))
    with pytest.raises(ValueError):
        bound_a(MOD1, 1, F(3, 2))
    # one mu check, one message, for every caller that takes a mu
    for mu in (F(3, 4), F(-1, 4), None):
        mu_error = re.escape(f"mu must lie in [0, omega], got mu={mu}, omega=1/2")
        with pytest.raises(ValueError, match=mu_error):
            bound_c(MOD1, 1, F(1, 2), mu)
        with pytest.raises(ValueError, match=mu_error):
            moderate_bounds(MOD1, 1, "c", F(1, 2), mu)
        with pytest.raises(ValueError, match=mu_error):
            WeightedBound(family="1c", omega=F(1, 2), mu=mu, value=F(1))
    # one family check, one message, for both callers that take a family
    family_error = "family must be 'a', 'b' or 'c', got 'd'"
    with pytest.raises(ValueError, match=family_error):
        critical_weights(MOD1, 1, "d")
    with pytest.raises(ValueError, match=family_error):
        moderate_bounds(MOD1, 1, "d", F(1, 2))
    with pytest.raises(ValueError):
        family_region(MOD1, 0, "a")
    # outer_rows checks its family tags itself
    for tag in ("1d", "3a"):
        with pytest.raises(ValueError, match=f"unknown family '{tag}'"):
            outer_rows(MOD1, (tag,))


def test_families_constant():
    assert FAMILIES == ("1a", "1b", "1c", "2a", "2b", "2c")


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32), q=st.integers(1, 4),
       mute_1=st.booleans(), mute_2=st.booleans())
def test_every_plane_set_caps_both_rates(seed, q, mute_1, mute_2):
    # 1a and 2a at omega = 0 are R1 <= E[N11] and R2 <= E[N22], and omega = 0
    # is always a critical weight and a grid weight, so intersect never
    # meets an unbounded plane set, even with a direct link that is always 0
    n11, n12, n21, n22 = random_spec(random.Random(seed), q).links().values()
    zero = FadingPmf.point(0, q)
    spec = ChannelSpec(n11=zero if mute_1 else n11, n12=n12, n21=n21,
                       n22=zero if mute_2 else n22)
    caps = {HalfPlane(1, 0, expect(spec.n11)), HalfPlane(0, 1, expect(spec.n22))}
    for bounds in (outer_halfplanes(spec), grid_bounds(spec, 3)):
        planes = [wb.halfplane() for wb in bounds]
        assert caps <= set(planes)
        region = intersect(planes)
        assert region.support(1, 0) <= expect(spec.n11)
        assert region.support(0, 1) <= expect(spec.n22)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32), q=st.integers(1, 4), steps=st.integers(1, 6))
def test_user_swap_mirrors_region_and_grid_contains_exact(seed, q, steps):
    # the intersection sorts planes by direction, so an R1/R2 mix-up there
    # would break the mirror image
    spec = random_spec(random.Random(seed), q)
    region = outer_region(spec)
    mirrored = outer_region(swap_users(spec))
    assert set(mirrored.vertices) == {(y, x) for x, y in region.vertices}
    grid = intersect([wb.halfplane() for wb in grid_bounds(spec, steps)])
    assert region.subset_of(grid)


GRID_KINDS = {"random": random_spec, "strong": random_strong_spec,
              "weak": random_weak_spec, "moderate": random_moderate_spec}


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(sorted(GRID_KINDS)), q=st.integers(0, 5),
       seed=st.integers(0, 2 ** 32), steps=st.integers(1, 40))
# the degenerate region of test_cli's fallback case, which reports 18 rows
@example(kind="random", q=1, seed=2, steps=16)
# c lines with an end row whose value is the mean of its neighbour's on the
# line and the next line's end row's: pruning the lines as one run drops
# it, and the c-family's region changes
@example(kind="weak", q=4, seed=2222856664, steps=2)
@example(kind="random", q=1, seed=1578775937, steps=6)
def test_grid_mode_answers_as_the_full_grid_rows(kind, q, seed, steps):
    # region --mode grid intersects only the rows that their grid-line
    # neighbours do not imply, or all of them when that region is
    # degenerate; q = 0 regions are the origin alone.  The answer is the
    # full rows': the region, and its constraints in order, each one's
    # family, weights and half-plane, which with the weights is its value.
    # Each family's kept rows alone carve its full rows' region too
    if kind == "moderate":
        q = max(q, 1)  # the moderate construction needs a layer
    spec = GRID_KINDS[kind](random.Random(seed), q)
    doc, region = cli.region_document(cli.ChannelSpecFile(q, kind, spec), "grid", steps)
    rows = grid_rows(spec, steps)
    full = intersect(rows.rows, rows.den)
    assert region == full
    assert doc["constraints"] == [cli._constraint_entry(b) for b in active_bounds(rows, full)]
    kept = grid_rows(spec, steps, prune=True)
    for tag in FAMILIES:
        full_rows, kept_rows = ([row for row, (family, *_) in zip(r.rows, r._tags)
                                 if family == tag] for r in (rows, kept))
        assert intersect(kept_rows, rows.den) == intersect(full_rows, rows.den), tag
