"""Weighted-bound evaluation, critical weights, and the finite-to-continuum step."""

import random
import re
from fractions import Fraction
from math import lcm

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
    layer_coefficients,
    moderate_bounds,
    outer_region,
    swap_users,
    tail,
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
# a degenerate region (N11 = 0) that reports 18 rows, only 3 of which pruning keeps
@example(kind="random", q=1, seed=2, steps=16)
# c lines with an end row whose value is the mean of its neighbour's on the
# line and the next line's end row's: pruning the lines as one run drops
# it, and the c-family's region changes
@example(kind="weak", q=4, seed=2222856664, steps=2)
@example(kind="random", q=1, seed=1578775937, steps=6)
def test_grid_mode_answers_as_the_full_grid_rows(kind, q, seed, steps):
    # region --mode grid intersects only the rows that their grid-line
    # neighbours do not imply, or all of them when E[N11] or E[N22] is 0
    # and the region is degenerate; q = 0 regions are the origin alone.
    # The answer is the full rows': the region, and its constraints in
    # order, each one's family, weights and half-plane, which with the
    # weights is its value.  Each family's kept rows alone carve its full
    # rows' region too
    if kind == "moderate":
        q = max(q, 1)  # the moderate construction needs a layer
    spec = GRID_KINDS[kind](random.Random(seed), q)
    doc = cli.region_document(cli.ChannelSpecFile(q, kind, spec), "grid", steps)
    rows = grid_rows(spec, steps)
    full = intersect(rows.rows, rows.den)
    assert doc["vertices"] == [[str(r1), str(r2)] for r1, r2 in full.vertices]
    assert doc["constraints"] == [cli._constraint_entry(b) for b in active_bounds(rows, full)]
    kept = grid_rows(spec, steps, prune=True)
    for tag in FAMILIES:
        full_rows, kept_rows = ([row for row, (family, *_) in zip(r.rows, r._tags)
                                 if family == tag] for r in (rows, kept))
        assert intersect(kept_rows, rows.den) == intersect(full_rows, rows.den), tag


def reference_kept(rows, degenerate) -> list:
    """The (tag, row) pairs of the full grid rows that pruning keeps: all of
    them in a degenerate region; otherwise each row that is not the mean of
    its two neighbours, the rows one grid step before and after it along
    mu, along omega or along the diagonal, wherever both exist.  A family's
    grid points are its weights (p, m) over one r, so the a- and b-families,
    whose m is 0, have neighbours along omega alone."""
    value = {(tag, p, m): row[2] for (tag, p, m, _), row in zip(rows._tags, rows.rows)}

    def implied(tag, p, m, c):
        for dp, dm in ((0, 1), (1, 0), (1, 1)):
            before, after = (tag, p - dp, m - dm), (tag, p + dp, m + dm)
            if before in value and after in value and 2 * c == value[before] + value[after]:
                return True
        return False

    return [(tags, tuple(row)) for tags, row in zip(rows._tags, rows.rows)
            if degenerate or not implied(*tags[:3], row[2])]


@settings(max_examples=120, deadline=None)
@given(kind=st.sampled_from(sorted(GRID_KINDS)), q=st.integers(0, 5),
       seed=st.integers(0, 2 ** 32), steps=st.integers(1, 40), mute=st.sampled_from((0, 1, 2)))
# a degenerate region: N11 = 0
@example(kind="random", q=1, seed=2, steps=16, mute=0)
def test_pruned_grid_rows_are_the_rows_no_grid_neighbour_implies(kind, q, seed, steps, mute):
    # row for row and tag for tag, so a prune that keeps a row the rule
    # leaves out fails here even though the region stays the same; mute
    # sets user mute's direct link to 0, which makes the region degenerate
    if kind == "moderate":
        q = max(q, 1)  # the moderate construction needs a layer
    links = GRID_KINDS[kind](random.Random(seed), q).links()
    if mute:
        links[f"n{mute}{mute}"] = FadingPmf.point(0, q)
    spec = ChannelSpec(**links)
    degenerate = expect(spec.n11) * expect(spec.n22) == 0
    pruned = grid_rows(spec, steps, prune=True)
    assert list(zip(pruned._tags, map(tuple, pruned.rows))) == reference_kept(
        grid_rows(spec, steps), degenerate)


def steps_holding_every_critical_weight(spec) -> int:
    """The lcm of the denominators of every ratio a critical weight is made
    of, for both users: the omega kinks alpha/beta (family a) and
    alpha/gamma (families b and c), and the c-family's mu kinks, the slopes
    P(N12 >= l)/P(N11 >= l) at omega = 1 and each kink alpha/gamma times
    each slope.  Read off the coefficients and tails, not the kernel, so a
    grid at this many steps holds every critical weight whichever of these
    the kernel keeps."""
    co = layer_coefficients(spec)
    ratios = []
    for alpha, beta, gamma, own, peer in ((co.alpha1, co.beta1, co.gamma1, spec.n11, spec.n12),
                                          (co.alpha2, co.beta2, co.gamma2, spec.n22, spec.n21)):
        kinks = [a / g for a, g in zip(alpha, gamma) if g]
        slopes = [tail(peer, l) / tail(own, l) for l in range(1, spec.q + 1) if tail(own, l)]
        ratios += [a / b for a, b in zip(alpha, beta) if b] + kinks + slopes
        ratios += [w * s for w in kinks for s in slopes]
    return lcm(*(x.denominator for x in ratios))


def test_grid_mode_is_exact_where_the_grid_holds_every_critical_weight():
    # every grid bound is an outer bound, so the grid region holds the
    # exact one; at a step count that is a multiple of every critical
    # weight's denominator the critical rows are grid rows too, so the
    # grid region is also inside the exact one.  With masses in halves
    # every coefficient is a multiple of 1/4, so each ratio's denominator
    # is one of 1, 2, 3, 4, 6 and 8, and the step count at most 24
    rng = random.Random(8191)
    for kind in ("random", "strong", "weak"):
        for _ in range(100):
            spec = GRID_KINDS[kind](rng, rng.randint(1, 3), 2)
            steps = steps_holding_every_critical_weight(spec)
            exact = outer_region(spec)
            for prune in (False, True):
                rows = grid_rows(spec, steps, prune)
                assert intersect(rows.rows, rows.den) == exact, (spec, steps, prune)


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(sorted(GRID_KINDS)), q=st.integers(0, 5),
       seed=st.integers(0, 2 ** 32), steps=st.integers(1, 40),
       mute_1=st.booleans(), mute_2=st.booleans())
def test_a_region_is_degenerate_exactly_when_a_direct_link_is_always_0(
        kind, q, seed, steps, mute_1, mute_2):
    # grid_rows prunes only when both E[N11] and E[N22] are positive, on the
    # rule that only then has a bound region 3 or more vertices; otherwise
    # it keeps every row, all of which the degenerate region reports
    if kind == "moderate":
        q = max(q, 1)  # the moderate construction needs a layer
    n11, n12, n21, n22 = GRID_KINDS[kind](random.Random(seed), q).links().values()
    zero = FadingPmf.point(0, q)
    spec = ChannelSpec(n11=zero if mute_1 else n11, n12=n12, n21=n21,
                       n22=zero if mute_2 else n22)
    degenerate = expect(spec.n11) * expect(spec.n22) == 0
    full, pruned = grid_rows(spec, steps), grid_rows(spec, steps, prune=True)
    for rows in (outer_rows(spec), full, pruned):
        assert (len(intersect(rows.rows, rows.den).vertices) < 3) == degenerate
    if degenerate:
        assert pruned.rows == full.rows


def _support_breaks(region, user) -> set:
    """The weights omega in (0, 1) at which two adjacent vertices of region
    tie in user's a/b direction, (1, omega) for user 1 and (omega, 1) for
    user 2: between two of them the region's support is affine in omega."""
    verts = region.vertices
    out = set()
    for (x1, y1), (x2, y2) in zip(verts, verts[1:] + verts[:1]):
        own, peer = (x1 - x2, y1 - y2) if user == 1 else (y1 - y2, x1 - x2)
        # tie: own + omega*peer = 0
        if peer and 0 < -own / peer < 1:
            out.add(-own / peer)
    return out


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(sorted(GRID_KINDS)), q=st.integers(0, 9),
       seed=st.integers(0, 2 ** 32))
def test_ab_family_regions_hold_at_every_weight(kind, q, seed):
    # the a- and b-family bounds are affine in omega between their kinks
    # alpha/beta and alpha/gamma, read here off the coefficients, and the
    # support of P = family_region between the weights where two adjacent
    # vertices tie.  So support - bound is affine between those points and
    # the ends 0 and 1, and support <= bound there, checked exactly, holds at
    # every omega in [0, 1]: P lies inside the family's continuum of
    # half-planes
    if kind == "moderate":
        q = max(q, 1)  # the moderate construction needs a layer
    spec = GRID_KINDS[kind](random.Random(seed), q)
    co = layer_coefficients(spec)
    for user in (1, 2):
        alpha = getattr(co, f"alpha{user}")
        for family, bound, slope in (("a", bound_a, getattr(co, f"beta{user}")),
                                     ("b", bound_b, getattr(co, f"gamma{user}"))):
            region = family_region(spec, user, family)
            kinks = {a / g for a, g in zip(alpha, slope) if 0 < a < g}
            for omega in {F(0), F(1)} | kinks | _support_breaks(region, user):
                w = (1, omega) if user == 1 else (omega, 1)
                assert region.support(*w) <= bound(spec, user, omega), (user, family, omega)
