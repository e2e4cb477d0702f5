"""Monte Carlo estimators and the shared-uniform coupling."""

import functools
import itertools
import math
import random
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from layercap import ChannelSpec, FadingPmf, diff_tail, pos_diff_pmf, tail
from layercap.channel import dominates
from layercap.corpus import examples, random_spec, symmetric_bernoulli
from layercap.oracles import (
    SimConfig,
    _PairView,
    coupling_holds,
    exact_stats,
    mc_estimate_stats,
    prob_sandwich,
)
from layercap import oracles, verification
from layercap.verification import mc_within_tolerance
from strategies import MIXED_WEIGHTS, pmfs, specs

F = Fraction


def const_spec(n11, n12, n21, n22, q):
    return ChannelSpec(
        n11=FadingPmf.point(n11, q),
        n12=FadingPmf.point(n12, q),
        n21=FadingPmf.point(n21, q),
        n22=FadingPmf.point(n22, q),
    )


def test_sim_config_validation():
    spec = const_spec(1, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        SimConfig(specs=(spec,), samples=0, seed=0)
    for seed in (-1, 2 ** 64):
        with pytest.raises(ValueError, match="seed must be in"):
            SimConfig(specs=(spec,), samples=1, seed=seed)


def test_sim_config_refuses_an_empty_draw():
    with pytest.raises(ValueError, match="at least one channel"):
        SimConfig(specs=(), samples=1, seed=0)


def test_sim_config_keeps_its_specs_as_a_tuple():
    # a generator used to pass the empty check and be consumed by the draw,
    # so the estimates came back empty; a list left the record unhashable
    pair = (examples()["weak"], examples()["strong"])
    want = mc_estimate_stats(SimConfig(pair, 1000, 4))
    assert len(want) == 2
    for given_specs in (list(pair), (spec for spec in pair)):
        cfg = SimConfig(given_specs, 1000, 4)
        assert cfg.specs == pair
        assert hash(cfg) == hash(SimConfig(pair, 1000, 4))
        assert mc_estimate_stats(cfg) == want
    with pytest.raises(ValueError, match="at least one channel"):
        SimConfig((spec for spec in ()), samples=1, seed=0)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 63 - 1), chunk=st.integers(0, 100))
def test_seeds_below_2_63_keep_their_streams(seed, chunk):
    # a list key [seed, chunk] was the keying before it became a uint64 array
    old = np.random.Philox(key=[seed, chunk]).random_raw(8)
    new = np.random.Philox(key=np.array([seed, chunk], np.uint64)).random_raw(8)
    assert np.array_equal(old, new)


def test_seeds_past_2_63_give_distinct_streams():
    # as a list key these seeds became the same float64
    spec = symmetric_bernoulli(F(1, 2), F(1, 2))
    (a,), (b,) = (oracles._cell_counts(SimConfig((spec,), 1000, 2 ** 63 + k)) for k in (1, 2))
    assert not np.array_equal(a, b)


def test_same_seed_reproduces_exactly():
    spec = symmetric_bernoulli(F(9, 10), F(3, 10))
    cfg = SimConfig(specs=(spec,), samples=70_000, seed=123)
    (a,) = mc_estimate_stats(cfg)
    (b,) = mc_estimate_stats(cfg)
    assert list(a.items()) == list(b.items())
    (c,) = mc_estimate_stats(SimConfig(specs=(spec,), samples=70_000, seed=124))
    assert any(a[name] != c[name] for name in a)


def test_estimates_are_sample_frequencies():
    spec = symmetric_bernoulli(F(1, 2), F(1, 2))
    cfg = SimConfig(specs=(spec,), samples=1000, seed=9)
    (estimates,) = mc_estimate_stats(cfg)
    for name, estimate in estimates.items():
        if name.startswith(("tail:", "diff_tail:")):
            assert 0 <= estimate <= 1
            assert 1000 % estimate.denominator == 0


def test_exact_and_estimated_names_agree():
    spec = examples()["moderate"]
    cfg = SimConfig(specs=(spec,), samples=256, seed=0)
    (estimates,) = mc_estimate_stats(cfg)
    exact = exact_stats(spec)
    assert list(estimates) == list(exact)
    assert estimates["expect:n11"] >= 0


@settings(max_examples=60, deadline=None)
@given(spec=specs(max_q=3))
def test_every_statistic_is_the_mean_of_its_level_function(spec):
    # each row's exact value, from the channel formulas, is the mean of its
    # per-use function under the product pmf of the four links
    masses = [pmf.masses for pmf in spec.links().values()]
    cells = [(n, masses[0][n[0]] * masses[1][n[1]] * masses[2][n[2]] * masses[3][n[3]])
             for n in itertools.product(range(spec.q + 1), repeat=4)]
    rows = oracles._statistics(spec)
    assert len(rows) == 8 * spec.q + 10
    for name, f, exact in rows:
        assert type(exact) is Fraction, name
        assert sum((w * f(n) for n, w in cells), F(0)) == exact, name


def test_constant_channel_estimates_are_exact():
    spec = const_spec(3, 2, 2, 3, 3)
    cfg = SimConfig(specs=(spec,), samples=500, seed=11)
    assert mc_estimate_stats(cfg) == [exact_stats(spec)]


def reference_estimates(cfg) -> dict:
    # each statistic read off the drawn histogram by marginal sums, never
    # through _statistics' level functions: a tail from its link's marginal,
    # the pair statistics from the two links' joint marginal
    links = ("n11", "n12", "n21", "n22")
    pairs = (("n11", "n21"), ("n21", "n11"), ("n22", "n12"), ("n12", "n22"))
    (spec,) = cfg.specs
    side = spec.q + 1
    (counts,) = oracles._cell_counts(cfg)
    joint = counts.reshape((side,) * 4)
    levels = np.arange(side)
    diff = levels[:, None] - levels[None, :]

    def marginal(x):
        return joint.sum(axis=tuple(k for k in range(4) if k != links.index(x)))

    def pair(x, y):
        i, j = links.index(x), links.index(y)
        both = joint.sum(axis=tuple(k for k in range(4) if k not in (i, j)))
        return both if i < j else both.T

    def mean(counts):
        return F(int(counts), cfg.samples)

    out = {}
    for x in links:
        out |= {f"tail:{x}:{l}": mean(marginal(x)[l:].sum()) for l in range(1, side)}
    for x, y in pairs:
        out |= {f"diff_tail:{x}-{y}:{l}": mean(pair(x, y)[diff >= l].sum())
                for l in range(1, side)}
    out |= {f"expect:{x}": mean((levels * marginal(x)).sum()) for x in links}
    out |= {f"expect_pos_diff:{x}-{y}": mean((np.maximum(diff, 0) * pair(x, y)).sum())
            for x, y in pairs}
    out |= {f"expect_max:{x}:{y}": mean((np.maximum.outer(levels, levels) * pair(x, y)).sum())
            for x, y in (("n11", "n21"), ("n22", "n12"))}
    return out


@settings(max_examples=60, deadline=None)
@given(spec=st.integers(0, 3).flatmap(lambda q: st.builds(ChannelSpec, *[pmfs(q)] * 4)),
       samples=st.integers(1, 3000), seed=st.integers(0, 2 ** 64 - 1))
def test_estimates_are_the_histograms_marginal_means(spec, samples, seed):
    cfg = SimConfig((spec,), samples, seed)
    (estimates,) = mc_estimate_stats(cfg)
    assert list(estimates.items()) == list(reference_estimates(cfg).items())


def reference_cell_counts(cfg):
    # the inverse-cdf levels by searchsorted over the same Philox draws,
    # as a (4, m) level array per chunk, then the flat joint-cell histogram
    # of cfg's one spec
    (spec,) = cfg.specs
    q = spec.q
    side = q + 1
    cdfs = [np.cumsum([float(m) for m in pmf.masses]) for pmf in spec.links().values()]
    counts = np.zeros(side ** 4, dtype=np.int64)
    done = chunk = 0
    while done < cfg.samples:
        m = min(oracles._CHUNK, cfg.samples - done)
        gen = np.random.Generator(np.random.Philox(key=np.array([cfg.seed, chunk], np.uint64)))
        u = gen.random((4, m))
        levels = np.empty((4, m), dtype=np.int64)
        for i, cdf in enumerate(cdfs):
            levels[i] = np.minimum(np.searchsorted(cdf, u[i], side="right"), q)
        flat = ((levels[0] * side + levels[1]) * side + levels[2]) * side + levels[3]
        counts += np.bincount(flat, minlength=side ** 4)
        done += m
        chunk += 1
    return counts


@pytest.mark.parametrize("c", [0.0, 2.0 ** -53, 0.5, math.nextafter(0.5, 0), 1 - 2.0 ** -53,
                               1.0, math.nextafter(1, 2)])
def test_word_threshold_decides_the_double_comparison(c):
    # the least word whose double (r >> 11) * 2^-53 reaches c, exactly; past
    # 1 - 2^-53 it is beyond the last word, 2^64 - 1, which never reaches c
    t = oracles._word_threshold(c)
    assert t == math.ceil(F(c) * 2 ** 53) * 2 ** 11
    edges = (0, t - 1, t, t + 1, t | 0x7FF, (t - 1) | 0x7FF, 2 ** 64 - 1)
    for r in (r for r in edges if 0 <= r < 2 ** 64):
        assert (r >= t) == ((r >> 11) * 2 ** -53 >= c), (c, r)


def test_raw_words_map_to_the_generators_doubles():
    key = np.array([2 ** 64 - 1, 3], np.uint64)
    words = np.random.Philox(key=key).random_raw((4, 1000))
    doubles = np.random.Generator(np.random.Philox(key=key)).random((4, 1000))
    assert np.array_equal((words >> np.uint64(11)).astype(np.float64) * 2.0 ** -53, doubles)


def assert_same_cell_counts(cfg):
    (got,), want = oracles._cell_counts(cfg), reference_cell_counts(cfg)
    assert got.dtype == want.dtype and np.array_equal(got, want), cfg
    assert int(got.sum()) == cfg.samples


@settings(max_examples=60, deadline=None)
@given(spec=specs(max_q=4), samples=st.integers(1, 3000), seed=st.integers(0, 2 ** 64 - 1))
def test_cell_counts_match_searchsorted_levels(spec, samples, seed):
    assert_same_cell_counts(SimConfig((spec,), samples, seed))


def test_cell_counts_when_the_float_cdf_ends_below_one():
    pmf = FadingPmf([F(1, 6), F(2, 3), F(1, 6)])
    assert np.cumsum([float(m) for m in pmf.masses])[-1] < 1.0
    spec = ChannelSpec(pmf, FadingPmf.point(2, 2), pmf, FadingPmf([F(1, 2), F(0), F(1, 2)]))
    assert_same_cell_counts(SimConfig((spec,), 5000, 3))


@pytest.mark.parametrize("samples", [1, 65_535, 65_537, 140_000])
def test_cell_counts_across_chunk_boundaries(samples):
    assert_same_cell_counts(SimConfig((examples()["det"],), samples, 7))
    assert_same_cell_counts(SimConfig((examples()["moderate"],), samples, 7))


@settings(max_examples=40, deadline=None)
@given(draw=st.lists(specs(max_q=4, weights=MIXED_WEIGHTS), min_size=1, max_size=4).map(tuple),
       samples=st.integers(1, 140_000), seed=st.integers(0, 2 ** 64 - 1))
def test_a_shared_draw_changes_no_channels_histogram(draw, samples, seed):
    hists = oracles._cell_counts(SimConfig(draw, samples, seed))
    assert len(hists) == len(draw)
    for spec, got in zip(draw, hists):
        want = reference_cell_counts(SimConfig((spec,), samples, seed))
        assert got.dtype == want.dtype and np.array_equal(got, want), spec


def test_montecarlo_suite_fails_on_a_changed_rerun(monkeypatch):
    # the estimate and the rerun are drawn with different seeds, so the
    # rerun differs in its estimates except on the constant det channel,
    # whose estimates are exact
    calls = []

    def flaky(cfg):
        calls.append(cfg)
        return mc_estimate_stats(SimConfig(cfg.specs, cfg.samples, cfg.seed + len(calls) % 2))

    monkeypatch.setattr(verification, "mc_estimate_stats", flaky)
    result = verification.verify_montecarlo(samples=1000)
    assert not result.ok
    assert sum("rerun identical: False" in line for line in result.lines) == 3


def test_montecarlo_suite_draws_twice_for_all_four_channels(monkeypatch):
    # the estimate and the rerun, each one draw shared by the four examples
    calls = []

    def counted(cfg):
        calls.append(cfg)
        return mc_estimate_stats(cfg)

    monkeypatch.setattr(verification, "mc_estimate_stats", counted)
    assert verification.verify_montecarlo(samples=1000, seed=5).ok
    assert calls == [SimConfig(tuple(examples().values()), 1000, 5)] * 2


def pair_views(spec, view=oracles._pair_view):
    """The two pair views coupling_holds decides spec on: A = (n21, n11)
    and B = (n22, n12)."""
    return view(spec.n21, spec.n11), view(spec.n22, spec.n12)


def at_layer(view, l):
    """view cut down to layer l, so coupling_holds decides that layer's
    gamma identity alone."""
    return view._replace(tails=view.tails[l - 1:l], diff_tails=view.diff_tails[l - 1:l])


def test_coupling_pinned_weak_example():
    spec = symmetric_bernoulli(F(9, 10), F(3, 10))
    a, b = pair_views(spec)
    assert coupling_holds(a, b) and a.dominated and a.alpha_ok
    den = a.den * b.den
    # both sides of the gamma identity at layer 1, from the views' integers
    assert F(b.tails[0] * a.den - a.tails[0] * b.den, den) == F(3, 5)
    assert F(b.diff_tails[0] * a.den - a.diff_tails[0] * b.den, den) == F(3, 5)
    # the two sides alpha_ok compares at layer 1
    pos = pos_diff_pmf(spec.n21, spec.n11)
    assert prob_sandwich(pos, spec.n21, 1) == F(27, 100)
    assert tail(spec.n21, 1) - diff_tail(spec.n21, spec.n11, 1) == F(27, 100)


def test_coupling_holds_on_random_specs():
    rng = random.Random(271828)
    for _ in range(60):
        spec = random_spec(rng, rng.randint(1, 3))
        a, b = pair_views(spec)
        assert coupling_holds(a, b), spec
        assert a.dominated


def test_coupling_triple_basics():
    m = pos_diff_pmf(FadingPmf.bernoulli(F(9, 10)), FadingPmf.bernoulli(F(3, 10)))
    n21 = FadingPmf.bernoulli(F(3, 10))
    l = pos_diff_pmf(FadingPmf.bernoulli(F(3, 10)), FadingPmf.bernoulli(F(9, 10)))
    # P(L < 1 <= M) with F_L(0) = 97/100, F_M(0) = 37/100
    assert prob_sandwich(l, m, 1) == F(3, 5)
    assert dominates(n21, l)
    assert not dominates(l, n21)


def one_layer(den, tail, diff_tail, alpha_ok=True, dominated=True):
    return _PairView(den, (tail,), (diff_tail,), alpha_ok, dominated)


# gamma's two sides are b.tails * a.den - a.tails * b.den and the same of
# the diff_tails, over a.den * b.den: (2, 2), (2, 4), (2, -2), (2, 2),
# (2, 2) and (0, -6)
@pytest.mark.parametrize("fields,ok", [
    ((one_layer(2, 1, 1), one_layer(4, 3, 3)), True),
    ((one_layer(2, 1, 1), one_layer(4, 3, 4)), False),
    # one side clamps to 0, the other is positive
    ((one_layer(2, 1, 2), one_layer(4, 3, 3)), False),
    ((one_layer(2, 1, 1, alpha_ok=False), one_layer(4, 3, 3)), False),
    ((one_layer(2, 1, 1, dominated=False), one_layer(4, 3, 3)), False),
    # both sides clamp to 0, so they agree though the integers differ
    ((one_layer(2, 1, 2), one_layer(4, 2, 1)), True),
])
def test_coupling_entry_ok_compares_values(fields, ok):
    assert coupling_holds(*fields) is ok


class RefEntry(NamedTuple):
    l: int
    lhs_gamma: Fraction
    rhs_gamma: Fraction
    lhs_alpha: Fraction
    rhs_alpha: Fraction

    @property
    def ok(self) -> bool:
        return self.lhs_gamma == self.rhs_gamma and self.lhs_alpha == self.rhs_alpha


def reference_coupling_entries(spec):
    # every quantity re-derived per layer in Fraction arithmetic, as the
    # identities are stated in coupling_holds' docstring
    m_pmf = pos_diff_pmf(spec.n22, spec.n12)
    l_pmf = pos_diff_pmf(spec.n21, spec.n11)
    entries = []
    for l in range(1, spec.q + 1):
        gap = diff_tail(spec.n22, spec.n12, l) - diff_tail(spec.n21, spec.n11, l)
        entries.append(RefEntry(
            l=l,
            lhs_gamma=prob_sandwich(l_pmf, m_pmf, l),
            rhs_gamma=gap if gap > 0 else F(0),
            lhs_alpha=prob_sandwich(l_pmf, spec.n21, l),
            rhs_alpha=tail(spec.n21, l) - diff_tail(spec.n21, spec.n11, l),
        ))
    # L <= N21 pointwise under the coupling iff every cdf of L is at least N21's
    order_ok = all(1 - tail(l_pmf, n + 1) >= 1 - tail(spec.n21, n + 1)
                   for n in range(spec.q + 1))
    return tuple(entries), order_ok


def reference_coupling_lines():
    # the suite's lines, from coupling_holds on each channel's own pair
    # views, read off it as a ChannelSpec; the views are memoised for this
    # call alone, so a test's mutant is seen
    view = functools.cache(oracles._pair_view)
    pmfs = verification._small_pmfs()
    total = bad = 0
    first = None
    for links in itertools.product(pmfs, repeat=4):
        total += 1
        if not coupling_holds(*pair_views(ChannelSpec(*links), view)):
            bad += 1
            if first is None:
                first = links
    lines = [f"[coupling] {total - bad}/{total} channels satisfy both identities "
             "and the pointwise order"]
    if first is not None:
        lines.append(f"[coupling]   first failure at {first}")
    return tuple(lines)


def assert_suite_matches_reference():
    result = verification.verify_coupling()
    assert result.lines == reference_coupling_lines()
    return result


def assert_same_verdict(spec, view=oracles._pair_view):
    a, b = pair_views(spec, view)
    want_entries, want_order_ok = reference_coupling_entries(spec)
    for v, (x, y) in ((a, (spec.n21, spec.n11)), (b, (spec.n22, spec.n12))):
        pos = pos_diff_pmf(x, y)
        assert len(v.tails) == len(v.diff_tails) == spec.q
        for l in range(1, spec.q + 1):
            assert F(v.tails[l - 1], v.den) == tail(pos, l), (spec, l)
            assert F(v.diff_tails[l - 1], v.den) == diff_tail(x, y, l), (spec, l)
    assert a.alpha_ok == all(e.lhs_alpha == e.rhs_alpha for e in want_entries), spec
    assert a.dominated == want_order_ok, spec
    # the verdict, decided on integers, agrees with the Fraction entries
    assert coupling_holds(a, b) == (want_order_ok and all(e.ok for e in want_entries)), spec


def test_coupling_matches_reference_on_suite_channels():
    # every 7th of the suite's 50,625 channels; 7 is prime to 15, so the
    # four links all run through all 15 pmfs
    pmfs = verification._small_pmfs()
    view = functools.cache(oracles._pair_view)
    for links in itertools.islice(itertools.product(pmfs, repeat=4), 0, None, 7):
        assert_same_verdict(ChannelSpec(*links), view)


def test_coupling_suite_is_the_per_channel_check():
    assert assert_suite_matches_reference().ok


@settings(max_examples=200, deadline=None)
@given(spec=specs(max_q=4, weights=MIXED_WEIGHTS))
def test_coupling_matches_reference_on_drawn_specs(spec):
    assert_same_verdict(spec)


def test_coupling_suite_catches_changed_pos_diff_tails(monkeypatch):
    # for the one pair N21 = 1, N11 = 0, move a quarter of the mass of
    # (N21 - N11)^+ from level 1 to level 0: the convolution side no longer
    # matches the difference tails, though L <= N21 still holds
    x, y = FadingPmf.point(1, 2), FadingPmf.point(0, 2)
    assert pos_diff_pmf(x, y) == x
    real = oracles.pos_diff_pmf

    def mutant(a, b):
        if (a, b) == (x, y):
            return FadingPmf([F(1, 4), F(3, 4), F(0)])
        return real(a, b)

    monkeypatch.setattr(oracles, "pos_diff_pmf", mutant)
    a, b = pair_views(ChannelSpec(n11=y, n12=y, n21=x, n22=x))
    # both pairs read the changed convolution, so gamma still holds and
    # only the alpha identity fails
    assert a.dominated and not a.alpha_ok and not coupling_holds(a, b)
    assert prob_sandwich(mutant(x, y), x, 1) == F(1, 4) != tail(x, 1) - diff_tail(x, y, 1)
    assert coupling_holds(a._replace(alpha_ok=True), b)
    result = assert_suite_matches_reference()
    assert not result.ok
    assert result.lines[0].startswith("[coupling] ") and "/50625 channels" in result.lines[0]
    assert not result.lines[0].startswith("[coupling] 50625/")
    assert any("first failure at" in line for line in result.lines)


def test_coupling_suite_catches_changed_diff_tails(monkeypatch):
    # for the one pair N21 = 1, N11 = 0 (or N22 = 1, N12 = 0), drop the
    # difference tail P(N_x - N_y >= 1) from 1 to 0; the alpha identities
    # read channel's own diff_tail and the order reads pos_diff_pmf, so both
    # still hold and only the gamma comparison can catch the change
    x, y = FadingPmf.point(1, 2), FadingPmf.point(0, 2)
    real = oracles._diff_tails

    def mutant(a, b):
        nums = real(a, b)
        if (a, b) == (x, y):
            return (nums[0] - 1,) + nums[1:]
        return nums

    monkeypatch.setattr(oracles, "_diff_tails", mutant)
    view = oracles._pair_view(x, y)
    assert view.alpha_ok and view.dominated
    assert view.diff_tails != view.tails
    # L = 1 and M = 2: P(L < 1 <= M) = 0, but the mutant's tails say L = 0
    a, b = pair_views(ChannelSpec(n11=y, n12=y, n21=x, n22=FadingPmf.point(2, 2)))
    assert a.dominated and a.alpha_ok and not coupling_holds(a, b)
    assert [coupling_holds(at_layer(a, l), at_layer(b, l)) for l in (1, 2)] == [False, True]
    result = assert_suite_matches_reference()
    assert not result.ok
    assert result.lines == (
        "[coupling] 50230/50625 channels satisfy both identities and the pointwise order",
        "[coupling]   first failure at (FadingPmf([0, 0, 1]), FadingPmf([1, 0, 0]), "
        "FadingPmf([0, 0, 1]), FadingPmf([0, 1, 0]))",
    )


def test_coupling_suite_catches_broken_dominance(monkeypatch):
    # (N21 - N11)^+ pushed to the top level while N21 stays at 0: the
    # coupled L then exceeds N21, so the pointwise order fails
    x = y = FadingPmf.point(0, 2)
    real = oracles.pos_diff_pmf

    def mutant(a, b):
        if (a, b) == (x, y):
            return FadingPmf.point(2, 2)
        return real(a, b)

    monkeypatch.setattr(oracles, "pos_diff_pmf", mutant)
    a, b = pair_views(ChannelSpec(n11=y, n12=y, n21=x, n22=x))
    # both identities still hold, so only the order fails
    assert not a.dominated and not coupling_holds(a, b)
    assert coupling_holds(a._replace(dominated=True), b)
    result = assert_suite_matches_reference()
    assert not result.ok
    assert any("first failure at" in line for line in result.lines)


def test_coupling_suite_reads_each_channels_own_pairs(monkeypatch):
    # the alpha side of the one pair N21 = 1, N11 = 2 is off by a quarter,
    # and alpha is read from (n21, n11) alone, so exactly the 225 channels
    # with those two links fail; the channel with N11 and N21 swapped
    # passes, so a suite that read that view as (n11, n21) would name
    # another first failure
    x, y = FadingPmf.point(1, 2), FadingPmf.point(2, 2)
    real = oracles.diff_tail

    def mutant(a, b, l):
        return real(a, b, l) + (F(1, 4) if (a, b) == (x, y) else 0)

    monkeypatch.setattr(oracles, "diff_tail", mutant)
    assert not coupling_holds(*pair_views(ChannelSpec(n11=y, n12=y, n21=x, n22=y)))
    assert coupling_holds(*pair_views(ChannelSpec(n11=x, n12=y, n21=y, n22=y)))
    assert verification.verify_coupling().lines == (
        "[coupling] 50400/50625 channels satisfy both identities and the pointwise order",
        f"[coupling]   first failure at {(y, y, x, y)}",
    )


def test_mc_tolerance_scales_with_samples():
    # exactly 1/200 at the default 10^6 samples, halved at four times as many
    tiny = F(1, 10 ** 12)
    assert mc_within_tolerance(F(1, 200), 10 ** 6)
    assert not mc_within_tolerance(F(1, 200) + tiny, 10 ** 6)
    assert mc_within_tolerance(F(1, 400), 4 * 10 ** 6)
    assert not mc_within_tolerance(F(1, 400) + tiny, 4 * 10 ** 6)
    assert not mc_within_tolerance(F(1, 200), 4 * 10 ** 6)
    assert mc_within_tolerance(F(5, 100), 10 ** 4)
    assert not mc_within_tolerance(F(5, 100) + tiny, 10 ** 4)
