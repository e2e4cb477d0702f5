"""Monte Carlo estimators and the shared-uniform coupling."""

import dataclasses
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from layercap import ChannelSpec, FadingPmf, diff_tail, pos_diff_pmf, tail
from layercap.channel import dominates
from layercap.corpus import examples, random_spec, symmetric_bernoulli
from layercap.oracles import (
    CouplingEntry,
    SimConfig,
    coupling_check,
    exact_stats,
    mc_estimate_stats,
    prob_sandwich,
)
from layercap import oracles, verification
from layercap.verification import mc_within_tolerance
from strategies import MIXED_WEIGHTS, specs

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
        SimConfig(spec=spec, samples=0, seed=0)
    for seed in (-1, 2 ** 64):
        with pytest.raises(ValueError, match="seed must be in"):
            SimConfig(spec=spec, samples=1, seed=seed)


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
    a, b = (oracles._cell_counts(SimConfig(spec, 1000, 2 ** 63 + k)) for k in (1, 2))
    assert not np.array_equal(a, b)


def test_same_seed_reproduces_exactly():
    spec = symmetric_bernoulli(F(9, 10), F(3, 10))
    cfg = SimConfig(spec=spec, samples=70_000, seed=123)
    a = mc_estimate_stats(cfg)
    b = mc_estimate_stats(cfg)
    assert [(e.name, e.estimate, e.stderr) for e in a.entries] == [
        (e.name, e.estimate, e.stderr) for e in b.entries
    ]
    c = mc_estimate_stats(SimConfig(spec=spec, samples=70_000, seed=124))
    assert any(
        x.estimate != y.estimate for x, y in zip(a.entries, c.entries)
    )


def test_estimates_are_sample_frequencies():
    spec = symmetric_bernoulli(F(1, 2), F(1, 2))
    cfg = SimConfig(spec=spec, samples=1000, seed=9)
    report = mc_estimate_stats(cfg)
    assert report.samples == 1000 and report.seed == 9
    for entry in report.entries:
        if entry.name.startswith(("tail:", "diff_tail:")):
            assert 0 <= entry.estimate <= 1
            assert 1000 % entry.estimate.denominator == 0


def test_exact_and_estimated_names_agree():
    spec = examples()["moderate"]
    cfg = SimConfig(spec=spec, samples=256, seed=0)
    report = mc_estimate_stats(cfg)
    exact = exact_stats(spec)
    assert [e.name for e in report.entries] == list(exact)
    assert {e.name: e for e in report.entries}["expect:n11"].estimate >= 0


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
    cfg = SimConfig(spec=spec, samples=500, seed=11)
    report = mc_estimate_stats(cfg)
    exact = exact_stats(spec)
    for entry in report.entries:
        assert entry.estimate == exact[entry.name]
        assert entry.stderr == 0.0


def reference_cell_counts(cfg):
    # the inverse-cdf levels by searchsorted over the same Philox draws,
    # as a (4, m) level array per chunk, then the flat joint-cell histogram
    q = cfg.spec.q
    side = q + 1
    cdfs = [np.cumsum([float(m) for m in pmf.masses]) for pmf in cfg.spec.links().values()]
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


def assert_same_cell_counts(cfg):
    got, want = oracles._cell_counts(cfg), reference_cell_counts(cfg)
    assert got.dtype == want.dtype and np.array_equal(got, want), cfg
    assert int(got.sum()) == cfg.samples


@settings(max_examples=60, deadline=None)
@given(spec=specs(max_q=4), samples=st.integers(1, 3000), seed=st.integers(0, 2 ** 64 - 1))
def test_cell_counts_match_searchsorted_levels(spec, samples, seed):
    assert_same_cell_counts(SimConfig(spec, samples, seed))


def test_cell_counts_when_the_float_cdf_ends_below_one():
    pmf = FadingPmf([F(1, 6), F(2, 3), F(1, 6)])
    assert np.cumsum([float(m) for m in pmf.masses])[-1] < 1.0
    spec = ChannelSpec(pmf, FadingPmf.point(2, 2), pmf, FadingPmf([F(1, 2), F(0), F(1, 2)]))
    assert_same_cell_counts(SimConfig(spec, 5000, 3))


@pytest.mark.parametrize("samples", [1, 65_535, 65_537, 140_000])
def test_cell_counts_across_chunk_boundaries(samples):
    assert_same_cell_counts(SimConfig(examples()["det"], samples, 7))
    assert_same_cell_counts(SimConfig(examples()["moderate"], samples, 7))


def test_montecarlo_suite_fails_on_a_changed_rerun(monkeypatch):
    # every other report is drawn with another seed but keeps the requested
    # one, so the rerun differs in its estimates except on the constant det
    # channel, whose estimates are exact
    calls = []

    def flaky(cfg):
        calls.append(cfg)
        drawn = SimConfig(cfg.spec, cfg.samples, cfg.seed + len(calls) % 2)
        return dataclasses.replace(mc_estimate_stats(drawn), seed=cfg.seed)

    monkeypatch.setattr(verification, "mc_estimate_stats", flaky)
    result = verification.verify_montecarlo(samples=1000)
    assert not result.ok
    assert sum("rerun identical: False" in line for line in result.lines) == 3


def test_coupling_pinned_weak_example():
    spec = symmetric_bernoulli(F(9, 10), F(3, 10))
    report = coupling_check(spec)
    assert report.ok and report.order_ok
    entry = report.entries[0]
    assert entry.l == 1
    assert entry.lhs_gamma == entry.rhs_gamma == F(3, 5)
    assert entry.lhs_alpha == entry.rhs_alpha == F(27, 100)


def test_coupling_holds_on_random_specs():
    rng = random.Random(271828)
    for _ in range(60):
        spec = random_spec(rng, rng.randint(1, 3))
        report = coupling_check(spec)
        assert report.ok, spec
        assert report.order_ok


def test_coupling_triple_basics():
    m = pos_diff_pmf(FadingPmf.bernoulli(F(9, 10)), FadingPmf.bernoulli(F(3, 10)))
    n21 = FadingPmf.bernoulli(F(3, 10))
    l = pos_diff_pmf(FadingPmf.bernoulli(F(3, 10)), FadingPmf.bernoulli(F(9, 10)))
    # P(L < 1 <= M) with F_L(0) = 97/100, F_M(0) = 37/100
    assert prob_sandwich(l, m, 1) == F(3, 5)
    assert dominates(n21, l)
    assert not dominates(l, n21)


@pytest.mark.parametrize("fields,ok", [
    ((F(1, 2), F(2, 4), F(0), 0), True),
    ((F(1, 2), F(1, 3), F(1, 5), F(1, 5)), False),
    ((F(1, 3), F(2, 3), F(1, 5), F(1, 5)), False),
    ((F(0), F(0), F(1, 5), F(1, 7)), False),
    ((F(0), F(0), F(2, 7), F(3, 7)), False),
])
def test_coupling_entry_ok_compares_values(fields, ok):
    assert CouplingEntry(1, *fields).ok is ok


def reference_coupling_check(spec):
    # every quantity re-derived per layer in Fraction arithmetic, as the
    # identities are stated in coupling_check's docstring
    m_pmf = pos_diff_pmf(spec.n22, spec.n12)
    l_pmf = pos_diff_pmf(spec.n21, spec.n11)
    entries = []
    for l in range(1, spec.q + 1):
        gap = diff_tail(spec.n22, spec.n12, l) - diff_tail(spec.n21, spec.n11, l)
        entries.append(CouplingEntry(
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


def assert_same_report(spec):
    got = coupling_check(spec)
    want_entries, want_order_ok = reference_coupling_check(spec)
    assert got.order_ok == want_order_ok, spec
    assert len(got.entries) == len(want_entries) == spec.q
    for g, w in zip(got.entries, want_entries):
        assert g == w, (spec, g.l)
        # equal Fractions, not merely equal values of another type
        for field in dataclasses.fields(w):
            assert type(getattr(g, field.name)) is type(getattr(w, field.name))
    assert (got.entries, got.order_ok) == (want_entries, want_order_ok)
    # the verdict, decided on integers, agrees with the Fraction entries
    assert got.ok == (want_order_ok and all(e.ok for e in want_entries)), spec


@pytest.fixture
def fresh_pair_views():
    # the views are cached per link pair; a mutant's view must neither
    # come from nor stay in the cache another test sees
    oracles._pair_view.cache_clear()
    yield
    oracles._pair_view.cache_clear()


def test_coupling_matches_reference_on_suite_channels():
    # every 7th of the suite's 50,625 channels; 7 is prime to 15, so the
    # four links all run through all 15 pmfs
    pmfs = verification._small_pmfs()
    for links in itertools.islice(itertools.product(pmfs, repeat=4), 0, None, 7):
        assert_same_report(ChannelSpec(*links))


@settings(max_examples=200, deadline=None)
@given(spec=specs(max_q=4, weights=MIXED_WEIGHTS))
def test_coupling_matches_reference_on_drawn_specs(spec):
    assert_same_report(spec)


def test_coupling_suite_catches_changed_pos_diff_tails(monkeypatch, fresh_pair_views):
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
    report = coupling_check(ChannelSpec(n11=y, n12=y, n21=x, n22=x))
    # both pairs read the changed convolution, so gamma still holds and
    # only the alpha identity fails
    assert report.order_ok and not report.ok
    assert report.entries[0].lhs_alpha == F(1, 4) != report.entries[0].rhs_alpha
    assert all(e.lhs_gamma == e.rhs_gamma for e in report.entries)
    result = verification.verify_coupling()
    assert not result.ok
    assert result.lines[0].startswith("[coupling] ") and "/50625 channels" in result.lines[0]
    assert not result.lines[0].startswith("[coupling] 50625/")
    assert any("first failure at" in line for line in result.lines)


def test_coupling_suite_catches_changed_diff_tails(monkeypatch, fresh_pair_views):
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
    report = coupling_check(ChannelSpec(n11=y, n12=y, n21=x, n22=FadingPmf.point(2, 2)))
    assert report.order_ok and not report.ok
    assert [e.lhs_alpha == e.rhs_alpha for e in report.entries] == [True, True]
    assert [e.lhs_gamma == e.rhs_gamma for e in report.entries] == [False, True]
    result = verification.verify_coupling()
    assert not result.ok
    assert result.lines == (
        "[coupling] 50230/50625 channels satisfy both identities and the pointwise order",
        "[coupling]   first failure at (FadingPmf([0, 0, 1]), FadingPmf([1, 0, 0]), "
        "FadingPmf([0, 0, 1]), FadingPmf([0, 1, 0]))",
    )


def test_coupling_suite_catches_broken_dominance(monkeypatch, fresh_pair_views):
    # (N21 - N11)^+ pushed to the top level while N21 stays at 0: the
    # coupled L then exceeds N21, so the pointwise order fails
    x = y = FadingPmf.point(0, 2)
    real = oracles.pos_diff_pmf

    def mutant(a, b):
        if (a, b) == (x, y):
            return FadingPmf.point(2, 2)
        return real(a, b)

    monkeypatch.setattr(oracles, "pos_diff_pmf", mutant)
    report = coupling_check(ChannelSpec(n11=y, n12=y, n21=x, n22=x))
    # both identities still hold, so only the order fails
    assert not report.order_ok and not report.ok
    assert all(e.ok for e in report.entries)
    result = verification.verify_coupling()
    assert not result.ok
    assert any("first failure at" in line for line in result.lines)


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
