"""Monte Carlo estimators, the shared-uniform coupling, and the grid checker."""

import random
from fractions import Fraction

import numpy as np
import pytest

from layercap import (
    ChannelSpec,
    CouplingTriple,
    FadingPmf,
    SimConfig,
    coupling_check,
    exact_stats,
    examples,
    grid_cross_check,
    mc_estimate_stats,
    pos_diff_pmf,
    random_spec,
    simulate_channel,
    symmetric_bernoulli,
)
from layercap.verification import mc_within_tolerance

F = Fraction


def const_spec(n11, n12, n21, n22, q):
    return ChannelSpec(
        n11=FadingPmf.point(n11, q),
        n12=FadingPmf.point(n12, q),
        n21=FadingPmf.point(n21, q),
        n22=FadingPmf.point(n22, q),
    )


def test_received_word_alignment():
    # direct level 2 keeps both layers of w; cross level 1 delivers only the
    # top layer of x, shifted down to the lowest layer at the receiver
    spec = const_spec(2, 0, 1, 0, 2)
    cfg = SimConfig(spec=spec, samples=8, seed=1)
    w = np.array([1, 0], dtype=np.uint8)
    x = np.array([1, 1], dtype=np.uint8)
    y, z = simulate_channel(cfg, w, x)
    assert y.shape == (8, 2) and z.shape == (8, 2)
    assert (y == np.array([1, 1], dtype=np.uint8)).all()
    assert (z == 0).all()


def test_full_level_is_elementwise_xor():
    spec = const_spec(2, 2, 2, 2, 2)
    cfg = SimConfig(spec=spec, samples=4, seed=3)
    w = np.array([1, 0], dtype=np.uint8)
    x = np.array([0, 1], dtype=np.uint8)
    y, z = simulate_channel(cfg, w, x)
    assert (y == np.array([1, 1], dtype=np.uint8)).all()
    assert (z == np.array([1, 1], dtype=np.uint8)).all()


def test_absent_cross_link_gives_clean_output():
    spec = const_spec(2, 0, 0, 2, 2)
    cfg = SimConfig(spec=spec, samples=4, seed=0)
    w = np.array([1, 1], dtype=np.uint8)
    x = np.array([1, 1], dtype=np.uint8)
    y, z = simulate_channel(cfg, w, x)
    assert (y == w).all()
    assert (z == x).all()


def test_simulate_channel_input_validation():
    spec = const_spec(1, 1, 1, 1, 1)
    cfg = SimConfig(spec=spec, samples=4, seed=0)
    with pytest.raises(ValueError):
        simulate_channel(cfg, np.array([1, 0], dtype=np.uint8), np.array([1], dtype=np.uint8))
    with pytest.raises(ValueError):
        simulate_channel(cfg, np.array([2], dtype=np.uint8), np.array([1], dtype=np.uint8))


def test_sim_config_validation():
    spec = const_spec(1, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        SimConfig(spec=spec, samples=0, seed=0)


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
    assert sorted(e.name for e in report.entries) == sorted(exact)
    assert report.by_name()["expect:n11"].estimate >= 0


def test_constant_channel_estimates_are_exact():
    spec = const_spec(3, 2, 2, 3, 3)
    cfg = SimConfig(spec=spec, samples=500, seed=11)
    report = mc_estimate_stats(cfg)
    exact = exact_stats(spec)
    for entry in report.entries:
        assert entry.estimate == exact[entry.name]
        assert entry.stderr == 0.0


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
    triple = CouplingTriple(pmf_m=m, pmf_n21=n21, pmf_l=l)
    # P(L < 1 <= M) with F_L(0) = 97/100, F_M(0) = 37/100
    assert triple.prob_sandwich(triple.pmf_l, triple.pmf_m, 1) == F(3, 5)
    assert triple.dominated(l, n21)


def test_grid_cross_check_agrees():
    for key in ("det", "strong"):
        report = grid_cross_check(examples()[key], 24)
        assert report.ok
        assert report.disagreements == 0
        assert report.points == 24 * 24
    with pytest.raises(ValueError):
        grid_cross_check(examples()["det"], 1)


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
