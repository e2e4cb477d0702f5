"""Monte Carlo estimators and the shared-uniform coupling."""

import dataclasses
import random
from fractions import Fraction

import pytest

from layercap import (
    ChannelSpec,
    FadingPmf,
    SimConfig,
    coupling_check,
    dominated,
    exact_stats,
    examples,
    mc_estimate_stats,
    pos_diff_pmf,
    prob_sandwich,
    random_spec,
    symmetric_bernoulli,
)
from layercap import verification
from layercap.verification import mc_within_tolerance

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
    assert dominated(l, n21)


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
