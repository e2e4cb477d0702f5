"""Acceptance battery: eight end-to-end checks, one visible line each.

Every check is exact rational arithmetic except the Monte Carlo cross-check,
which uses an absolute tolerance of 5e-3 at 10^6 samples.
"""

import itertools
import random
import time
from fractions import Fraction

from layercap import (
    bound_a,
    bound_b,
    bound_c,
    critical_weights,
    family_region,
    layer_coefficients,
    moderate_bounds,
    outer_region,
    strong_region,
    symmetric_q1_region,
)
from layercap.corpus import (
    random_moderate_spec,
    random_spec,
    random_strong_spec,
)
from layercap.deterministic import DetChannel, verify_recovery
from layercap.verification import (
    verify_coupling,
    verify_inclusions,
    verify_montecarlo,
)
from strategies import continuum_corpus

F = Fraction


def banner(capsys, n, label, detail, ok, dt):
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"[criterion {n}] {label}: {detail} ({dt:.1f}s) {status}")


def test_criterion_1_deterministic_recovery(capsys):
    t0 = time.time()
    failures = []
    for levels in itertools.product(range(4), repeat=4):
        if not verify_recovery(DetChannel(*levels)):
            failures.append(levels)
    ok = not failures
    banner(
        capsys, 1, "deterministic recovery",
        f"{256 - len(failures)}/256 constant channels, polytope and all "
        "eight bound pins exact", ok, time.time() - t0,
    )
    assert ok, failures[:5]


def test_criterion_2_strong_equals_compound_mac(capsys):
    t0 = time.time()
    rng = random.Random(1002)
    bad = 0
    for _ in range(100):
        spec = random_strong_spec(rng, rng.randint(0, 3))
        if outer_region(spec) != strong_region(spec):
            bad += 1
    banner(
        capsys, 2, "strong regime",
        f"{100 - bad}/100 random strong channels equal the compound "
        "multiple-access region exactly", bad == 0, time.time() - t0,
    )
    assert bad == 0


def test_criterion_3_weak_regime_battery(capsys):
    # inclusions, sum capacity, noise-tolerant point on both boundaries,
    # and the corner allocations (own-rate floor on the mirrored corner,
    # and weak_corner's own checks, the peer-rate ceiling on the direct
    # corner among them) at every critical weight
    t0 = time.time()
    result = verify_inclusions(count=100, seed=1003)
    banner(
        capsys, 3, "weak regime",
        result.lines[0].split("] ", 1)[1], result.ok, time.time() - t0,
    )
    assert result.ok, result.lines


def test_criterion_4_symmetric_q1_display(capsys):
    t0 = time.time()
    rep = symmetric_q1_region(F(4, 5), F(1, 2))
    checks = [
        ("per-user cap 4/5", any(
            (p.a, p.b, p.c) == (5, 0, 4) for p in rep.cap_planes
        )),
        ("sum bound 1", (rep.sum_plane.a, rep.sum_plane.b, rep.sum_plane.c)
         == (1, 1, 1)),
        ("weighted pair 65R1+40R2<=56", any(
            (p.a, p.b, p.c) == (65, 40, 56) for p in rep.c_planes
        )),
        ("weight 8/13", rep.weight_c == F(8, 13)),
        ("pair (b) redundant at 4/5", rep.a_redundant),
        ("pair (b) active at 3/5",
         not symmetric_q1_region(F(3, 5), F(1, 2)).a_redundant),
        ("crossing (4/5, 1/10)", rep.crossing == (F(4, 5), F(1, 10))),
    ]
    ok = all(flag for _, flag in checks)
    detail = "7/7 display values exact" if ok else "; ".join(
        name for name, flag in checks if not flag
    )
    banner(capsys, 4, "symmetric q=1 display", detail, ok, time.time() - t0)
    assert ok, [name for name, flag in checks if not flag]


def test_criterion_5_moderate_simplifications(capsys):
    # the a-family short form drops its clamp, so it is checked on the
    # weight range where the clamp is provably inactive; the c-family
    # short form holds on the whole weight triangle
    t0 = time.time()
    rng = random.Random(1005)
    bad = 0
    for _ in range(100):
        spec = random_moderate_spec(rng, rng.randint(1, 3))
        for user in (1, 2):
            co = layer_coefficients(spec)
            alphas = co.alpha1 if user == 1 else co.alpha2
            betas = co.beta1 if user == 1 else co.beta2
            omega_star = max(
                (a / b for a, b in zip(alphas, betas) if b > 0), default=F(0)
            )
            for _ in range(10):
                omega = omega_star + (1 - omega_star) * F(rng.randint(0, 24), 24)
                if moderate_bounds(spec, user, "a", omega) != bound_a(
                    spec, user, omega
                ):
                    bad += 1
                omega = F(rng.randint(0, 24), 24)
                mu = omega * F(rng.randint(0, 8), 8)
                if moderate_bounds(spec, user, "c", omega, mu) != bound_c(
                    spec, user, omega, mu
                ):
                    bad += 1
    banner(
        capsys, 5, "moderate simplifications",
        f"100 random moderate channels, 20 weights each per user: "
        f"{bad} mismatches", bad == 0, time.time() - t0,
    )
    assert bad == 0


def test_criterion_6_coupling_identities(capsys):
    t0 = time.time()
    result = verify_coupling()
    banner(
        capsys, 6, "coupling identities",
        result.lines[0].split("] ", 1)[1], result.ok, time.time() - t0,
    )
    assert result.ok, result.lines


def test_criterion_7_monte_carlo_cross_check(capsys):
    t0 = time.time()
    result = verify_montecarlo(samples=10 ** 6, seed=0)
    ok = result.ok
    banner(
        capsys, 7, "Monte Carlo cross-check",
        "4/4 example channels within 5e-3 at 10^6 samples, "
        "reruns byte-identical", ok, time.time() - t0,
    )
    assert ok, result.lines


def test_criterion_8_continuum_equivalence(capsys):
    t0 = time.time()
    rng = random.Random(1008)
    corpus = continuum_corpus(rng)
    cuts = 0
    evaluator = {"a": bound_a, "b": bound_b}
    for spec in corpus:
        for user in (1, 2):
            for family in ("a", "b", "c"):
                region = family_region(spec, user, family)
                for _ in range(1000):
                    omega = F(rng.randint(0, 9973), 9973)
                    if family == "c":
                        mu = omega * F(rng.randint(0, 64), 64)
                        value = bound_c(spec, user, omega, mu)
                        w_own, w_peer = 1 + mu, omega
                    else:
                        value = evaluator[family](spec, user, omega)
                        w_own, w_peer = F(1), omega
                    w1, w2 = (w_own, w_peer) if user == 1 else (w_peer, w_own)
                    if region.support(w1, w2) > value:
                        cuts += 1
    banner(
        capsys, 8, "continuum equivalence",
        f"20 channels, 1000 random weights per family per user: "
        f"{cuts} half-planes cut their critical-set polytope",
        cuts == 0, time.time() - t0,
    )
    assert cuts == 0


def test_critical_weight_sets_are_sufficient_spotcheck():
    # cheap companion to criterion 8: at every critical weight the bound is
    # tight on the polytope it generated
    rng = random.Random(88)
    for _ in range(10):
        spec = random_spec(rng, rng.randint(1, 2))
        for user in (1, 2):
            region = family_region(spec, user, "b")
            for omega in critical_weights(spec, user, "b"):
                w = (F(1), omega) if user == 1 else (omega, F(1))
                assert region.support(*w) == bound_b(spec, user, omega)
