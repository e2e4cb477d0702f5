"""Batch verification suites shared by the CLI and the acceptance tests.

Each suite returns a SuiteResult of human-readable lines; everything
compared exactly is compared exactly, and the Monte Carlo suite states its
tolerance in the output; its four example channels share one Monte Carlo
draw, and a second draw from the same seed is the rerun.  The counting
suites (deterministic, coupling, inclusions) hand their failures to one
verdict, _tally: `passed/total`, then at most ten failures (coupling only
its first), then PASS or FAIL.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .bounds import bound_b, critical_weights, family_region, outer_region
from .channel import ChannelSpec, FadingPmf, expect_pos_diff, swap_users
from .corpus import examples, random_weak_spec
from .deterministic import DetChannel, verify_recovery
from .oracles import SimConfig, _pair_view, coupling_holds, exact_stats, mc_estimate_stats
from .regimes import weak_corner, weak_region, weak_sum_capacity


def mc_within_tolerance(err: Fraction, samples: int) -> bool:
    """|err| <= 5e-3 * sqrt(1e6 / samples), decided exactly as err^2 * samples <= 25.

    The gate scales like the standard error of an n-sample mean: it is
    exactly 1/200 at the default 10^6 samples, looser below and tighter above.
    """
    return err * err * samples <= 25


@dataclass(frozen=True)
class SuiteResult:
    name: str
    ok: bool
    lines: tuple

    def render(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        body = "\n".join(self.lines)
        return f"{body}\n[{self.name}] {status}"


def _tally(name: str, total: int, what: str, failures: list, describe,
           shown: int = 10) -> SuiteResult:
    """A counting suite's verdict: `[name] passed/total what`, then the first
    `shown` failures; describe formats only those, so failures stay unformatted."""
    lines = [f"[{name}] {total - len(failures)}/{total} {what}"]
    lines.extend(f"[{name}]   {describe(failure)}" for failure in failures[:shown])
    return SuiteResult(name, not failures, tuple(lines))


_LEVEL_CAP = 3


def verify_deterministic() -> SuiteResult:
    """Sweep every constant channel with levels in {0.._LEVEL_CAP}."""
    channels = list(itertools.product(range(_LEVEL_CAP + 1), repeat=4))
    failures = [levels for levels in channels if not verify_recovery(DetChannel(*levels))]
    return _tally("deterministic", len(channels), "constant channels recovered exactly",
                  failures, lambda levels: f"mismatch at levels {levels}")


def _small_pmfs() -> list:
    """All pmfs on {0, 1, 2} with masses in quarters."""
    out = []
    for a in range(5):
        for b in range(5 - a):
            c = 4 - a - b
            out.append(FadingPmf.from_pairs([(a, 4), (b, 4), (c, 4)]))
    return out


def verify_coupling() -> SuiteResult:
    """Exhaust the coupling identities over every small-pmf channel.

    A channel's verdict reads only its pair views (n21, n11) and (n22, n12),
    so the 15^2 views are built once and each of the 15^4 channels is decided
    from two of them, in the order of product(pmfs, repeat=4).
    """
    pmfs = _small_pmfs()
    # the one check a ChannelSpec of these links would make
    assert all(pmf.q == 2 for pmf in pmfs)
    index = range(len(pmfs))
    views = {(i, j): _pair_view(pmfs[i], pmfs[j]) for i, j in itertools.product(index, repeat=2)}
    failures = [(i11, i12, i21, i22) for i11, i12, i21, i22 in itertools.product(index, repeat=4)
                if not coupling_holds(views[i21, i11], views[i22, i12])]
    return _tally("coupling", len(pmfs) ** 4,
                  "channels satisfy both identities and the pointwise order", failures,
                  lambda channel: f"first failure at {tuple(pmfs[i] for i in channel)}", shown=1)


def verify_montecarlo(samples: int = 10 ** 6, seed: int = 0) -> SuiteResult:
    """Estimate every statistic on the example corpus and compare exactly.

    The four channels share one draw, and the rerun is a second draw from
    the same seed.
    """
    # the gate's 5/sqrt(samples) to 3 significant digits, trailing zeros dropped
    mantissa, exponent = f"{5 / math.sqrt(samples):.2e}".split("e")
    tolerance = f"{mantissa.rstrip('0').rstrip('.')}e{exponent}"
    channels = examples()
    cfg = SimConfig(specs=tuple(channels.values()), samples=samples, seed=seed)
    first = mc_estimate_stats(cfg)
    again = mc_estimate_stats(cfg)
    ok = True
    lines = []
    for (label, spec), estimates, rerun in zip(channels.items(), first, again):
        exact = exact_stats(spec)
        worst = Fraction(0)
        bad = []
        for name, estimate in estimates.items():
            err = abs(estimate - exact[name])
            worst = max(worst, err)
            if not mc_within_tolerance(err, samples):
                bad.append((name, err))
        identical = rerun == estimates
        ok = ok and not bad and identical
        lines.append(
            f"[montecarlo] {label}: {len(estimates)} statistics, "
            f"worst |error| = {float(worst):.2e} "
            f"(tolerance {tolerance}), rerun identical: {identical}"
        )
        for name, err in bad[:5]:
            lines.append(f"[montecarlo]   {label}:{name} off by {float(err):.3e}")
    return SuiteResult("montecarlo", ok, tuple(lines))


def _check_weak_spec(spec: ChannelSpec) -> list:
    """All weak-regime facts for one spec; returns failure descriptions."""
    problems = []
    b_regions = {user: family_region(spec, user, "b") for user in (1, 2)}
    for user, family in itertools.product((1, 2), "ac"):
        if not b_regions[user].subset_of(family_region(spec, user, family)):
            problems.append(f"user-{user} b-region escapes the {family}-region")
    outer = outer_region(spec)
    if outer.support(1, 1) != weak_sum_capacity(spec):
        problems.append("outer-region sum support differs from the sum capacity")
    tin = (expect_pos_diff(spec.n11, spec.n21), expect_pos_diff(spec.n22, spec.n12))
    for user, region in b_regions.items():
        if not region.contains(tin):
            problems.append(f"noise-tolerant point outside user-{user} b-region")
        elif bound_b(spec, user, 1) != tin[0] + tin[1]:
            problems.append(f"noise-tolerant point not on user-{user} b-boundary")
    mirror = swap_users(spec)
    for omega_a in critical_weights(spec, 1, "b"):
        if omega_a == 0:
            continue
        try:
            alloc = weak_corner(spec, omega_a)
            mirrored = weak_corner(mirror, omega_a)
        except RuntimeError as exc:
            problems.append(str(exc))
            continue
        if not b_regions[1].contains(alloc.corner):
            problems.append(f"corner at weight {omega_a} escapes the b-region")
        if mirrored.corner[0] < tin[1]:
            problems.append(f"mirrored corner at weight {omega_a} undercuts the user-2 rate cap")
        # the critical weights end at 1
        if omega_a == 1 and alloc.corner != tin:
            problems.append("weight-1 corner is not the noise-tolerant point")
    if weak_region(spec) != outer:
        problems.append("b-region intersection differs from the full outer region")
    return problems


def verify_inclusions(count: int = 25, seed: int = 0) -> SuiteResult:
    """Randomized weak-regime battery: inclusions, sum capacity, corners."""
    rng = random.Random(seed)
    checked = (_check_weak_spec(random_weak_spec(rng, rng.randint(1, 3))) for _ in range(count))
    failures = [(i, problems) for i, problems in enumerate(checked) if problems]
    return _tally("inclusions", count, "random weak channels pass every check", failures,
                  lambda failure: f"spec {failure[0]}: {failure[1][0]}")


SUITES = {
    "deterministic": verify_deterministic,
    "coupling": verify_coupling,
    "montecarlo": verify_montecarlo,
    "inclusions": verify_inclusions,
}
