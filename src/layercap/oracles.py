"""Independent validation paths: Monte Carlo statistics and coupling identities.

The Monte Carlo estimator draws the four links' fading levels, never
received words, and estimates every tail, difference-tail and expectation
statistic the exact machinery computes from its sample frequencies;
agreement is evidence the convolution formulas and the sampler describe the
same level distributions.  The coupling check verifies, analytically, the
quantile-coupling identities that tie the difference-level variables
together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .channel import (
    ChannelSpec,
    FadingPmf,
    diff_tail,
    expect,
    expect_max,
    expect_pos_diff,
    pos_diff_pmf,
    tail,
)

_LINKS = ("n11", "n12", "n21", "n22")
_DIFF_PAIRS = (("n11", "n21"), ("n21", "n11"), ("n22", "n12"), ("n12", "n22"))
_MAX_PAIRS = (("n11", "n21"), ("n22", "n12"))
_CHUNK = 1 << 16


@dataclass(frozen=True)
class SimConfig:
    """Sampling request: which channel, how many uses, which seed."""

    spec: ChannelSpec
    samples: int
    seed: int = 0

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")


def _level_chunks(cfg: SimConfig):
    """Yield (q+1)-level draws as an (4, m) int array per chunk.

    Each chunk gets its own counter-based stream keyed by (seed, chunk
    index), so aggregate results do not depend on how chunks are scheduled
    and reruns are bit-identical.
    """
    cdfs = [
        np.cumsum([float(m) for m in cfg.spec.links()[link].masses])
        for link in _LINKS
    ]
    q = cfg.spec.q
    done = 0
    chunk = 0
    while done < cfg.samples:
        m = min(_CHUNK, cfg.samples - done)
        gen = np.random.Generator(
            np.random.Philox(key=[cfg.seed % (1 << 64), chunk])
        )
        u = gen.random((4, m))
        levels = np.empty((4, m), dtype=np.int64)
        for i, cdf in enumerate(cdfs):
            levels[i] = np.minimum(np.searchsorted(cdf, u[i], side="right"), q)
        yield levels
        done += m
        chunk += 1


@dataclass(frozen=True)
class MCStatEntry:
    name: str
    estimate: Fraction
    stderr: float


@dataclass(frozen=True)
class MCStatsReport:
    samples: int
    seed: int
    entries: tuple

    def by_name(self) -> dict:
        return {e.name: e for e in self.entries}


def exact_stats(spec: ChannelSpec) -> dict:
    """Every statistic the model computes, keyed like the MC estimates."""
    out = {}
    links = spec.links()
    q = spec.q
    for name in _LINKS:
        for l in range(1, q + 1):
            out[f"tail:{name}:{l}"] = tail(links[name], l)
    for a, b in _DIFF_PAIRS:
        for l in range(1, q + 1):
            out[f"diff_tail:{a}-{b}:{l}"] = diff_tail(links[a], links[b], l)
    for name in _LINKS:
        out[f"expect:{name}"] = expect(links[name])
    for a, b in _DIFF_PAIRS:
        out[f"expect_pos_diff:{a}-{b}"] = expect_pos_diff(links[a], links[b])
    for a, b in _MAX_PAIRS:
        out[f"expect_max:{a}:{b}"] = expect_max(links[a], links[b])
    return out


def _prob_entry(name: str, hits: int, m: int) -> MCStatEntry:
    p = hits / m
    return MCStatEntry(name, Fraction(hits, m), math.sqrt(p * (1.0 - p) / m))


def _mean_entry(name: str, weights, counts, m: int) -> MCStatEntry:
    # weights[i] is the per-sample value whose histogram is counts
    total = sum(int(w) * int(c) for w, c in zip(weights, counts))
    sq = sum(int(w) ** 2 * int(c) for w, c in zip(weights, counts))
    var = max(sq / m - (total / m) ** 2, 0.0)
    return MCStatEntry(name, Fraction(total, m), math.sqrt(var / m))


def mc_estimate_stats(cfg: SimConfig) -> MCStatsReport:
    """Empirical counterpart of exact_stats from the joint level histogram.

    Estimates are exact fractions count/samples, so identical seeds give
    identical reports; standard errors are the usual binomial/plug-in ones.
    """
    q = cfg.spec.q
    side = q + 1
    counts = np.zeros(side ** 4, dtype=np.int64)
    for levels in _level_chunks(cfg):
        flat = ((levels[0] * side + levels[1]) * side + levels[2]) * side + levels[3]
        counts += np.bincount(flat, minlength=side ** 4)
    joint = counts.reshape((side,) * 4)
    m = cfg.samples
    axis_of = {name: i for i, name in enumerate(_LINKS)}
    entries = []
    singles = {name: joint.sum(axis=tuple(i for i in range(4) if i != axis_of[name]))
               for name in _LINKS}
    pair_counts = {}
    for a, b in set(_DIFF_PAIRS) | set(_MAX_PAIRS):
        ia, ib = axis_of[a], axis_of[b]
        marg = joint.sum(axis=tuple(i for i in range(4) if i not in (ia, ib)))
        if ia > ib:
            marg = marg.T
        pair_counts[(a, b)] = marg  # rows index a's level, columns b's
    for name in _LINKS:
        c = singles[name]
        for l in range(1, q + 1):
            entries.append(_prob_entry(f"tail:{name}:{l}", int(c[l:].sum()), m))
    for a, b in _DIFF_PAIRS:
        c2 = pair_counts[(a, b)]
        for l in range(1, q + 1):
            hits = sum(int(c2[i, k]) for i in range(side) for k in range(side) if i - k >= l)
            entries.append(_prob_entry(f"diff_tail:{a}-{b}:{l}", hits, m))
    for name in _LINKS:
        entries.append(_mean_entry(f"expect:{name}", range(side), singles[name], m))
    for a, b in _DIFF_PAIRS:
        c2 = pair_counts[(a, b)]
        hist = [0] * side
        for i in range(side):
            for k in range(side):
                hist[max(i - k, 0)] += int(c2[i, k])
        entries.append(_mean_entry(f"expect_pos_diff:{a}-{b}", range(side), hist, m))
    for a, b in _MAX_PAIRS:
        c2 = pair_counts[(a, b)]
        hist = [0] * side
        for i in range(side):
            for k in range(side):
                hist[max(i, k)] += int(c2[i, k])
        entries.append(_mean_entry(f"expect_max:{a}:{b}", range(side), hist, m))
    return MCStatsReport(samples=m, seed=cfg.seed, entries=tuple(entries))


# Coupled variables are the pseudo-inverse cdfs F^{-1}(v) = inf {u : F(u) >= v}
# of one shared uniform draw v.  That keeps every marginal and turns joint
# events into interval arithmetic on cdf values: {X >= l} is {v > F_X(l-1)}.

def _cdf(pmf: FadingPmf, n: int) -> Fraction:
    """P(N <= n) for 0 <= n <= q."""
    return 1 - tail(pmf, n + 1)


def prob_sandwich(low: FadingPmf, high: FadingPmf, l: int) -> Fraction:
    """P(low-variable < l <= high-variable) under the shared uniform."""
    gap = _cdf(low, l - 1) - _cdf(high, l - 1)
    return gap if gap > 0 else Fraction(0)


def dominated(small: FadingPmf, big: FadingPmf) -> bool:
    """True iff the coupling makes small <= big pointwise (cdf ordering)."""
    return all(_cdf(small, n) >= _cdf(big, n) for n in range(small.q + 1))


@dataclass(frozen=True)
class CouplingEntry:
    l: int
    lhs_gamma: Fraction
    rhs_gamma: Fraction
    lhs_alpha: Fraction
    rhs_alpha: Fraction

    @property
    def ok(self) -> bool:
        return self.lhs_gamma == self.rhs_gamma and self.lhs_alpha == self.rhs_alpha


@dataclass(frozen=True)
class CouplingReport:
    entries: tuple
    order_ok: bool

    @property
    def ok(self) -> bool:
        return self.order_ok and all(e.ok for e in self.entries)


def coupling_check(spec: ChannelSpec) -> CouplingReport:
    """Verify the shared-uniform coupling identities exactly, layer by layer.

    With M = (N22-N12)^+, L = (N21-N11)^+ and N21 itself coupled through one
    uniform draw, the interval picture must reproduce the convolution-based
    quantities: P(L < l <= M) equals the clamped gamma numerator and
    P(L < l <= N21) equals alpha1(l); the coupling must also keep L <= N21
    pointwise.
    """
    m_pmf = pos_diff_pmf(spec.n22, spec.n12)
    l_pmf = pos_diff_pmf(spec.n21, spec.n11)
    zero = Fraction(0)
    entries = []
    for l in range(1, spec.q + 1):
        gap = diff_tail(spec.n22, spec.n12, l) - diff_tail(spec.n21, spec.n11, l)
        entries.append(CouplingEntry(
            l=l,
            lhs_gamma=prob_sandwich(l_pmf, m_pmf, l),
            rhs_gamma=gap if gap > 0 else zero,
            lhs_alpha=prob_sandwich(l_pmf, spec.n21, l),
            rhs_alpha=tail(spec.n21, l) - diff_tail(spec.n21, spec.n11, l),
        ))
    return CouplingReport(
        entries=tuple(entries),
        order_ok=dominated(l_pmf, spec.n21),
    )
