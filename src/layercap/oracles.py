"""Independent validation paths: Monte Carlo statistics and coupling identities.

The Monte Carlo estimator draws the four links' fading levels, never
received words, and estimates every tail, difference-tail and expectation
statistic the exact machinery computes.  One table lists each statistic
once: its name, the per-use function of the four levels whose mean it is,
and its exact value from the channel module's formulas.  The estimator
averages every function over one joint histogram of the drawn levels, so
agreement is evidence the convolution formulas and the sampler describe the
same level distributions.  The coupling check verifies, analytically, the
quantile-coupling identities that tie the difference-level variables
together; it decides them on integers and builds Fractions only for a
report's entries when they are read.  Only _cell_counts and
mc_estimate_stats import numpy, so the exact suites, which import this
module too, do not pay for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .channel import (
    _LINKS,
    _PAIRS,
    ChannelSpec,
    FadingPmf,
    _diff_tails,
    diff_tail,
    dominates,
    expect,
    expect_max,
    expect_pos_diff,
    pos_diff_pmf,
    tail,
)

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
        if not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed must be in [0, 2^64), got {self.seed}")


def _cell_counts(cfg: SimConfig):
    """Joint histogram of the drawn levels, flat: cell ((n11*s + n12)*s +
    n21)*s + n22, for s = q+1, counts the uses that drew those levels.

    A link's level for its uniform draw u is the number of cdf[0..q-1] at or
    below u: for a non-decreasing cdf, the inverse-cdf level
    min(#{k : cdf[k] <= u}, q), also when the float cumsum ends below 1.
    Each 2^16-use chunk gets its own counter-based stream keyed by (seed,
    chunk index), so aggregate results do not depend on how chunks are
    scheduled and reruns are bit-identical.
    """
    import numpy as np

    q = cfg.spec.q
    side = q + 1
    cdfs = [
        np.cumsum([float(m) for m in cfg.spec.links()[link].masses])[:q]
        for link in _LINKS
    ]
    counts = np.zeros(side ** 4, dtype=np.int64)
    # every partial index n11, n11*s + n12, ... is below s^4, so the
    # narrowest dtype holding s^4 - 1 never wraps, and narrow is fast
    cell = np.min_scalar_type(side ** 4 - 1)
    done = 0
    chunk = 0
    while done < cfg.samples:
        m = min(_CHUNK, cfg.samples - done)
        # a uint64 array: a list holding a seed >= 2^63 would become float64
        gen = np.random.Generator(
            np.random.Philox(key=np.array([cfg.seed, chunk], dtype=np.uint64))
        )
        u = gen.random((4, m))
        flat = np.zeros(m, dtype=cell)
        for row, cdf in zip(u, cdfs):
            flat *= side
            for c in cdf:
                flat += row >= c
        counts += np.bincount(flat, minlength=side ** 4)
        done += m
        chunk += 1
    return counts


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


def _statistics(spec: ChannelSpec) -> list:
    """Every statistic the model computes, in report order.

    A row is (name, f, exact): f maps one use's levels n = (n11, n12, n21,
    n22) to the value whose mean the statistic is, and exact is that mean
    from channel's formulas, never from f, so the Monte Carlo estimate of
    the row and its reference come from independent definitions.
    """
    links = spec.links()
    at = {name: i for i, name in enumerate(_LINKS)}
    layers = range(1, spec.q + 1)
    rows = []
    for x in _LINKS:
        rows += [(f"tail:{x}:{l}", lambda n, i=at[x], l=l: n[i] >= l,
                  tail(links[x], l)) for l in layers]
    for x, y in _PAIRS:
        rows += [(f"diff_tail:{x}-{y}:{l}", lambda n, i=at[x], j=at[y], l=l: n[i] - n[j] >= l,
                  diff_tail(links[x], links[y], l)) for l in layers]
    rows += [(f"expect:{x}", lambda n, i=at[x]: n[i], expect(links[x])) for x in _LINKS]
    rows += [(f"expect_pos_diff:{x}-{y}", lambda n, i=at[x], j=at[y]: max(n[i] - n[j], 0),
              expect_pos_diff(links[x], links[y])) for x, y in _PAIRS]
    rows += [(f"expect_max:{x}:{y}", lambda n, i=at[x], j=at[y]: max(n[i], n[j]),
              expect_max(links[x], links[y])) for x, y in _MAX_PAIRS]
    return rows


def exact_stats(spec: ChannelSpec) -> dict:
    """Every statistic the model computes, keyed like the MC estimates."""
    return {name: exact for name, _, exact in _statistics(spec)}


def mc_estimate_stats(cfg: SimConfig) -> MCStatsReport:
    """Empirical counterpart of exact_stats from the joint level histogram.

    Estimates are exact fractions sum/samples, so identical seeds give
    identical reports; standard errors are the plug-in ones, sqrt(var/n)
    for the sample variance var of the statistic's per-use values.
    """
    import numpy as np

    joint = _cell_counts(cfg).reshape((cfg.spec.q + 1,) * 4)
    # the drawn level tuples with their counts
    cells = [(n, int(joint[n])) for n in map(tuple, np.argwhere(joint).tolist())]
    m = cfg.samples
    entries = []
    for name, f, _ in _statistics(cfg.spec):
        total = sq = 0
        for n, c in cells:
            v = f(n)
            total += v * c
            sq += v * v * c
        entries.append(MCStatEntry(name, Fraction(total, m),
                                   math.sqrt((sq * m - total * total) / m ** 3)))
    return MCStatsReport(samples=m, seed=cfg.seed, entries=tuple(entries))


# Coupled variables are the pseudo-inverse cdfs F^{-1}(v) = inf {u : F(u) >= v}
# of one shared uniform draw v.  That keeps every marginal and turns joint
# events into interval arithmetic on cdf values: {X >= l} is {v > F_X(l-1)}.

def prob_sandwich(low: FadingPmf, high: FadingPmf, l: int) -> Fraction:
    """P(low-variable < l <= high-variable) under the shared uniform."""
    gap = tail(high, l) - tail(low, l)
    return gap if gap > 0 else Fraction(0)


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


class _PairView(NamedTuple):
    """What the coupling identities read of one link pair (x, y).

    tails[l-1] and diff_tails[l-1] are P((N_x - N_y)^+ >= l), once from the
    mass convolution of pos_diff_pmf and once from _diff_tails, as integer
    numerators over den; alphas[l-1] is the pair (P(L < l <= N_x), alpha(l))
    for L = (N_x - N_y)^+, and alpha_ok says the two agree at every layer;
    dominated says L <= N_x under the coupling.
    """

    den: int
    tails: tuple
    diff_tails: tuple
    alphas: tuple
    alpha_ok: bool
    dominated: bool


@lru_cache(maxsize=4096)
def _pair_view(x: FadingPmf, y: FadingPmf) -> _PairView:
    pos = pos_diff_pmf(x, y)
    nums = _diff_tails(x, y)
    dxy = x._den * y._den
    den = math.lcm(pos._den, dxy)
    alphas = tuple((prob_sandwich(pos, x, l), tail(x, l) - diff_tail(x, y, l))
                   for l in range(1, x.q + 1))
    return _PairView(
        den=den,
        tails=tuple(t * (den // pos._den) for t in pos._int_tails[1:-1]),
        diff_tails=tuple(n * (den // dxy) for n in nums),
        alphas=alphas,
        alpha_ok=all(lhs == rhs for lhs, rhs in alphas),
        dominated=dominates(x, pos),
    )


class CouplingReport(NamedTuple):
    """coupling_check's verdict on one channel, from the pair views of
    A = (n21, n11) and B = (n22, n12).

    ok and order_ok are decided on the views' integers when the report is
    made; entries, the Fraction values of both identities layer by layer,
    are built from the same integers on each read.
    """

    ok: bool
    order_ok: bool
    view_a: _PairView
    view_b: _PairView

    @property
    def entries(self) -> tuple:
        a, b = self.view_a, self.view_b
        den = a.den * b.den
        return tuple(
            CouplingEntry(l, Fraction(max(tb * a.den - ta * b.den, 0), den),
                          Fraction(max(ub * a.den - ua * b.den, 0), den), *alpha)
            for l, (ta, tb, ua, ub, alpha) in enumerate(
                zip(a.tails, b.tails, a.diff_tails, b.diff_tails, a.alphas), 1)
        )


def coupling_check(spec: ChannelSpec) -> CouplingReport:
    """Verify the shared-uniform coupling identities exactly, layer by layer.

    With M = (N22-N12)^+, L = (N21-N11)^+ and N21 itself coupled through one
    uniform draw, the interval picture must reproduce the convolution-based
    quantities: P(L < l <= M) equals the clamped gamma numerator and
    P(L < l <= N21) equals alpha1(l); the coupling must also keep L <= N21
    pointwise.

    Everything but gamma depends on the pair A = (n21, n11) alone and is
    decided once on its cached view.  P(L < l <= M) = [P(M >= l) - P(L >= l)]^+,
    so both sides of the gamma identity are integer differences over the
    product of the views' denominators, with B = (n22, n12) giving M; they
    are compared as integers, and no Fraction is made unless the report's
    entries are read.
    """
    a = _pair_view(spec.n21, spec.n11)
    b = _pair_view(spec.n22, spec.n12)
    ok = a.dominated and a.alpha_ok
    for ta, tb, ua, ub in zip(a.tails, b.tails, a.diff_tails, b.diff_tails):
        lhs, rhs = tb * a.den - ta * b.den, ub * a.den - ua * b.den
        # max(lhs, 0) == max(rhs, 0), as CouplingReport.entries clamps them
        ok = ok and (lhs == rhs or (lhs <= 0 and rhs <= 0))
    return CouplingReport(ok, a.dominated, a, b)
