"""Independent validation paths: Monte Carlo statistics and coupling identities.

The Monte Carlo estimator draws the four links' fading levels, never
received words, and estimates every tail, difference-tail and expectation
statistic the exact machinery computes.  One table lists each statistic
once: its name, the per-use function of the four levels whose mean it is,
and its exact value from the channel module's formulas.  The estimator
averages every function over one joint histogram of the drawn levels and
returns, per channel, one mapping from each statistic's name to its
estimate, so agreement is evidence the convolution formulas and the sampler
describe the same level distributions.  The draws are Philox's raw 64-bit
words, each cdf value turned into the integer threshold a word must reach
for its uniform double to reach that value, so the histogram is that of the
doubles without converting a word.  The words depend only on the seed and
the chunk, so one draw serves several channels: a SimConfig names the
channels that share it, and each chunk of words is generated once and
counted into every channel's histogram.  The coupling check verifies,
analytically, the quantile-coupling identities that tie the difference-level
variables together.  Its verdict, coupling_holds, reads only the integer
views of two link pairs, so a batch of channels can share the views of its
pairs.  Only _cell_counts and mc_estimate_stats import numpy, so the exact
suites, which import this module too, do not pay for it.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .channel import (
    _LINKS,
    _PAIRS,
    ChannelSpec,
    FadingPmf,
    _Record,
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


class SimConfig(_Record):
    """One draw: the channels that share it, how many uses, which seed.

    specs may be any iterable of ChannelSpecs; the record keeps them as a tuple.
    """

    __slots__ = ("specs", "samples", "seed")

    def __init__(self, specs, samples: int, seed: int = 0):
        # a tuple, so that a generator is read once and the record hashes
        specs = tuple(specs)
        if not specs:
            raise ValueError("specs must hold at least one channel")
        if samples < 1:
            raise ValueError(f"samples must be >= 1, got {samples}")
        if not 0 <= seed < 1 << 64:
            raise ValueError(f"seed must be in [0, 2^64), got {seed}")
        super().__init__(specs, samples, seed)


def _word_threshold(c: float) -> int:
    """The least 64-bit word r whose uniform double (r >> 11) * 2^-53 is at
    least c, as numpy's generators map Philox's raw words to doubles; 2^64
    or more when no word's double reaches c."""
    # ldexp scales by a power of two, exactly, so ceil is exact too
    return math.ceil(math.ldexp(c, 53)) << 11


def _cell_counts(cfg: SimConfig) -> list:
    """Each spec's joint histogram of the drawn levels, flat, in cfg.specs'
    order: for a spec with s = q+1, cell ((n11*s + n12)*s + n21)*s + n22
    counts the uses that drew those levels.

    A link's level for its uniform draw u is the number of cdf[0..q-1] at or
    below u: for a non-decreasing cdf, the inverse-cdf level
    min(#{k : cdf[k] <= u}, q), also when the float cumsum ends below 1.
    Each 2^16-use chunk gets its own counter-based stream keyed by (seed,
    chunk index), so aggregate results do not depend on how chunks are
    scheduled and reruns are bit-identical.  The stream does not depend on
    the channel either, so every spec reads the same words: each chunk is
    generated once and counted into every spec's histogram, and each
    histogram is the one that spec drawn alone would give.

    The draws are Philox's raw 64-bit words r, never converted to doubles:
    u >= c holds exactly when r >= _word_threshold(c) = ceil(c * 2^53) * 2^11,
    so each cdf value becomes that integer threshold, and one that no word
    reaches is dropped.
    """
    import numpy as np

    plans = []
    for spec in cfg.specs:
        side = spec.q + 1
        thresholds = []
        for link in _LINKS:
            cdf = np.cumsum([float(m) for m in spec.links()[link].masses])[:spec.q]
            thresholds.append([np.uint64(t) for t in map(_word_threshold, cdf) if t < 1 << 64])
        # every partial index n11, n11*s + n12, ... is below s^4, so the
        # narrowest dtype holding s^4 - 1 never wraps, and narrow is fast
        plans.append((side, thresholds, np.min_scalar_type(side ** 4 - 1)))
    counts = [np.zeros(side ** 4, dtype=np.int64) for side, _, _ in plans]
    done = 0
    chunk = 0
    while done < cfg.samples:
        m = min(_CHUNK, cfg.samples - done)
        # a uint64 array: a list holding a seed >= 2^63 would become float64
        words = np.random.Philox(
            key=np.array([cfg.seed, chunk], dtype=np.uint64)
        ).random_raw((4, m))
        for (side, thresholds, cell), hist in zip(plans, counts):
            flat = np.zeros(m, dtype=cell)
            for row, link_thresholds in zip(words, thresholds):
                flat *= side
                for t in link_thresholds:
                    flat += row >= t
            hist += np.bincount(flat, minlength=side ** 4)
        done += m
        chunk += 1
    return counts


def _statistics(spec: ChannelSpec) -> list:
    """Every statistic the model computes, in the order both mappings list them.

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


def mc_estimate_stats(cfg: SimConfig) -> list:
    """Empirical counterpart of exact_stats from the joint level histograms:
    for each of cfg.specs, in order, each statistic's name mapped to its
    estimate, in exact_stats' order.

    An estimate is the exact fraction sum/samples of the statistic's per-use
    values, so identical seeds give identical mappings.
    """
    import numpy as np

    out = []
    for spec, counts in zip(cfg.specs, _cell_counts(cfg)):
        joint = counts.reshape((spec.q + 1,) * 4)
        # the drawn level tuples with their counts
        cells = [(n, int(joint[n])) for n in map(tuple, np.argwhere(joint).tolist())]
        out.append({name: Fraction(sum(f(n) * c for n, c in cells), cfg.samples)
                    for name, f, _ in _statistics(spec)})
    return out


# Coupled variables are the pseudo-inverse cdfs F^{-1}(v) = inf {u : F(u) >= v}
# of one shared uniform draw v.  That keeps every marginal and turns joint
# events into interval arithmetic on cdf values: {X >= l} is {v > F_X(l-1)}.

def prob_sandwich(low: FadingPmf, high: FadingPmf, l: int) -> Fraction:
    """P(low-variable < l <= high-variable) under the shared uniform."""
    gap = tail(high, l) - tail(low, l)
    return gap if gap > 0 else Fraction(0)


class _PairView(namedtuple("_PairView", "den tails diff_tails alpha_ok dominated")):
    """What the coupling identities read of one link pair (x, y).

    tails[l-1] and diff_tails[l-1] are P((N_x - N_y)^+ >= l), once from the
    mass convolution of pos_diff_pmf and once from _diff_tails, as integer
    numerators over den; alpha_ok says P(L < l <= N_x) equals alpha(l) at
    every layer, for L = (N_x - N_y)^+; dominated says L <= N_x under the
    coupling.
    """

    __slots__ = ()


def _pair_view(x: FadingPmf, y: FadingPmf) -> _PairView:
    pos = pos_diff_pmf(x, y)
    nums = _diff_tails(x, y)
    dxy = x._den * y._den
    den = math.lcm(pos._den, dxy)
    return _PairView(
        den=den,
        tails=tuple(t * (den // pos._den) for t in pos._int_tails[1:-1]),
        diff_tails=tuple(n * (den // dxy) for n in nums),
        alpha_ok=all(prob_sandwich(pos, x, l) == tail(x, l) - diff_tail(x, y, l)
                     for l in range(1, x.q + 1)),
        dominated=dominates(x, pos),
    )


def coupling_holds(a: _PairView, b: _PairView) -> bool:
    """The coupling verdict on a channel with pair views A = (n21, n11) and
    B = (n22, n12).

    With M = (N22-N12)^+, L = (N21-N11)^+ and N21 itself coupled through one
    uniform draw, the coupling must keep L <= N21 pointwise, and at every
    layer P(L < l <= N21) must equal alpha1(l) and P(L < l <= M) the
    clamped gamma numerator [P(N22 - N12 >= l) - P(N21 - N11 >= l)]^+; only
    gamma reads B.  P(L < l <= M) = [P(M >= l) - P(L >= l)]^+, so both
    sides of the gamma identity are integer differences over the product of
    the views' denominators, compared as integers.
    """
    if not (a.dominated and a.alpha_ok):
        return False
    for ta, tb, ua, ub in zip(a.tails, b.tails, a.diff_tails, b.diff_tails):
        lhs, rhs = tb * a.den - ta * b.den, ub * a.den - ua * b.den
        # both sides are clamped at 0: max(lhs, 0) == max(rhs, 0)
        if lhs != rhs and (lhs > 0 or rhs > 0):
            return False
    return True
