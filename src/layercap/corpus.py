"""Named example channels and seeded random spec generators.

examples() holds the four named channels as one table, in the order the
Monte Carlo suite reports them: constant levels (3, 2, 2, 3), then one
symmetric single-layer channel each for the strong, weak and moderate regimes.

The random generators produce exact-rational specs that provably sit in the
requested regime: strong and weak use rejection with a constructive bias,
moderate uses closed-form constructions whose strict inequalities hold by
design.  Every generator re-checks the classification before returning.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .channel import ChannelSpec, FadingPmf, diff_tail, dominates, tail
from .deterministic import DetChannel
from .regimes import classify


def mixed_example() -> ChannelSpec:
    """Strong on user 1's cross link, weak on user 2's; classifies as mixed."""
    return ChannelSpec(
        n11=FadingPmf.bernoulli(Fraction(1, 2)),
        n12=FadingPmf.bernoulli(Fraction(3, 4)),
        n21=FadingPmf.bernoulli(Fraction(1, 8)),
        n22=FadingPmf.bernoulli(Fraction(1, 2)),
    )


def examples() -> dict:
    """The named channels; symmetric_bernoulli takes (direct, cross) link means."""
    return {
        "det": DetChannel(3, 2, 2, 3).to_spec(),
        "strong": symmetric_bernoulli(Fraction(1, 2), Fraction(4, 5)),
        "weak": symmetric_bernoulli(Fraction(9, 10), Fraction(3, 10)),
        "moderate": symmetric_bernoulli(Fraction(4, 5), Fraction(1, 2)),
    }


def symmetric_bernoulli(p_direct, p_cross) -> ChannelSpec:
    """Single-layer channel with equal direct links and equal cross links."""
    return ChannelSpec(
        n11=FadingPmf.bernoulli(p_direct),
        n12=FadingPmf.bernoulli(p_cross),
        n21=FadingPmf.bernoulli(p_cross),
        n22=FadingPmf.bernoulli(p_direct),
    )


def random_pmf(rng: random.Random, q: int, max_denominator: int = 8) -> FadingPmf:
    """Random exact pmf on {0..q} whose denominator divides max_denominator."""
    den = rng.randint(1, max_denominator)
    masses = [0] * (q + 1)
    for _ in range(den):
        masses[rng.randint(0, q)] += 1
    return FadingPmf.from_pairs([(k, den) for k in masses])


def random_spec(rng: random.Random, q: int, max_denominator: int = 8) -> ChannelSpec:
    """Four unconstrained random links."""
    return ChannelSpec(*(random_pmf(rng, q, max_denominator) for _ in range(4)))


def _tails(pmf: FadingPmf) -> list:
    return [tail(pmf, l) for l in range(1, pmf.q + 1)]


def random_strong_spec(rng: random.Random, q: int, max_denominator: int = 8) -> ChannelSpec:
    """Random spec with each cross link stochastically above its direct partner."""
    def ordered_pair():
        while True:
            a, b = random_pmf(rng, q, max_denominator), random_pmf(rng, q, max_denominator)
            if dominates(a, b):
                return a, b
            if dominates(b, a):
                return b, a

    n12, n11 = ordered_pair()
    n21, n22 = ordered_pair()
    spec = ChannelSpec(n11=n11, n12=n12, n21=n21, n22=n22)
    if not classify(spec).holds("strong"):
        raise RuntimeError("strong construction failed its own condition")
    return spec


def _tail_min(a: FadingPmf, b: FadingPmf) -> FadingPmf:
    return FadingPmf.from_tails([min(x, y) for x, y in zip(_tails(a), _tails(b))])


def _tail_max(a: FadingPmf, b: FadingPmf) -> FadingPmf:
    return FadingPmf.from_tails([max(x, y) for x, y in zip(_tails(a), _tails(b))])


def random_weak_spec(rng: random.Random, q: int, max_denominator: int = 8) -> ChannelSpec:
    """Random spec where both cross links sit below the interference-free tails.

    n12 is built directly under the P(N11 - N21 >= l) ceiling, so user 1's
    condition holds by construction; user 2's is checked and the draw
    repeated, with n21 biased low and n22 high to keep rejection cheap.
    """
    d = max_denominator
    for attempt in range(500):
        n11 = random_pmf(rng, q, d)
        n21 = _tail_min(random_pmf(rng, q, d), random_pmf(rng, q, d))
        if attempt == 499:
            n21 = FadingPmf.point(0, q)  # interference-free fallback always passes
        n22 = _tail_max(random_pmf(rng, q, d), random_pmf(rng, q, d))
        t12 = []
        prev = Fraction(1)
        for l in range(1, q + 1):
            ceiling = min(diff_tail(n11, n21, l), prev)
            step = Fraction(rng.randint(0, int(ceiling * d)), d)
            t12.append(step)
            prev = step
        n12 = FadingPmf.from_tails(t12)
        spec = ChannelSpec(n11=n11, n12=n12, n21=n21, n22=n22)
        if classify(spec).holds("weak"):
            return spec
    raise RuntimeError("weak construction did not converge")


def _geometric(base: Fraction, q: int) -> FadingPmf:
    return FadingPmf.from_tails([base ** l for l in range(1, q + 1)])


def _shrink_factor(outer_base: Fraction, inner: FadingPmf, q: int) -> Fraction:
    # s with s^q strictly above E[outer_base^N] keeps the scaled tails above
    # every difference tail: s = 1 - (1-K)/(2q) gives s^q >= (1+K)/2 > K
    k = sum(
        (inner.masses[m] * outer_base ** m for m in range(inner.q + 1)), Fraction(0)
    )
    return 1 - (1 - k) / (2 * q)


def random_moderate_spec(rng: random.Random, q: int) -> ChannelSpec:
    """Random spec with both strict moderate chains holding at every layer."""
    if q == 1:
        # sample the user-1 chain inside its open interval, then the user-2
        # chain inside the interval it induces
        t11 = Fraction(rng.randint(2, 7), 8)
        t21_seed = Fraction(rng.randint(1, 7), 8)
        t12 = t11 * (1 - t21_seed) + t11 * t21_seed * Fraction(rng.randint(1, 7), 8)
        t21 = t21_seed
        upper = min(Fraction(1), t21 / (1 - t12))
        t22 = t21 + (upper - t21) * Fraction(rng.randint(1, 7), 8)
        spec = ChannelSpec(
            n11=FadingPmf.bernoulli(t11),
            n12=FadingPmf.bernoulli(t12),
            n21=FadingPmf.bernoulli(t21),
            n22=FadingPmf.bernoulli(t22),
        )
    else:
        # geometric tails: direct links at bases a and b, cross links at the
        # same bases scaled just enough to clear the difference tails
        a = Fraction(rng.randint(2, 7), 8)
        b = Fraction(rng.randint(2, 7), 8)
        n21_floor = _geometric(b / 100, q)
        n12 = _geometric(a * _shrink_factor(a, n21_floor, q), q)
        n21 = _geometric(b * _shrink_factor(b, n12, q), q)
        spec = ChannelSpec(
            n11=_geometric(a, q),
            n12=n12,
            n21=n21,
            n22=_geometric(b, q),
        )
    if not classify(spec).holds("moderate"):
        raise RuntimeError("moderate construction failed its own condition")
    return spec
