"""Hypothesis strategies for channels and weights, criterion 8's channel
corpus, and a context for numbers past Python's int <-> str digit limit,
shared by the test modules."""

import contextlib
import sys
from fractions import Fraction

from hypothesis import strategies as st

from layercap import ChannelSpec, FadingPmf
from layercap.corpus import random_moderate_spec, random_spec, random_strong_spec, random_weak_spec

F = Fraction


# small integer weights: zero masses and equal tails, hence ties, are common
SMALL_WEIGHTS = st.integers(0, 4)
# ties as above, mixed with weights that give masses 64-bit denominators
MIXED_WEIGHTS = SMALL_WEIGHTS | st.integers(0, 1 << 64)


@st.composite
def pmfs(draw, q, weights=SMALL_WEIGHTS):
    drawn = draw(st.lists(weights, min_size=q + 1, max_size=q + 1))
    if sum(drawn) == 0:
        drawn[draw(st.integers(0, q))] = 1
    total = sum(drawn)
    return FadingPmf([F(w, total) for w in drawn])


@st.composite
def specs(draw, max_q=8, weights=SMALL_WEIGHTS):
    q = draw(st.integers(1, max_q))
    return ChannelSpec(*(draw(pmfs(q, weights)) for _ in range(4)))


def continuum_corpus(rng):
    """Acceptance criterion 8's 20 channels, drawn from rng in its order."""
    corpus = []
    for _ in range(5):
        corpus.append(random_spec(rng, rng.randint(1, 3)))
        corpus.append(random_strong_spec(rng, rng.randint(0, 3)))
        corpus.append(random_weak_spec(rng, rng.randint(1, 3)))
        corpus.append(random_moderate_spec(rng, rng.randint(1, 3)))
    return corpus


def unit_rationals():
    return st.builds(lambda n, d: F(min(n, d), d), st.integers(0, 97), st.integers(1, 97))


@contextlib.contextmanager
def int_str_digit_limit(limit):
    # Python's limit on int <-> str conversion set to limit (0: none) and
    # restored afterwards, so the result does not depend on an earlier
    # main() call in the same session, which lifts it for the process
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def no_int_str_digit_limit():
    """As cli.main does."""
    return int_str_digit_limit(0)
