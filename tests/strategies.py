"""Hypothesis strategies for channels and weights, and a context for numbers
past Python's int <-> str digit limit, shared by the test modules."""

import contextlib
import sys
from fractions import Fraction

from hypothesis import strategies as st

from layercap import ChannelSpec, FadingPmf

F = Fraction


@st.composite
def pmfs(draw, q):
    # small integer weights: zero masses and equal tails, hence ties, are common
    weights = draw(st.lists(st.integers(0, 4), min_size=q + 1, max_size=q + 1))
    if sum(weights) == 0:
        weights[draw(st.integers(0, q))] = 1
    total = sum(weights)
    return FadingPmf([F(w, total) for w in weights])


@st.composite
def specs(draw):
    q = draw(st.integers(1, 8))
    return ChannelSpec(*(draw(pmfs(q)) for _ in range(4)))


def unit_rationals():
    return st.builds(lambda n, d: F(min(n, d), d), st.integers(0, 97), st.integers(1, 97))


@contextlib.contextmanager
def no_int_str_digit_limit():
    # as cli.main does, but restored afterwards, so the result does not
    # depend on an earlier main() call in the same session
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)
