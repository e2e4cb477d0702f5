"""Constant-level channels: closed-form polytope and bound recovery."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from layercap import outer_region
from layercap.deterministic import DetChannel, det_region, verify_recovery

F = Fraction


def test_pinned_channel_3223():
    ch = DetChannel(3, 2, 2, 3)
    region = det_region(ch)
    assert region.vertices == (
        (F(0), F(0)),
        (F(3), F(0)),
        (F(2), F(2)),
        (F(0), F(3)),
    )
    report = verify_recovery(ch)
    assert report.ok
    assert report.region_match
    assert len(report.checks) == 8
    by_key = {(c.family, c.omega, c.mu): c for c in report.checks}
    assert by_key[("1a", F(0), None)].value == 3
    assert by_key[("1a", F(1), None)].value == 4
    assert by_key[("1b", F(1), None)].value == 4
    assert by_key[("1c", F(1), F(1))].value == 6
    assert by_key[("2c", F(1), F(1))].value == 6
    assert all(c.value == c.target for c in report.checks)


def test_interference_free_square():
    ch = DetChannel(2, 0, 0, 2)
    region = det_region(ch)
    assert region.vertices == ((F(0), F(0)), (F(2), F(0)), (F(2), F(2)), (F(0), F(2)))
    assert verify_recovery(ch).ok


def test_all_zero_channel():
    ch = DetChannel(0, 0, 0, 0)
    region = det_region(ch)
    assert region.vertices == ((F(0), F(0)),)
    assert verify_recovery(ch).ok


@pytest.mark.parametrize(
    "levels",
    [(1, 2, 3, 0), (2, 3, 1, 2), (0, 1, 0, 1), (3, 3, 3, 3), (1, 0, 3, 2)],
)
def test_spot_recovery(levels):
    report = verify_recovery(DetChannel(*levels))
    assert report.ok, [c for c in report.checks if not c.ok]


def test_region_equals_general_outer_bound_small_sweep():
    for levels in itertools.product(range(3), repeat=4):
        ch = DetChannel(*levels)
        assert det_region(ch) == outer_region(ch.to_spec()), levels


@settings(max_examples=200, deadline=None)
@given(levels=st.tuples(*[st.integers(0, 5)] * 4))
def test_region_equals_general_outer_bound(levels):
    ch = DetChannel(*levels)
    assert outer_region(ch.to_spec()) == det_region(ch)


def test_to_spec_round_trip():
    ch = DetChannel(1, 0, 2, 1)
    spec = ch.to_spec()
    assert spec.q == 2
    assert spec.n11.mass(1) == 1
    assert spec.n21.mass(2) == 1


def test_rejects_bad_levels():
    with pytest.raises(ValueError):
        DetChannel(-1, 0, 0, 0)
    with pytest.raises(ValueError):
        DetChannel(1, 0, 0, Fraction(1, 2))
