"""Constant-level channels: closed-form polytope and bound recovery."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from layercap import bound_a, bound_b, bound_c, cli, deterministic, outer_region
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
    assert verify_recovery(ch) is True
    spec = ch.to_spec()
    assert bound_a(spec, 1, 0) == 3
    assert bound_a(spec, 1, 1) == 4
    assert bound_b(spec, 1, 1) == 4
    assert bound_c(spec, 1, 1, 1) == 6
    assert bound_c(spec, 2, 1, 1) == 6


def test_interference_free_square():
    ch = DetChannel(2, 0, 0, 2)
    region = det_region(ch)
    assert region.vertices == ((F(0), F(0)), (F(2), F(0)), (F(2), F(2)), (F(0), F(2)))
    assert verify_recovery(ch) is True


def test_all_zero_channel():
    ch = DetChannel(0, 0, 0, 0)
    region = det_region(ch)
    assert region.vertices == ((F(0), F(0)),)
    assert verify_recovery(ch) is True


@pytest.mark.parametrize(
    "levels",
    [(1, 2, 3, 0), (2, 3, 1, 2), (0, 1, 0, 1), (3, 3, 3, 3), (1, 0, 3, 2)],
)
def test_spot_recovery(levels):
    assert verify_recovery(DetChannel(*levels)) is True


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
    assert spec.n11.masses[1] == 1
    assert spec.n21.masses[2] == 1


def test_rejects_bad_levels():
    with pytest.raises(ValueError):
        DetChannel(-1, 0, 0, 0)
    with pytest.raises(ValueError):
        DetChannel(1, 0, 0, Fraction(1, 2))
    # bool is an int subclass; True is refused, not read as level 1
    with pytest.raises(ValueError, match=r"^n11 must be a nonnegative integer, got True$"):
        DetChannel(True, 0, 0, 2)


def _off_by_one_at_2c(monkeypatch):
    # bound 2c at omega = mu = 1 one above its closed form; the general
    # machinery (outer_region) does not read it, so only its pin can tell
    real = deterministic.bound_c

    def bound_c(spec, user, omega, mu):
        value = real(spec, user, omega, mu)
        return value + 1 if (user, omega, mu) == (2, 1, 1) else value

    monkeypatch.setattr(deterministic, "bound_c", bound_c)


def test_a_wrong_pinned_bound_fails_recovery(monkeypatch):
    # the 1*R1 + 2*R2 <= 6 pin of the 3223 channel binds: it is the edge
    # from (2, 2) to (0, 3)
    ch = DetChannel(3, 2, 2, 3)
    assert det_region(ch).vertices[2:] == ((F(2), F(2)), (F(0), F(3)))
    _off_by_one_at_2c(monkeypatch)
    assert verify_recovery(ch) is False


def test_a_wrong_pinned_bound_fails_the_suite(monkeypatch, capsys):
    # through the real suite, not a stand-in SUITES entry
    _off_by_one_at_2c(monkeypatch)
    assert cli.main(["verify", "deterministic"]) == 4
    out = capsys.readouterr().out
    assert "[deterministic] 0/256 constant channels recovered exactly" in out
    assert "[deterministic]   mismatch at levels (0, 0, 0, 0)" in out
    assert out.endswith("[deterministic] FAIL\n")


def test_a_wrong_outer_region_fails_recovery(monkeypatch):
    # every pin still holds; only the region comparison can tell
    ch = DetChannel(3, 2, 2, 3)
    monkeypatch.setattr(deterministic, "outer_region",
                        lambda spec: det_region(DetChannel(2, 0, 0, 2)))
    assert verify_recovery(ch) is False
