"""The contracts of the package's frozen records.

Each record is built positionally and by keyword, equals only a record of
its own class with equal fields, hashes as its equals do (RegimeReport
leaves its conditions out of the hash), shows its fields in its repr,
refuses assignment and deletion, and survives copy and pickle.  A missing,
extra, repeated or unknown field is refused with TypeError, and a subclass
that declares no fields of its own is a record of its base's.  Its checks
raise the documented exceptions with the documented messages.  HalfPlane is
one of these records, with a repr of its own.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from layercap import (ChannelSpec, FadingPmf, LayerCoefficients, classify, layer_coefficients,
                      symmetric_q1_region, weak_corner)
from layercap.bounds import WeightedBound
from layercap.cli import ChannelSpecFile
from layercap.deterministic import DetChannel
from layercap.geometry import HalfPlane
from layercap.oracles import SimConfig, _pair_view
from layercap.regimes import CornerAllocation, RegimeReport, SymmetricQ1Report
from layercap.verification import SuiteResult

F = Fraction
B = FadingPmf.bernoulli
WEAK = ChannelSpec(B(F(9, 10)), B(F(3, 10)), B(F(3, 10)), B(F(9, 10)))
STRONG = ChannelSpec(B(F(1, 2)), B(F(4, 5)), B(F(4, 5)), B(F(1, 2)))
_COEFFS = layer_coefficients(WEAK)
_REPORT = classify(WEAK)
_CORNER = weak_corner(WEAK, F(1, 2))
_SYM = symmetric_q1_region(F(4, 5), F(1, 2))

# class, its fields in order, and the field values of one record; the
# values come from the library where it builds the record itself
RECORDS = {
    "ChannelSpec": (ChannelSpec, ("n11", "n12", "n21", "n22"), tuple(WEAK.links().values())),
    "LayerCoefficients": (LayerCoefficients, ("den", "ints"), (_COEFFS.den, _COEFFS.ints)),
    "WeightedBound": (WeightedBound, ("family", "omega", "mu", "value"),
                      ("1c", F(2, 3), F(1, 3), F(5, 4))),
    "ChannelSpecFile": (ChannelSpecFile, ("q", "label", "spec"), (1, "weak", WEAK)),
    "RegimeReport": (RegimeReport, ("regime", "conditions", "conjecture_precondition"),
                     (_REPORT.regime, _REPORT.conditions, _REPORT.conjecture_precondition)),
    "CornerAllocation": (CornerAllocation,
                         ("omega_A", "private_layers", "common_layers", "corner"),
                         (_CORNER.omega_A, _CORNER.private_layers, _CORNER.common_layers,
                          _CORNER.corner)),
    "SymmetricQ1Report": (SymmetricQ1Report,
                          ("p_d", "p_c", "cap_planes", "a_planes", "sum_plane", "c_planes",
                           "weight_a", "weight_c", "region", "a_redundant", "crossing"),
                          None),
    "DetChannel": (DetChannel, ("n11", "n12", "n21", "n22"), (3, 2, 2, 3)),
    "SimConfig": (SimConfig, ("specs", "samples", "seed"), ((WEAK, STRONG), 1000, 7)),
    "SuiteResult": (SuiteResult, ("name", "ok", "lines"), ("demo", True, ("[demo] 1/1",))),
    "HalfPlane": (HalfPlane, ("a", "b", "c"), (1, 2, 3)),
}
_, _fields, _ = RECORDS["SymmetricQ1Report"]
RECORDS["SymmetricQ1Report"] = (SymmetricQ1Report, _fields,
                                tuple(getattr(_SYM, f) for f in _fields))


def build(name):
    cls, fields, values = RECORDS[name]
    return cls, fields, values, cls(*values)


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_is_built_positionally_and_by_keyword(name):
    cls, fields, values, record = build(name)
    keyword = cls(**dict(zip(fields, values)))
    for f, v in zip(fields, values):
        assert getattr(record, f) is v and getattr(keyword, f) is v
    assert record == keyword
    with pytest.raises(TypeError):
        cls(*values, values[0])
    with pytest.raises(TypeError):
        cls(*values[:-1], **{fields[0]: values[0]})


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_refuses_a_missing_or_unknown_field(name):
    cls, fields, values, record = build(name)
    named = dict(zip(fields, values))
    # SimConfig's last field, seed, defaults to 0: leave out samples too
    with pytest.raises(TypeError):
        cls(*values[:-2] if name == "SimConfig" else values[:-1])
    with pytest.raises(TypeError):
        cls(*values, extra=values[0])
    with pytest.raises(TypeError):
        cls(**named, extra=values[0])
    del named[fields[1]]
    with pytest.raises(TypeError):
        cls(**named)


def test_a_record_names_its_fields_when_it_refuses_a_binding():
    with pytest.raises(TypeError) as exc:
        ChannelSpecFile(1, "weak", label="weak")
    assert str(exc.value) == ("ChannelSpecFile() takes the fields q, label, spec,"
                              " got 2 positional and ['label'] by keyword")
    with pytest.raises(TypeError) as exc:
        SuiteResult("demo", True)
    assert str(exc.value) == ("SuiteResult() takes the fields name, ok, lines,"
                              " got 2 positional and [] by keyword")


@pytest.mark.parametrize("name", RECORDS)
def test_a_subclass_without_fields_of_its_own_keeps_its_bases(name):
    cls, fields, values, record = build(name)

    class Thin(cls):
        __slots__ = ()

    thin = Thin(*values)
    assert tuple(getattr(thin, f) for f in fields) == values
    assert thin == Thin(**dict(zip(fields, values))) and thin != record
    if name != "LayerCoefficients":
        assert hash(thin) == hash(record)


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_equals_only_its_own_class(name):
    cls, fields, values, record = build(name)
    assert record == cls(*values) and not record != cls(*values)
    assert record != values
    assert record.__eq__(values) is NotImplemented

    class Sub(cls):
        pass

    assert record != Sub(*values) and Sub(*values) != record


@pytest.mark.parametrize("name", RECORDS)
def test_equal_records_hash_alike(name):
    cls, fields, values, record = build(name)
    if name == "LayerCoefficients":
        # ints is a dict, so the record is unhashable, as its fields are
        with pytest.raises(TypeError):
            hash(record)
        return
    assert hash(record) == hash(cls(*values)) == hash(cls(**dict(zip(fields, values))))
    assert {record: 1}[cls(*values)] == 1


def test_a_regime_report_leaves_its_conditions_out_of_the_hash():
    flipped = {k: (tuple(not x for x in u1), u2) for k, (u1, u2) in _REPORT.conditions.items()}
    a = RegimeReport(_REPORT.regime, _REPORT.conditions, _REPORT.conjecture_precondition)
    b = RegimeReport(_REPORT.regime, flipped, _REPORT.conjecture_precondition)
    assert a != b and hash(a) == hash(b)
    assert RegimeReport("weak", {}, True) != RegimeReport("weak", {}, False)


@pytest.mark.parametrize("name", [name for name in RECORDS if name != "HalfPlane"])
def test_a_record_repr_shows_its_fields(name):
    cls, fields, values, record = build(name)
    shown = ", ".join(f"{f}={v!r}" for f, v in zip(fields, values))
    assert repr(record) == f"{name}({shown})"


def test_small_record_reprs_are_pinned():
    assert repr(WeightedBound("1a", F(1, 2), None, F(1))) == (
        "WeightedBound(family='1a', omega=Fraction(1, 2), mu=None, value=Fraction(1, 1))")
    assert repr(DetChannel(3, 2, 2, 3)) == "DetChannel(n11=3, n12=2, n21=2, n22=3)"
    assert repr(SuiteResult("x", False, ())) == "SuiteResult(name='x', ok=False, lines=())"
    assert repr(HalfPlane(2, 4, 6)) == "HalfPlane(1*R1 + 2*R2 <= 3)"
    assert repr(SimConfig((WEAK,), 5)) == (
        "SimConfig(specs=(ChannelSpec(n11=FadingPmf([1/10, 9/10]), n12=FadingPmf([7/10, 3/10]),"
        " n21=FadingPmf([7/10, 3/10]), n22=FadingPmf([1/10, 9/10])),), samples=5, seed=0)")


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_refuses_assignment_and_deletion(name):
    cls, fields, values, record = build(name)
    for f in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, f, values[0])
        with pytest.raises(AttributeError):
            delattr(record, f)
    assert tuple(getattr(record, f) for f in fields) == values


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_survives_copy_and_pickle(name):
    cls, fields, values, record = build(name)
    for twin in (copy.copy(record), copy.deepcopy(record),
                 pickle.loads(pickle.dumps(record))):
        assert type(twin) is cls and twin == record


def test_a_halfplane_stays_found_and_hashes_as_its_reduced_triple():
    plane = HalfPlane(2, 4, 6)
    planes = {plane}
    with pytest.raises(AttributeError):
        plane.a = 5
    assert plane in planes and HalfPlane(1, 2, 3) in planes
    assert hash(plane) == hash((1, 2, 3))


def test_sim_config_seed_defaults_to_0():
    assert SimConfig((WEAK,), 5).seed == 0
    assert SimConfig((WEAK,), 5) == SimConfig(specs=(WEAK,), samples=5, seed=0)


def test_channel_spec_checks():
    with pytest.raises(ValueError) as exc:
        ChannelSpec(B(F(1, 2)), B(F(1, 2)), FadingPmf([F(1, 3)] * 3), B(F(1, 2)))
    assert str(exc.value) == "all four links must share q, got q values [1, 2]"


@pytest.mark.parametrize("args,message", [
    (("3a", F(0), None, F(1)), "unknown family '3a'"),
    (("1a", F(3, 2), None, F(1)), "omega must lie in [0, 1], got 3/2"),
    (("1a", F(1, 2), F(1, 4), F(1)), "mu only applies to c-families"),
    (("2c", F(1, 2), None, F(1)), "mu must lie in [0, omega], got mu=None, omega=1/2"),
    (("2c", F(1, 2), F(3, 4), F(1)), "mu must lie in [0, omega], got mu=3/4, omega=1/2"),
    (("1b", F(1), None, F(-1)), "bound value must be nonnegative, got -1"),
])
def test_weighted_bound_checks(args, message):
    with pytest.raises(ValueError) as exc:
        WeightedBound(*args)
    assert str(exc.value) == message


def test_weighted_bound_refuses_a_float_weight():
    with pytest.raises(TypeError) as exc:
        WeightedBound("1a", 0.5, None, F(1))
    assert str(exc.value) == "refusing float 0.5; pass a string, int or Fraction"


def test_weighted_bound_stores_the_fractions_it_checked():
    bound = WeightedBound("1c", "2/3", "1/3", 1)
    assert bound == WeightedBound("1c", F(2, 3), F(1, 3), F(1))
    assert all(type(x) is Fraction for x in (bound.omega, bound.mu, bound.value))
    assert WeightedBound("1a", "1/2", None, F(1)) == WeightedBound("1a", F(1, 2), None, F(1))
    assert WeightedBound("1c", 1, "1/2", 2).halfplane() == HalfPlane(3, 2, 4)
    with pytest.raises(ValueError):
        WeightedBound("1a", F(1, 2), None, "one")
    with pytest.raises(TypeError) as exc:
        WeightedBound("1a", F(1, 2), None, 0.5)
    assert str(exc.value) == "refusing float 0.5; pass a string, int or Fraction"


@pytest.mark.parametrize("args,message", [
    ((1, True, -1, 0), "n12 must be a nonnegative integer, got True"),
    ((1, 2, -1, 0), "n21 must be a nonnegative integer, got -1"),
    ((1, 2, 3, "4"), "n22 must be a nonnegative integer, got '4'"),
    ((1.0, 2, 3, 4), "n11 must be a nonnegative integer, got 1.0"),
])
def test_det_channel_checks(args, message):
    with pytest.raises(ValueError) as exc:
        DetChannel(*args)
    assert str(exc.value) == message


@pytest.mark.parametrize("args,message", [
    (((), 0, -1), "specs must hold at least one channel"),
    (((WEAK,), 0, -1), "samples must be >= 1, got 0"),
    (((WEAK,), 1, -1), "seed must be in [0, 2^64), got -1"),
    (((WEAK,), 1, 1 << 64), "seed must be in [0, 2^64), got 18446744073709551616"),
])
def test_sim_config_checks(args, message):
    with pytest.raises(ValueError) as exc:
        SimConfig(*args)
    assert str(exc.value) == message


def test_a_pair_view_is_a_named_tuple():
    view = _pair_view(B(F(3, 10)), B(F(9, 10)))
    assert view._fields == ("den", "tails", "diff_tails", "alpha_ok", "dominated")
    assert tuple(view) == (view.den, view.tails, view.diff_tails, view.alpha_ok,
                           view.dominated)
    assert view._replace(alpha_ok=not view.alpha_ok).alpha_ok is not view.alpha_ok
    shown = ", ".join(f"{f}={v!r}" for f, v in zip(view._fields, view))
    assert repr(view) == f"_PairView({shown})"
