"""End-to-end command-line behavior: parsing, exports, exit codes."""

import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path, PurePath

import pytest
from hypothesis import example, given, settings, strategies as st

from layercap import (ChannelSpec, FadingPmf, HalfPlane, RegionPolytope, outer_region,
                      swap_users)
from layercap.cli import ChannelSpecFile, SpecFileError, main
from layercap.corpus import random_moderate_spec
import layercap.bounds as bounds
import layercap.cli as cli
import layercap.regimes as regimes
import layercap.verification as verification
from strategies import int_str_digit_limit, no_int_str_digit_limit, specs

F = Fraction

DET_SPEC = """{
  "label": "det-demo",
  "q": 3,
  "n11": [0, 0, 0, 1],
  "n12": [0, 0, 1, 0],
  "n21": [0, 0, 1, 0],
  "n22": [0, 0, 0, 1]
}
"""

WEAK_SPEC = """{
  "q": 1,
  "n11": [0.1, 0.9],
  "n12": ["7/10", "3/10"],
  "n21": ["7/10", "3/10"],
  "n22": ["1/10", "9/10"]
}
"""

STRONG_SPEC = """{
  "q": 1,
  "n11": [0.5, 0.5],
  "n12": ["1/5", "4/5"],
  "n21": ["1/5", "4/5"],
  "n22": [0.5, 0.5]
}
"""

MOD_SPEC = """{
  "q": 1,
  "n11": ["1/5", "4/5"],
  "n12": [0.5, 0.5],
  "n21": [0.5, 0.5],
  "n22": ["1/5", "4/5"]
}
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_spec_file_parsing_forms():
    parsed = ChannelSpecFile.parse(WEAK_SPEC, default_label="fallback")
    assert parsed.q == 1
    assert parsed.label == "fallback"
    assert parsed.spec.n11.masses[1] == F(9, 10)
    assert parsed.spec.n12.masses[1] == F(3, 10)


@pytest.mark.parametrize(
    "mangle",
    [
        lambda d: d.replace('"q": 1', '"q": "one"'),
        lambda d: d.replace('"n11": [0.1, 0.9]', '"n11": []'),
        lambda d: d.replace('"n11": [0.1, 0.9]', '"n11": [0.1, 0.8]'),
        lambda d: d.replace('"n11": [0.1, 0.9]', '"n11": [true, 1]'),
        lambda d: d.replace('"n11": [0.1, 0.9]', '"n11": [0.1, "9/0"]'),
        lambda d: d + "garbage",
        lambda d: d.replace('"q": 1', '"q": 1, "n13": [1]'),
        lambda d: d.replace('"n22": ["1/10", "9/10"]', '"n22": ["-1/10", "11/10"]'),
        # JSON numbers are read as exact text, yet are never strings or ints
        lambda d: d.replace('"q": 1', '"q": 1, "label": 1.5'),
        lambda d: d.replace('"q": 1', '"q": 1.0'),
        lambda d: "[" * 100_000 + "]" * 100_000,
    ],
)
def test_spec_file_rejects_malformed_input(mangle):
    with pytest.raises(SpecFileError):
        ChannelSpecFile.parse(mangle(WEAK_SPEC))


def _reference_or_error(literal):
    # what Fraction reads from the literal, or the message a literal it
    # refuses gets: the repr, or its first 40 characters and its length
    try:
        return F(literal.strip())
    except (ValueError, ZeroDivisionError):
        shown = repr(literal)
        if len(shown) > 40:
            shown = f"{shown[:40]}... ({len(shown):,} characters)"
        return f"n11[0]: not a rational: {shown}"


def _exponent(literal):
    # the exponent of a literal Fraction has read: the text after its E
    return int(literal.strip().lower().rpartition("e")[2])


# single characters, so that no drawn exponent has more than 5 digits and
# the reference reads every literal in well under a second
LITERAL_PIECES = st.lists(st.sampled_from(list("0159\u0663_./eE-+ x")), max_size=6).map("".join)
LITERAL_FORMS = st.one_of(
    st.from_regex(r"[0-9]{1,30}|[0-9]{1,20}/[0-9]{1,20}|[0-9]{0,20}\.[0-9]{0,20}", fullmatch=True),
    st.from_regex(r"\s?[-+]?\d{0,6}(_\d{1,3})?(\.\d{0,6})?([eE][-+]?\d{1,4}(_\d)?)?\s?",
                  fullmatch=True),
)


@settings(max_examples=300, deadline=None)
@given(literal=LITERAL_PIECES | LITERAL_FORMS)
@example(literal=".5")
@example(literal="5.")
@example(literal=".")
@example(literal="1/0")
@example(literal=" 1/2 ")
@example(literal="007/010")
@example(literal="0.50")
@example(literal="-1/2")
@example(literal="+.5e1")
@example(literal="1_0")
@example(literal="1e1000")
@example(literal="1e-1001")
def test_mass_reader_matches_the_fraction_reference(literal):
    # the pair read, as a string or as a JSON number's text, has the value
    # Fraction reads from the literal, or both raise the same message; only
    # a literal whose exponent is past the cap is refused with its own
    want = _reference_or_error(literal)
    for raw in (literal, cli._JsonNumber(literal)):
        try:
            n, d = cli._mass(raw, "n11[0]")
        except SpecFileError as exc:
            if "decimal exponent" in str(exc):
                assert abs(_exponent(literal)) > cli.MAX_EXPONENT
                assert str(exc) == (f"n11[0]: decimal exponent larger than {cli.MAX_EXPONENT} "
                                    f"in magnitude: {literal!r}")
            else:
                assert str(exc) == want
            continue
        assert type(n) is int and type(d) is int and d > 0
        assert F(n, d) == want
        if "e" in literal.lower():
            assert abs(_exponent(literal)) <= cli.MAX_EXPONENT


@pytest.mark.parametrize("raw,kind", [(True, "a boolean"), (None, "NoneType"), ([1], "list"),
                                      ({"n": 1}, "dict")])
def test_a_mass_neither_number_nor_string_is_named_by_type(raw, kind):
    with pytest.raises(SpecFileError) as exc:
        cli._mass(raw, "n11[0]")
    assert str(exc.value) == f"n11[0]: expected a rational, got {kind}"


def test_unreduced_masses_give_the_canonical_pmf():
    halves = ChannelSpecFile.parse(WEAK_SPEC.replace('[0.1, 0.9]', '["2/4", "0.50"]'))
    plain = ChannelSpecFile.parse(WEAK_SPEC.replace('[0.1, 0.9]', '["1/2", "1/2"]'))
    a, b = halves.spec.n11, plain.spec.n11
    assert a._den == b._den == 2 and a._int_tails == b._int_tails == (2, 1, 0)
    assert a == b and hash(a) == hash(b)


@pytest.mark.parametrize("literal,accepted", [
    ("1e-1000", True), ("5E+0000000000000000000001000", True), ("0.5e1000", True),
    ("1e-1001", False), ("1e+1_001", False), ("1e-\u0661\u0660\u0660\u0661", False),
    ("0e1001", False), ("1e-99999999", False),
])
def test_decimal_exponents_are_capped(literal, accepted):
    for raw in (literal, cli._JsonNumber(literal)):
        if accepted:
            n, d = cli._mass(raw, "n11[1]")
            assert F(n, d) == F(literal)
            continue
        with pytest.raises(SpecFileError) as exc:
            cli._mass(raw, "n11[1]")
        assert str(exc.value) == (f"n11[1]: decimal exponent larger than {cli.MAX_EXPONENT} "
                                  f"in magnitude: {literal!r}")


def _mass_json(m: Fraction, decimal: bool) -> str:
    # a bare decimal literal where the denominator divides a power of ten
    # and `decimal` is set, else an "n/d" string
    twos = fives = 0
    d = m.denominator
    while d % 2 == 0:
        d, twos = d // 2, twos + 1
    while d % 5 == 0:
        d, fives = d // 5, fives + 1
    if not decimal or d != 1:
        return json.dumps(str(m))
    k = max(twos, fives)
    digits = str(m.numerator * 10 ** k // m.denominator).rjust(k + 1, "0")
    return digits if k == 0 else f"{digits[:-k]}.{digits[-k:]}"


def spec_json(spec: ChannelSpec, decimal: bool) -> str:
    links = ", ".join(
        f'"{key}": [{", ".join(_mass_json(m, decimal) for m in pmf.masses)}]'
        for key, pmf in spec.links().items()
    )
    return f'{{"q": {spec.q}, {links}}}'


@pytest.mark.parametrize("mode", ["exact", "grid"])
def test_each_reported_constraint_builds_one_halfplane(monkeypatch, mode):
    built = []

    class Counted(HalfPlane):
        __slots__ = ()

        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(bounds, "HalfPlane", Counted)
    spec = random_moderate_spec(random.Random(5), 4)
    doc = cli.region_document(ChannelSpecFile.parse(spec_json(spec, False)), mode, 8)
    assert len(built) == len(doc["constraints"]) > 0


@pytest.mark.parametrize("mode", ["exact", "grid"])
def test_only_json_output_selects_active_constraints(tmp_path, capsys, monkeypatch, mode):
    # csv and svg print the region alone: with active_bounds refusing every
    # call they print the same bytes, and json calls it exactly once
    path = write(tmp_path, "weak.json", WEAK_SPEC)
    argv = ["region", "--spec", path, "--mode", mode, "--grid-steps", "16", "--format"]
    expected = {}
    for fmt in ("json", "csv", "svg"):
        assert main(argv + [fmt]) == 0
        expected[fmt] = capsys.readouterr().out

    def refuse(*args):
        raise AssertionError("active constraints selected for csv or svg output")

    monkeypatch.setattr(cli, "active_bounds", refuse)
    for fmt in ("csv", "svg"):
        assert main(argv + [fmt]) == 0
        assert capsys.readouterr().out == expected[fmt]
    calls = []

    def counted(*args):
        calls.append(args)
        return bounds.active_bounds(*args)

    monkeypatch.setattr(cli, "active_bounds", counted)
    assert main(argv + ["json"]) == 0
    assert capsys.readouterr().out == expected["json"]
    assert len(calls) == 1


@pytest.mark.parametrize("command", [["classify"], ["region", "--format", "svg"]])
def test_a_weak_spec_is_classified_once(tmp_path, capsys, monkeypatch, command):
    # both print the weak sum capacity, read off the one verdict the command
    # takes: cli and the regimes gates each call classify by its own name
    argv = command + ["--spec", write(tmp_path, "weak.json", WEAK_SPEC)]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    calls, classify = [], regimes.classify

    def counted(*args):
        calls.append(args)
        return classify(*args)

    monkeypatch.setattr(cli, "classify", counted)
    monkeypatch.setattr(regimes, "classify", counted)
    assert main(argv) == 0
    assert capsys.readouterr().out == expected
    assert len(calls) == 1


def _two_mass_spec(x: Fraction) -> ChannelSpec:
    pmf = FadingPmf([1 - x, x])
    return ChannelSpec(pmf, pmf, pmf, pmf)


@settings(max_examples=300, deadline=None)
@given(spec=specs(), decimal=st.booleans())
@example(spec=_two_mass_spec(F(1, 10)), decimal=True)  # 0.1 is exactly 1/10
def test_spec_json_round_trip(spec, decimal):
    assert ChannelSpecFile.parse(spec_json(spec, decimal)).spec == spec


@pytest.mark.parametrize("base,power,decimal", [(10, 5000, True), (3, 10000, False)])
def test_spec_json_round_trip_past_the_int_str_digit_limit(base, power, decimal):
    # masses of 5,001 and 4,772 digits, kept out of hypothesis and test ids,
    # which would print them outside the lifted limit
    with no_int_str_digit_limit():
        spec = _two_mass_spec(F(1, base ** power))
        assert ChannelSpecFile.parse(spec_json(spec, decimal)).spec == spec


# n11 holds 1 and the masses 10^-1000, 3^-2000, 7^-1100, 11^-1000 and
# 13^-1000, so it sums to a rational of over 8,600 digits, past the
# int -> str digit limit
BIG_DENOMINATORS = (10 ** 1000, 3 ** 2000, 7 ** 1100, 11 ** 1000, 13 ** 1000)
BIG_SUM_SPEC = json.dumps({
    "q": 5, "n11": [1, "1e-1000", *(f"1/{d}" for d in BIG_DENOMINATORS[1:])],
    **{k: [1, 0, 0, 0, 0, 0] for k in ("n12", "n21", "n22")}})


def test_a_long_mass_sum_is_reported_short():
    total = 1 + sum(F(1, d) for d in BIG_DENOMINATORS)
    with no_int_str_digit_limit():
        digits = len(str(total.numerator)) + len(str(total.denominator))
    assert digits > 2 * 4300
    message = f"n11: pmf masses must sum to 1, got 1.00000 (a {digits:,}-digit rational)"
    # outside cli.main under the default limit, and with it lifted
    for limit in (getattr(sys.int_info, "default_max_str_digits", 0), 0):
        with int_str_digit_limit(limit), pytest.raises(SpecFileError) as exc:
            ChannelSpecFile.parse(BIG_SUM_SPEC)
        assert str(exc.value) == message


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no int <-> str digit limit")
@pytest.mark.parametrize("literal", [
    "1" + "0" * 5000, json.dumps("1/1" + "0" * 5000), "0." + "0" * 4999 + "1"],
    ids=["integer", "string", "decimal"])  # ids: outside the lifted limit
def test_a_mass_past_the_digit_limit_is_a_spec_error_outside_main(literal):
    text = WEAK_SPEC.replace('"n11": [0.1, 0.9]', f'"n11": [{literal}, 0]')
    with int_str_digit_limit(sys.int_info.default_max_str_digits):
        with pytest.raises(SpecFileError) as exc:
            ChannelSpecFile.parse(text)
    shown = repr(json.loads(literal) if literal.startswith('"') else literal)
    assert str(exc.value) == f"n11[0]: not a rational: {shown[:40]}... ({len(shown):,} characters)"


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=60)
    | st.floats(allow_nan=False, allow_infinity=False) | st.fractions().map(str),
    lambda inner: st.lists(inner, max_size=6) | st.dictionaries(
        st.sampled_from(["q", "label", "n11", "n12", "n21", "n22"]) | st.text(max_size=60),
        inner, max_size=7),
    max_leaves=20,
)


@settings(max_examples=60, deadline=None)
@given(doc=JSON_VALUES | st.builds(lambda q, links: {"q": q, **links}, st.integers(-1, 3),
                                   st.fixed_dictionaries({k: JSON_VALUES for k in cli._LINKS})))
@example(doc={"\n": None})
def test_every_spec_error_is_one_short_line(doc):
    # the spec is read, or refused by one line of at most 200 characters
    # with a short path; the floats come out of json.dumps with exponents
    try:
        ChannelSpecFile.parse(json.dumps(doc))
    except SpecFileError as exc:
        line = f"error: ch.json: {exc}"
        assert "\n" not in line and len(line) <= 200, line


def test_region_json_pinned_det(tmp_path, capsys):
    path = write(tmp_path, "det.json", DET_SPEC)
    assert main(["region", "--spec", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["label"] == "det-demo"
    assert doc["vertices"] == [["0", "0"], ["3", "0"], ["2", "2"], ["0", "3"]]
    assert all(
        set(c) == {"family", "omega", "mu", "a", "b", "c"} for c in doc["constraints"]
    )


def test_region_round_trip(tmp_path, capsys):
    path = write(tmp_path, "weak.json", WEAK_SPEC)
    assert main(["region", "--spec", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    verts = [(F(a), F(b)) for a, b in doc["vertices"]]
    rebuilt = RegionPolytope(verts)
    spec = ChannelSpecFile.parse(WEAK_SPEC).spec
    assert rebuilt == outer_region(spec)


def test_region_active_constraints_strong(tmp_path, capsys):
    path = write(tmp_path, "strong.json", STRONG_SPEC)
    assert main(["region", "--spec", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    got = {(c["family"], c["omega"]) for c in doc["constraints"]}
    assert got == {("1a", "0"), ("2a", "0"), ("1a", "1")}


def test_region_csv(tmp_path, capsys):
    path = write(tmp_path, "det.json", DET_SPEC)
    assert main(["region", "--spec", path, "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "R1,R2"
    assert out.splitlines()[1] == "0,0"
    assert "2,2" in out


def test_region_svg_weak_annotations(tmp_path, capsys):
    path = write(tmp_path, "weak.json", WEAK_SPEC)
    assert main(["region", "--spec", path, "--format", "svg"]) == 0
    svg = capsys.readouterr().out
    assert svg.startswith("<svg")
    assert "<polygon" in svg
    assert "bits/channel use" in svg
    assert "stroke-dasharray" in svg  # sum-capacity face
    assert "&#9733;" in svg  # star marker
    assert ">A<" in svg
    assert ">B<" not in svg  # the sum-capacity face is one vertex


# weak, with a sum-capacity face of two vertices: corner A at its R1 end, B
# at its R2 end
EDGE_FACE_SPEC = """{
  "q": 1,
  "n11": ["1/2", "1/2"],
  "n12": ["1/2", "1/2"],
  "n21": [1, 0],
  "n22": ["3/4", "1/4"]
}
"""


def test_region_svg_marks_both_corners_of_an_edge_face(tmp_path, capsys):
    path = write(tmp_path, "edge.json", EDGE_FACE_SPEC)
    assert main(["region", "--spec", path, "--format", "svg"]) == 0
    lines = capsys.readouterr().out.splitlines()
    for mark in "AB":
        label = [i for i, line in enumerate(lines) if f">{mark}<" in line]
        assert len(label) == 1, mark
        assert lines[label[0] - 1].startswith("<circle") and 'r="4"' in lines[label[0] - 1]


def test_region_svg_plain_without_weak(tmp_path, capsys):
    path = write(tmp_path, "mod.json", MOD_SPEC)
    assert main(["region", "--spec", path, "--format", "svg"]) == 0
    svg = capsys.readouterr().out
    assert "stroke-dasharray" not in svg


def test_region_grid_mode_matches_exact_for_det(tmp_path, capsys):
    path = write(tmp_path, "det.json", DET_SPEC)
    assert main(["region", "--spec", path, "--mode", "grid", "--grid-steps", "16"]) == 0
    grid_doc = json.loads(capsys.readouterr().out)
    assert grid_doc["mode"] == "grid"
    assert main(["region", "--spec", path]) == 0
    exact_doc = json.loads(capsys.readouterr().out)
    assert grid_doc["vertices"] == exact_doc["vertices"]


def test_region_grid_mode_at_the_default_steps_is_pinned(tmp_path, capsys):
    # README's weak spec at the default 256 grid steps (67,334 bounds); the
    # benchmark's digests cover 16 steps only
    path = write(tmp_path, "weak.json", WEAK_SPEC)
    assert main(["region", "--spec", path, "--mode", "grid"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "6bad6d7bd1b528f3f1cd83a1f1f9d0c7a47186f9ed0dab1621ebed09973b74c4")


def test_region_grid_mode_on_a_degenerate_region_prints_the_full_rows_answer(
        tmp_path, capsys):
    # N11 = 0 pins R1 to 0, its mirror N22 = 0 pins R2, and both at 0 leave
    # the origin alone.  Each region reports every grid row through a
    # vertex, rows that pruning would leave out, so grid mode builds every
    # grid row for it, read off the spec
    flat = ChannelSpec(FadingPmf([1, 0]), FadingPmf([F(1, 2), F(1, 2)]),
                       FadingPmf([F(3, 5), F(2, 5)]), FadingPmf([F(2, 7), F(5, 7)]))
    both = ChannelSpec(flat.n11, flat.n12, flat.n21, FadingPmf([1, 0]))
    for spec, reported in ((flat, 18), (swap_users(flat), 18), (both, 2)):
        argv = ["region", "--spec", write(tmp_path, "flat.json", spec_json(spec, False)),
                "--mode", "grid", "--grid-steps", "16"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        rows = bounds.grid_rows(spec, 16)
        full = bounds.intersect(rows.rows, rows.den)
        assert len(full.vertices) < 3
        active = [cli._constraint_entry(b) for b in bounds.active_bounds(rows, full)]
        vertices = [[str(r1), str(r2)] for r1, r2 in full.vertices]
        assert out == cli.render_json({**json.loads(out), "vertices": vertices,
                                       "constraints": active})
        assert len(active) == reported


def test_byte_identical_outputs(tmp_path):
    path = write(tmp_path, "weak.json", WEAK_SPEC)
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["region", "--spec", path, "--out", str(out1)]) == 0
    assert main(["region", "--spec", path, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize(
    "name", ["a.b.json", "noext", ".json", "name.", "..json", "a..json", "dir.d/spec.json"])
def test_a_spec_without_a_label_is_labelled_by_its_file_stem(tmp_path, name):
    (tmp_path / "dir.d").mkdir()
    path = write(tmp_path, name, WEAK_SPEC)
    assert cli.load_spec_file(path).label == PurePath(path).stem


@pytest.mark.parametrize("command,flags", [
    ("region", ["--format", "json"]), ("region", ["--format", "csv"]),
    ("region", ["--format", "svg"]), ("classify", [])])
def test_out_writes_the_bytes_stdout_gets(tmp_path, capsysbinary, command, flags):
    path = write(tmp_path, "weak.json", WEAK_SPEC)
    out = tmp_path / "out"
    assert main([command, "--spec", path, *flags]) == 0
    printed = capsysbinary.readouterr().out
    assert main([command, "--spec", path, *flags, "--out", str(out)]) == 0
    assert capsysbinary.readouterr().out == b""
    assert out.read_bytes() == printed


def test_classify_weak_output(tmp_path, capsys):
    path = write(tmp_path, "weak.json", WEAK_SPEC)
    assert main(["classify", "--spec", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["regime"] == "weak"
    assert doc["sum_capacity"] == "63/50"
    assert doc["region_status"] == "capacity"
    assert doc["conjecture_precondition"] is True
    assert doc["conditions"]["weak"]["user1"] == [True]


def test_classify_moderate_output(tmp_path, capsys):
    path = write(tmp_path, "mod.json", MOD_SPEC)
    assert main(["classify", "--spec", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["regime"] == "moderate"
    assert doc["region_status"] == "outer bound (tightness open)"
    assert "sum_capacity" not in doc
    assert doc["conjecture_precondition"] is False


def test_parse_error_exit_code(tmp_path, capsys):
    path = write(tmp_path, "bad.json", '{"q": 1, "n11": []}')
    assert main(["region", "--spec", path]) == 2
    assert "n11" in capsys.readouterr().err
    assert main(["classify", "--spec", str(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize("command", ["region", "classify"])
@pytest.mark.parametrize(
    "case", ["unwritable out", "spec not utf-8", "spec missing", "spec is a directory"])
def test_io_errors_exit_2_with_one_error_line(tmp_path, capsys, command, case):
    # the line names the path at fault once, then the reason
    path = tmp_path / "bad.json"
    argv = [command, "--spec", str(path)]
    if case == "unwritable out":
        path = tmp_path / "no-such-dir" / "x.json"
        argv = [command, "--spec", write(tmp_path, "weak.json", WEAK_SPEC), "--out", str(path)]
    elif case == "spec not utf-8":
        path.write_bytes(WEAK_SPEC.replace("q", "\xe9q").encode("latin-1"))
    elif case == "spec is a directory":
        path.mkdir()
    assert main(argv) == cli.EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.err.count(str(path)) == 1


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["region", "--mode", "grid", "--grid-steps", "0"], "--grid-steps"),
        (["verify", "montecarlo", "--samples", "0"], "--samples"),
        (["verify", "montecarlo", "--samples", "-5"], "--samples"),
    ],
)
def test_nonpositive_counts_are_usage_errors(tmp_path, capsys, argv, flag):
    if argv[0] == "region":
        argv = argv + ["--spec", write(tmp_path, "weak.json", WEAK_SPEC)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert f"argument {flag}: must be at least 1" in err
    assert "Traceback" not in err


def test_grid_steps_past_the_cap_are_usage_errors(capsys):
    # parsed only: a grid at the cap takes seconds and hundreds of MB
    cap = cli.MAX_GRID_STEPS
    parse = cli.build_parser().parse_args
    assert parse(["region", "--spec", "ch.json", "--grid-steps", str(cap)]).grid_steps == cap
    with pytest.raises(SystemExit) as exc:
        parse(["region", "--spec", "ch.json", "--grid-steps", str(cap + 1)])
    assert exc.value.code == cli.EXIT_PARSE
    assert capsys.readouterr().err.splitlines()[-1] == (
        "layercap region: error: argument --grid-steps: must be at least 1 and at most "
        f"{cap}, got {cap + 1}")


MUTE_SPEC = """{
  "q": 1,
  "n11": [1, 0],
  "n12": ["1/2", "1/2"],
  "n21": ["1/3", "2/3"],
  "n22": [1, 0]
}
"""


@pytest.mark.parametrize(
    "argv",
    [["region"], ["region", "--mode", "grid", "--grid-steps", "4"], ["classify"]],
)
def test_zero_mean_direct_links_give_the_origin(tmp_path, capsys, argv):
    # E[N11] = E[N22] = 0: the region is the origin alone, and still bounded
    path = write(tmp_path, "mute.json", MUTE_SPEC)
    assert main(argv + ["--spec", path]) == cli.EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["vertices"] == [["0", "0"]]


def test_verify_passing_suite(capsys):
    assert main(["verify", "deterministic"]) == 0
    out = capsys.readouterr().out
    assert "256/256" in out
    assert "[deterministic] PASS" in out


def test_verify_montecarlo_few_samples(capsys):
    # the gate widens as 5e-3 * sqrt(1e6 / n), so a correct model passes at
    # n = 1000; the line prints that gate, 5/sqrt(1000), to 3 digits
    assert main(["verify", "montecarlo", "--samples", "1000"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "(tolerance 1.58e-01)" in out
    assert "[montecarlo] PASS" in out


@pytest.mark.parametrize("samples, seed, errors, tolerance", [
    ("20000", "0", ("0.00e+00", "2.85e-03", "3.00e-03", "5.35e-03"), "3.54e-02"),
    # two chunks of 2^16 uses, the second holding one use
    ("65537", "3", ("0.00e+00", "2.42e-03", "1.99e-03", "1.38e-03"), "1.95e-02"),
])
def test_verify_montecarlo_output_is_pinned(capsys, samples, seed, errors, tolerance):
    assert main(["verify", "montecarlo", "--samples", samples, "--seed", seed]) == cli.EXIT_OK
    counts = {"det": 34, "strong": 18, "weak": 18, "moderate": 18}
    assert capsys.readouterr().out == "".join(
        f"[montecarlo] {label}: {n} statistics, worst |error| = {err} "
        f"(tolerance {tolerance}), rerun identical: True\n"
        for (label, n), err in zip(counts.items(), errors)
    ) + "[montecarlo] PASS\n"


def test_verify_failing_suite(capsys, monkeypatch):
    def fake():
        return verification.SuiteResult("deterministic", False, ("[deterministic] bad",))

    monkeypatch.setitem(verification.SUITES, "deterministic", fake)
    assert main(["verify", "deterministic"]) == 4
    assert "FAIL" in capsys.readouterr().out


def _fail_where_n11_is_0(ch):
    return ch.n11 != 0


def _two_problems_on_even_calls():
    calls = iter(range(25))

    def check(spec):
        i = next(calls)
        return [] if i % 2 else [f"first of {i}", f"second of {i}"]

    return check


def _never(a, b):
    return False


_POINT2 = "FadingPmf([0, 0, 1])"


@pytest.mark.parametrize("suite, attr, make_fake, expected", [
    # 64 of the 256 channels fail; the first ten in product order are shown
    ("deterministic", "verify_recovery", lambda: _fail_where_n11_is_0, [
        "[deterministic] 192/256 constant channels recovered exactly",
        *(f"[deterministic]   mismatch at levels {levels}" for levels in [
            (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 2), (0, 0, 0, 3), (0, 0, 1, 0),
            (0, 0, 1, 1), (0, 0, 1, 2), (0, 0, 1, 3), (0, 0, 2, 0), (0, 0, 2, 1)]),
        "[deterministic] FAIL",
    ]),
    # 13 of the 25 specs fail; each line shows the spec's first problem
    ("inclusions", "_check_weak_spec", _two_problems_on_even_calls, [
        "[inclusions] 12/25 random weak channels pass every check",
        *(f"[inclusions]   spec {i}: first of {i}" for i in range(0, 20, 2)),
        "[inclusions] FAIL",
    ]),
    # every channel fails, and only the first is shown
    ("coupling", "coupling_holds", lambda: _never, [
        "[coupling] 0/50625 channels satisfy both identities and the pointwise order",
        f"[coupling]   first failure at ({_POINT2}, {_POINT2}, {_POINT2}, {_POINT2})",
        "[coupling] FAIL",
    ]),
], ids=["deterministic", "inclusions", "coupling"])
def test_verify_failure_output_is_pinned(capsys, monkeypatch, suite, attr, make_fake, expected):
    monkeypatch.setattr(verification, attr, make_fake())
    assert main(["verify", suite]) == cli.EXIT_VERIFY
    assert capsys.readouterr().out == "\n".join(expected) + "\n"


def test_verify_inclusions_seeded(capsys):
    assert main(["verify", "inclusions", "--seed", "3"]) == 0
    assert "[inclusions] PASS" in capsys.readouterr().out


def run_fresh_argv(argv, timeout=None):
    """Run the interpreter on argv, importing layercap from this checkout."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                          text=True, timeout=timeout)


def run_fresh(code):
    """Run code in a fresh interpreter that imports layercap from this checkout."""
    return run_fresh_argv(["-c", code])


def test_a_huge_decimal_exponent_is_refused_at_once(tmp_path):
    # reading 1e-99999999 exactly would build a 100,000,000-digit integer
    path = write(tmp_path, "exp.json",
                 WEAK_SPEC.replace('"n11": [0.1, 0.9]', '"n11": [1e-99999999, 1]'))
    run = run_fresh_argv(["-m", "layercap.cli", "region", "--spec", path], timeout=20)
    assert run.returncode == cli.EXIT_PARSE and run.stdout == ""
    assert run.stderr == (f"error: {path}: n11[0]: decimal exponent larger than "
                          f"{cli.MAX_EXPONENT} in magnitude: '1e-99999999'\n")


def test_a_negative_seed_is_a_usage_error():
    # it used to key the Monte Carlo streams as seed 0 did
    run = run_fresh_argv(["-m", "layercap.cli", "verify", "montecarlo", "--samples", "1000",
                          "--seed", "-1"], timeout=20)
    assert run.returncode == cli.EXIT_PARSE and run.stdout == ""
    assert "argument --seed: must be in [0, 2^64), got -1" in run.stderr


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64), "x"])
def test_seeds_outside_64_bits_are_usage_errors(capsys, seed):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "inclusions", "--seed", seed])
    assert exc.value.code == cli.EXIT_PARSE
    assert "argument --seed: " in capsys.readouterr().err


# stdlib modules that no command loads: dataclasses imports inspect, and
# both cost more than the work of a small region; the interpreter runs with
# -S, since a site-packages .pth file may load typing or pathlib first
UNLOADED = ("dataclasses", "inspect", "typing", "pathlib")


def test_region_and_classify_load_only_the_core(tmp_path):
    # the suites, the corpus, the oracles and numpy stay unloaded; in-process
    # tests cannot show it, because the test modules import them first
    path = write(tmp_path, "weak.json", WEAK_SPEC)
    out = str(tmp_path / "out")
    code = (
        "import sys\n"
        "from layercap import cli\n"
        "for command in ('region', 'classify'):\n"
        f"    assert cli.main([command, '--spec', {path!r}, '--out', {out!r}]) == 0\n"
        "print(' '.join(sorted(m for m in sys.modules\n"
        "                      if m.split('.')[0] in ('layercap', 'numpy'))))\n"
        f"print(' '.join(m for m in {UNLOADED!r} if m in sys.modules))\n"
    )
    run = run_fresh_argv(["-S", "-c", code])
    assert run.returncode == 0, run.stderr
    loaded, stdlib = run.stdout.split("\n")[:2]
    assert loaded.split() == ["layercap", "layercap.bounds", "layercap.channel",
                              "layercap.cli", "layercap.geometry", "layercap.regimes"]
    assert stdlib == ""


def test_verify_imports_its_suites_when_run():
    run = run_fresh_argv(["-S", "-c", "import sys\nfrom layercap import cli\n"
                          "code = cli.main(['verify', 'deterministic'])\n"
                          f"print(*(m for m in {UNLOADED!r} if m in sys.modules))\n"
                          "sys.exit(code)"])
    assert run.returncode == cli.EXIT_OK, run.stderr
    assert run.stdout.splitlines()[-2:] == ["[deterministic] PASS", ""]


def test_main_builds_the_parser_once(tmp_path, capsys):
    path = write(tmp_path, "weak.json", WEAK_SPEC)
    parser = cli.build_parser()
    hits = cli.build_parser.cache_info().hits
    assert main(["region", "--spec", path]) == cli.EXIT_OK
    assert main(["classify", "--spec", path]) == cli.EXIT_OK
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, hits + 2)
    assert cli.build_parser() is parser
    # a usage error after a call that succeeded still exits 2
    with pytest.raises(SystemExit) as exc:
        main(["region"])
    assert exc.value.code == cli.EXIT_PARSE
    assert "--spec" in capsys.readouterr().err


def test_region_prints_numbers_past_the_int_str_digit_limit(tmp_path, capsys):
    # a q = 9 moderate spec whose exact vertices have more than 4300 digits,
    # Python's default limit on int -> str conversion
    spec = random_moderate_spec(random.Random("digit_limit_probe:2:1"), 9)
    links = {k: [str(m) for m in pmf.masses] for k, pmf in spec.links().items()}
    path = write(tmp_path, "deep.json", json.dumps({"q": 9, **links}))
    assert main(["region", "--spec", path]) == cli.EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert max(len(x) for pair in doc["vertices"] for x in pair) > 4300
    with no_int_str_digit_limit():
        assert [(Fraction(x), Fraction(y)) for x, y in doc["vertices"]] == list(
            outer_region(spec).vertices)
