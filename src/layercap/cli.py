"""Batch command-line front end.

Three subcommands: ``region`` computes and exports the outer-bound polytope
for one channel, ``classify`` reports the interference regime, and ``verify``
runs one of the batch verification suites.  Machine-readable outputs are
deterministic: the same input file and flags produce byte-identical bytes.

Exit codes: 0 success, 2 spec-file or usage error, 4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from functools import cache

from .bounds import (
    WeightedBound,
    active_bounds,
    grid_rows,
    outer_region,
    outer_rows,
)
from .channel import _LINKS, ChannelSpec, FadingPmf, _Record, expect, expect_pos_diff
from .geometry import RegionPolytope
from .regimes import _weak_sum, classify

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VERIFY = 4


class SpecFileError(ValueError):
    """A channel spec file could not be interpreted."""


# The largest |exponent| a decimal mass literal may carry.  "1e-N" is a
# rational with an (N+1)-digit denominator, so without a cap the exponent,
# not the length of the spec, would set what reading it costs: ten bytes,
# "1e-9999999", would ask for a 10,000,000-digit integer.  No spec in the
# tests, the corpus or the benchmark writes an exponent at all; the cap
# leaves room for masses as small as 10^-1000.
MAX_EXPONENT = 1000

# The largest --grid-steps.  Grid mode evaluates (N+1)(N+2)/2 c-family
# bounds per user at N steps, so N sets most of its time, and keeps three
# grid lines of them at a time besides the rows it intersects.  On the
# README's q = 1 weak spec (Python 3.11, 2-core VM, medians of 7 fresh
# processes) 256 steps took 0.15 s and 17 MB peak RSS, 512 took 0.22 s and
# 17 MB, and the cap 0.52 s and 17 MB.  A degenerate region, E[N11] = 0 or
# E[N22] = 0, keeps and intersects every row: 4.6-5.2 s and 527 MB at the
# cap over 3 fresh processes, for N11 = 0 and q = 1.  "100000", six bytes
# of command line, would ask for 5*10^9 bounds.
MAX_GRID_STEPS = 1024

# a decimal literal with an exponent, in the grammar Fraction reads; group 1
# is the exponent.  Left to re's cache, so that it is compiled only when a
# literal needs it, not at every start-up
_EXPONENT = (r"\s*[-+]?(?=\d|\.\d)(?:\d+(?:_\d+)*)?(?:\.(?:\d+(?:_\d+)*)?)?"
             r"[eE]([-+]?\d+(?:_\d+)*)\s*")


def _clip(text: str, width: int = 40) -> str:
    """text, or its head and its length when longer than width, so that an
    error line echoing spec content stays short."""
    if len(text) <= width:
        return text
    return f"{text[:width]}... ({len(text):,} characters)"


class _JsonNumber:
    """A JSON number literal kept as its text, so that _mass reads it
    exactly.  Not a str, so that a label or q written as a number is still
    rejected."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text


def _json_int(text: str):
    # past the int <-> str digit limit, kept as text too: _mass then reports
    # it on its entry, where json.loads would raise a bare ValueError
    try:
        return int(text)
    except ValueError:
        return _JsonNumber(text)


def _exponent_over_cap(exponent: str) -> bool:
    digits = exponent.lstrip("+-").replace("_", "")
    if not digits.isascii():
        digits = "".join(str(int(c)) for c in digits)
    digits = digits.lstrip("0")
    return len(digits) > len(str(MAX_EXPONENT)) or int(digits or 0) > MAX_EXPONENT


def _mass(raw, where) -> tuple:
    """One mass as an integer pair (n, d), d > 0, of the value Fraction
    reads from raw (for a JSON number, from its text), or a SpecFileError.

    Plain ASCII-digit literals n, n/d, i.f, .f and i. are read with str
    methods and int(); every other literal goes through Fraction, after a
    decimal exponent has been checked against MAX_EXPONENT.
    """
    if type(raw) is int:
        return raw, 1
    text = raw.text if type(raw) is _JsonNumber else raw
    if not isinstance(text, str):
        # JSON true and false: bool is an int subclass, but not int itself
        kind = "a boolean" if isinstance(text, bool) else type(text).__name__
        raise SpecFileError(f"{where}: expected a rational, got {kind}")
    if text.isascii():
        try:
            if text.isdigit():
                return int(text), 1
            num, slash, den = text.partition("/")
            if slash:
                if num.isdigit() and den.isdigit():
                    d = int(den)
                    if d:
                        return int(num), d
            else:
                whole, dot, frac = text.partition(".")
                if dot and (whole + frac).isdigit():
                    return int(whole + frac), 10 ** len(frac)
        except ValueError:
            pass  # past the int <-> str digit limit: Fraction reports it
    exp = re.fullmatch(_EXPONENT, text)
    if exp and _exponent_over_cap(exp[1]):
        raise SpecFileError(f"{where}: decimal exponent larger than {MAX_EXPONENT} "
                            f"in magnitude: {_clip(repr(text))}")
    try:
        value = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecFileError(f"{where}: not a rational: {_clip(repr(text))}") from exc
    return value.numerator, value.denominator


class ChannelSpecFile(_Record):
    """A parsed channel description: level count, label, and the four pmfs."""

    __slots__ = ("q", "label", "spec")

    @classmethod
    def parse(cls, text: str, default_label: str = "channel") -> "ChannelSpecFile":
        # numbers stay literal text until _mass reads them exactly, so 0.9
        # means exactly 9/10
        try:
            doc = json.loads(text, parse_float=_JsonNumber, parse_int=_json_int)
        except json.JSONDecodeError as exc:
            raise SpecFileError(
                f"line {exc.lineno} column {exc.colno}: {exc.msg}"
            ) from exc
        except RecursionError as exc:
            raise SpecFileError("JSON nested too deeply") from exc
        if not isinstance(doc, dict):
            raise SpecFileError("top level must be a JSON object")
        unknown = sorted(set(doc) - {"q", "label", *_LINKS})
        if unknown:
            # a key that would break the line (a newline, say) shows as its repr
            shown = (k if k.isprintable() else repr(k) for k in unknown)
            raise SpecFileError("unknown keys: " + _clip(", ".join(shown)))
        if "q" not in doc:
            raise SpecFileError("missing key: q")
        q = doc["q"]
        if isinstance(q, bool) or not isinstance(q, int):
            raise SpecFileError("q must be an integer")
        if q < 0:
            raise SpecFileError("q must be nonnegative")
        label = doc.get("label", default_label)
        if not isinstance(label, str):
            raise SpecFileError("label must be a string")
        pmfs = {}
        for key in _LINKS:
            if key not in doc:
                raise SpecFileError(f"missing key: {key}")
            entries = doc[key]
            if not isinstance(entries, list):
                raise SpecFileError(f"{key}: expected an array of {_clip(str(q + 1))} masses")
            if len(entries) != q + 1:
                raise SpecFileError(
                    f"{key}: expected {_clip(str(q + 1))} masses for q={_clip(str(q))}, "
                    f"got {len(entries)}"
                )
            pairs = [_mass(raw, f"{key}[{i}]") for i, raw in enumerate(entries)]
            try:
                pmfs[key] = FadingPmf.from_pairs(pairs)
            except ValueError as exc:
                raise SpecFileError(f"{key}: {exc}") from exc
        spec = ChannelSpec(
            n11=pmfs["n11"], n12=pmfs["n12"], n21=pmfs["n21"], n22=pmfs["n22"]
        )
        return cls(q=q, label=label, spec=spec)


def load_spec_file(path) -> ChannelSpecFile:
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        # the reason only: the caller's error line names the path
        raise SpecFileError(f"cannot read: {getattr(exc, 'strerror', None) or exc}") from exc
    # the file name's stem, as PurePath.stem reads it: a leading or trailing
    # dot starts no suffix
    name = os.path.basename(path)
    dot = name.rfind(".")
    stem = name[:dot] if 0 < dot < len(name) - 1 else name
    return ChannelSpecFile.parse(text, default_label=stem)


def _constraint_entry(bound: WeightedBound) -> dict:
    plane = bound.halfplane()
    return {
        "family": bound.family,
        "omega": str(bound.omega),
        "mu": None if bound.mu is None else str(bound.mu),
        "a": plane.a,
        "b": plane.b,
        "c": plane.c,
    }


def _region(spec: ChannelSpec, mode: str, grid_steps: int) -> tuple:
    """The mode's BoundRows and the region they intersect to."""
    rows = grid_rows(spec, grid_steps, prune=True) if mode == "grid" else outer_rows(spec)
    return rows, rows.region()


def region_document(spec_file: ChannelSpecFile, mode: str, grid_steps: int) -> dict:
    """The region's JSON document: its vertices and active constraints.  The
    rows stay integers; only the active ones become WeightedBounds."""
    rows, region = _region(spec_file.spec, mode, grid_steps)
    return {
        "label": spec_file.label,
        "q": spec_file.q,
        "mode": mode,
        "vertices": [[str(r1), str(r2)] for r1, r2 in region.vertices],
        "constraints": [_constraint_entry(b) for b in active_bounds(rows, region)],
    }


def classify_document(spec_file: ChannelSpecFile) -> dict:
    spec = spec_file.spec
    report = classify(spec)
    region = outer_region(spec)
    exact = report.regime in ("strong", "weak")
    doc = {
        "label": spec_file.label,
        "q": spec_file.q,
        "regime": report.regime,
        "conditions": {regime: {"user1": list(user1), "user2": list(user2)}
                       for regime, (user1, user2) in report.conditions.items()},
        "conjecture_precondition": report.conjecture_precondition,
        "region_status": "capacity" if exact else "outer bound (tightness open)",
        "vertices": [[str(r1), str(r2)] for r1, r2 in region.vertices],
    }
    if report.regime == "weak":
        doc["sum_capacity"] = str(_weak_sum(spec))
    elif report.regime == "strong":
        doc["sum_capacity"] = str(region.support(1, 1))
    return doc


def render_json(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def render_csv(region: RegionPolytope) -> str:
    lines = ["R1,R2"]
    for r1, r2 in region.vertices:
        lines.append(f"{r1},{r2}")
    return "\n".join(lines) + "\n"


def render_svg(spec_file: ChannelSpecFile, region: RegionPolytope) -> str:
    """Static polygon plot; weak channels get Fig-style annotations."""
    ml, mt, inner = 64, 20, 400
    width, height = ml + inner + 24, mt + inner + 56
    xmax = max((float(v[0]) for v in region.vertices), default=0.0)
    ymax = max((float(v[1]) for v in region.vertices), default=0.0)
    xmax = (xmax or 1.0) * 1.1
    ymax = (ymax or 1.0) * 1.1

    def fx(r) -> float:
        return ml + float(r) / xmax * inner

    def fy(r) -> float:
        return mt + inner - float(r) / ymax * inner

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="{ml}" y="{mt}" width="{inner}" height="{inner}" '
        'fill="white" stroke="black" stroke-width="1"/>',
    ]
    pts = " ".join(f"{fx(r1):.2f},{fy(r2):.2f}" for r1, r2 in region.vertices)
    parts.append(
        f'<polygon points="{pts}" fill="#c8d8ee" fill-opacity="0.7" '
        'stroke="#204a87" stroke-width="2"/>'
    )
    for r1, r2 in region.vertices:
        parts.append(
            f'<circle cx="{fx(r1):.2f}" cy="{fy(r2):.2f}" r="3" fill="#204a87"/>'
        )
    xticks = sorted({v[0] for v in region.vertices})
    yticks = sorted({v[1] for v in region.vertices})
    for t in xticks:
        parts.append(
            f'<text x="{fx(t):.2f}" y="{mt + inner + 16}" font-size="11" '
            f'text-anchor="middle">{t}</text>'
        )
    for t in yticks:
        parts.append(
            f'<text x="{ml - 6}" y="{fy(t) + 4:.2f}" font-size="11" '
            f'text-anchor="end">{t}</text>'
        )
    parts.append(
        f'<text x="{ml + inner / 2:.2f}" y="{mt + inner + 40}" font-size="13" '
        'text-anchor="middle">R1 (bits/channel use)</text>'
    )
    parts.append(
        f'<text x="16" y="{mt + inner / 2:.2f}" font-size="13" '
        f'text-anchor="middle" transform="rotate(-90 16 {mt + inner / 2:.2f})">'
        "R2 (bits/channel use)</text>"
    )

    spec = spec_file.spec
    if classify(spec).regime == "weak":
        c_sum = _weak_sum(spec)
        # dashed sum-capacity line R1 + R2 = C_sum, clipped to the plot box
        lo = max(0.0, float(c_sum) - ymax)
        hi = min(xmax, float(c_sum))
        parts.append(
            f'<line x1="{fx(lo):.2f}" y1="{fy(float(c_sum) - lo):.2f}" '
            f'x2="{fx(hi):.2f}" y2="{fy(float(c_sum) - hi):.2f}" '
            'stroke="#a40000" stroke-width="1.5" stroke-dasharray="6,4"/>'
        )
        face = [v for v in region.vertices if v[0] + v[1] == c_sum]
        if face:
            a_pt = max(face, key=lambda v: v[0])
            b_pt = min(face, key=lambda v: v[0])
            corners = [(a_pt, "A")] + ([(b_pt, "B")] if b_pt != a_pt else [])
            for (r1, r2), mark in corners:
                parts.append(f'<circle cx="{fx(r1):.2f}" cy="{fy(r2):.2f}" r="4" fill="#a40000"/>')
                parts.append(f'<text x="{fx(r1) + 8:.2f}" y="{fy(r2) - 6:.2f}" '
                             f'font-size="12" fill="#a40000">{mark}</text>')
        star = (expect(spec.n11), expect_pos_diff(spec.n21, spec.n11))
        if region.contains(star):
            parts.append(
                f'<text x="{fx(star[0]):.2f}" y="{fy(star[1]) + 5:.2f}" font-size="16" '
                'text-anchor="middle" fill="#a40000">&#9733;</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _int_type(ok, requirement: str):
    """argparse type for an integer n with ok(n); requirement is what the
    error line says n must be."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{requirement}, got {value}")
        return value
    return parse


def _emit(text: str, out) -> int:
    if out is None:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(out, "w") as f:
            f.write(text)
    except OSError as exc:
        print(f"error: cannot write {out}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_PARSE
    return EXIT_OK


def cmd_region(args) -> int:
    spec_file = load_spec_file(args.spec)
    if args.format == "json":
        text = render_json(region_document(spec_file, args.mode, args.grid_steps))
    else:
        # csv and svg print the region alone: no constraint is selected
        _, region = _region(spec_file.spec, args.mode, args.grid_steps)
        text = render_csv(region) if args.format == "csv" else render_svg(spec_file, region)
    return _emit(text, args.out)


def cmd_classify(args) -> int:
    return _emit(render_json(classify_document(load_spec_file(args.spec))), args.out)


def cmd_verify(args) -> int:
    # imported here so that region and classify never load the suites, the
    # corpus or the oracles
    from . import verification

    # no suite calls a BLAS routine, so a numpy that the suite imports loads
    # OpenBLAS with one thread: starting its worker thread took numpy's
    # import from about 105 ms to 180 ms (2-core VM, numpy 2.4.6).  A value
    # the caller set stands, and the variable is removed again, so a caller
    # of main that imports numpy later gets numpy's default
    blas_default = "OPENBLAS_NUM_THREADS" not in os.environ
    if blas_default:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        if args.suite == "montecarlo":
            result = verification.verify_montecarlo(samples=args.samples, seed=args.seed)
        elif args.suite == "inclusions":
            result = verification.verify_inclusions(seed=args.seed)
        else:
            result = verification.SUITES[args.suite]()
    finally:
        if blas_default:
            os.environ.pop("OPENBLAS_NUM_THREADS", None)
    print(result.render())
    return EXIT_OK if result.ok else EXIT_VERIFY


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once: parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="layercap",
        description="Outer bounds and regime reports for two-user layered "
        "erasure interference channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    positive = _int_type(lambda n: n >= 1, "must be at least 1")

    region = sub.add_parser("region", help="compute the outer-bound polytope")
    region.add_argument("--spec", required=True, help="channel spec file (JSON)")
    region.add_argument("--out", default=None, help="output path (default stdout)")
    region.add_argument("--format", choices=("json", "csv", "svg"), default="json")
    region.add_argument("--mode", choices=("exact", "grid"), default="exact")
    region.add_argument(
        "--grid-steps", default=256, dest="grid_steps",
        type=_int_type(lambda n: 1 <= n <= MAX_GRID_STEPS,
                       f"must be at least 1 and at most {MAX_GRID_STEPS}"),
        help="weight-grid resolution for --mode grid",
    )
    region.set_defaults(func=cmd_region)

    cls = sub.add_parser("classify", help="report the interference regime")
    cls.add_argument("--spec", required=True, help="channel spec file (JSON)")
    cls.add_argument("--out", default=None, help="output path (default stdout)")
    cls.set_defaults(func=cmd_classify)

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument(
        "suite", choices=("deterministic", "coupling", "montecarlo", "inclusions")
    )
    verify.add_argument("--samples", type=positive, default=10 ** 6)
    # the 64-bit key of the Monte Carlo streams
    seed = _int_type(lambda n: 0 <= n < 1 << 64, "must be in [0, 2^64)")
    verify.add_argument("--seed", type=seed, default=0)
    verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    # exact outputs of q >= 8 specs pass Python's default 4300-digit limit on
    # int <-> str conversion, and spec masses may too.  The limit stays lifted
    # when main returns, since the benchmark's output checks read main's
    # outputs back in the same process; a library caller that formats q >= 8
    # results without main lifts it itself
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SpecFileError as exc:  # only region and classify read a spec file
        print(f"error: {args.spec}: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
