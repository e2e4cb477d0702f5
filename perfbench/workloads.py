"""The benchmark's workloads: seeded inputs, one op, and the op's output checks.

Op i of a workload is a function of (workload, seed, i) alone, so any prefix
of the input list is the same whatever the count generated.  Run as a
script, this module generates a workload's inputs in a process of its own;
the corpus generators call ``classify`` and fill the library's caches, so
the timed process must not be the one that generated them:

    python3 perfbench/workloads.py --workload exact_deep --seed 0 --count 120 --out ops.json
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import sys
import time
from fractions import Fraction

from layercap import cli, corpus
from layercap.bounds import grid_bounds, outer_halfplanes, outer_region
from layercap.geometry import RegionPolytope

FORMATS = ("json", "csv", "svg")
# 16 steps give 374 planes per region and about 0.2 s per op.  At the CLI
# default of 256 a region takes minutes, and at 64 steps (4,550 planes) 2.5
# to 6 s; at 32 steps (1,254 planes) a run still held only 20 to 30 ops,
# whose spread of costs moved the rate by a tenth from seed to seed.
# Intersection is the largest self time at 16 steps as well
GRID_STEPS = 16
REGIMES = ("strong", "weak", "moderate", "mixed")
LINKS = ("n11", "n12", "n21", "n22")


# -- inputs ------------------------------------------------------------------

def _decimal_pmf(rng: random.Random, q: int, digits: int) -> list:
    """q+1 masses written as decimals of the given digits that sum to exactly 1."""
    unit = 10 ** digits
    cuts = sorted(rng.randint(0, unit) for _ in range(q))
    counts = [b - a for a, b in zip([0] + cuts, cuts + [unit])]
    return [f"{k // unit}.{k % unit:0{digits}d}" for k in counts]


def _fraction_pmf(pmf) -> list:
    return [json.dumps(str(m)) for m in pmf.masses]


def _spec_text(label: str, q: int, masses: dict) -> str:
    # masses hold JSON literals: bare decimals, as README specs are written,
    # or quoted rationals
    links = ",\n".join(f'  "{k}": [{", ".join(masses[k])}]' for k in LINKS)
    return f'{{\n  "label": "{label}",\n  "q": {q},\n{links}\n}}\n'


def make_op(workload: str, seed: int, i: int) -> dict:
    rng = random.Random(f"{workload}:{seed}:{i}")
    label = f"{workload}-{i}"
    mode, kind = "exact", "random"
    if workload == "exact_deep":
        # q cycles with period 3, the kind with period 4 and the format with
        # period 12, so every 12 ops hold the same mix: each (q, kind) pair
        # once, and six decimal specs whose digit counts are 2, 3, 4, 5, 6
        # and 4.  At q = 16, 24, 32 an op took 45 ms to 3 s and a run held
        # 23 to 44 ops, too few for a steady rate
        q = (8, 12, 16)[i % 3]
        kind = ("decimal", "strong", "decimal", "weak")[i % 4]
        fmt = FORMATS[(i // 4) % 3]
        if kind == "decimal":
            digits = (2, 3, 4, 5, 6, 4)[(i % 12) // 2]
            masses = {k: _decimal_pmf(rng, q, digits) for k in LINKS}
        else:
            make = corpus.random_strong_spec if kind == "strong" else corpus.random_weak_spec
            spec = make(rng, q, 16)
            masses = {k: _fraction_pmf(p) for k, p in spec.links().items()}
    elif workload in ("exact_bignum", "digit_limit_probe"):
        # exact_bignum: q cycles 3..7 and the format with period 15, so every
        # 15 ops hold each (q, format) pair once.  q = 8 and 9 are left out
        # of the timed ops because most of their outputs pass Python's
        # 4300-digit int->str limit (the recorded defect); at q = 7 the
        # longest output number has about 3,000 digits.  digit_limit_probe
        # holds the q = 8 and 9 specs the traced run counts that defect on
        if workload == "exact_bignum":
            q, fmt = 3 + i % 5, FORMATS[(i // 5) % 3]
        else:
            q, fmt = (8, 9)[i % 2], "json"
        kind = "moderate"
        spec = corpus.random_moderate_spec(rng, q)
        masses = {k: _fraction_pmf(p) for k, p in spec.links().items()}
    elif workload == "grid_dense":
        q, fmt, mode = (1, 2, 4)[i % 3], "json", "grid"
        spec = corpus.random_spec(rng, q, 16)
        masses = {k: _fraction_pmf(p) for k, p in spec.links().items()}
    else:
        raise ValueError(f"no generated inputs for workload {workload!r}")
    return {"i": i, "q": q, "kind": kind, "format": fmt, "mode": mode,
            "label": label, "text": _spec_text(label, q, masses)}


# -- one op --------------------------------------------------------------------

class OpFailed(Exception):
    """The command returned a nonzero exit code."""


def _cli(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise OpFailed(f"layercap {' '.join(argv)} exited {code}")
    return buf.getvalue()


def run_op(op: dict, spec_path: str) -> dict:
    """`layercap region` (and, in exact mode, `layercap classify`) on one spec."""
    argv = ["region", "--spec", spec_path, "--format", op["format"], "--mode", op["mode"]]
    if op["mode"] == "grid":
        argv += ["--grid-steps", str(GRID_STEPS)]
    outputs = {"region": _cli(argv)}
    if op["mode"] == "exact":
        outputs["classify"] = _cli(["classify", "--spec", spec_path])
    return outputs


def known_failure(op: dict, exc: BaseException) -> bool:
    """The recorded defect: a q >= 8 moderate rational passes Python's
    4300-digit int->str limit and `layercap region` raises ValueError."""
    return (op["kind"] == "moderate" and op["q"] >= 8 and isinstance(exc, ValueError)
            and "integer string conversion" in str(exc))


def digests(outputs: dict) -> dict:
    return {k: hashlib.sha256(v.encode()).hexdigest() for k, v in sorted(outputs.items())}


# -- output checks ---------------------------------------------------------------

def _points(pairs) -> list:
    return [(Fraction(a), Fraction(b)) for a, b in pairs]


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _check_polygon(verts, planes, constraints) -> list:
    problems = []
    if not verts or verts[0] != (0, 0):
        problems.append("vertices do not start at the origin")
    n = len(verts)
    if n >= 3 and any(_cross(verts[k], verts[(k + 1) % n], verts[(k + 2) % n]) <= 0
                      for k in range(n)):
        problems.append("vertices are not strictly counterclockwise")
    for p in planes:
        if any(p.a * x + p.b * y > p.c for x, y in verts):
            problems.append(f"a vertex violates generated plane {p}")
            break
    needed = 2 if n >= 3 else 1
    generated = {(p.a, p.b, p.c) for p in planes}
    for c in constraints:
        a, b, rhs = c["a"], c["b"], c["c"]
        if (a, b, rhs) not in generated:
            problems.append(f"reported constraint {a},{b},{rhs} was not generated")
        elif sum(1 for x, y in verts if a * x + b * y == rhs) < needed:
            problems.append(f"reported constraint {a},{b},{rhs} is not tight")
    return problems


def _check_render(fmt: str, text: str, doc_verts, verts) -> list:
    if fmt == "json":
        return [] if doc_verts == verts else ["region JSON vertices differ from classify"]
    if fmt == "csv":
        lines = text.splitlines()
        got = _points(line.split(",") for line in lines[1:])
        if lines[0] != "R1,R2" or got != verts:
            return ["CSV vertices differ from classify"]
        return []
    if not (text.startswith("<svg") and text.rstrip().endswith("</svg>")):
        return ["SVG output is not one <svg> element"]
    if text.count('r="3" fill="#204a87"') != len(verts):
        return ["SVG draws a different number of vertices"]
    return []


def check_op(op: dict, outputs: dict) -> list:
    """Problems found in one op's outputs; an empty list means it passed."""
    spec = cli.ChannelSpecFile.parse(op["text"]).spec
    region_text = outputs["region"]
    problems = []
    if op["mode"] == "grid":
        doc = json.loads(region_text)
        verts = _points(doc["vertices"])
        planes = [b.halfplane() for b in grid_bounds(spec, GRID_STEPS)]
        problems += _check_polygon(verts, planes, doc["constraints"])
        grid = RegionPolytope(verts)
        if not all(grid.contains(v) for v in outer_region(spec).vertices):
            problems.append("grid region does not contain the exact region")
        return problems
    cdoc = json.loads(outputs["classify"])
    verts = _points(cdoc["vertices"])
    constraints = []
    doc_verts = None
    if op["format"] == "json":
        doc = json.loads(region_text)
        doc_verts, constraints = _points(doc["vertices"]), doc["constraints"]
    problems += _check_render(op["format"], region_text, doc_verts, verts)
    planes = [b.halfplane() for b in outer_halfplanes(spec)]
    problems += _check_polygon(verts, planes, constraints)
    regime = cdoc["regime"]
    if regime not in REGIMES:
        problems.append(f"unknown regime {regime!r}")
    capacity = regime in ("strong", "weak")
    if (cdoc["region_status"] == "capacity") != capacity:
        problems.append(f"region_status {cdoc['region_status']!r} for a {regime} channel")
    if capacity and Fraction(cdoc["sum_capacity"]) != max(x + y for x, y in verts):
        problems.append("sum capacity differs from the region's sum-rate support")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    ops = [make_op(args.workload, args.seed, i) for i in range(args.count)]
    generate_s = time.perf_counter() - t0
    with open(args.out, "w") as fh:
        json.dump({"generate_s": generate_s, "ops": ops}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
