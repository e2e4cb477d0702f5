"""Timed process of the benchmark: a closed loop of ops, or one verify suite.

Workload ops (one process per pass, started cold):

    python3 perfbench/worker.py ops --inputs ops.json --seconds 16 --out result.json
        [--min-ops K] [--period P] [--ops N] [--sample] [--trace spans.json]
        [--count-ops K]

runs op 0, 1, 2, ... one after another, each waiting for the previous
result, in whole blocks of P ops, while the next block, at the mean op time
so far, would end within --seconds (and at least --min-ops), or until the
inputs run out; --ops N runs exactly the first N.  Outputs are checked
after the loop, outside the timed span.

One verify suite, the way `layercap verify` runs it:

    python3 perfbench/worker.py suite coupling --seed 0 --out result.json [--sample]
        [--trace spans.json]

With --sample, the host's speed is sampled while ops or the suite run (see
speed.py); each op, and the suite, carries the reference times taken
inside it.

With --trace, spans are recorded around calls into the layercap modules
(see spans.py) and written to the given file; the result then carries
per-span sums and the counts taken from the first --count-ops ops.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import sys
import time
from collections import Counter
from pathlib import Path

import speed  # before layercap; see speed.py
from spans import END, NAME, OP, START, Recorder, self_times

import workloads
from layercap import cli


def _bits(x) -> int:
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


def layer_sums(rec: Recorder, count_ops: int) -> dict:
    """Self and total ns and calls per span name, plus work counts.

    The counts come from the spans of ops 0 .. count_ops-1 only, so they
    repeat exactly for a seed whatever the number of ops timed.
    """
    sums = Counter()
    for s, own in zip(rec.spans, self_times(rec.spans)):
        sums[f"self:{s[NAME]}"] += own
        sums[f"total:{s[NAME]}"] += s[END] - s[START]
        sums[f"calls:{s[NAME]}"] += 1
    seen = set()
    for idx, (args, result) in rec.kept.items():
        s = rec.spans[idx]
        if s[OP] is None or s[OP] >= count_ops:
            continue
        if s[NAME] == "geometry.intersect":
            planes = list(args[0])
            sums["intersects"] += 1
            sums["planes"] += len(planes)
            sums["distinct"] += len(set(planes))
            sums["vertices"] += len(result.vertices)
            sums["coeff_bits"] += max(max(p.a, p.b, p.c).bit_length() for p in planes)
        elif s[NAME] == "bounds.active":
            sums["active"] += len(result)
            sums["active_base"] += len({b.halfplane() for b in args[0]})
        elif s[NAME] == "channel.layer_coefficients" and id(result) not in seen:
            seen.add(id(result))
            vecs = (result.alpha1, result.beta1, result.gamma1,
                    result.alpha2, result.beta2, result.gamma2)
            sums["coefficient_sets"] += 1
            sums["operand_bits"] += max((_bits(x) for v in vecs for x in v), default=0)
        elif s[NAME] == "oracles.mc_estimate_stats":
            sums["mc_samples"] += args[0].samples
    return dict(sums)


def run_ops(args) -> dict:
    ops = json.loads(Path(args.inputs).read_text())["ops"]
    spec_dir = Path(args.out).parent / "specs"
    spec_dir.mkdir(exist_ok=True)
    paths = []
    for op in ops:
        path = spec_dir / f"{op['label']}.json"
        path.write_text(op["text"])
        paths.append(str(path))

    rec = Recorder() if args.trace else None
    if rec:
        rec.instrument()
    sampler = speed.Sampler() if args.sample else None
    if sampler:
        sampler.start()
    results = []
    loop_start = time.perf_counter()
    for op, path in zip(ops, paths):
        i = op["i"]
        if args.ops is not None:
            if i >= args.ops:
                break
        elif i >= args.min_ops and i % args.period == 0:
            # stop before a block that, at the mean op time so far, would
            # end after --seconds
            elapsed = time.perf_counter() - loop_start
            if elapsed * (i + args.period) / i > args.seconds:
                break
        outputs = error = None
        t0 = time.perf_counter_ns()
        if sampler:
            sampler.tag = i
        try:
            if rec:
                rec.op = i
                with rec.span("op"):
                    outputs = workloads.run_op(op, path)
            else:
                outputs = workloads.run_op(op, path)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            error = exc
        if sampler:
            sampler.tag = None
        results.append((op, time.perf_counter_ns() - t0, outputs, error))
    loop_s = time.perf_counter() - loop_start
    refs = {}
    if sampler:
        sampler.stop()
        for tag, ns in sampler.samples:
            refs.setdefault(tag, []).append(ns)
    if rec:
        rec.op = None
        rec.restore()
        rec.dump(args.trace)

    out_ops = []
    for op, ns, outputs, error in results:
        entry = {"i": op["i"], "ns": ns, "refs": refs.get(op["i"], [])}
        if error is not None:
            entry["failed"] = True
            entry["known"] = workloads.known_failure(op, error)
            entry["error"] = f"{type(error).__name__}: {str(error)[:200]}"
        else:
            entry["problems"] = workloads.check_op(op, outputs)
            entry["failed"] = bool(entry["problems"])
            entry["bytes"] = sum(len(v.encode()) for v in outputs.values())
            entry["digests"] = workloads.digests(outputs)
        out_ops.append(entry)
    result = {"loop_s": loop_s, "ops": out_ops,
              "refs": [ns for tag, ns in sampler.samples] if sampler else []}
    if rec:
        result["sums"] = layer_sums(rec, args.count_ops)
    return result


_CHECKS = re.compile(r"(\d+)/(\d+) |(\d+) statistics")


def suite_checks(text: str) -> int:
    """Number of checks a suite reports: the n of "k/n" lines, or statistics."""
    return sum(int(m.group(2) or m.group(3)) for m in _CHECKS.finditer(text))


def run_suite(args) -> dict:
    rec = Recorder() if args.trace else None
    if rec:
        rec.instrument()
        rec.op = 0
    sampler = speed.Sampler() if args.sample else None
    buf = io.StringIO()
    t0 = time.perf_counter_ns()
    if sampler:
        sampler.start()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["verify", args.suite, "--seed", str(args.seed)])
    if sampler:
        sampler.stop()
    main_ns = time.perf_counter_ns() - t0
    text = buf.getvalue()
    result = {"suite": args.suite, "exit": code, "stdout": text, "main_s": main_ns / 1e9,
              "main_ns": main_ns,
              "refs": [ns for _, ns in sampler.samples] if sampler else [],
              "passed": code == 0 and f"[{args.suite}] PASS" in text}
    if rec:
        rec.restore()
        rec.dump(args.trace)
        result["sums"] = dict(layer_sums(rec, 1), checks=suite_checks(text))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="timed benchmark process")
    sub = parser.add_subparsers(dest="mode", required=True)
    p_ops = sub.add_parser("ops")
    p_ops.add_argument("--inputs", required=True)
    p_ops.add_argument("--seconds", type=float, default=0.0)
    p_ops.add_argument("--min-ops", type=int, default=1, dest="min_ops")
    p_ops.add_argument("--period", type=int, default=1)
    p_ops.add_argument("--ops", type=int, default=None)
    p_ops.add_argument("--count-ops", type=int, default=0, dest="count_ops")
    p_suite = sub.add_parser("suite")
    p_suite.add_argument("suite")
    p_suite.add_argument("--seed", type=int, required=True)
    for p in (p_ops, p_suite):
        p.add_argument("--sample", action="store_true")
        p.add_argument("--trace", default=None)
        p.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    result = run_ops(args) if args.mode == "ops" else run_suite(args)
    tmp = args.out + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(result, fh)
    os.replace(tmp, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
