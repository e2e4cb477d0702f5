"""layercap benchmark: one workload, one seed, one line of JSON.

    python3 perfbench/run.py --workload exact_deep --seed 0 --seconds 16 --trace 0

Run from the root of a source checkout; the library is imported from src/.
Each run is a single-client closed loop, as a `layercap` user or a test run
calls it: op n+1 starts when op n has returned.

- exact_deep, exact_bignum: an op is `layercap region` (format rotating
  json/csv/svg) then `layercap classify`, on a spec of its own, so each op
  meets the library's caches as cold as a fresh command does;
- grid_dense: an op is `layercap region --mode grid --grid-steps 16`;
- verify_suites: an op is one round of `layercap verify deterministic`,
  `coupling`, `inclusions` and `montecarlo`, each in a fresh process.

A run, each step in processes of its own and no two steps overlapping:

1. generate the inputs from --seed (workloads.py);
2. --trace 0: time LAUNCHES cold starts (launch.py), for setup_s;
   --trace 1: launches under -X importtime, for the import split;
3. --trace 0: the timed loop (worker.py) for --seconds; a verify round is
   timed as its suites' in-process `layercap verify` calls.  Every time the
   run reports, setup_s's too, is scaled to a nominal host speed read from
   a reference computation sampled while it ran (speed.py): the host's
   load makes the same work take up to two thirds longer;
   --trace 1: the loop untraced for half of --seconds, then the same ops
   traced, which gives per-layer self times and the tracing overhead (the
   spans are written to perfbench/.out/; these times are not scaled); on
   exact_bignum, the probe of the recorded defect.

Outputs are checked after each loop (workloads.check_op; every suite must
PASS).  At the default seed, 0, they must also match digests.json byte for
byte.  The last line of stdout is the result; the exit code is 1 if any
check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / ".out"

WORKLOADS = {
    # name: (inputs generated per second of a loop, about twice the present
    # op rate; the first ops of a traced run, over which the per-layer
    # counts are taken; the period of the inputs' q and kind, which a loop
    # ends on so that every run holds the same mix)
    "exact_deep": (12, 12, 12),
    "exact_bignum": (10, 15, 15),
    "grid_dense": (10, 3, 3),
    "verify_suites": (0, 1, 1),
}
SUITES = ("deterministic", "coupling", "inclusions", "montecarlo")
LAUNCHES = 9
# q = 8 and 9 exact_bignum specs, on which the traced run counts the
# recorded int->str defect
PROBE_OPS = 4
DEFAULT_SEED = 0
DEADLINE_S = 170

END_TO_END = {
    "throughput_ops_s": "1/s",
    "ok_share": "share",
    "setup_s": "s",
}
# per-layer times per op: metric -> ("self" or "total", span name)
SPAN_TIMES = {
    "channel.layer_coefficients_ms": ("self", "channel.layer_coefficients"),
    "bounds.evaluate_ms": ("self", "bounds.evaluate"),
    "bounds.critical_weights_ms": ("self", "bounds.critical_weights"),
    "geometry.intersect_ms": ("self", "geometry.intersect"),
    "bounds.active_ms": ("self", "bounds.active"),
    "cli.parse_ms": ("self", "cli.parse"),
    "cli.render_ms": ("self", "cli.render"),
    "cli.classify_document_ms": ("total", "cli.classify_document"),
    "regimes.classify_ms": ("self", "regimes.classify"),
}
PER_LAYER = {
    **{m: "ms" for m in SPAN_TIMES},
    "cli.output_bytes": "bytes",
    "cli.import_ms": "ms",
    "cli.import_numpy_ms": "ms",
    "oracles.mc_samples_per_s": "1/s",
    "oracles.coupling_check_us": "us",
    "oracles.coupling_calls": "count",
    "deterministic.verify_recovery_ms": "ms",
    "verification.checks": "count",
    **{f"verification.suite_{s}_s": "s" for s in SUITES},
    "bounds.planes": "count",
    "geometry.planes_distinct": "count",
    "geometry.vertices": "count",
    "geometry.active_ratio": "ratio",
    "geometry.coeff_bits": "bits",
    "channel.operand_bits": "bits",
    "corpus.generate_s": "s",
    "bench.trace_overhead_ms": "ms",
    "cli.digit_limit_failures": "count",
}


class BenchError(Exception):
    """A step of the run could not complete; no result is printed."""


# -- statistics ------------------------------------------------------------------

def _rank(p, n) -> int:
    # nearest rank, 1-based; rounding first keeps 99.9 % of 10000 at 9990
    return max(1, math.ceil(round(p * n / 100, 9)))


def percentile(values, p):
    """Nearest-rank p-th percentile of an already sorted list."""
    if not values:
        raise ValueError("no samples")
    return values[_rank(p, len(values)) - 1]


def median(values):
    """Median of an already sorted list (the mean of the middle two for even n)."""
    n = len(values)
    if not n:
        raise ValueError("no samples")
    return values[n // 2] if n % 2 else (values[n // 2 - 1] + values[n // 2]) / 2


def highest_percentile(n, candidates=(50, 90, 99, 99.9)):
    """Highest candidate percentile with at least ten of n samples beyond it."""
    best = None
    for p in candidates:
        if n - _rank(p, n) >= 10:
            best = p
    return best


def latencies_ms(ops) -> list:
    """Op latencies in ms, sorted, with every failed op after every success."""
    return [o["ns"] / 1e6 for o in sorted(ops, key=lambda o: (o["failed"], o["ns"]))]


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(sums: dict, n_ops: int) -> dict:
    """Per-layer metrics from the span sums and counts of a traced pass."""
    get = lambda key: sums.get(key, 0)  # noqa: E731
    out = {m: get(f"{kind}:{span}") / 1e6 / n_ops for m, (kind, span) in SPAN_TIMES.items()}
    calls = get("calls:oracles.coupling_check")
    intersects = get("intersects")
    out.update({
        "oracles.mc_samples_per_s": _ratio(get("mc_samples"),
                                           get("total:oracles.mc_estimate_stats") / 1e9),
        "oracles.coupling_check_us": _ratio(get("self:oracles.coupling_check") / 1e3, calls),
        "oracles.coupling_calls": calls,
        "deterministic.verify_recovery_ms": _ratio(
            get("total:deterministic.verify_recovery") / 1e6,
            get("calls:deterministic.verify_recovery")),
        "verification.checks": get("checks"),
        "bounds.planes": _ratio(get("planes"), intersects),
        "geometry.planes_distinct": _ratio(get("distinct"), intersects),
        "geometry.vertices": _ratio(get("vertices"), intersects),
        "geometry.active_ratio": _ratio(get("active"), get("active_base")),
        "geometry.coeff_bits": _ratio(get("coeff_bits"), intersects),
        "channel.operand_bits": _ratio(get("operand_bits"), get("coefficient_sets")),
    })
    return out


# -- child processes ----------------------------------------------------------------

class Runner:
    """Starts the run's processes one at a time and keeps the run's deadline."""

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.deadline = time.monotonic() + DEADLINE_S
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))

    def child(self, args):
        """Run python3 with args from the repo root; returns (wall s, completed)."""
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("out of time")
        t0 = time.perf_counter()
        try:
            done = subprocess.run([sys.executable, *args], cwd=ROOT, env=self.env,
                                  capture_output=True, text=True, timeout=left)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"timed out: {' '.join(args)}") from exc
        wall = time.perf_counter() - t0
        if done.returncode != 0:
            raise BenchError(f"{' '.join(args)} exited {done.returncode}:\n{done.stderr[-2000:]}")
        return wall, done

    def json_child(self, args, name):
        out = self.work / f"{name}.json"
        wall, _ = self.child([*args, "--out", str(out)])
        return wall, json.loads(out.read_text())

    def generate(self, workload: str, count: int, inputs: str = "ops") -> dict:
        """Inputs from the seed, in a process of their own; spec files to launch with."""
        if workload == "verify_suites":
            return {"generate_s": 0.0, "ops": [], "launch": [[]] * LAUNCHES}
        path = self.work / f"{inputs}.json"
        self.child([str(BENCH / "workloads.py"), "--workload", workload, "--seed",
                    str(self.seed), "--count", str(count), "--out", str(path)])
        doc = json.loads(path.read_text())
        (self.work / "launch").mkdir(exist_ok=True)
        doc["launch"] = []
        for op in doc["ops"][:LAUNCHES]:
            spec = self.work / "launch" / f"{op['label']}.json"
            spec.write_text(op["text"])
            doc["launch"].append([str(spec)])
        return doc

    def ops(self, name, *args, inputs: str = "ops"):
        return self.json_child([str(BENCH / "worker.py"), "ops", "--inputs",
                                str(self.work / f"{inputs}.json"), *args], name)[1]

    def launch(self, spec) -> float:
        """Seconds of one cold start, at the nominal host speed."""
        wall, done = self.child([str(BENCH / "launch.py"), *spec])
        return speed.at_nominal(wall * 1e9, json.loads(done.stdout)) / 1e9

    def suite_round(self, trace: bool, sample: bool = False) -> dict:
        """The four suites, each in a fresh process; suite -> result."""
        results = {}
        for suite in SUITES:
            args = [str(BENCH / "worker.py"), "suite", suite, "--seed", str(self.seed)]
            if sample:
                args.append("--sample")
            if trace:
                args += ["--trace", str(OUT / f"spans-suite-{suite}-seed{self.seed}.json")]
            wall, res = self.json_child(args, f"suite-{suite}")
            res["wall_s"] = wall
            results[suite] = res
        return results

    def suite_loop(self, seconds: float, min_rounds: int, trace: bool = False,
                   sample: bool = False) -> dict:
        """Whole rounds while the next one, at the mean round time so far, ends
        within --seconds (at least min_rounds); shaped like an ops result.
        With sample, a round's ns is the sum of its suites' in-process times
        at the nominal host speed, else its wall time."""
        ops = []
        start = time.perf_counter()
        while (len(ops) < min_rounds
               or (time.perf_counter() - start) * (len(ops) + 1) / len(ops) <= seconds):
            t0 = time.perf_counter_ns()
            suites = self.suite_round(trace, sample)
            ns = time.perf_counter_ns() - t0
            if sample:
                ns = sum(speed.at_nominal(r["main_ns"], r["refs"]) for r in suites.values())
            ops.append({"i": len(ops), "ns": ns, "suites": suites,
                        "failed": not all(r["passed"] for r in suites.values()),
                        "bytes": sum(len(r["stdout"].encode()) for r in suites.values())})
        return {"loop_s": time.perf_counter() - start, "ops": ops}


def import_split(stderr: str) -> tuple:
    """Cumulative import times (ms) of layercap and numpy from -X importtime."""
    found = {}
    for line in stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3:
            name = parts[2].strip()
            if name in ("layercap", "numpy"):
                found[name] = int(parts[1]) / 1e3
    if "layercap" not in found:
        raise BenchError("-X importtime did not report layercap")
    return found["layercap"], found.get("numpy", 0.0)


def failures(ops) -> list:
    """Failed checks and failed ops, other than the recorded defect."""
    found = []
    for o in ops:
        if o["failed"] and not o.get("known", False):
            why = o.get("error") or "; ".join(o.get("problems", [])) or "a suite did not PASS"
            found.append(f"op {o['i']}: {why}")
    return found


def problems(workload: str, seed: int, ops) -> list:
    """Failed checks: unexpected failures, and digest mismatches at the default seed."""
    found = failures(ops)
    if seed == DEFAULT_SEED:
        found += digest_problems(workload, ops)
    return found


def digest_problems(workload: str, ops) -> list:
    found = []
    expected = json.loads((BENCH / "digests.json").read_text())[workload]
    for o in ops:
        if workload == "verify_suites":
            got = {s: hashlib.sha256(r["stdout"].encode()).hexdigest()
                   for s, r in o["suites"].items()}
            want = expected
        else:
            got = o.get("digests")
            want = expected[o["i"]] if o["i"] < len(expected) else None
        if got is not None and want is not None and got != want:
            found.append(f"op {o['i']}: output differs from digests.json")
    return found


# -- one run ----------------------------------------------------------------------

def measure(run: Runner, workload: str, seconds: float) -> tuple:
    """End-to-end metrics, all from untraced processes, at the nominal host speed."""
    rate, _, period = WORKLOADS[workload]
    doc = run.generate(workload, max(LAUNCHES, math.ceil(rate * seconds)))
    setup = [run.launch(spec) for spec in doc["launch"]]
    if workload == "verify_suites":
        # a round takes about half of run_seconds; two whole rounds at least
        # keep the count of rounds from flipping between one and two
        ops = run.suite_loop(seconds, min_rounds=2, sample=True)["ops"]
    else:
        res = run.ops("loop", "--seconds", str(seconds), "--period", str(period), "--sample")
        ops = res["ops"]
        for o in ops:
            o["ns"] = speed.at_nominal(o["ns"], o["refs"], res["refs"])
    busy_s = sum(o["ns"] for o in ops) / 1e9
    lat = latencies_ms(ops)
    done = sum(1 for o in ops if not o["failed"])
    metrics = {
        "throughput_ops_s": done / busy_s,
        "ok_share": done / len(ops),
        "setup_s": statistics.median(setup),
    }
    # latency is reported here with its sample count, not as a metric.  A
    # higher percentile has ten samples beyond it on some workloads only,
    # and exact_deep's median falls between spec kinds whose costs differ
    # twofold, so it moved by 0.15 of itself (quartile distance) across seeds
    tail = highest_percentile(len(ops))
    print(f"[{workload}] {len(ops)} ops, {len(ops) - done} failed, {busy_s:.2f} s at the "
          f"nominal host speed; latency p50 {median(lat):.1f} ms"
          + (f", p{tail} {percentile(lat, tail):.1f} ms (the highest percentile with ten "
             f"samples beyond it)" if tail and tail > 50 else ""), file=sys.stderr)
    return metrics, problems(workload, run.seed, ops), len(ops), len(ops) - done


def trace(run: Runner, workload: str, seconds: float) -> tuple:
    """Per-layer metrics from a traced pass, against an untraced pass of the same ops."""
    rate, count_ops, period = WORKLOADS[workload]
    doc = run.generate(workload, max(LAUNCHES, count_ops, math.ceil(rate * seconds / 2)))
    launch = [str(BENCH / "launch.py")]
    splits = [import_split(run.child(["-X", "importtime", *launch, *spec])[1].stderr)
              for spec in doc["launch"][:3]]
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    if workload == "verify_suites":
        plain = run.suite_loop(0, min_rounds=1)
        traced = run.suite_loop(0, min_rounds=1, trace=True)
        rounds = [o["suites"] for o in (plain["ops"][0], traced["ops"][0])]
        sums = Counter()
        for r in rounds[1].values():
            sums.update(r["sums"])
        overhead_s = sum(r["main_s"] for r in rounds[1].values()) - sum(
            r["main_s"] for r in rounds[0].values())
        metrics.update({f"verification.suite_{s}_s": rounds[0][s]["wall_s"] for s in SUITES})
    else:
        plain = run.ops("plain", "--seconds", str(seconds / 2), "--min-ops", str(count_ops),
                        "--period", str(period))
        n = len(plain["ops"])
        traced = run.ops("traced", "--ops", str(n), "--count-ops", str(count_ops), "--trace",
                         str(OUT / f"spans-{workload}-seed{run.seed}.json"))
        sums = traced["sums"]
        plain_s, traced_s = (sum(o["ns"] for o in p["ops"]) / 1e9 for p in (plain, traced))
        overhead_s = traced_s - plain_s
    n = len(traced["ops"])
    metrics.update(layer_metrics(sums, n))
    ok = [o for o in traced["ops"] if "bytes" in o]
    metrics.update({
        "cli.output_bytes": _ratio(sum(o["bytes"] for o in ok), len(ok)),
        "cli.import_ms": statistics.median(s[0] for s in splits),
        "cli.import_numpy_ms": statistics.median(s[1] for s in splits),
        "corpus.generate_s": doc["generate_s"],
        "bench.trace_overhead_ms": overhead_s * 1e3 / n,
    })
    found = problems(workload, run.seed, plain["ops"]) + problems(workload, run.seed, traced["ops"])
    if workload == "exact_bignum":
        run.generate("digit_limit_probe", PROBE_OPS, inputs="probe")
        probe = run.ops("probe-result", "--ops", str(PROBE_OPS), inputs="probe")["ops"]
        metrics["cli.digit_limit_failures"] = sum(1 for o in probe if o.get("known"))
        found += failures(probe)
    failed = sum(1 for o in traced["ops"] if o["failed"])
    return metrics, found, n, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="layercap closed-loop benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "layercap" / "cli.py").is_file():
        print(f"error: no layercap sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        step = trace if args.trace else measure
        values, found, attempted, failed = step(Runner(work, args.seed), args.workload,
                                                args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for p in found:
        print(f"check failed: {p}", file=sys.stderr)
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": not found,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0 if not found else 1


if __name__ == "__main__":
    sys.exit(main())
