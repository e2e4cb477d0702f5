"""Self-tests of the benchmark.

    python3 -m pytest perfbench -q

The smoke runs start real processes and run the verify suites, so the whole
file takes a few minutes.
"""

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- the percentile rule ---------------------------------------------------------

def test_percentile_is_nearest_rank():
    values = list(range(1, 11))
    assert run.percentile(values, 50) == 5
    assert run.percentile(values, 90) == 9
    assert run.percentile(values, 100) == 10
    assert run.percentile([7], 90) == 7


@pytest.mark.parametrize("n, expected", [
    (0, None), (19, None), (20, 50), (99, 50), (100, 90), (999, 90), (1000, 99),
    (10000, 99.9),
])
def test_highest_percentile_keeps_ten_samples_beyond(n, expected):
    assert run.highest_percentile(n) == expected


def test_failed_ops_sort_as_slowest():
    ops = [{"failed": True, "ns": 1_000_000}, {"failed": False, "ns": 9_000_000},
           {"failed": False, "ns": 2_000_000}]
    lat = run.latencies_ms(ops)
    assert lat == [2.0, 9.0, 1.0]
    assert run.median(lat) == 9.0
    assert run.median([1.0, 2.0, 4.0, 8.0]) == 3.0


# -- self time -----------------------------------------------------------------

def test_self_time_subtracts_children_once():
    # root [0, 100) has children [10, 40) and [30, 60) (overlapping) and a
    # grandchild [15, 20) under the first child
    s = [["root", 0, 100, -1, 0], ["a", 10, 40, 0, 0], ["b", 30, 60, 0, 0],
         ["c", 15, 20, 1, 0]]
    assert spans.self_times(s) == [50, 25, 30, 5]


def test_recorder_nests_spans_and_restores_targets():
    rec = spans.Recorder()
    import layercap.bounds as bounds
    original = bounds.bound_a
    rec.instrument([("layercap.bounds", "bound_a", "bounds.evaluate")])
    assert bounds.bound_a is not original
    with rec.span("outer"):
        with rec.span("inner"):
            pass
        with rec.span("inner"):
            pass
    rec.restore()
    assert bounds.bound_a is original
    assert [(s[spans.NAME], s[spans.PARENT]) for s in rec.spans] == [
        ("outer", -1), ("inner", 0), ("inner", 0)]
    own = spans.self_times(rec.spans)
    outer = rec.spans[0][spans.END] - rec.spans[0][spans.START]
    assert own[0] + own[1] + own[2] == outer


# -- host speed --------------------------------------------------------------------

def test_at_nominal_subtracts_the_reference_and_scales_by_its_median():
    nominal = speed.NOMINAL_NS
    # 10 ms of work with two reference runs inside it, at twice and four
    # times the nominal time: their median is three times nominal
    inside = [2 * nominal, 4 * nominal]
    got = speed.at_nominal(10_000_000 + sum(inside), inside)
    assert got == pytest.approx(10_000_000 / 3)
    # none inside: nothing is subtracted and the speed comes from around it
    assert speed.at_nominal(10_000_000, [], [nominal] * 3) == pytest.approx(10_000_000)
    with pytest.raises(ValueError):
        speed.at_nominal(1, [], [])


def test_sampler_records_tagged_reference_runs():
    sampler = speed.Sampler()
    sampler.tag = 7
    sampler.start()
    try:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
    finally:
        sampler.stop()
    assert sampler.samples and all(tag == 7 and ns > 0 for tag, ns in sampler.samples)


# -- inputs ----------------------------------------------------------------------

def _digits(text):
    """Digits after the point of a spec's decimal masses; 0 for rationals."""
    found = re.search(r"\d\.(\d+)", text)
    return len(found.group(1)) if found else 0


@pytest.mark.parametrize("workload", ["exact_deep", "exact_bignum", "grid_dense"])
def test_every_period_holds_the_same_mix(workload):
    period = run.WORKLOADS[workload][2]
    blocks = [sorted((op["q"], op["kind"], op["format"], _digits(op["text"]))
                     for op in (workloads.make_op(workload, 5, i)
                                for i in range(b * period, (b + 1) * period)))
              for b in range(2)]
    assert blocks[0] == blocks[1]
    if workload == "exact_deep":
        assert sorted(d for *_, d in blocks[0] if d) == [2, 3, 4, 4, 5, 6]


def test_timed_bignum_ops_stay_below_the_recorded_defect():
    assert {workloads.make_op("exact_bignum", 2, i)["q"] for i in range(15)} == {3, 4, 5, 6, 7}
    assert [workloads.make_op("digit_limit_probe", 2, i)["q"] for i in range(4)] == [8, 9, 8, 9]


# -- output checks -----------------------------------------------------------------

def test_checks_catch_a_tampered_output(tmp_path):
    op = workloads.make_op("exact_bignum", 1, 0)  # q = 3, json
    path = tmp_path / "spec.json"
    path.write_text(op["text"])
    outputs = workloads.run_op(op, str(path))
    assert workloads.check_op(op, outputs) == []

    region = json.loads(outputs["region"])
    region["constraints"][0]["c"] += 1
    bad = dict(outputs, region=json.dumps(region))
    assert any("not generated" in p for p in workloads.check_op(op, bad))

    cdoc = json.loads(outputs["classify"])
    cdoc["vertices"][1], cdoc["vertices"][2] = cdoc["vertices"][2], cdoc["vertices"][1]
    bad = dict(outputs, classify=json.dumps(cdoc))
    assert workloads.check_op(op, bad)


def test_inputs_depend_only_on_seed_and_index():
    a = workloads.make_op("exact_deep", 3, 5)
    assert a == workloads.make_op("exact_deep", 3, 5)
    assert a != workloads.make_op("exact_deep", 4, 5)


# -- contract ----------------------------------------------------------------------

def test_benchmark_json_names_every_metric():
    assert {w["name"] for w in SPEC["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_run_emits_every_metric(workload, trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.01", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    names = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in names}
    for m in names:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact_deep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout == ""
