"""Record the output digests that runs at the default seed are checked against.

    python3 perfbench/record_digests.py [WORKLOAD ...]

For each workload named (all by default) it runs every input that a run of BENCHMARK.json's
run_seconds generates, at the default seed, and stores the sha256 of each
op's outputs (null for an op that fails), and of each verify suite's
output.  Re-record only when a change to layercap's output bytes is intended.
"""

import hashlib
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    run.OUT.mkdir(exist_ok=True)
    path = run.BENCH / "digests.json"
    recorded = json.loads(path.read_text()) if path.exists() else {}
    for workload in sys.argv[1:] or run.WORKLOADS:
        rate = run.WORKLOADS[workload][0]
        work = Path(tempfile.mkdtemp(prefix="digests-", dir=run.OUT))
        try:
            runner = run.Runner(work, run.DEFAULT_SEED)
            runner.deadline += 3600  # every input is run, so it outlasts a run
            if workload == "verify_suites":
                suites = runner.suite_round(trace=False)
                recorded[workload] = {s: hashlib.sha256(r["stdout"].encode()).hexdigest()
                                      for s, r in suites.items()}
                continue
            count = math.ceil(rate * seconds)
            runner.generate(workload, count)
            res = runner.ops("loop", "--ops", str(count))
        finally:
            shutil.rmtree(work, ignore_errors=True)
        bad = [o for o in res["ops"] if o["failed"] and not o.get("known")]
        if bad:
            print(f"{workload}: {bad}", file=sys.stderr)
            return 1
        recorded[workload] = [o.get("digests") for o in res["ops"]]
    path.write_text(json.dumps(recorded, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
