"""Self-test: two runs of the same units give identical unit counts.

    python3 perfbench/run.py --selftest [--workload NAME]

Each workload runs twice, traced, over a fixed number of units at seed 1, in
separate processes with different hash seeds.  Every count metric (steps,
valuations, frames, countermodel models and sizes, derivation and unwound
nodes, check calls) and the verdict vector must agree exactly, both runs must
be correct, and the metric names must be those BENCHMARK.json declares.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import run

UNITS = {"modal-evidence": "500", "oracle-sweep": "1", "prop-decide": "300", "unwind-transfer": "300"}


def _traced(workload: str, hash_seed: str) -> tuple[dict, str]:
    cmd = [sys.executable, str(Path(run.__file__).resolve()), "--workload", workload,
           "--seed", "1", "--items", UNITS[workload], "--trace", "1"]
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env)
    lines = proc.stdout.rstrip("\n").split("\n")
    vector = next((ln.split()[2] for ln in lines if ln.startswith("verdict vector ")), "")
    try:
        return json.loads(lines[-1]), vector
    except json.JSONDecodeError:
        return {}, vector


def _declared() -> tuple[set, set] | None:
    path = run.ROOT / "BENCHMARK.json"
    if not path.exists():
        return None
    spec = json.loads(path.read_text())
    return ({m["name"] for m in spec["end_to_end"]}, {m["name"] for m in spec["per_layer"]})


def selftest(workloads=run.ALL) -> int:
    failures = []
    declared = _declared()
    if declared is not None:
        if declared[0] != {n for n, _ in run.END_TO_END}:
            failures.append("end-to-end metric names differ from BENCHMARK.json")
        if declared[1] != {n for n, _ in run.PER_LAYER}:
            failures.append("per-layer metric names differ from BENCHMARK.json")
    for workload in workloads:
        (a, va), (b, vb) = _traced(workload, "1"), _traced(workload, "2")
        if not a or not b or not a["correct"] or not b["correct"]:
            failures.append(f"{workload}: a run failed or was wrong")
            continue
        diff = [m for m in run.COUNT_METRICS if a["metrics"][m]["value"] != b["metrics"][m]["value"]]
        if va != vb:
            diff.append("verdict vector")
        nonzero = sum(1 for m in run.COUNT_METRICS if a["metrics"][m]["value"])
        print(f"selftest {workload}: {nonzero} nonzero counts, "
              f"{'identical' if not diff else 'DIFFERENT: ' + ', '.join(diff)}")
        if diff:
            failures.append(f"{workload}: counts differ: {', '.join(diff)}")
    for f in failures:
        sys.stderr.write(f"SELFTEST FAILED: {f}\n")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0
