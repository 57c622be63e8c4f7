#!/usr/bin/env python3
"""Record the verdict vectors that later runs are compared against.

    python3 perfbench/record_golden.py --workloads modal-evidence unwind-transfer --seeds 1 10

Runs one full pass of each workload for each seed in the inclusive range,
with every verdict re-checked as in a normal run, and stores the verdict
tokens (zlib + base64) and their sha256 in golden.json.  A pass with a wrong
verdict is not recorded.  Entries already present are compared, not
replaced: delete one by hand to re-record it after an intended change.
"""

import argparse
import json
import sys

import run


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workloads", nargs="+", choices=run.ALL, default=list(run.ALL))
    p.add_argument("--seeds", nargs=2, type=int, default=(1, 1), metavar=("FIRST", "LAST"))
    args = p.parse_args()
    status = 0
    for workload in args.workloads:
        for seed in range(args.seeds[0], args.seeds[1] + 1):
            out = run.run_one(run.parse_args(["--workload", workload, "--seed", str(seed), "--items", "all"]))
            if not out["correct"]:
                sys.stderr.write(f"{workload} seed {seed}: wrong verdicts, not recorded\n")
                status = 1
                continue
            data = json.loads(run.GOLDEN.read_text()) if run.GOLDEN.exists() else {}
            tokens = out["tokens"]
            data.setdefault(workload, {}).setdefault(str(seed), {
                "units": len(tokens),
                "sha256": run.vector_hash(tokens),
                "verdicts": run.encode_tokens(tokens),
            })
            run.GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
