#!/usr/bin/env python3
"""Run every cross-validation suite and write the reports to reports/.

Usage: python3 scripts/run_crosschecks.py [--out reports] [--quick] [--suites NAME ...]
                                          [--against DIR]

--quick re-samples each suite's corpus at 150 formulas for a fast smoke run;
the default runs each suite on its own default corpus (2000 formulas, seed 1)
and takes a few minutes.
Each line gives the suite's time and the sha256 of the report it wrote.
With --against DIR, each report's bytes are also compared with DIR/<suite>.json
(the reports of an earlier run), and a line per suite says `same` or `DIFFERS`.
Exits nonzero if any suite reports a disagreement or evidence failure, or
under --against if any report differs.
"""

import argparse
import dataclasses
import hashlib
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from provlab.corpus import generate_corpus
from provlab.crosscheck import SUITES, run_crosscheck, suite_params


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default="reports")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--suites", nargs="*", default=list(SUITES), choices=list(SUITES))
    parser.add_argument("--against", metavar="DIR", help="compare each report with DIR/<suite>.json")
    args = parser.parse_args()

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    failed = []
    differs = []
    for suite in args.suites:
        corpus = None
        if args.quick:
            corpus = generate_corpus(dataclasses.replace(suite_params(suite), sample_size=150))
        t0 = time.time()
        report = run_crosscheck(suite, corpus=corpus)
        elapsed = time.time() - t0
        path = out / f"{suite}.json"
        body = (report.to_json() + "\n").encode()
        path.write_bytes(body)
        digest = hashlib.sha256(body).hexdigest()
        summary = {k: v for k, v in report.summary.items() if k != "rule_coverage"}
        status = "ok" if report.ok else "FAILED"
        print(f"{suite:<12} {status:<7} {elapsed:7.1f}s  sha256 {digest}  {summary}", flush=True)
        if not report.ok:
            failed.append(suite)
        if args.against is not None:
            previous = pathlib.Path(args.against) / f"{suite}.json"
            same = previous.is_file() and previous.read_bytes() == body
            print(f"{suite:<12} {'same' if same else 'DIFFERS'} against {previous}", flush=True)
            if not same:
                differs.append(suite)
    if failed:
        print(f"FAILED suites: {', '.join(failed)}", file=sys.stderr)
    if differs:
        print(f"reports that differ: {', '.join(differs)}", file=sys.stderr)
    if failed or differs:
        return 1
    print(f"all {len(args.suites)} suites ok; reports in {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
