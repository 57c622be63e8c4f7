#!/usr/bin/env python3
"""Run every cross-validation suite and write the reports to reports/.

Usage: python3 scripts/run_crosschecks.py [--out reports] [--quick]

--quick shrinks the corpora to 150 formulas for a fast smoke run; the default
is the full default corpus (2000 formulas, seed 1) and takes a few minutes.
Each line gives the suite's time and the sha256 of the report it wrote.
Exits nonzero if any suite reports a disagreement or evidence failure.
"""

import argparse
import hashlib
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from provlab.corpus import BOX_FREE_PARAMS, CorpusParams, DEFAULT_PARAMS, generate_corpus
from provlab.crosscheck import SUITES, run_crosscheck


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default="reports")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--suites", nargs="*", default=list(SUITES))
    args = parser.parse_args()

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    if args.quick:
        modal = generate_corpus(CorpusParams(("p", "q"), 7, 3, 150, 1))
        box_free = generate_corpus(CorpusParams(("p", "q"), 7, 0, 150, 1))
    else:
        modal = generate_corpus(DEFAULT_PARAMS)
        box_free = generate_corpus(BOX_FREE_PARAMS)

    failed = []
    for suite in args.suites:
        corpus = box_free if suite.startswith("t99") else modal
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
    if failed:
        print(f"FAILED suites: {', '.join(failed)}", file=sys.stderr)
        return 1
    print(f"all {len(args.suites)} suites ok; reports in {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
