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
A `DIFFERS` line also says whether the params and the summary are equal, and
how many records differ, counted per key: `summary same; 41 records differ in
evidence` says that only evidence hashes moved.  Records are matched by
index, and those sharing an index (a lattice item's violated chains) by
their order; those in one report only are counted apart.
The final line gives the process's peak resident set size, so that a change
that trades memory for time shows what that costs across the suites.
Exits nonzero if any suite reports a disagreement or evidence failure, or
under --against if any report differs.
"""

import argparse
import dataclasses
import hashlib
import json
import pathlib
import resource
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from provlab.corpus import generate_corpus
from provlab.crosscheck import SUITES, run_crosscheck, suite_params


def _by_index(records: list[dict]) -> dict[tuple[int, int], dict]:
    """Records keyed by (index, place among the records with that index): a
    lattice report holds one record per violated chain of an item."""
    seen: dict[int, int] = {}
    keyed = {}
    for r in records:
        n = seen[r["index"]] = seen.get(r["index"], -1) + 1
        keyed[r["index"], n] = r
    return keyed


def describe_difference(previous: bytes, body: bytes) -> str:
    """Which parts of two reports differ: params, summary, and per key the records."""
    old, new = json.loads(previous), json.loads(body)
    parts = [] if old["params"] == new["params"] else ["params differ"]
    parts.append("summary same" if old["summary"] == new["summary"] else "summary differs")
    old_records, new_records = _by_index(old["records"]), _by_index(new["records"])
    per_key: dict[str, int] = {}
    for i in old_records.keys() & new_records.keys():
        a, b = old_records[i], new_records[i]
        for k in a.keys() | b.keys():
            if a.get(k) != b.get(k):
                per_key[k] = per_key.get(k, 0) + 1
    if per_key:
        (k, n), *rest = sorted(per_key.items(), key=lambda kv: (-kv[1], kv[0]))
        first = f"{n} records differ in {k}" if n > 1 else f"1 record differs in {k}"
        parts.append(", ".join([first, *(f"{n} in {k}" for k, n in rest)]))
    lone = len(old_records.keys() ^ new_records.keys())
    if lone:
        parts.append(f"{lone} records in one report only" if lone > 1 else "1 record in one report only")
    if not per_key and not lone:
        parts.append("no record differs")
    return "; ".join(parts)


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
            old = previous.read_bytes() if previous.is_file() else None
            if old == body:
                print(f"{suite:<12} same against {previous}", flush=True)
            else:
                detail = "no such file" if old is None else describe_difference(old, body)
                print(f"{suite:<12} DIFFERS against {previous}: {detail}", flush=True)
                differs.append(suite)
    if failed:
        print(f"FAILED suites: {', '.join(failed)}", file=sys.stderr)
    if differs:
        print(f"reports that differ: {', '.join(differs)}", file=sys.stderr)
    peak = f"peak RSS {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} MB"  # ru_maxrss is in kB on Linux
    if failed or differs:
        print(peak)
        return 1
    print(f"all {len(args.suites)} suites ok; reports in {out}/; {peak}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
