#!/usr/bin/env python3
"""Alternated A/B runs of the benchmark: a base revision against the working tree.

Usage: python3 scripts/ab_pairs.py BASE_REV [--workload W] [--pairs N] [--seconds S | --items N] [--seed K]

BASE_REV is exported with `git archive` into a temporary directory, so the
repository's worktrees, refs and index are left as they are.  Each pair runs
`perfbench/run.py --trace 0` once on that copy and once on the working tree,
one process at a time; the side that runs first alternates from pair to pair.
The last line of each run's output is its JSON result.

--items N runs exactly N units on each side instead of a fixed time, so that
`peak_rss_mb` compares equal work.  N counts units, not items: a unit is one
item on modal-evidence and unwind-transfer, but one pass of 8 sweeps (4000
items) on oracle-sweep, so one N does not size equal work across workloads.
The summary line prints each side's median `attempted` items per run.  In a
fixed-time run the harness holds memory per completed item (one latency and
one token per item, and the end-of-run statistics): peak RSS grows by about
67 bytes per item on oracle-sweep, but by about 145 bytes per item on
modal-evidence, so a faster tree completes more items and reads a higher
peak for that reason alone (on modal-evidence, about +6 % peak RSS per +25 %
items).

Equal work on oracle-sweep: `--workload oracle-sweep --items 60` runs 60
passes of 4000 items, 240 000 items a side, so both sides hold the same
per-item memory and a `peak_rss_mb` difference is the program's own.  Pair
it with fixed-time runs: `verdict_p99_ms` and `items_per_s` come from those,
and the equal-work peak tells a throughput gain apart from the harness's
per-item memory.

For every end-to-end metric in BENCHMARK.json the script prints each side's
median and quartiles, the ratio of the medians, the pairs the working tree
won (ties count for neither) and whether the medians differ by more than the
base's interquartile range.  It then reads the metric against its `bound` in
BENCHMARK.json, in this order: `better` if every tree run beats every base
run; `unresolved` if the base's interquartile range, relative to its median,
is wider than the bound; `WORSE beyond bound` if the tree's median is worse
than the base's by more than the bound, relative to the base's median;
otherwise `within bound`.  It exits nonzero if any run fails or reports an
incorrect verdict.
"""

import argparse
import io
import json
import pathlib
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent


def export(rev: str, dest: pathlib.Path) -> None:
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as t:
        t.extractall(dest, filter="data")


def run_once(tree: pathlib.Path, args) -> dict | None:
    """The JSON result of one benchmark run in tree, or None if the run failed."""
    length = ["--items", str(args.items)] if args.items else ["--seconds", str(args.seconds)]
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), *length, "--trace", "0"]
    try:
        out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                             timeout=20 * args.seconds + 600)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"timed out: {' '.join(cmd)}\n")
        return None
    lines = out.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if out.returncode != 0 or result is None or not result.get("correct"):
        sys.stderr.write(f"run failed (exit {out.returncode}) in {tree}\n{out.stderr[-2000:]}")
        return None
    return result


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def reading(b: list[float], t: list[float], higher: bool, bound: float) -> str:
    """The no-regression reading of one metric from its base and tree runs."""
    b1, bm, b3 = quartiles(b)
    if (min(t) > max(b)) if higher else (max(t) < min(b)):
        return "better"
    if bm and (b3 - b1) / bm > bound:
        return "unresolved"
    change = (statistics.median(t) - bm) / bm if bm else 0.0
    return "WORSE beyond bound" if (-change if higher else change) > bound else "within bound"


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base_rev")
    p.add_argument("--workload", default="modal-evidence")
    p.add_argument("--pairs", type=int, default=10)
    length = p.add_mutually_exclusive_group()
    length.add_argument("--seconds", type=float, default=25.0)
    length.add_argument("--items", type=int, default=None,
                        help="run exactly N units instead of --seconds; a unit is one item, "
                             "but one pass of 8 sweeps (4000 items) on oracle-sweep")
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    if args.pairs < 1 or args.seconds <= 0 or (args.items is not None and args.items < 1):
        p.error("--pairs, --seconds and --items must be positive")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    runs = {"base": [], "tree": []}
    ok = True
    with tempfile.TemporaryDirectory(prefix="ab_pairs_") as tmp:
        base = pathlib.Path(tmp)
        export(args.base_rev, base)
        trees = {"base": base, "tree": ROOT}
        for i in range(args.pairs):
            order = ("base", "tree") if i % 2 == 0 else ("tree", "base")
            for side in order:
                result = run_once(trees[side], args)
                ok &= result is not None
                runs[side].append(result)
                value = result["metrics"]["items_per_s"]["value"] if result else "failed"
                sys.stderr.write(f"pair {i + 1}/{args.pairs} {side}: items_per_s {value}\n")

    pairs = [(b, t) for b, t in zip(runs["base"], runs["tree"]) if b and t]
    length = f"{args.items} units" if args.items else f"{args.seconds:g} s"
    attempted = ""
    if pairs:
        base_n, tree_n = (statistics.median(r[i]["attempted"] for r in pairs) for i in (0, 1))
        attempted = f"; attempted items per run (median): base {base_n:g}, tree {tree_n:g}"
    print(f"{args.workload}, seed {args.seed}, {length} runs, {len(pairs)} of {args.pairs} pairs "
          f"complete: base {args.base_rev} against the working tree{attempted}")
    for m in metrics if pairs else ():
        name, higher = m["name"], m["better"] == "higher"
        b = [r["metrics"][name]["value"] for r, _ in pairs]
        t = [r["metrics"][name]["value"] for _, r in pairs]
        (b1, bm, b3), (t1, tm, t3) = quartiles(b), quartiles(t)
        won = sum((y > x) if higher else (y < x) for x, y in zip(b, t))
        ratio = f"{tm / bm:.3f}" if bm else "-"
        print(f"  {name:15} base {bm:.4g} [{b1:.4g}, {b3:.4g}]  tree {tm:.4g} [{t1:.4g}, {t3:.4g}]  "
              f"ratio {ratio}  won {won}/{len(pairs)}  beyond base IQR: {abs(tm - bm) > b3 - b1}  "
              f"{reading(b, t, higher, m['bound'])}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
