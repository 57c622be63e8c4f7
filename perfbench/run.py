#!/usr/bin/env python3
"""provlab campaign benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed 1 --items all
    python3 perfbench/run.py --selftest

Runs one workload (see workloads.py and README.md) against the provlab
sources in src/ of the checkout, re-checks every verdict, and prints the
metrics by name with their units.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end set; with --trace 1 they are the per-layer
set, from a traced run that follows an untraced one over the same units.

--items N|all replaces the time limit by a fixed number of units ("all" is
one pass over the workload's list, the whole campaign); --workload all runs
every workload, each in its own process.  The exit code is 0 only if every
verdict checked out.
"""

from __future__ import annotations

import argparse
import base64
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
import zlib
from pathlib import Path
from time import perf_counter as _clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
ALL = ("modal-evidence", "oracle-sweep", "prop-decide", "unwind-transfer")
SWEEP_CLASSES = ("K4", "KD4", "S4", "GL", "BPC", "IPC", "FPL", "MPC")
# the propositional logics oracle-sweep's set-up decides with prove_prop; EBPC
# and CPC are decided only by prop-decide, whose span table shows them
PROP_LOGICS = ("BPC", "IPC", "FPL", "MPC")

END_TO_END = [
    ("items_per_s", "1/s"),
    ("verdict_p50_ms", "ms"),
    ("verdict_p99_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]
PER_LAYER = (
    [("corpus.generate_s", "s"), ("formulas.roundtrip_s", "s"),
     ("prover.prove_s", "s"), ("prover.steps", "count"), ("prover.steps_p99", "count"),
     ("prover.derivation_nodes", "count"), ("prover.exhausted", "count"),
     ("calculus.check_s", "s"),
     ("frames.countermodel_s", "s"), ("frames.countermodel_models", "count"),
     ("frames.countermodel_size", "nodes"), ("frames.entailment_s", "s")]
    + [(f"frames.sweep_s.{c}", "s") for c in SWEEP_CLASSES]
    + [(f"frames.sweep_valuations.{c}", "count") for c in SWEEP_CLASSES]
    + [(f"frames.sweep_frames.{c}", "count") for c in SWEEP_CLASSES]
    + [("frames.enumerate_s", "s"),
       ("kripke.check_s", "s"), ("kripke.check_calls", "count"), ("kripke.validate_s", "s"),
       ("provability.translate_bhk_s", "s"), ("provability.translate_k4_to_gl_s", "s"),
       ("provability.witness_s", "s"),
       ("unwind.unwind_s", "s"), ("unwind.transfer_s", "s"), ("unwind.nodes", "count")]
    + [(f"prop.decide_s.{lg}", "s") for lg in PROP_LOGICS]
    + [("trace.overhead_s", "s"), ("trace.coverage", "ratio")]
)
COUNT_METRICS = [name for name, unit in PER_LAYER if unit in ("count", "nodes")]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=ALL + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--items", default=None,
                   help="run exactly N units, or 'all' for one pass, instead of --seconds")
    p.add_argument("--selftest", action="store_true",
                   help="check that two runs give identical unit counts, then exit")
    args = p.parse_args(argv)
    if args.items not in (None, "all") and not (args.items.isdigit() and int(args.items) > 0):
        p.error("--items takes a positive whole number or 'all'")
    return args


def import_provlab() -> float:
    """Import the program from the checkout's sources; returns the import time."""
    if not (SRC / "provlab" / "__init__.py").is_file():
        sys.stderr.write(f"no provlab sources under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    t0 = _clock()
    try:
        import provlab
        import numpy  # noqa: F401
    except ImportError as e:
        sys.stderr.write(f"cannot import provlab from {SRC}: {e}\n")
        sys.exit(2)
    elapsed = _clock() - t0
    if Path(provlab.__file__).resolve().parent != (SRC / "provlab").resolve():
        sys.stderr.write(f"imported provlab from {provlab.__file__}, not from {SRC}\n")
        sys.exit(2)
    return elapsed


# -- recorded verdicts ---------------------------------------------------------


def load_golden(workload: str, seed: int) -> dict | None:
    if not GOLDEN.exists():
        return None
    entry = json.loads(GOLDEN.read_text()).get(workload, {}).get(str(seed))
    if entry is None:
        return None
    tokens = zlib.decompress(base64.b64decode(entry["verdicts"])).decode()
    return {"tokens": tokens, "sha256": entry["sha256"]}


def encode_tokens(tokens: str) -> str:
    return base64.b64encode(zlib.compress(tokens.encode(), 9)).decode()


def vector_hash(tokens) -> str:
    return hashlib.sha256("".join(tokens).encode()).hexdigest()


def compare_golden(setup_tokens: str, tokens, golden: str, flagged=frozenset()) -> int:
    """Mismatches between a run's verdict tokens and the recorded ones.

    A recording is the set-up's tokens followed by one pass over the units.
    The set-up's tokens are compared in place; position i of the run is
    recorded unit token i mod the pass length.  A recorded X (exhausted)
    accepts any verdict.  A current X, an E (raised) and an item whose
    evidence already failed (`flagged`) are counted as failed elsewhere, so
    they are not counted again here.
    """
    head = len(setup_tokens)
    bad = sum(1 for tok, want in zip(setup_tokens, golden) if tok != want and want != "X" and tok != "X")
    n = len(golden) - head
    for i, tok in enumerate(tokens):
        want = golden[head + i % n]
        if tok != want and want != "X" and tok not in ("X", "E") and i not in flagged:
            bad += 1
    return bad


# -- running -------------------------------------------------------------------


def timed_loop(wl, rec, seconds: float, limit: int | None, counting: bool, marks=None) -> tuple[int, float]:
    """Run units in order, cycling, for `seconds` or exactly `limit` units.

    A new unit starts only if the previous unit's duration still fits in the
    time left, so a run never overshoots by a whole slow unit; at least one
    unit always runs.  Returns (units run, wall seconds).
    """
    units = wl.units
    start = now = _clock()
    done, last = 0, 0.0
    while True:
        if limit is not None:
            if done >= limit:
                break
        elif done and (now - start) + last > seconds:
            break
        unit = units[done % len(units)]
        t0, before = now, (len(rec.tokens), rec.items, rec.wrong, rec.exhausted)
        try:
            wl.run_unit(unit, rec, counting)
        except Exception:  # a crash is a wrong outcome for the unit's items, not a stop
            del rec.tokens[before[0]:]
            rec.tokens.extend("E" * wl.unit_tokens)
            items = wl.unit_items(unit)
            rec.items, rec.wrong, rec.exhausted = before[1] + items, before[2] + items, before[3]
            rec.problems.append(traceback.format_exc(limit=4))
        if rec.wrong > before[2]:
            rec.flagged.update(range(before[0], len(rec.tokens)))
        now = _clock()
        last = now - t0
        done += 1
        if marks is not None:
            marks.append(now - start)
    return done, now - start


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(seed: int) -> dict:
    import numpy

    loc = sum(len(p.read_text().splitlines()) for p in sorted((SRC / "provlab").glob("*.py")))
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"python": platform.python_version(), "numpy": numpy.__version__, "nproc": nproc,
            "seed": seed, "src_provlab_loc": loc}


def run_one(args) -> dict:
    t_import = import_provlab()
    from workloads import WORKLOADS, Record, clear_frame_caches, percentile

    wl = WORKLOADS[args.workload]()
    golden = load_golden(wl.name, args.seed)

    print(f"workload {wl.name}  seed {args.seed}  "
          f"{'items ' + args.items if args.items else f'seconds {args.seconds:g}'}  trace {args.trace}")
    print("env " + json.dumps(environment(args.seed), sort_keys=True))

    # set-up: repeated with cold frame caches, median reported
    setup_times = []
    tracer = None
    repeats = 1 if args.trace else wl.setup_repeats
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    for _ in range(repeats):
        setup_rec = Record()
        clear_frame_caches()
        t0 = _clock()
        if tracer is not None:
            with tracer.installed():
                wl.setup(args.seed, setup_rec)
        else:
            wl.setup(args.seed, setup_rec)
        setup_times.append(_clock() - t0)
    setup_s = t_import + statistics.median(setup_times)
    limit = None if args.items is None else len(wl.units) if args.items == "all" else int(args.items)

    rec = Record()
    rec.wrong += setup_rec.wrong
    rec.problems += setup_rec.problems
    marks: list[float] = []
    units_run, wall = timed_loop(wl, rec, args.seconds, limit, counting=False, marks=marks)

    checked_vector = wl.setup_tokens + "".join(rec.tokens)
    mismatches = 0
    if golden is not None:
        mismatches = compare_golden(wl.setup_tokens, rec.tokens, golden["tokens"], rec.flagged)
        rec.wrong += mismatches
        if mismatches:
            rec.problems.append(f"{mismatches} verdicts differ from the recorded ones")
    full_pass = golden is not None and len(checked_vector) == len(golden["tokens"])
    failed = rec.exhausted + rec.wrong
    correct = rec.wrong == 0

    lat_ms = [x * 1000.0 for x in rec.latencies]
    e2e = {
        "items_per_s": rec.items / wall,
        "verdict_p50_ms": percentile(lat_ms, 50),
        "verdict_p99_ms": percentile(lat_ms, 99),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    print(f"setup {len(setup_times)}x: " + " ".join(f"{t:.3f}" for t in setup_times)
          + f" s (import {t_import:.3f} s)")
    print(f"units {units_run} (one unit: one {wl.unit_name}; {rec.items} items) in {wall:.3f} s")
    notes = {
        "items_per_s": f"{rec.items} items / {wall:.3f} s",
        "verdict_p50_ms": f"over {len(lat_ms)} verdicts",
        "verdict_p99_ms": f"over {len(lat_ms)} verdicts",
        "setup_s": f"import + median of {len(setup_times)} set-ups",
        "peak_rss_mb": "peak resident set of this process",
    }
    for name, unit in END_TO_END:
        print(f"  {name:<16} {e2e[name]:>14.4f} {unit:<4} {notes[name]}")
    share = failed / rec.items
    print(f"  {'failed_share':<16} {share:>14.6f} ratio {failed}/{rec.items} "
          f"(exhausted {rec.exhausted}, wrong {rec.wrong})")
    gold = "no recorded verdicts for this seed"
    if golden is not None:
        gold = (f"recorded vector {golden['sha256'][:16]}: {mismatches} mismatches over "
                f"{len(checked_vector)} verdicts"
                + ("; full vector identical" if full_pass and vector_hash(checked_vector) == golden["sha256"] else ""))
    print(f"verdict vector {vector_hash(checked_vector)[:16]} ({len(checked_vector)} verdicts); {gold}")
    for p in rec.problems[:10]:
        sys.stderr.write(f"WRONG: {p}\n")

    metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    if args.trace:
        metrics, traced_wrong = traced_metrics(wl, tracer, setup_rec, setup_times[0], args,
                                               units_run, marks)
        correct = correct and traced_wrong == 0
    return {"correct": correct, "attempted": rec.items, "failed": failed, "metrics": metrics,
            "tokens": checked_vector}


def traced_metrics(wl, tracer, setup_rec, setup_wall, args, untraced_units, marks):
    """Re-run the units of the untraced run with every site traced."""
    from workloads import Record, layer_counts

    rec = Record()
    first = len(tracer)
    with tracer.installed():
        units, wall = timed_loop(wl, rec, args.seconds, untraced_units, counting=True)
    for p in rec.problems[:10]:
        sys.stderr.write(f"WRONG (traced run): {p}\n")
    untraced_wall = marks[units - 1]
    self_time, total, calls, covered = tracer.summary()
    *_, loop_covered = tracer.summary(first)
    for k in ("prover.steps", "prover.exhausted", "frames.countermodel_models"):
        rec.counts[k] += setup_rec.counts[k]
    rec.steps += setup_rec.steps
    values = {name: 0.0 for name, _ in PER_LAYER}
    values.update({k: v for k, v in self_time.items() if k in values})
    # per-logic decision time includes the prover and countermodel search below it
    values.update({k: v for k, v in total.items() if k.startswith("prop.decide_s.")})
    values["kripke.check_calls"] = calls.get("kripke.check_s", 0)
    values.update(layer_counts(rec))
    values["trace.overhead_s"] = wall - untraced_wall
    traced_wall = setup_wall + wall
    values["trace.coverage"] = covered / traced_wall

    print(f"trace: {len(tracer)} spans; traced set-up {setup_wall:.3f} s + {units} units "
          f"{wall:.3f} s (untraced {untraced_wall:.3f} s, overhead {wall - untraced_wall:+.3f} s); "
          f"spans cover {covered / traced_wall:.1%} of traced wall, "
          f"{loop_covered / wall:.1%} of the timed part")
    print(f"  {'span':<34} {'calls':>9} {'self s':>9} {'share':>7} {'total s':>9}")
    for name in sorted(self_time, key=lambda k: -self_time[k]):
        print(f"  {name:<34} {calls[name]:>9} {self_time[name]:>9.3f} "
              f"{self_time[name] / traced_wall:>7.1%} {total[name]:>9.3f}")
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}, rec.wrong


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    results = {}
    for name in ALL:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.items:
            cmd += ["--items", args.items]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        try:
            results[name] = json.loads(lines[-1])
        except (json.JSONDecodeError, IndexError):
            sys.stderr.write(f"{name}: no result (exit {proc.returncode})\n")
            return proc.returncode or 1
    metrics = {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()}
    summary = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": metrics}
    print(json.dumps(summary, sort_keys=True))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(HERE))
    if args.selftest:
        from selftest import selftest

        return selftest(ALL if args.workload == "all" else (args.workload,))
    if args.workload == "all":
        return run_all(args)
    out = run_one(args)
    result = {k: out[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result, sort_keys=True))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
