"""Span tracing from outside the program.

The traced run replaces public provlab functions at the places they are
looked up (the defining module, and every module that imported the name)
with wrappers that record one span per call: a name, a start, an end and
the parent span.  Spans stay in memory, in flat arrays, until the run ends;
self time is a span's duration minus the durations of its child spans.

The source of provlab is not changed: wrappers are installed with setattr on
the loaded modules and removed again when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager


def _sweep_class(args, kwargs) -> str:
    fc = args[1] if len(args) > 1 else kwargs["frame_class"]
    return fc.flavor if fc.kind == "Int" else fc.kind


def _prop_logic(args, kwargs) -> str:
    return (args[0] if args else kwargs["logic"]).value


# (module, attribute, span name, label).  The span name is the per-layer
# metric the span's self time counts towards; a label function appends the
# frame class or logic of the call.  Modules that import a name directly get
# their own row, so calls from inside provlab are seen too.
SITES = [
    ("provlab.corpus", "generate_corpus", "corpus.generate_s", None),
    ("provlab.formulas", "print_formula", "formulas.roundtrip_s", None),
    ("provlab.formulas", "parse_modal", "formulas.roundtrip_s", None),
    ("provlab.prover", "prove", "prover.prove_s", None),
    ("provlab.prop", "derives", "prover.prove_s", None),
    ("provlab.prover", "search_provable", "prover.prove_s", None),
    ("provlab.calculus", "check_derivation", "calculus.check_s", None),
    ("provlab.prover", "find_countermodel", "frames.countermodel_s", None),
    ("provlab.prop", "find_entailment_countermodel", "frames.entailment_s", None),
    ("provlab.frames", "sweep_refutations", "frames.sweep_s", _sweep_class),
    ("provlab.frames", "frames_of_size", "frames.enumerate_s", None),
    ("provlab.frames", "rooted_frames_of_size", "frames.enumerate_s", None),
    ("provlab.frames", "enumerate_models", "frames.enumerate_s", None),
    ("provlab.kripke", "check", "kripke.check_s", None),
    ("provlab.kripke", "check_int", "kripke.check_s", None),
    ("provlab.prover", "check", "kripke.check_s", None),
    ("provlab.unwind", "check", "kripke.check_s", None),
    ("provlab.prop", "check_int", "kripke.check_s", None),
    ("provlab.kripke", "validate_frame", "kripke.validate_s", None),
    ("provlab.prover", "validate_frame", "kripke.validate_s", None),
    ("provlab.unwind", "validate_frame", "kripke.validate_s", None),
    ("provlab.prop", "validate_frame", "kripke.validate_s", None),
    ("provlab.provability", "translate_bhk", "provability.translate_bhk_s", None),
    ("provlab.prop", "translate_bhk", "provability.translate_bhk_s", None),
    ("provlab.provability", "translate_k4_to_gl", "provability.translate_k4_to_gl_s", None),
    ("provlab.unwind", "translate_k4_to_gl", "provability.translate_k4_to_gl_s", None),
    ("provlab.provability", "canonical_witness", "provability.witness_s", None),
    ("provlab.provability", "interpret", "provability.witness_s", None),
    ("provlab.provability", "print_term", "provability.witness_s", None),
    ("provlab.unwind", "unwind", "unwind.unwind_s", None),
    ("provlab.unwind", "verify_transfer", "unwind.transfer_s", None),
    ("provlab.unwind", "claim2_holds", "unwind.transfer_s", None),
    ("provlab.prop", "prove_prop", "prop.decide_s", _prop_logic),
]


class Tracer:
    """Records nested spans in flat arrays; single-threaded by design."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name: str, label=None):
        fixed = self._name_id(name)
        materialize = inspect.isgeneratorfunction(fn)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nid = fixed if label is None else self._name_id(f"{name}.{label(args, kwargs)}")
            sid = len(self.name)
            self.name.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.end.append(0.0)
            self._stack.append(sid)
            self.start.append(clock())
            try:
                out = fn(*args, **kwargs)
                # a generator does its work while consumed; the benchmark is
                # the only caller of the wrapped generator and wants a list
                return list(out) if materialize else out
            finally:
                self.end[sid] = clock()
                self._stack.pop()

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every site in SITES for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name, label in SITES:
                module = importlib.import_module(module_name)
                orig = getattr(module, attr)
                saved.append((module, attr, orig))
                setattr(module, attr, self.wrap(orig, name, label))
            yield self
        finally:
            for module, attr, orig in reversed(saved):
                setattr(module, attr, orig)

    def __len__(self) -> int:
        return len(self.name)

    def summary(self, first: int = 0):
        """Self time, total time and calls per span name, and the time
        top-level spans cover, over the spans recorded from index `first` on."""
        child = defaultdict(float)
        n = len(self.name)
        for sid in range(first, n):
            par = self.parent[sid]
            if par >= 0:
                child[par] += self.end[sid] - self.start[sid]
        self_time = defaultdict(float)
        total = defaultdict(float)
        calls = defaultdict(int)
        covered = 0.0
        for sid in range(first, n):
            dur = self.end[sid] - self.start[sid]
            key = self.names[self.name[sid]]
            self_time[key] += dur - child[sid]
            total[key] += dur
            calls[key] += 1
            if self.parent[sid] < 0 or self.parent[sid] < first:
                covered += dur
        return dict(self_time), dict(total), dict(calls), covered
