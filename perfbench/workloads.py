"""The benchmark's four campaign workloads, driven through provlab's public API.

Each workload builds its inputs from a seed in `setup` and exposes a list of
units.  The runner calls `run_unit` on the units in order, cycling, until its
time is up; one unit is one item except on oracle-sweep, where one unit is a
pass of eight sweeps.  Every outcome is re-checked by a checker independent
of the code that produced it, and reduced to a one-letter verdict token:
P (provable), N (not provable), X (exhausted), on oracle-sweep R (refuted)
or V (valid within the bound), on unwind-transfer the digit of the node mask
where the formula holds.

Functions are looked up through their modules at call time (pl.prover.prove,
not a name bound at import), so the traced run sees every call.
"""

from __future__ import annotations

import importlib
import itertools
import random
import statistics
from collections import Counter
from dataclasses import dataclass, field, replace
from time import perf_counter as _clock

import provlab as pl
import provlab.budget
import provlab.calculus
import provlab.corpus
import provlab.formulas
import provlab.frames
import provlab.kripke
import provlab.prop
import provlab.provability
import provlab.prover
from provlab.calculus import Logic
from provlab.formulas import And, Atom, Bot, Box, Imp, Neg, Or, Sequent, Top
from provlab.kripke import GL_FRAME, K4_FRAME, KD4_FRAME, S4_FRAME, KripkeModel, int_frame
from provlab.prop import PropLogic

# the crosscheck suites' item budget: 100k steps, 6 nodes, escalation to 8
SUITE_STEPS = 100_000
MODAL_FRAMES = {Logic.K4: K4_FRAME, Logic.KD4: KD4_FRAME, Logic.S4: S4_FRAME, Logic.GL: GL_FRAME}
MODAL_LOGICS = (Logic.K4, Logic.KD4, Logic.S4, Logic.GL, Logic.GLS)
MODAL_LOGICS_BY_NAME = {logic.value: logic for logic in MODAL_FRAMES}
PROP_LOGICS = (PropLogic.BPC, PropLogic.EBPC, PropLogic.IPC, PropLogic.FPL, PropLogic.MPC, PropLogic.CPC)
PROP_SWEEP = (PropLogic.BPC, PropLogic.IPC, PropLogic.FPL, PropLogic.MPC)
# provlab/__init__ rebinds the name provlab.unwind to the function
UNWIND = importlib.import_module("provlab.unwind")


@dataclass
class Record:
    """What one run observed: per-verdict latencies, tokens, failures, counts."""

    latencies: list[float] = field(default_factory=list)
    tokens: list[str] = field(default_factory=list)
    items: int = 0
    exhausted: int = 0
    wrong: int = 0
    problems: list[str] = field(default_factory=list)
    flagged: set[int] = field(default_factory=set)  # token positions already counted wrong
    counts: Counter = field(default_factory=Counter)
    steps: list[int] = field(default_factory=list)

    def bad(self, what, problem: str) -> None:
        """Count a wrong item; `what` names it lazily, so that naming costs
        nothing on the path of correct items."""
        self.wrong += 1
        if len(self.problems) < 20:
            self.problems.append(f"{what()}: {problem}")


def _without_top(f):
    """top as ~bot, the prover's reading; written here so that the conclusion
    check does not reuse the prover's own normalisation."""
    match f:
        case Top():
            return Neg(Bot())
        case Neg(a):
            return Neg(_without_top(a))
        case Box(a):
            return Box(_without_top(a))
        case And(a, b):
            return And(_without_top(a), _without_top(b))
        case Or(a, b):
            return Or(_without_top(a), _without_top(b))
        case Imp(a, b):
            return Imp(_without_top(a), _without_top(b))
    return f


def _item_budget(max_nodes: int) -> pl.Budget:
    return provlab.budget.Budget(steps=SUITE_STEPS, max_nodes=max_nodes, escalate_nodes=max_nodes + 2)


def _shuffled(formulas, seed: int) -> list:
    out = list(formulas)
    random.Random(seed).shuffle(out)
    return out


def _roundtrip(formulas) -> None:
    """parse(print(f)) == f over a corpus; part of every workload's set-up.
    (parse_prop would rewrite ~A as A -> bot, so box-free corpora use
    parse_modal too.)"""
    fm = provlab.formulas
    for f in formulas:
        if fm.parse_modal(fm.print_formula(f)) != f:
            raise AssertionError(f"parse/print roundtrip changed {fm.print_formula(f)}")


def clear_frame_caches() -> None:
    """Forget enumerated frames, so that a set-up does its warm-up from cold."""
    provlab.frames.frames_of_size.cache_clear()
    provlab.frames.rooted_frames_of_size.cache_clear()


def _count_modal(rec: Record, res, budget, counting: bool) -> None:
    rec.steps.append(budget.steps_used)
    if not counting:
        return
    rec.counts["prover.steps"] += budget.steps_used
    rec.counts["frames.countermodel_models"] += budget.models_used
    if isinstance(res, pl.Provable):
        rec.counts["prover.derivation_nodes"] += res.derivation.node_count()
    elif isinstance(res, pl.NotProvable):
        rec.counts["countermodels"] += 1
        rec.counts["countermodel_nodes"] += len(res.model.nodes)


def _is_reduction(red, goal) -> bool:
    """red is (conjunction of []B -> B over boxed subformulas []B of goal) -> goal."""
    if not isinstance(red, Imp) or red.right != goal:
        return False
    boxed = provlab.formulas.subformulas(goal)
    todo, instances = [red.left], []
    while todo:
        g = todo.pop()
        if isinstance(g, And):
            todo += [g.left, g.right]
        elif not isinstance(g, Top):
            instances.append(g)
    return all(isinstance(g, Imp) and isinstance(g.left, Box) and g.left.sub == g.right
               and g.left in boxed for g in instances)


def _check_modal(rec: Record, logic: Logic, goal, res, what) -> str:
    """Re-check one modal verdict for the sequent `=> goal`; returns its token.

    GLS is decided through GL on the reduced formula, so its evidence is a GL
    derivation or GL countermodel of that formula, and the reduction itself
    must have the shape of one.
    """
    target, base = goal, logic
    if logic == Logic.GLS and not isinstance(res, pl.Exhausted):
        target, base = res.reduction, Logic.GL
        if not _is_reduction(target, goal):
            rec.bad(what, "GLS reduction is not a set of reflection instances")
    if isinstance(res, pl.Provable):
        d = res.derivation
        if d.sequent != Sequent((), (_without_top(target),)):
            rec.bad(what, f"derivation concludes {pl.print_sequent(d.sequent)}")
        elif not provlab.calculus.check_derivation(base, d):
            rec.bad(what, "derivation fails check_derivation")
        return "P"
    if isinstance(res, pl.NotProvable):
        kr = provlab.kripke
        if res.model is None or kr.validate_frame(res.model, MODAL_FRAMES[base]) != []:
            rec.bad(what, "countermodel outside the frame class")
        elif kr.check(res.model, res.node, target):
            rec.bad(what, "countermodel forces the formula")
        return "N"
    rec.exhausted += 1
    return "X"


class Workload:
    name = ""
    setup_repeats = 5
    unit_name = "item"
    unit_tokens = 1  # verdict tokens a unit appends
    setup_tokens = ""  # verdict tokens of the set-up (oracle-sweep's reference verdicts)
    units: list = []  # filled by setup

    def setup(self, seed: int, rec: Record) -> None:
        raise NotImplementedError

    def run_unit(self, unit, rec: Record, counting: bool) -> None:
        raise NotImplementedError

    def unit_items(self, unit) -> int:
        return 1


class ModalEvidence(Workload):
    name = "modal-evidence"

    def setup(self, seed, rec):
        corpus = provlab.corpus.generate_corpus(replace(pl.DEFAULT_PARAMS, seed=seed))
        _roundtrip(corpus.formulas)
        for frame_class in MODAL_FRAMES.values():
            for n in range(1, 7):
                provlab.frames.frames_of_size(frame_class, n)
        self.units = [(f, logic) for f in _shuffled(corpus.formulas, seed) for logic in MODAL_LOGICS]

    def run_unit(self, unit, rec, counting):
        f, logic = unit
        t0 = _clock()
        budget = _item_budget(6)
        res = provlab.prover.prove(logic, Sequent((), (f,)), budget)
        token = _check_modal(rec, logic, f, res, lambda: f"{logic.value} {pl.print_formula(f)}")
        rec.latencies.append(_clock() - t0)
        rec.items += 1
        rec.tokens.append(token)
        _count_modal(rec, res, budget, counting)


class OracleSweep(Workload):
    name = "oracle-sweep"
    setup_repeats = 3
    unit_name = "pass of 8 sweeps"
    # node bound per class, in sweep order; one below the ROADMAP Baseline rows
    BOUNDS = {"K4": 5, "KD4": 5, "S4": 5, "GL": 5, "BPC": 4, "IPC": 4, "FPL": 4, "MPC": 4}
    # formulas per class: the first QUOTA_P Provable and the first QUOTA_N
    # refuted ones of the corpus in seeded order.  A sweep's cost is mostly
    # the formulas it cannot refute, which stay in the pass over every frame,
    # so a fixed split gives every seed the same work (a plain 500-formula
    # sample holds 210-245 unrefuted K4 formulas, and K4 time follows it).
    QUOTA_P, QUOTA_N = 200, 300
    SETUP_STEPS = 2_000  # step budget of a reference verdict: p99 is under 200, and an exhausted search costs about 0.2 s

    def setup(self, seed, rec):
        """Decide each corpus in seeded order in every class, modal classes by
        prove, propositional ones by prove_prop, with the sweep's node bound
        for countermodels, until the class has its quota of P (Provable) and
        N (a countermodel within the bound exists) formulas; X (neither
        within the set-up's budget) and formulas past a filled quota are not
        swept.  These verdicts are what the sweep is checked against."""
        modal = provlab.corpus.generate_corpus(replace(pl.DEFAULT_PARAMS, seed=seed))
        box_free = provlab.corpus.generate_corpus(replace(pl.BOX_FREE_PARAMS, seed=seed))
        _roundtrip(modal.formulas)
        _roundtrip(box_free.formulas)
        modal_order = _shuffled(modal.formulas, seed)
        box_free_order = _shuffled(box_free.formulas, seed)
        tokens = []
        self.classes = {}
        for cls, bound in self.BOUNDS.items():
            if cls in MODAL_LOGICS_BY_NAME:
                logic = MODAL_LOGICS_BY_NAME[cls]
                frame_class, order = MODAL_FRAMES[logic], modal_order
                decide = lambda f, b, logic=logic: _modal_reference(rec, logic, f, b)  # noqa: E731
            else:
                plogic = PropLogic(cls)
                frame_class, order = int_frame(cls), box_free_order
                decide = lambda f, b, plogic=plogic, bound=bound: _prop_reference(rec, plogic, f, b, bound)  # noqa: E731
            formulas, reference = [], []
            quota = {"P": self.QUOTA_P, "N": self.QUOTA_N, "X": 0}
            for f in order:
                budget = provlab.budget.Budget(steps=self.SETUP_STEPS, max_nodes=bound, escalate_nodes=bound)
                verdict = decide(f, budget)
                rec.counts["prover.steps"] += budget.steps_used
                rec.counts["frames.countermodel_models"] += budget.models_used
                rec.steps.append(budget.steps_used)
                tokens.append(verdict)
                if quota[verdict]:
                    quota[verdict] -= 1
                    formulas.append(f)
                    reference.append(verdict)
                    if not quota["P"] and not quota["N"]:
                        break
            if quota["P"] or quota["N"]:
                raise AssertionError(f"{cls}: the corpus has fewer than {self.QUOTA_P} P and "
                                     f"{self.QUOTA_N} N formulas")
            self.classes[cls] = (frame_class, formulas, reference)
            for n in range(1, bound + 1):
                provlab.frames.rooted_frames_of_size(frame_class, n)
        self.setup_tokens = "".join(tokens)
        self.unit_tokens = sum(len(formulas) for _, formulas, _ in self.classes.values())
        self.units = ["pass"]

    def unit_items(self, unit):
        return self.unit_tokens

    def run_unit(self, unit, rec, counting):
        """One pass: one sweep per class over its whole sample.  An item has
        its verdict when the sweep of its class returns and its refutation,
        if any, has been re-checked.  Each refutation is checked by
        validate_frame and naive forcing; a formula the set-up found Provable
        must not be refuted, and one it refuted within the bound must be."""
        fr, kr = provlab.frames, provlab.kripke
        for cls, bound in self.BOUNDS.items():
            frame_class, formulas, reference = self.classes[cls]
            t0 = _clock()
            budget = provlab.budget.Budget(models=1 << 62)
            hits = fr.sweep_refutations(formulas, frame_class, bound, budget)
            for f, ref in zip(formulas, reference):
                hit = hits[f]
                what = lambda f=f: f"{cls}@{bound} {pl.print_formula(f)}"  # noqa: E731
                if hit is None:
                    rec.tokens.append("V")
                    if ref == "N":
                        rec.bad(what, "not refuted, but the set-up found a countermodel within the bound")
                    continue
                rec.tokens.append("R")
                model, node = hit
                forced = (kr.check(model, node, f) if frame_class.kind != "Int"
                          else kr.check_int(model, node, f, frame_class.flavor))
                if kr.validate_frame(model, frame_class) != [] or forced:
                    rec.bad(what, "refutation fails re-check")
                elif ref == "P":
                    rec.bad(what, "provable formula refuted")
            rec.latencies.extend([_clock() - t0] * len(formulas))
            rec.items += len(formulas)
            if counting:
                rec.counts[f"frames.sweep_valuations.{cls}"] += budget.models_used
                rec.counts[f"frames.sweep_frames.{cls}"] += sum(
                    len(fr.rooted_frames_of_size(frame_class, n)) for n in range(1, bound + 1))


def _modal_reference(rec: Record, logic: Logic, f, budget) -> str:
    res = provlab.prover.prove(logic, Sequent((), (f,)), budget)
    if isinstance(res, pl.Exhausted):
        rec.counts["prover.exhausted"] += 1
        return "X"
    return "P" if isinstance(res, pl.Provable) else "N"


def _prop_reference(rec: Record, plogic: PropLogic, f, budget, bound: int) -> str:
    v = provlab.prop.prove_prop(plogic, (), f, budget, countermodel_nodes=bound)
    if v.provable is None:
        rec.counts["prover.exhausted"] += 1
    return "P" if v.provable else "N" if v.countermodel is not None else "X"


class PropDecide(Workload):
    name = "prop-decide"

    def setup(self, seed, rec):
        corpus = provlab.corpus.generate_corpus(replace(pl.BOX_FREE_PARAMS, seed=seed))
        _roundtrip(corpus.formulas)
        for logic in (Logic.K4, Logic.KD4, Logic.S4, Logic.GL):
            for n in range(1, 6):
                provlab.frames.frames_of_size(MODAL_FRAMES[logic], n)
        for plogic in PROP_SWEEP:
            for n in range(1, 6):
                provlab.frames.frames_of_size(int_frame(plogic.value), n)
        self.units = [(f, logic) for f in _shuffled(corpus.formulas, seed) for logic in PROP_LOGICS]

    def run_unit(self, unit, rec, counting):
        f, logic = unit
        what = lambda: f"{logic.value} {pl.print_formula(f)}"  # noqa: E731
        t0 = _clock()
        budget = _item_budget(5)
        v = provlab.prop.prove_prop(logic, (), f, budget)
        token = self._check(rec, v, what)
        rec.latencies.append(_clock() - t0)
        rec.items += 1
        rec.tokens.append(token)
        if v.method == "translation":
            _count_modal(rec, v.modal_result, budget, counting)

    @staticmethod
    def _check(rec, v, what) -> str:
        kr = provlab.kripke
        if v.method == "truth-table":
            return _check_cpc(rec, v, what)
        if v.provable is None:
            rec.exhausted += 1
            return "X"
        token = _check_modal(rec, v.modal_logic, v.translated, v.modal_result, what)
        if token != ("P" if v.provable else "N"):
            rec.bad(what, f"verdict {v.provable} but modal result {token}")
        if v.countermodel is not None:
            model, node = v.countermodel
            frame_class = int_frame(v.logic.value)
            if kr.validate_frame(model, frame_class) != [] or kr.check_int(model, node, v.formula, v.logic.value):
                rec.bad(what, "propositional countermodel fails re-check")
        return token


def _check_cpc(rec: Record, v, what) -> str:
    """CPC by the naive modal checker on the one reflexive point, valuation by valuation."""
    names = sorted(pl.formulas.atoms(v.formula))
    refuted = False
    for bits in itertools.product((False, True), repeat=len(names)):
        point = KripkeModel(("k0",), frozenset({("k0", "k0")}),
                            {n: frozenset({"k0"}) for n, b in zip(names, bits) if b})
        if not provlab.kripke.check(point, "k0", v.formula):
            refuted = True
            break
    if refuted == bool(v.provable):
        rec.bad(what, "truth tables disagree with the CPC verdict")
    if v.countermodel is not None:
        model, node = v.countermodel
        if provlab.kripke.check(model, node, v.formula):
            rec.bad(what, "CPC countermodel forces the formula")
    return "P" if v.provable else "N"


class UnwindTransfer(Workload):
    name = "unwind-transfer"
    COPIES = 7  # each of the 1432 models 7 times: 10 024 instances, more than a run reaches

    def setup(self, seed, rec):
        """A stratified draw.  An instance's time is set mostly by the size of
        the unwound model, which the model's clusters and the translation's
        top entry fix: a full reflexive 3-cluster with top entry 3 unwinds to
        363 nodes and takes 50x the median.  In a plain draw the share of
        such instances, and so p99, varies by a quarter from seed to seed.
        Here every block of len(models) units holds each model once, and the
        randomly drawn (formula, translation) pairs are dealt to the models
        so that each block, and each frame shape within it, gets the pool's
        mix of translations."""
        corpus = provlab.corpus.generate_corpus(replace(pl.DEFAULT_PARAMS, seed=seed))
        _roundtrip(corpus.formulas)
        models = list(provlab.frames.enumerate_models(3, K4_FRAME, ["p", "q"]))
        formulas = [f for f in corpus.formulas if pl.modal_degree(f) <= 2]
        rng = random.Random(seed)
        size = self.COPIES * len(models)
        pairs = []
        for _ in range(size):
            f = rng.choice(formulas)
            pairs.append((f, _random_translation(f, rng, 3)))
        pairs.sort(key=lambda p: (max(p[1], default=-1), len(p[1])))  # stable: draw order within a stratum
        # slot s gets the pair of rank r(s), where r ranks s * golden ratio mod 1:
        # any run of consecutive slots receives ranks spread evenly over the pool
        rank = sorted(range(size), key=lambda s: (s * 0.6180339887498949) % 1.0)
        dealt = [None] * size
        for r, s in enumerate(rank):
            dealt[s] = pairs[r]
        shape = lambda m: (len(m.nodes), sorted(m.relation))  # noqa: E731
        self.units = []
        for block in range(self.COPIES):
            ordered = sorted(_shuffled(models, seed * 1000 + block), key=shape)
            base = block * len(models)
            slots = [(m, *dealt[base + i]) for i, m in enumerate(ordered)]
            self.units += _shuffled(slots, seed * 1000 + block)

    def run_unit(self, unit, rec, counting):
        m, f, t = unit
        pv, uw, kr = provlab.provability, UNWIND, provlab.kripke
        what = lambda: f"{pl.print_formula(f)} t={t}"  # noqa: E731
        t0 = _clock()
        translated = pv.translate_k4_to_gl(f, t)
        witness = pv.canonical_witness(f)
        term = pv.print_term(pv.interpret(f, witness))
        out = uw.unwind(m, f, t)
        if kr.validate_frame(out, GL_FRAME) != []:
            rec.bad(what, "unwound model is not a GL frame")
        bad = [k for k in m.nodes if not uw.verify_transfer(m, f, t, k)]
        if bad:
            rec.bad(what, f"truth transfer fails at {bad}")
        if not uw.claim2_holds(m, f, t):
            rec.bad(what, "claim 2 fails")
        if not term or provlab.formulas.count_boxes(translated) != len(t):
            rec.bad(what, "empty interpretation or wrong box count")
        mask = sum(1 << i for i, k in enumerate(m.nodes) if kr.check(m, k, f))
        rec.latencies.append(_clock() - t0)
        rec.items += 1
        rec.tokens.append(str(mask))
        if counting:
            rec.counts["unwind.nodes"] += len(out.nodes)


def _random_translation(f, rng: random.Random, max_entry: int) -> tuple[int, ...]:
    """A seeded valid K4-to-GL translation: each box above every box inside it."""
    occ = pl.formulas.box_occurrences(f)
    assigned: dict[int, int] = {}
    for i in sorted(range(len(occ)), key=lambda i: -len(occ[i])):
        inner = [assigned[j] for j in range(len(occ)) if j != i and occ[j][: len(occ[i])] == occ[i]]
        low = max(inner, default=-1) + 1
        assigned[i] = rng.randint(low, max(low, max_entry))
    t = tuple(assigned[i] for i in range(len(occ)))
    if not provlab.provability.translation_valid(t, f):
        raise AssertionError(f"invalid translation {t}")
    return t


def layer_counts(rec: Record) -> dict[str, float]:
    """The count metrics of the per-layer set, from a run's Record."""
    c = rec.counts
    out = {k: c[k] for k in ("prover.steps", "prover.derivation_nodes",
                             "frames.countermodel_models", "unwind.nodes")}
    out["prover.exhausted"] = rec.exhausted + c["prover.exhausted"]  # items, and set-up searches
    out["prover.steps_p99"] = percentile(rec.steps, 99) if rec.steps else 0
    out["frames.countermodel_size"] = (c["countermodel_nodes"] / c["countermodels"]
                                       if c["countermodels"] else 0.0)
    for cls in OracleSweep.BOUNDS:
        out[f"frames.sweep_valuations.{cls}"] = c[f"frames.sweep_valuations.{cls}"]
        out[f"frames.sweep_frames.{cls}"] = c[f"frames.sweep_frames.{cls}"]
    return out


def percentile(values, q: int) -> float:
    """Inclusive-method percentile, interpolated; 0 for no values, which only
    a run whose every unit raised has."""
    if len(values) <= 1:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


WORKLOADS = {w.name: w for w in (ModalEvidence, OracleSweep, PropDecide, UnwindTransfer)}
