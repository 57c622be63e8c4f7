"""Cross-validation campaigns for the decidable equivalences and transfer properties.

Suites:
  oracle-k4 / oracle-kd4 / oracle-s4 / oracle-gl
      prove every corpus formula; re-check all evidence (derivations through
      the rule checker, countermodels through frame validation and forcing);
      then sweep all models within the node bound and flag any Provable
      formula that some model refutes.
  t99-bpc / t99-ebpc / t99-ipc / t99-fpl / t99-mpc
      verdict equality between the propositional prover and the matching
      modal prover's result on the translated formula that it decided through,
      plus a direct-semantics sweep over the propositional frame classes: a
      refuted-yet-Provable formula is a hard failure.
  t33   for K4-unprovable corpus formulas of degree <= 2 and every valid
        translation with entries <= 3, certify GL does not prove the
        translation by unwinding the K4 countermodel into a GL countermodel
        (checked by forcing); a seeded subsample is confirmed against the GL
        prover directly.  K4-provable formulas satisfy the implication
        outright.
  l34   sampled unwinding instances: GL frame validation, the per-node truth
        transfer, and the full quantitative claim including its negative half.
  lattice
        theorem-set inclusions as verdict implications, modal and
        propositional.

Budget exhaustion is its own outcome and never counts as agreement.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field

from .budget import Budget, BudgetExhausted
from .calculus import Logic, check_derivation
from .corpus import BOX_FREE_PARAMS, Corpus, DEFAULT_PARAMS, generate_corpus
from .formulas import Formula, Neg, Sequent, box_occurrences, boxes_within, count_boxes, modal_degree, print_formula
from .frames import enumerate_models, sweep_refutations
from .kripke import GL_FRAME, K4_FRAME, check, int_frame, validate_frame
from .prop import PROP_TO_MODAL, PropLogic, prove_prop
from .prover import (
    FRAME_OF_LOGIC,
    Exhausted,
    NotProvable,
    Provable,
    prove,
    search_provable,
)
from .provability import translate_k4_to_gl, translation_valid
from .unwind import unwind

SUITES = (
    "t99-bpc",
    "t99-ebpc",
    "t99-ipc",
    "t99-fpl",
    "t99-mpc",
    "t33",
    "l34",
    "oracle-k4",
    "oracle-kd4",
    "oracle-s4",
    "oracle-gl",
    "lattice",
)

_ORACLE_LOGIC = {
    "oracle-k4": Logic.K4,
    "oracle-kd4": Logic.KD4,
    "oracle-s4": Logic.S4,
    "oracle-gl": Logic.GL,
}

_T99_LOGIC = {
    "t99-bpc": PropLogic.BPC,
    "t99-ebpc": PropLogic.EBPC,
    "t99-ipc": PropLogic.IPC,
    "t99-fpl": PropLogic.FPL,
    "t99-mpc": PropLogic.MPC,
}


@dataclass
class CrosscheckReport:
    suite: str
    params: dict
    records: list[dict] = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.summary.get("disagreements", 0) == 0 and self.summary.get("evidence_failures", 0) == 0

    def to_json(self) -> str:
        payload = {
            "suite": self.suite,
            "params": self.params,
            "summary": dict(sorted(self.summary.items())),
            "ok": self.ok,
            "records": sorted(self.records, key=lambda r: r["index"]),
        }
        return json.dumps(payload, sort_keys=True, indent=2)


def _hash_evidence(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:12]


def _item_budget(budget_steps: int, max_nodes: int) -> Budget:
    return Budget(steps=budget_steps, max_nodes=max_nodes, escalate_nodes=max_nodes + 2)


def _rule_tally(derivation, tally: dict) -> None:
    tally[derivation.rule] = tally.get(derivation.rule, 0) + 1
    for p in derivation.premises:
        _rule_tally(p, tally)


def _oracle_suite(suite: str, corpus: Corpus, budget_steps: int, max_nodes: int) -> CrosscheckReport:
    logic = _ORACLE_LOGIC[suite]
    frame_class = FRAME_OF_LOGIC[logic]
    report = CrosscheckReport(suite, {
        "logic": logic.value, "corpus": corpus.digest(), "budget_steps": budget_steps,
        "max_nodes": max_nodes,
    })
    provable: list[tuple[int, Formula]] = []
    exhausted = evidence_failures = 0
    coverage: dict[str, int] = {}
    for i, f in enumerate(corpus.formulas):
        res = prove(logic, Sequent((), (f,)), _item_budget(budget_steps, max_nodes))
        rec = {"index": i, "formula": print_formula(f)}
        if isinstance(res, Provable):
            rec["verdict"] = "provable"
            if check_derivation(logic, res.derivation):
                _rule_tally(res.derivation, coverage)
                rec["evidence"] = _hash_evidence(res.derivation.to_json())
                provable.append((i, f))
            else:
                rec["status"] = "evidence-failure"
                evidence_failures += 1
        elif isinstance(res, NotProvable):
            rec["verdict"] = "not-provable"
            ok = validate_frame(res.model, frame_class) == [] and not check(res.model, res.node, f)
            if ok:
                rec["evidence"] = _hash_evidence([res.model.to_json(), res.node])
            else:
                rec["status"] = "evidence-failure"
                evidence_failures += 1
        else:
            rec["verdict"] = "exhausted"
            rec["status"] = "exhausted"
            exhausted += 1
        report.records.append(rec)
    swept = sweep_refutations([f for _, f in provable], frame_class, max_nodes)
    disagreements = 0
    for i, f in provable:
        hit = swept[f]
        if hit is not None:
            disagreements += 1
            report.records[i]["status"] = "disagree"
            report.records[i]["refuting_model"] = hit[0].to_json()
    report.summary = {
        "items": len(corpus.formulas),
        "provable": len(provable),
        "not_provable": sum(1 for r in report.records if r.get("verdict") == "not-provable"),
        "exhausted": exhausted,
        "evidence_failures": evidence_failures,
        "disagreements": disagreements,
        "rule_coverage": dict(sorted(coverage.items())),
    }
    return report


def _t99_suite(suite: str, corpus: Corpus, budget_steps: int, max_nodes: int) -> CrosscheckReport:
    plogic = _T99_LOGIC[suite]
    flavor, mlogic = PROP_TO_MODAL[plogic]
    report = CrosscheckReport(suite, {
        "prop_logic": plogic.value, "modal_logic": mlogic.value, "flavor": flavor,
        "corpus": corpus.digest(), "budget_steps": budget_steps, "max_nodes": max_nodes,
    })
    provable: list[tuple[int, Formula]] = []
    disagreements = exhausted = 0
    for i, f in enumerate(corpus.formulas):
        v = prove_prop(plogic, (), f, _item_budget(budget_steps, max_nodes), countermodel_nodes=0)
        modal = v.modal_result
        rec = {"index": i, "formula": print_formula(f), "translated": print_formula(v.translated)}
        modal_verdict = True if isinstance(modal, Provable) else (None if isinstance(modal, Exhausted) else False)
        rec["prop_verdict"] = v.provable
        rec["modal_verdict"] = modal_verdict
        if v.provable is None or modal_verdict is None:
            rec["status"] = "exhausted"
            exhausted += 1
        elif v.provable != modal_verdict:
            rec["status"] = "disagree"
            disagreements += 1
        elif v.provable:
            provable.append((i, f))
        report.records.append(rec)
    hard_failures = 0
    if plogic != PropLogic.EBPC:
        swept = sweep_refutations([f for _, f in provable], int_frame(plogic.value), max_nodes)
        for i, f in provable:
            hit = swept[f]
            if hit is not None:
                hard_failures += 1
                report.records[i]["status"] = "semantic-refutation-of-provable"
                report.records[i]["refuting_model"] = hit[0].to_json()
    report.summary = {
        "items": len(corpus.formulas),
        "provable": len(provable),
        "exhausted": exhausted,
        "disagreements": disagreements + hard_failures,
        "verdict_mismatches": disagreements,
        "semantic_hard_failures": hard_failures,
        "evidence_failures": 0,
    }
    return report


def _valid_translations(f: Formula, max_entry: int):
    """Exhaustive valid translation sequences with entries <= max_entry."""
    occ = box_occurrences(f)
    if not occ:
        yield ()
        return
    # assign bottom-up: each box must exceed the maxima of the boxes inside it
    order = sorted(range(len(occ)), key=lambda i: -len(occ[i]))
    inside = [boxes_within(occ, path)[1:] for path in occ]

    def rec(pos: int, assigned: dict):
        if pos == len(order):
            yield tuple(assigned[i] for i in range(len(occ)))
            return
        i = order[pos]
        low = max((assigned[j] for j in inside[i]), default=-1) + 1
        for v in range(low, max_entry + 1):
            assigned[i] = v
            yield from rec(pos + 1, assigned)
        assigned.pop(i, None)

    yield from rec(0, {})


def _t33_suite(corpus: Corpus, budget_steps: int, max_nodes: int, seed: int) -> CrosscheckReport:
    report = CrosscheckReport("t33", {
        "corpus": corpus.digest(), "budget_steps": budget_steps, "max_nodes": max_nodes,
        "max_entry": 3, "max_degree": 2, "seed": seed,
    })
    rng = random.Random(seed)
    violations = transfer_failures = exhausted = 0
    translations_checked = prover_confirms = 0
    converse_checked = converse_hits = 0
    items = 0
    for i, f in enumerate(corpus.formulas):
        if modal_degree(f) > 2:
            continue
        items += 1
        rec = {"index": i, "formula": print_formula(f), "boxes": count_boxes(f)}
        res = prove(Logic.K4, Sequent((), (f,)), _item_budget(budget_steps, max_nodes))
        if isinstance(res, Provable):
            # K4 proves f, so the implication holds for every translation.
            # The converse direction (does some translation become GL-provable?)
            # is only recorded as an empirical rate, never asserted.
            rec["k4"] = "provable"
            if converse_checked < 200:
                converse_checked += 1
                hit = False
                for t in _valid_translations(f, 3):
                    try:
                        if search_provable(Logic.GL, Sequent((), (translate_k4_to_gl(f, t),)),
                                           _item_budget(budget_steps, max_nodes)):
                            hit = True
                            break
                    except BudgetExhausted:
                        break
                converse_hits += hit
                rec["converse_some_t"] = hit
            report.records.append(rec)
            continue
        if isinstance(res, Exhausted):
            rec["k4"] = "exhausted"
            rec["status"] = "exhausted"
            exhausted += 1
            report.records.append(rec)
            continue
        rec["k4"] = "not-provable"
        model, node = res.model, res.node
        neg = Neg(f)
        checked = 0
        for t in _valid_translations(f, 3):
            checked += 1
            translated = translate_k4_to_gl(f, t)
            # unwind the K4 countermodel: it must refute the translation on a
            # GL frame, which certifies GL does not prove it
            unw = unwind(model, neg, t)
            # irreflexive nodes keep their name; a reflexive node's length-1
            # path prints identically, so the stand-in is the name itself
            refuted = not check(unw, node, translated)
            if not refuted:
                transfer_failures += 1
                rec["status"] = "transfer-failure"
                rec["bad_translation"] = ",".join(map(str, t))
                break
            if rng.random() < 0.02 and prover_confirms < 60:
                prover_confirms += 1
                try:
                    if search_provable(Logic.GL, Sequent((), (translated,)),
                                       _item_budget(budget_steps, max_nodes)):
                        violations += 1
                        rec["status"] = "violation"
                        rec["bad_translation"] = ",".join(map(str, t))
                        break
                except BudgetExhausted:
                    pass
        rec["translations"] = checked
        translations_checked += checked
        report.records.append(rec)
    report.summary = {
        "items": items,
        "translations_checked": translations_checked,
        "prover_confirmations": prover_confirms,
        "violations": violations,
        "transfer_failures": transfer_failures,
        "exhausted": exhausted,
        "converse_checked": converse_checked,
        "converse_hits": converse_hits,
        "disagreements": violations + transfer_failures,
        "evidence_failures": 0,
    }
    return report


def _l34_suite(corpus: Corpus, instances: int, seed: int) -> CrosscheckReport:
    from .unwind import claim2_holds, verify_transfer

    report = CrosscheckReport("l34", {
        "corpus": corpus.digest(), "instances": instances, "seed": seed,
    })
    rng = random.Random(seed)
    models = list(enumerate_models(3, K4_FRAME, ["p", "q"]))
    formulas = [f for f in corpus.formulas if modal_degree(f) <= 2]
    failures = frame_failures = negatives = 0
    for idx in range(instances):
        m = rng.choice(models)
        f = rng.choice(formulas)
        t = _random_valid_translation(f, rng, 3)
        rec = {"index": idx, "formula": print_formula(f), "t": ",".join(map(str, t)),
               "model": _hash_evidence(m.to_json())}
        out = unwind(m, f, t)
        if validate_frame(out, GL_FRAME) != []:
            frame_failures += 1
            rec["status"] = "frame-failure"
            report.records.append(rec)
            continue
        bad_nodes = [k for k in m.nodes if not verify_transfer(m, f, t, k)]
        negatives += sum(1 for k in m.nodes if not check(m, k, f))
        if bad_nodes or not claim2_holds(m, f, t):
            failures += 1
            rec["status"] = "transfer-failure"
            rec["bad_nodes"] = bad_nodes
        report.records.append(rec)
    report.summary = {
        "items": instances,
        "negative_half_nodes": negatives,
        "frame_failures": frame_failures,
        "transfer_failures": failures,
        "disagreements": failures + frame_failures,
        "evidence_failures": 0,
    }
    return report


def _random_valid_translation(f: Formula, rng: random.Random, max_entry: int) -> tuple[int, ...]:
    occ = box_occurrences(f)
    assigned: dict[int, int] = {}
    for i in sorted(range(len(occ)), key=lambda i: -len(occ[i])):
        low = max((assigned[j] for j in boxes_within(occ, occ[i])[1:]), default=-1) + 1
        assigned[i] = rng.randint(low, max(low, max_entry))
    t = tuple(assigned[i] for i in range(len(occ)))
    assert translation_valid(t, f)
    return t


def _lattice_suite(corpus: Corpus, prop_corpus: Corpus, budget_steps: int, max_nodes: int) -> CrosscheckReport:
    report = CrosscheckReport("lattice", {
        "corpus": corpus.digest(), "prop_corpus": prop_corpus.digest(),
        "budget_steps": budget_steps,
    })
    modal_chains = [
        (Logic.K4, Logic.KD4), (Logic.KD4, Logic.S4), (Logic.K4, Logic.GL), (Logic.GL, Logic.GLS),
    ]
    prop_chains = [
        (PropLogic.BPC, PropLogic.EBPC), (PropLogic.EBPC, PropLogic.IPC),
        (PropLogic.IPC, PropLogic.CPC), (PropLogic.BPC, PropLogic.FPL),
    ]
    violations = exhausted = 0
    for i, f in enumerate(corpus.formulas):
        verdicts = {}
        for logic in (Logic.K4, Logic.KD4, Logic.S4, Logic.GL, Logic.GLS):
            try:
                verdicts[logic] = search_provable(logic, Sequent((), (f,)),
                                                  _item_budget(budget_steps, max_nodes))
            except BudgetExhausted:
                verdicts[logic] = None
        if None in verdicts.values():
            exhausted += 1
            continue
        for weak, strong in modal_chains:
            if verdicts[weak] and not verdicts[strong]:
                violations += 1
                report.records.append({
                    "index": i, "formula": print_formula(f), "status": "inclusion-violation",
                    "weaker": weak.value, "stronger": strong.value,
                })
    for i, f in enumerate(prop_corpus.formulas):
        verdicts = {}
        for plogic in (PropLogic.BPC, PropLogic.EBPC, PropLogic.IPC, PropLogic.CPC, PropLogic.FPL):
            v = prove_prop(plogic, (), f, _item_budget(budget_steps, max_nodes), countermodel_nodes=0)
            verdicts[plogic] = v.provable
        if None in verdicts.values():
            exhausted += 1
            continue
        for weak, strong in prop_chains:
            if verdicts[weak] and not verdicts[strong]:
                violations += 1
                report.records.append({
                    "index": len(corpus.formulas) + i, "formula": print_formula(f),
                    "status": "inclusion-violation",
                    "weaker": weak.value, "stronger": strong.value,
                })
    report.summary = {
        "items": len(corpus.formulas) + len(prop_corpus.formulas),
        "exhausted": exhausted,
        "disagreements": violations,
        "evidence_failures": 0,
    }
    return report


def run_crosscheck(
    suite: str,
    corpus: Corpus | None = None,
    budget_steps: int = 100_000,
    max_nodes: int = 6,
    seed: int = 1,
    instances: int = 200,
) -> CrosscheckReport:
    """Run one suite; the report's ok flag is the pass/fail verdict."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    if suite in _ORACLE_LOGIC:
        corpus = corpus or generate_corpus(DEFAULT_PARAMS)
        return _oracle_suite(suite, corpus, budget_steps, max_nodes)
    if suite in _T99_LOGIC:
        corpus = corpus or generate_corpus(BOX_FREE_PARAMS)
        return _t99_suite(suite, corpus, budget_steps, min(max_nodes, 5))
    if suite == "t33":
        corpus = corpus or generate_corpus(DEFAULT_PARAMS)
        return _t33_suite(corpus, budget_steps, max_nodes, seed)
    if suite == "l34":
        corpus = corpus or generate_corpus(DEFAULT_PARAMS)
        return _l34_suite(corpus, instances, seed)
    if corpus is None:
        corpus = generate_corpus(DEFAULT_PARAMS)
        prop_corpus = generate_corpus(BOX_FREE_PARAMS)
    else:
        from dataclasses import replace

        prop_corpus = generate_corpus(
            replace(BOX_FREE_PARAMS, sample_size=len(corpus.formulas), seed=corpus.params.seed)
        )
    return _lattice_suite(corpus, prop_corpus, budget_steps, max_nodes)
