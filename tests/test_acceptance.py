"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The full suite proves the
2000-formula default corpus in four modal logics with evidence re-checking,
sweeps all models within the node bounds, and replays the translation and
unwinding campaigns, so it takes several minutes.
"""

import itertools
import random
import time

import pytest

from provlab.budget import Budget
from provlab.calculus import Logic, check_derivation
from provlab.corpus import BOX_FREE_PARAMS, DEFAULT_PARAMS, generate_corpus
from provlab.crosscheck import run_crosscheck
from provlab.formulas import (
    And,
    Atom,
    BOT,
    Box,
    Imp,
    Neg,
    Sequent,
    atoms,
    count_boxes,
    parse_modal,
    parse_prop,
    print_formula,
    size,
)
from provlab.kripke import KripkeModel, check
from provlab.prop import PropLogic, prove_prop
from provlab.prover import NotProvable, Provable, prove
from provlab.provability import (
    canonical_witness,
    expansions,
    interpret,
    is_expansion,
    print_term,
    translate_bhk,
    translate_k4_to_gl,
    translation_valid,
    witness_check,
)

p, q = Atom("p"), Atom("q")


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(DEFAULT_PARAMS)


@pytest.fixture(scope="module")
def box_free_corpus():
    return generate_corpus(BOX_FREE_PARAMS)


@pytest.fixture(scope="module")
def oracle_reports(corpus):
    return {
        suite: run_crosscheck(suite, corpus=corpus)
        for suite in ("oracle-k4", "oracle-kd4", "oracle-s4", "oracle-gl")
    }


def test_criterion_1_golden_examples():
    start = time.time()
    # expansion pair
    ok = is_expansion(
        parse_modal("[](~[]([]p \\/ []p) \\/ ~[][](p \\/ p))"), parse_modal("[]~[][]p")
    )
    # witness condition: (5,3,1,2) accepted, inner-order violations rejected
    four_box = parse_modal("[](p -> q) \\/ [](~[]p -> []q)")
    ok &= witness_check((5, 3, 1, 2), four_box)
    ok &= not witness_check((5, 1, 1, 2), four_box)
    ok &= not witness_check((5, 2, 3, 1), four_box)
    # interpretation rendering
    ok &= print_term(interpret(four_box, (5, 3, 1, 2))) == "Pr_5(p -> q) \\/ Pr_3(~Pr_1(p) -> Pr_2(q))"
    # the worked K4-to-GL translation
    ok &= (
        print_formula(translate_k4_to_gl(parse_modal("[]p -> [][]p"), (1, 2, 1)))
        == "[](q0 /\\ q1 -> p) -> [](q0 /\\ q1 /\\ q2 -> [](q0 /\\ q1 -> p))"
    )
    # translation clause outputs
    ok &= translate_bhk(parse_prop("p -> q"), "b") == parse_modal("[]([]p -> []q)")
    ok &= translate_bhk(Neg(p), "b") == parse_modal("[]([]p -> []bot)")
    ok &= translate_bhk(BOT, "b") == Box(BOT)
    ok &= translate_bhk(BOT, "w") == Box(Atom("qw"))
    ok &= translate_bhk(BOT, "g") == BOT
    ok &= translate_bhk(Neg(p), "g") == parse_modal("[](~[]p)")
    ok &= translate_bhk(p, "w") == Box(p)
    elapsed = time.time() - start
    report(1, ok and elapsed < 1.0, f"golden examples exact match in {elapsed:.2f}s")


def test_criterion_2_prover_evidence_soundness(oracle_reports):
    worst_exhausted = 0.0
    ok = True
    details = []
    for suite, rep in oracle_reports.items():
        items = rep.summary["items"]
        exhausted = rep.summary["exhausted"]
        worst_exhausted = max(worst_exhausted, exhausted / items)
        ok &= rep.summary["evidence_failures"] == 0
        details.append(f"{suite}: {rep.summary['provable']}+{rep.summary['not_provable']} verified, "
                       f"{exhausted} exhausted")
    ok &= worst_exhausted <= 0.01
    report(2, ok, "; ".join(details))


def test_criterion_3_oracle_agreement(oracle_reports):
    disagreements = {suite: rep.summary["disagreements"] for suite, rep in oracle_reports.items()}
    report(3, all(v == 0 for v in disagreements.values()),
           f"bounded enumeration vs prover: {disagreements}")


def test_criterion_4_translation_equivalences(box_free_corpus):
    details = []
    ok = True
    for suite in ("t99-bpc", "t99-ebpc", "t99-ipc", "t99-fpl", "t99-mpc"):
        rep = run_crosscheck(suite, corpus=box_free_corpus, max_nodes=5)
        ok &= rep.summary["verdict_mismatches"] == 0
        ok &= rep.summary.get("semantic_hard_failures", 0) == 0
        details.append(f"{suite}: {rep.summary['provable']} provable, 0 mismatches")
    # CPC against a truth table built here: classical forcing at one
    # reflexive point, once per valuation of the formula's atoms
    rng = random.Random(5)
    cpc_bad = 0
    for f in rng.sample(box_free_corpus.formulas, 300):
        names = sorted(atoms(f))
        points = [KripkeModel(("w",), frozenset({("w", "w")}),
                              {a: frozenset({"w"}) for a, true in zip(names, row) if true})
                  for row in itertools.product((False, True), repeat=len(names))]
        tautology = all(check(m, "w", f) for m in points)
        cpc_bad += prove_prop(PropLogic.CPC, (), f).provable != tautology
    ok &= cpc_bad == 0
    details.append(f"cpc: {cpc_bad} truth-table mismatches on 300 samples")
    report(4, ok, "; ".join(details))


def test_criterion_5_translation_implication(corpus):
    rep = run_crosscheck("t33", corpus=corpus)
    ok = rep.summary["violations"] == 0 and rep.summary["transfer_failures"] == 0
    report(5, ok,
           f"{rep.summary['items']} formulas, {rep.summary['translations_checked']} translations, "
           f"{rep.summary['prover_confirmations']} prover confirmations, 0 violations")


def test_criterion_6_unwinding_transfer(corpus):
    start = time.time()
    rep = run_crosscheck("l34", corpus=corpus, instances=200)
    elapsed = time.time() - start
    ok = rep.ok and rep.summary["negative_half_nodes"] > 0 and elapsed < 120
    report(6, ok,
           f"200 instances, {rep.summary['negative_half_nodes']} negative-half nodes, "
           f"0 failures in {elapsed:.1f}s")


def test_criterion_7_known_theorem_panel(corpus):
    panel = [
        (Logic.K4, "[]p -> [][]p", True),
        (Logic.KD4, "~[]bot", True),
        (Logic.S4, "[]p -> p", True),
        (Logic.S4, "~[](~[]p /\\ p)", True),
        (Logic.GL, "[]([]p -> p) -> []p", True),
        (Logic.GLS, "[]p -> p", True),
    ]
    ok = True
    for logic, text, expected in panel:
        res = prove(logic, Sequent((), (parse_modal(text),)))
        ok &= isinstance(res, Provable) == expected
        if isinstance(res, Provable) and logic != Logic.GLS:
            ok &= check_derivation(logic, res.derivation)
    prop_panel = [
        (PropLogic.IPC, "bot -> p", True),
        (PropLogic.MPC, "bot -> p", False),
        (PropLogic.IPC, "p \\/ ~p", False),
        (PropLogic.CPC, "p \\/ ~p", True),
        (PropLogic.BPC, "(p /\\ (p -> q)) -> q", False),
    ]
    for logic, text, expected in prop_panel:
        v = prove_prop(logic, (), parse_prop(text))
        ok &= v.provable is expected
    lattice = run_crosscheck("lattice", corpus=corpus)
    ok &= lattice.ok
    report(7, ok, f"panel verdicts exact; lattice inclusions hold "
                  f"({lattice.summary['items']} items, {lattice.summary['exhausted']} exhausted)")


def test_criterion_8_semantics_calculus_invariants(corpus):
    # canonical witnesses always validate
    ok = all(witness_check(canonical_witness(f, 0), f) for f in corpus.formulas)
    ok &= all(witness_check(canonical_witness(f, 3), f) for f in corpus.formulas[:200])

    # expansion / K4-equivalence on 100 sampled pairs
    rng = random.Random(11)
    small = [f for f in corpus.formulas if size(f) <= 10]
    pairs = []
    while len(pairs) < 100:
        a = rng.choice(small)
        options = list(expansions(a, 2, 26))
        b = rng.choice(options)
        pairs.append((b, a))
    equiv_ok = 0
    for b, a in pairs:
        assert is_expansion(b, a)
        res = prove(Logic.K4, Sequent((), (And(Imp(b, a), Imp(a, b)),)), Budget(steps=400_000))
        equiv_ok += isinstance(res, Provable)
    ok &= equiv_ok == 100

    # witness/translation validator coincidence on 1000 random sequences
    agreements = 0
    for _ in range(1000):
        f = rng.choice(corpus.formulas)
        wit = tuple(rng.randint(0, 4) for _ in range(count_boxes(f)))
        agreements += witness_check(wit, f) == translation_valid(wit, f)
    ok &= agreements == 1000

    report(8, ok, f"canonical witnesses valid on all {len(corpus.formulas)} formulas; "
                  f"{equiv_ok}/100 expansion pairs K4-equivalent; "
                  f"{agreements}/1000 validator agreements")
