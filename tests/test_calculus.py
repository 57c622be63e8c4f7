import ast
import hashlib
import pathlib

import pytest

import provlab
from provlab.calculus import Derivation, Logic, check_derivation, diagnose_derivation
from provlab.corpus import DEFAULT_PARAMS, generate_corpus
from provlab.crosscheck import _rule_tally
from provlab.formulas import Atom, BOT, And, Box, Imp, Neg, Or, Sequent, parse_modal, print_sequent
from provlab.prover import Provable, prove

p, q, r, s = Atom("p"), Atom("q"), Atom("r"), Atom("s")


def leaf(ante, succ, rule):
    return Derivation(Sequent(tuple(ante), tuple(succ)), rule)


def node(ante, succ, rule, *premises):
    return Derivation(Sequent(tuple(ante), tuple(succ)), rule, tuple(premises))


def test_axiom_id():
    assert check_derivation(Logic.K4, leaf([p], [p], "Axiom-Id"))
    assert check_derivation(Logic.K4, leaf([Box(p)], [Box(p)], "Axiom-Id"))


def test_axiom_id_takes_contexts():
    # S, A => A, D with any contexts; a sequent that shares no formula is no axiom
    assert check_derivation(Logic.K4, leaf([p, q], [p], "Axiom-Id"))
    assert check_derivation(Logic.K4, leaf([q, Box(p)], [r, Box(p), p], "Axiom-Id"))
    assert diagnose_derivation(Logic.K4, leaf([p, q], [r], "Axiom-Id")) == (
        "Axiom-Id needs one formula on both sides (at []: p, q => r)")
    assert not check_derivation(Logic.K4, leaf([Box(p)], [p], "Axiom-Id"))


def test_axiom_bot():
    # S, bot => D with any contexts; bot must be in the antecedent
    assert check_derivation(Logic.K4, leaf([BOT], [], "Axiom-Bot"))
    assert check_derivation(Logic.K4, leaf([p, BOT], [q], "Axiom-Bot"))
    assert diagnose_derivation(Logic.K4, leaf([p], [BOT], "Axiom-Bot")) == (
        "Axiom-Bot needs bot in the antecedent (at []: p => bot)")
    assert not check_derivation(Logic.K4, leaf([Box(BOT)], [], "Axiom-Bot"))


# Each right box rule with contexts: a conclusion S, []G => []A, D (S, []G => D
# for BoxDR) over its premise, then over two premises that are no instance:
# one whose []G does not fit in the conclusion (one []p too many), and one
# that also holds q, a formula of S.
@pytest.mark.parametrize("logic,rule,concl,premise,overfull,with_q", [
    (Logic.K4, "Box4R", ([q, Box(p), Box(Box(p))], [Box(p), r]), ([p, Box(p), Box(p), Box(Box(p))], [p]),
     ([p, p, Box(p), Box(p)], [p]), ([q, p, Box(p), Box(p), Box(Box(p))], [p])),
    (Logic.KD4, "BoxDR", ([q, Box(BOT)], [r]), ([BOT, Box(BOT)], []),
     ([BOT, BOT, Box(BOT), Box(BOT)], []), ([q, BOT, Box(BOT)], [])),
    (Logic.S4, "BoxSR", ([q, Box(p)], [Box(p), r]), ([Box(p)], [p]),
     ([Box(p), Box(p)], [p]), ([q, Box(p)], [p])),
    (Logic.GL, "GLR", ([q, Box(p)], [Box(p), r]), ([p, Box(p), Box(p)], [p]),
     ([p, p, Box(p), Box(p), Box(p)], [p]), ([q, p, Box(p), Box(p)], [p])),
], ids=["Box4R", "BoxDR", "BoxSR", "GLR"])
def test_box_rules_take_contexts(logic, rule, concl, premise, overfull, with_q):
    # each premise is closed by a marker rule of no logic, so only the box rule is checked
    assert diagnose_derivation(logic, node(*concl, rule, leaf(*premise, "unchecked"))) == (
        f"rule unchecked is not part of G({logic.value}) (at [0])")
    for bad in (overfull, with_q):
        assert diagnose_derivation(logic, node(*concl, rule, leaf(*bad, "unchecked"))) == (
            f"{rule} premise antecedent does not match (at []: {print_sequent(Sequent(*map(tuple, concl)))})")


def test_box4r_derivation_of_axiom_four():
    # []p => [][]p from p, []p => []p by Box4R, closing with Axiom-Id + wL
    d = node(
        [Box(p)],
        [Box(Box(p))],
        "Box4R",
        node([p, Box(p)], [Box(p)], "wL", leaf([Box(p)], [Box(p)], "Axiom-Id")),
    )
    assert check_derivation(Logic.K4, d)
    assert check_derivation(Logic.KD4, d)


def test_rule_not_in_logic_is_diagnosed():
    d = node([Box(p)], [Box(p)], "BoxSR", leaf([Box(p)], [p], "wL", ))
    msg = diagnose_derivation(Logic.K4, d)
    assert msg is not None and "BoxSR" in msg


def test_exchange_is_absorbed_by_multiset_matching():
    d = node([q, p], [q], "wL", leaf([q], [q], "Axiom-Id"))
    assert check_derivation(Logic.K4, d)


def test_contraction_rules():
    ok = node([p], [p], "cL", node([p, p], [p], "wL", leaf([p], [p], "Axiom-Id")))
    assert check_derivation(Logic.K4, ok)
    bad = node([p], [p], "cL", leaf([p], [p], "Axiom-Id"))
    assert not check_derivation(Logic.K4, bad)


def test_cut_is_checkable_but_never_produced():
    # cut on p with contexts Gamma0 = [p], Delta1 = [p]
    d = node(
        [p], [p], "cut",
        leaf([p], [p], "Axiom-Id"),
        leaf([p], [p], "Axiom-Id"),
    )
    assert check_derivation(Logic.K4, d)
    assert check_derivation(Logic.GL, d)


def test_propositional_rules():
    d_and = node([And(p, q)], [p], "AndL", leaf([p], [p], "Axiom-Id"))
    assert check_derivation(Logic.K4, d_and)
    d_imp = node([], [Imp(p, p)], "ImpR", leaf([p], [p], "Axiom-Id"))
    assert check_derivation(Logic.GL, d_imp)
    d_neg = node([p, Neg(p)], [], "NegL", leaf([p], [p], "Axiom-Id"))
    assert check_derivation(Logic.S4, d_neg)
    d_or = node(
        [Or(p, q)], [p, q], "OrL",
        leaf([p], [p], "Axiom-Id"),
        leaf([q], [q], "Axiom-Id"),
    )
    assert check_derivation(Logic.K4, d_or)


def test_andr_context_split():
    d = node(
        [p, q], [And(p, q)], "AndR",
        leaf([p], [p], "Axiom-Id"),
        leaf([q], [q], "Axiom-Id"),
    )
    assert check_derivation(Logic.K4, d)


def _p_with(*extra):
    # p, *extra => p: Axiom-Id, then wL once per extra formula
    d = leaf([p], [p], "Axiom-Id")
    for i in range(1, len(extra) + 1):
        d = node([p, *extra[:i]], [p], "wL", d)
    return d


# The two-premise rules that split the context: all of it goes to the first
# premise.  Then r is moved from the first premise's antecedent to the second
# premise's succedent, and the active formula is dropped from one premise (a
# variant that the multiset sums alone would accept).
@pytest.mark.parametrize("rule,concl,split,moved,missing", [
    ("OrL", ([Or(p, q), r, s], [p, q]),
     (_p_with(r, s), leaf([q], [q], "Axiom-Id")),
     (_p_with(s), leaf([q], [q, r], "Axiom-Id")),
     (leaf([r, s], [p], "Axiom-Id"), leaf([q], [q], "Axiom-Id"))),
    ("ImpL", ([Imp(p, q), p, r, s], [q]),
     (_p_with(r, s), leaf([q], [q], "Axiom-Id")),
     (_p_with(s), leaf([q], [q, r], "Axiom-Id")),
     (_p_with(r, s), leaf([], [q], "Axiom-Id"))),
    ("cut", ([p, r, s], [p]),
     (_p_with(r, s), leaf([p], [p], "Axiom-Id")),
     (_p_with(s), leaf([p], [p, r], "Axiom-Id")),
     (_p_with(r, s), leaf([], [p], "Axiom-Id"))),
], ids=["OrL", "ImpL", "cut"])
def test_two_premise_context_split(rule, concl, split, moved, missing):
    ante, succ = concl
    assert diagnose_derivation(Logic.K4, node(ante, succ, rule, *split)) is None
    want = {"OrL": "OrL instance does not match (at []: p \\/ q, r, s => p, q)",
            "ImpL": "ImpL instance does not match (at []: p -> q, p, r, s => q)",
            "cut": "cut formula not found (at []: p, r, s => p)"}[rule]
    assert diagnose_derivation(Logic.K4, node(ante, succ, rule, *moved)) == want
    assert diagnose_derivation(Logic.K4, node(ante, succ, rule, *missing)) == want


def test_boxdr_shape():
    d = node([Box(BOT)], [], "BoxDR", node([BOT, Box(BOT)], [], "wL", leaf([BOT], [], "Axiom-Bot")))
    assert check_derivation(Logic.KD4, d)
    assert not check_derivation(Logic.K4, d)


def test_glr_carries_diagonal_formula():
    # GLR: from Gamma, []Gamma, []A => A infer []Gamma => []A; the premise is
    # closed by ImpL splitting the context between the two branches
    prem = node(
        [Imp(Box(p), p), Box(Imp(Box(p), p)), Box(p)],
        [p],
        "ImpL",
        node([Box(Imp(Box(p), p)), Box(p)], [Box(p)], "wL",
             leaf([Box(p)], [Box(p)], "Axiom-Id")),
        leaf([p], [p], "Axiom-Id"),
    )
    d = node([Box(Imp(Box(p), p))], [Box(p)], "GLR", prem)
    assert check_derivation(Logic.GL, d)


def test_s4_box_rules():
    d = node([Box(p)], [p], "BoxL", leaf([p], [p], "Axiom-Id"))
    assert check_derivation(Logic.S4, d)
    assert not check_derivation(Logic.K4, d)
    d2 = node([Box(p)], [Box(p)], "BoxSR", node([Box(p)], [p], "BoxL", leaf([p], [p], "Axiom-Id")))
    assert check_derivation(Logic.S4, d2)


def test_diagnostic_paths():
    bad = node([p], [p], "AndL", leaf([p], [p], "Axiom-Id"))
    msg = diagnose_derivation(Logic.K4, bad)
    assert msg is not None and "AndL" in msg


def _chain(bad_depth=None):
    # 5000 nodes above the leaf p => p: wL to p, p => p, then cL back to p => p;
    # the node at bad_depth (a wL node when odd) is renamed to wR
    d = leaf([p], [p], "Axiom-Id")
    for depth in range(4999, -1, -1):
        rule, ante = ("wL", [p, p]) if depth % 2 else ("cL", [p])
        d = node(ante, [p], "wR" if depth == bad_depth else rule, d)
    return d


def test_deep_derivations_check_without_recursion():
    assert check_derivation(Logic.K4, _chain())
    msg = diagnose_derivation(Logic.K4, _chain(bad_depth=4001))
    assert msg == f"wR premise must drop one succedent formula (at {[0] * 4001}: p, p => p)"
    assert _chain().node_count() == 5001


def _k4_chain(n):
    return prove(Logic.K4, Sequent((), (parse_modal("[]" * n + "(p /\\ q) -> " + "[]" * n + "p"),)))


def test_deep_k4_derivation_walks_without_recursion():
    # K4's derivation of []^50(p /\ q) -> []^50 p is a chain with one Box4R per
    # modal layer: the box rules take their contexts, so nothing is weakened
    res = _k4_chain(50)
    assert isinstance(res, Provable) and check_derivation(Logic.K4, res.derivation)
    assert res.derivation.node_count() == 55 < 200
    tally = {}
    _rule_tally(res.derivation, tally)
    assert tally == {"AndL": 2, "Axiom-Id": 1, "Box4R": 50, "ImpR": 1, "cL": 1}


def test_deep_k4_chain_has_a_checked_derivation():
    res = _k4_chain(250)
    assert isinstance(res, Provable) and check_derivation(Logic.K4, res.derivation)
    assert res.derivation.node_count() == 255


# The rule names in a fixed order; a renamed node takes the next one, cyclically.
RENAME_ORDER = ("Axiom-Id", "Axiom-Bot", "wL", "wR", "cL", "cR", "cut", "OrL", "OrR", "AndL",
                "AndR", "ImpL", "ImpR", "NegL", "NegR", "Box4R", "BoxDR", "BoxSR", "BoxL", "GLR")
# sha256 over every diagnose_derivation result of test_diagnostics_are_pinned
DIAGNOSTICS_DIGEST = "e3469c51704c5113b35079f1c482ad2d6aab4464973020778562ac21d7d525da"


def test_diagnostics_are_pinned():
    # every node of the Provable derivations of the first 150 default-corpus
    # formulas, broken three ways: each variant's diagnostic (or None) is pinned
    h = hashlib.sha256()
    for f in generate_corpus(DEFAULT_PARAMS).formulas[:150]:
        for logic in (Logic.K4, Logic.KD4, Logic.S4, Logic.GL):
            res = prove(logic, Sequent((), (f,)))
            if not isinstance(res, Provable):
                continue
            for n in res.derivation.nodes():
                ante, succ = n.sequent.ante, n.sequent.succ
                renamed = RENAME_ORDER[(RENAME_ORDER.index(n.rule) + 1) % len(RENAME_ORDER)]
                for variant in (
                    Derivation(Sequent(ante[:-1], succ), n.rule, n.premises),
                    Derivation(Sequent(ante, succ[:1] + succ), n.rule, n.premises),
                    Derivation(n.sequent, renamed, n.premises),
                ):
                    h.update(repr(diagnose_derivation(logic, variant)).encode() + b"\n")
    assert h.hexdigest() == DIAGNOSTICS_DIGEST


def _one_formula_mutants(fs, only=None, added=()):
    """fs with one formula (each distinct one, or only `only`) deleted or
    duplicated, and with each formula of added added."""
    for f in dict.fromkeys(fs):
        if only in (None, f):
            i = fs.index(f)
            yield fs[:i] + fs[i + 1:]
            yield fs + (f,)
    for f in added:
        yield fs + (f,)


def test_context_rules_reject_one_formula_mutants():
    # Every axiom and box-rule node of the default-corpus derivations.  A box
    # rule's premise is mutated on one side, where added formulas are r, []r
    # (no corpus formula holds r) and the conclusion's antecedent formulas; the
    # node's diagnostic must name the node itself.  A Box4R, BoxDR or GLR premise holds G and []G in pairs
    # (and GLR one []A more), so no mutant is an instance.  A BoxSR premise is
    # []G alone: a mutant is an instance exactly when it is all boxed and fits
    # in the conclusion.  An axiom's shared formula (Axiom-Id) or bot
    # (Axiom-Bot) is deleted or duplicated on one side; the mutant is an
    # instance exactly when a formula is still shared (bot still there).
    rejected = dict.fromkeys(("Axiom-Id", "Axiom-Bot", "Box4R", "BoxDR", "BoxSR", "GLR"), 0)
    for f in generate_corpus(DEFAULT_PARAMS).formulas:
        for logic in (Logic.K4, Logic.KD4, Logic.S4, Logic.GL):
            res = prove(logic, Sequent((), (f,)))
            if not isinstance(res, Provable):
                continue
            for n in res.derivation.nodes():
                assert n.rule not in ("wL", "wR")
                if n.rule not in rejected:
                    continue
                ante, succ = n.sequent.ante, n.sequent.succ
                if n.premises:
                    (prem,) = n.premises
                    added = (r, Box(r), *dict.fromkeys(ante))
                    mutants = [Sequent(a, prem.sequent.succ) for a in _one_formula_mutants(prem.sequent.ante, None, added)]
                    mutants += [Sequent(prem.sequent.ante, s) for s in _one_formula_mutants(prem.sequent.succ, None, added)]
                    for m in mutants:
                        msg = diagnose_derivation(logic, Derivation(n.sequent, n.rule, (Derivation(m, prem.rule, prem.premises),)))
                        instance = n.rule == "BoxSR" and m.succ == prem.sequent.succ and all(
                            isinstance(g, Box) and m.ante.count(g) <= ante.count(g) for g in m.ante)
                        assert (msg is None or "(at []:" not in msg) == instance, (logic, n.sequent, m)
                        rejected[n.rule] += not instance
                    continue
                for a in set(ante) & set(succ) if n.rule == "Axiom-Id" else {BOT}:
                    mutants = [Sequent(x, succ) for x in _one_formula_mutants(ante, a)]
                    mutants += [Sequent(ante, x) for x in _one_formula_mutants(succ, a)]
                    for m in mutants:
                        instance = bool(set(m.ante) & set(m.succ)) if n.rule == "Axiom-Id" else BOT in m.ante
                        assert (diagnose_derivation(logic, Derivation(m, n.rule)) is None) == instance
                        rejected[n.rule] += not instance
    assert min(rejected.values()) > 0, rejected


def _provlab_imports(path):
    """The provlab modules that the module at path imports."""
    out = set()
    for n in ast.walk(ast.parse(path.read_text())):
        if isinstance(n, ast.Import):
            out |= {a.name.partition(".")[2] or a.name for a in n.names if a.name.split(".")[0] == "provlab"}
        elif isinstance(n, ast.ImportFrom) and (n.level or (n.module or "").split(".")[0] == "provlab"):
            module = (n.module or "").removeprefix("provlab").lstrip(".")
            out |= {module} if module else {a.name for a in n.names}
    return out


@pytest.mark.parametrize("module", ["calculus.py", "kripke.py"])
def test_checkers_import_only_formulas(module):
    # the derivation checker and the naive forcing checker stay independent of
    # the prover's rule tables and the compiled evaluator that they check
    assert _provlab_imports(pathlib.Path(provlab.__file__).parent / module) == {"formulas"}
