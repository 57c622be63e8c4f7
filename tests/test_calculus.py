import ast
import hashlib
import pathlib

import pytest

import provlab
from provlab.calculus import Derivation, Logic, check_derivation, diagnose_derivation
from provlab.corpus import DEFAULT_PARAMS, generate_corpus
from provlab.crosscheck import _rule_tally
from provlab.formulas import Atom, BOT, And, Box, Imp, Neg, Or, Sequent, parse_modal
from provlab.prover import Provable, prove

p, q = Atom("p"), Atom("q")


def leaf(ante, succ, rule):
    return Derivation(Sequent(tuple(ante), tuple(succ)), rule)


def node(ante, succ, rule, *premises):
    return Derivation(Sequent(tuple(ante), tuple(succ)), rule, tuple(premises))


def test_axiom_id():
    assert check_derivation(Logic.K4, leaf([p], [p], "Axiom-Id"))
    assert check_derivation(Logic.K4, leaf([Box(p)], [Box(p)], "Axiom-Id"))


def test_axiom_id_requires_bare_sequent():
    assert not check_derivation(Logic.K4, leaf([p, q], [p], "Axiom-Id"))


def test_axiom_bot():
    assert check_derivation(Logic.K4, leaf([BOT], [], "Axiom-Bot"))
    assert not check_derivation(Logic.K4, leaf([BOT], [p], "Axiom-Bot"))


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


r, s = Atom("r"), Atom("s")


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


def test_deep_k4_derivation_walks_without_recursion():
    # K4's derivation of []^50(p /\ q) -> []^50 p is a chain 2507 nodes deep
    res = prove(Logic.K4, Sequent((), (parse_modal("[]" * 50 + "(p /\\ q) -> " + "[]" * 50 + "p"),)))
    assert isinstance(res, Provable) and check_derivation(Logic.K4, res.derivation)
    assert res.derivation.node_count() == 2507
    tally = {}
    _rule_tally(res.derivation, tally)
    assert tally == {"AndL": 2, "Axiom-Id": 1, "Box4R": 50, "ImpR": 1, "cL": 1, "wL": 2452}


# The rule names in a fixed order; a renamed node takes the next one, cyclically.
RENAME_ORDER = ("Axiom-Id", "Axiom-Bot", "wL", "wR", "cL", "cR", "cut", "OrL", "OrR", "AndL",
                "AndR", "ImpL", "ImpR", "NegL", "NegR", "Box4R", "BoxDR", "BoxSR", "BoxL", "GLR")
# sha256 over every diagnose_derivation result of test_diagnostics_are_pinned
DIAGNOSTICS_DIGEST = "8b2d4d82e52a85e653d73275d2e5c2f65577b452d5c87c0ca76b7c0a2839b64a"


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
