import pytest
from hypothesis import given, settings, strategies as st

import provlab.kripke
import provlab.prop
from provlab.calculus import Logic
from provlab.formulas import Atom, BOT, TOP, And, Box, Imp, Or, parse_prop
from provlab.frames import find_entailment_countermodel
from provlab.kripke import BOT_KEY, GL_FRAME, check, check_int, int_frame, validate_frame
from provlab.prover import NotProvable
from provlab.prop import (
    DIRECT_SEMANTICS,
    PROP_TO_MODAL,
    PropLogic,
    prove_prop,
)

p, q = Atom("p"), Atom("q")


def test_mapping_matches_the_equivalences():
    assert PROP_TO_MODAL[PropLogic.BPC] == ("b", Logic.K4)
    assert PROP_TO_MODAL[PropLogic.EBPC] == ("b", Logic.KD4)
    assert PROP_TO_MODAL[PropLogic.IPC] == ("b", Logic.S4)
    assert PROP_TO_MODAL[PropLogic.FPL] == ("b", Logic.GL)
    assert PROP_TO_MODAL[PropLogic.MPC] == ("w", Logic.S4)


def test_ipc_ex_falso():
    assert prove_prop(PropLogic.IPC, [], parse_prop("bot -> p")).provable is True


def test_mpc_rejects_ex_falso_with_countermodel():
    v = prove_prop(PropLogic.MPC, [], parse_prop("bot -> p"))
    assert v.provable is False
    assert v.countermodel is not None
    model, node = v.countermodel
    assert check_int(model, node, parse_prop("bot -> p"), "MPC") is False
    assert node in model.valuation[BOT_KEY]


def test_excluded_middle_cpc_vs_ipc():
    em = parse_prop("p \\/ ~p")
    assert prove_prop(PropLogic.CPC, [], em).provable is True
    v = prove_prop(PropLogic.IPC, [], em)
    assert v.provable is False
    assert v.countermodel is not None


def test_bpc_lacks_modus_ponens():
    f = parse_prop("(p /\\ (p -> q)) -> q")
    v = prove_prop(PropLogic.BPC, [], f)
    assert v.provable is False
    assert prove_prop(PropLogic.IPC, [], f).provable is True


def test_fpl_has_loeb_rule_formula():
    # the L' instance ((top -> p) -> p) -> (top -> p) separates FPL from BPC
    f = parse_prop("((top -> p) -> p) -> (top -> p)")
    assert prove_prop(PropLogic.FPL, [], f).provable is True
    assert prove_prop(PropLogic.BPC, [], f).provable is False


def test_ebpc_separates_from_bpc():
    # C' : from top -> bot infer bot, as a deduction
    v = prove_prop(PropLogic.EBPC, [parse_prop("top -> bot")], BOT)
    assert v.provable is True
    assert prove_prop(PropLogic.BPC, [parse_prop("top -> bot")], BOT).provable is False


def test_cpc_entailment_with_gamma():
    assert prove_prop(PropLogic.CPC, [p, Imp(p, q)], q).provable is True
    v = prove_prop(PropLogic.CPC, [p], q)
    assert v.provable is False and v.countermodel is not None


def test_cpc_countermodel_disagreement_raises(monkeypatch):
    # a truth-table countermodel the naive checker does not refute must be
    # caught by an explicit raise, which python -O keeps
    monkeypatch.setattr(provlab.kripke, "check_int", lambda *args: True)
    with pytest.raises(AssertionError, match="re-verification"):
        prove_prop(PropLogic.CPC, [p], q)


def test_fpl_refutation_found_within_the_default_budget():
    # GL search refutes the translation; the scan of one rooted frame per
    # isomorphism class then finds the countermodels before the models
    # budget runs out
    f = parse_prop("p -> q \\/ (q -> p \\/ top -> p -> bot /\\ p)")
    v = prove_prop(PropLogic.FPL, [], f)
    assert v.provable is False
    model, node = v.countermodel
    assert validate_frame(model, int_frame("FPL")) == []
    assert check_int(model, node, f, "FPL") is False
    assert isinstance(v.modal_result, NotProvable)
    assert validate_frame(v.modal_result.model, GL_FRAME) == []
    assert check(v.modal_result.model, v.modal_result.node, v.translated) is False


def test_prop_rejects_boxes():
    with pytest.raises(ValueError):
        prove_prop(PropLogic.IPC, [], Box(p))


def _refutation(logic, f, max_nodes):
    """A countermodel of f on the logic's own frames within max_nodes, or None."""
    return find_entailment_countermodel((), f, int_frame(logic.value), max_nodes)


def test_crosscheck_examples():
    # the translation verdict agrees with the direct semantics on each example
    f = parse_prop("bot -> p")
    assert prove_prop(PropLogic.IPC, (), f).provable is True and _refutation(PropLogic.IPC, f, 4) is None

    v = prove_prop(PropLogic.IPC, (), parse_prop("p \\/ ~p"), countermodel_nodes=4)
    assert v.provable is False and v.countermodel is not None

    f = parse_prop("top -> top")
    assert prove_prop(PropLogic.MPC, (), f).provable is True and _refutation(PropLogic.MPC, f, 2) is None


def prop_formulas(max_leaves=5):
    leaves = st.sampled_from([p, q, BOT, TOP])
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            st.builds(And, sub, sub),
            st.builds(Or, sub, sub),
            st.builds(Imp, sub, sub),
        ),
        max_leaves=max_leaves,
    )


@settings(max_examples=40, deadline=None)
@given(prop_formulas())
def test_inclusion_lattice_on_random_formulas(f):
    verdicts = {
        logic: prove_prop(logic, [], f).provable
        for logic in (PropLogic.BPC, PropLogic.EBPC, PropLogic.IPC, PropLogic.CPC, PropLogic.FPL)
    }
    if None not in verdicts.values():
        if verdicts[PropLogic.BPC]:
            assert verdicts[PropLogic.EBPC] and verdicts[PropLogic.FPL]
        if verdicts[PropLogic.EBPC]:
            assert verdicts[PropLogic.IPC]
        if verdicts[PropLogic.IPC]:
            assert verdicts[PropLogic.CPC]


@settings(max_examples=25, deadline=None)
@given(prop_formulas(max_leaves=4))
def test_no_semantic_refutation_of_provable_formulas(f):
    # CPC is decided by this very search, so only the translated logics are compared
    for logic in DIRECT_SEMANTICS:
        if logic in PROP_TO_MODAL and prove_prop(logic, (), f, countermodel_nodes=0).provable is True:
            assert _refutation(logic, f, 3) is None


def test_bpc_disjunction_property_spot_check():
    # a provable disjunction must have a provable disjunct
    from provlab.corpus import CorpusParams, generate_corpus

    corpus = generate_corpus(CorpusParams(("p", "q"), 5, 0, 400, 3))
    checked = 0
    for f in corpus.formulas:
        if not isinstance(f, Or):
            continue
        if prove_prop(PropLogic.BPC, (), f, countermodel_nodes=0).provable:
            checked += 1
            left = prove_prop(PropLogic.BPC, (), f.left, countermodel_nodes=0).provable
            right = prove_prop(PropLogic.BPC, (), f.right, countermodel_nodes=0).provable
            assert left or right, f
    assert checked > 0
