import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from provlab.budget import Budget
from provlab.calculus import Logic, check_derivation
from provlab.formulas import (
    Atom,
    BOT,
    TOP,
    And,
    Box,
    Imp,
    Neg,
    Or,
    Sequent,
    parse_modal,
    print_formula,
)
from provlab.frames import find_countermodel
from provlab.kripke import check, validate_frame
from provlab.prover import (
    FRAME_OF_LOGIC,
    Exhausted,
    NotProvable,
    Provable,
    derives,
    gls_reduce,
    normalize_top,
    prove,
    search_provable,
)

p, q = Atom("p"), Atom("q")


def assert_provable(logic, text_or_seq):
    s = text_or_seq if isinstance(text_or_seq, Sequent) else Sequent((), (parse_modal(text_or_seq),))
    res = prove(logic, s)
    assert isinstance(res, Provable), (logic, text_or_seq, res)
    target = Logic.GL if logic == Logic.GLS else logic
    assert check_derivation(target, res.derivation)
    return res


def assert_not_provable(logic, text_or_seq):
    s = text_or_seq if isinstance(text_or_seq, Sequent) else Sequent((), (parse_modal(text_or_seq),))
    res = prove(logic, s)
    assert isinstance(res, NotProvable), (logic, text_or_seq, res)
    return res


def test_gl_loeb():
    assert_provable(Logic.GL, "[]([]p -> p) -> []p")


def test_k4_axiom_four():
    assert_provable(Logic.K4, "[]p -> [][]p")


def test_kd4_consistency():
    assert_provable(Logic.KD4, "~[]bot")
    assert_not_provable(Logic.K4, "~[]bot")


def test_s4_axiom_t():
    assert_provable(Logic.S4, "[]p -> p")


def test_s4_proves_nested_negation_theorem():
    assert_provable(Logic.S4, "~[](~[]p /\\ p)")


def test_gls_reflection():
    res = assert_provable(Logic.GLS, "[]p -> p")
    assert res.reduction is not None


def test_gls_not_provable_carries_reduction_instance():
    # GLS gets no frame class of its own: the evidence is the failed
    # reduction instance together with its GL countermodel
    res = prove(Logic.GLS, Sequent((), (p,)))
    assert isinstance(res, NotProvable)
    assert res.reduction == Imp(TOP, p)
    assert check(res.model, res.node, res.reduction) is False
    assert validate_frame(res.model, FRAME_OF_LOGIC[Logic.GL]) == []


def test_k4_reflection_fails_with_countermodel():
    res = assert_not_provable(Logic.K4, "[]p -> p")
    assert len(res.model.nodes) == 1
    assert validate_frame(res.model, FRAME_OF_LOGIC[Logic.K4]) == []
    assert check(res.model, res.node, parse_modal("[]p -> p")) is False


def test_derives_k_distribution():
    res = derives(Logic.K4, [parse_modal("[](p -> q)"), parse_modal("[]p")], parse_modal("[]q"))
    assert isinstance(res, Provable)
    assert check_derivation(Logic.K4, res.derivation)


def test_derives_s4_t():
    assert isinstance(derives(Logic.S4, [Box(p)], p), Provable)


def test_derives_gl_no_necessitation_of_premises():
    res = derives(Logic.GL, [p], Box(p))
    assert isinstance(res, NotProvable)
    assert check(res.model, res.node, Imp(p, Box(p))) is False


def test_gls_reduce_single_box():
    f = parse_modal("[]p -> p")
    assert print_formula(gls_reduce(f)) == "([]p -> p) -> []p -> p"


def test_gls_reduce_no_boxes():
    assert gls_reduce(p) == Imp(TOP, p)


def test_gls_reduce_enumerates_boxed_subformulas():
    f = parse_modal("[]([]p -> p) -> []p")
    red = gls_reduce(f)
    # reflection instances for [](...->...) and []p, in occurrence order
    left = red.left
    assert left == And(
        Imp(Box(Imp(Box(p), p)), Imp(Box(p), p)),
        Imp(Box(p), p),
    )
    assert red.right == f


def test_top_is_provable_everywhere():
    for logic in (Logic.K4, Logic.KD4, Logic.S4, Logic.GL, Logic.GLS):
        assert_provable(logic, "top")
        assert_provable(logic, "p -> top")
        assert_provable(logic, "[]top")


def test_derivation_root_matches_input_multiset():
    s = Sequent((parse_modal("[]p"), parse_modal("[]p"), parse_modal("[]p")), (parse_modal("[][]p"),))
    res = prove(Logic.K4, s)
    assert isinstance(res, Provable)
    assert sorted(map(print_formula, res.derivation.sequent.ante)) == ["[]p", "[]p", "[]p"]
    assert check_derivation(Logic.K4, res.derivation)


def test_order_insensitivity():
    a = Sequent((p, Box(p), Neg(q)), (q, Box(Box(p))))
    b = Sequent((Neg(q), p, Box(p)), (Box(Box(p)), q))
    ra = prove(Logic.K4, a)
    rb = prove(Logic.K4, b)
    assert type(ra) is type(rb)


def test_monotonicity_spot_checks():
    four = "[]p -> [][]p"
    for logic in (Logic.K4, Logic.KD4, Logic.S4, Logic.GL, Logic.GLS):
        assert_provable(logic, four)
    assert_not_provable(Logic.K4, "[]p -> p")
    assert_not_provable(Logic.GL, "[]p -> p")
    assert_provable(Logic.S4, "[]p -> p")
    assert_provable(Logic.GLS, "[]p -> p")
    # Loeb holds in GL and GLS but not S4
    assert_provable(Logic.GL, "[]([]p -> p) -> []p")
    assert_not_provable(Logic.S4, "[]([]p -> p) -> []p")


def test_empty_sequent_not_provable():
    res = prove(Logic.K4, Sequent((), ()))
    assert isinstance(res, NotProvable)


def test_search_budget_exhaustion_reported():
    res = prove(Logic.S4, Sequent((), (parse_modal("[](p \\/ q) -> []p \\/ []q"),)), Budget(steps=3))
    assert isinstance(res, Exhausted)


def formulas(max_leaves=5):
    leaves = st.sampled_from([p, q, BOT, TOP])
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            st.builds(Neg, sub),
            st.builds(Box, sub),
            st.builds(And, sub, sub),
            st.builds(Or, sub, sub),
            st.builds(Imp, sub, sub),
        ),
        max_leaves=max_leaves,
    )


@settings(max_examples=60, deadline=None)
@given(formulas(), st.sampled_from([Logic.K4, Logic.KD4, Logic.S4, Logic.GL]))
def test_prover_verdicts_agree_with_bounded_enumeration(f, logic):
    s = Sequent((), (f,))
    res = prove(logic, s)
    if isinstance(res, Provable):
        assert check_derivation(logic, res.derivation)
        assert find_countermodel(f, FRAME_OF_LOGIC[logic], 3) is None
    elif isinstance(res, NotProvable):
        assert validate_frame(res.model, FRAME_OF_LOGIC[logic]) == []
        assert check(res.model, res.node, f) is False


@settings(max_examples=40, deadline=None)
@given(formulas(), st.sampled_from([Logic.K4, Logic.KD4, Logic.S4, Logic.GL]))
def test_search_provable_matches_prove(f, logic):
    s = Sequent((), (f,))
    res = prove(logic, s)
    if not isinstance(res, Exhausted):
        assert search_provable(logic, s) == isinstance(res, Provable)


def test_normalize_top_keeps_top_free_nodes():
    f = parse_modal("[](p -> q) /\\ ~p")
    assert normalize_top(f) is f
    g = parse_modal("[](p -> top) /\\ ~p")
    assert normalize_top(g) == parse_modal("[](p -> ~bot) /\\ ~p")
    assert normalize_top(g).right is g.right


# (logic, goal, result type, budget.steps_used, sha256 of the derivation's sorted JSON).
# Together the provable cases emit every primitive rule the replay produces:
# the axioms, weakening, contraction, the eight propositional rules, BoxL,
# Box4R, BoxDR, BoxSR and GLR.  The not-provable cases run through the memo
# and the loop check.
REPLAY_PINS = [
    ("K4", "[]p -> [][]p", "Provable", 3, "9fd976ada94a8775538976fe42eb9c5667d4fbd24d02e702234bfe0e7ea2ace3"),
    ("K4", "(p -> q) -> ~q -> ~p", "Provable", 7, "0826d4056508aed762fb3a54a4e1c0c25c40dd96d03bcd95277a013074f06c19"),
    ("K4", "p /\\ q -> q /\\ p", "Provable", 5, "06861660c5f632dad47a24d768b9c7dc59464ba08bd3807a7048cb676c81ef14"),
    ("K4", "p \\/ q -> q \\/ p", "Provable", 5, "d613cdf682ca439df9c2bfdf8545803ce31ac54a17c018a971f5e79e16051870"),
    ("KD4", "~[]bot", "Provable", 3, "fd19e5aa87c672f20e4287c4ee989165500d83e825ea3f0727d984a88493c5ab"),
    ("S4", "[]p -> p", "Provable", 3, "72401e7996e19399e7a760b800680a91a26f8f000e41109fade3ad7a2ee2ef31"),
    ("S4", "[](p -> q) -> []p -> []q", "Provable", 12, "79babb524d3e6cec591f53d48e392c9bf497810ad1cc8bbd08615cd8fe699724"),
    ("GL", "[]([]p -> p) -> []p", "Provable", 5, "8e335406708463a34d3a3e83cc29c58d0c4b3b803231915cbde5aee0c89346be"),
    ("GLS", "[]p -> p", "Provable", 2, "2a9107e2f351b0a8d92bb42011bc8f99452ed200513ddc8ac74c1ce2b31ed9e4"),
    ("S4", "[]([]p -> p) -> []p", "NotProvable", 10, None),
    ("K4", "[]p -> p", "NotProvable", 2, None),
]


def _rules_used(d, out):
    out.add(d.rule)
    for sub in d.premises:
        _rules_used(sub, out)
    return out


@pytest.mark.parametrize("logic,text,kind,steps,digest", REPLAY_PINS, ids=[f"{c[0]}:{c[1]}" for c in REPLAY_PINS])
def test_replay_shapes_are_pinned(logic, text, kind, steps, digest):
    budget = Budget()
    res = prove(Logic[logic], Sequent((), (parse_modal(text),)), budget)
    assert type(res).__name__ == kind
    assert budget.steps_used == steps
    if digest is not None:
        body = json.dumps(res.derivation.to_json(), sort_keys=True)
        assert hashlib.sha256(body.encode()).hexdigest() == digest


def test_replay_pins_cover_every_primitive_rule():
    used = set()
    for logic, text, kind, _, _ in REPLAY_PINS:
        if kind == "Provable":
            _rules_used(prove(Logic[logic], Sequent((), (parse_modal(text),))).derivation, used)
    assert used == {
        "Axiom-Id", "Axiom-Bot", "wL", "wR", "cL", "cR",
        "AndL", "AndR", "OrL", "OrR", "ImpL", "ImpR", "NegL", "NegR",
        "BoxL", "Box4R", "BoxDR", "BoxSR", "GLR",
    }


def test_exhausted_reason_names_the_largest_bound_searched():
    s = Sequent((), (parse_modal("[]p \\/ []~p"),))
    res = prove(Logic.K4, s, Budget(max_nodes=1, escalate_nodes=0))
    assert isinstance(res, Exhausted)
    assert res.reason == "no countermodel within 1 nodes"
    res = prove(Logic.K4, s, Budget(max_nodes=1, escalate_nodes=1))
    assert res.reason == "no countermodel within 1 nodes"


def test_escalation_scans_each_size_once():
    # the first countermodel needs two nodes, past max_nodes: escalation
    # charges one scan of sizes 1..3, not a scan of size 1 and then another
    s = Sequent((), (parse_modal("[]p \\/ []~p"),))
    budget = Budget(max_nodes=1, escalate_nodes=3)
    res = prove(Logic.K4, s, budget)
    single = Budget()
    hit = find_countermodel(s.formula(), FRAME_OF_LOGIC[Logic.K4], 3, single)
    assert isinstance(res, NotProvable) and len(res.model.nodes) == 2
    assert (res.model.to_json(), res.node) == (hit[0].to_json(), hit[1])
    assert budget.models_used == single.models_used
