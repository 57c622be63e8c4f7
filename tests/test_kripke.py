import pytest

from provlab.formulas import Atom, BOT, Box, Imp, Neg, Or, parse_modal, parse_prop
from provlab.kripke import (
    BOT_KEY,
    FrameViolationError,
    GL_FRAME,
    K4_FRAME,
    KD4_FRAME,
    KripkeModel,
    S4_FRAME,
    UnknownNodeError,
    check,
    check_int,
    int_frame,
    validate_frame,
)

p = Atom("p")


def single_irreflexive(**valuation):
    return KripkeModel(("k",), frozenset(), {a: frozenset(ns) for a, ns in valuation.items()},
                       clusters=(frozenset({"k"}),))


def single_reflexive(**valuation):
    return KripkeModel(("k",), frozenset({("k", "k")}),
                       {a: frozenset(ns) for a, ns in valuation.items()},
                       clusters=(frozenset({"k"}),))


def test_check_empty_successor_case():
    m = single_irreflexive()
    assert check(m, "k", parse_modal("[]bot -> bot")) is False


def test_check_loeb_fails_on_reflexive_point():
    m = single_reflexive()
    assert check(m, "k", parse_modal("[]([]p -> p) -> []p")) is False


def test_check_two_node_chain():
    m = KripkeModel(("k", "l"), frozenset({("k", "l")}), {"p": frozenset({"l"})})
    assert check(m, "k", Box(p)) is True
    assert check(m, "k", p) is False


def test_check_unknown_node():
    with pytest.raises(UnknownNodeError):
        check(single_irreflexive(), "zz", p)


def test_check_missing_atom_is_false():
    assert check(single_reflexive(), "k", Atom("unheard_of")) is False


def test_classical_and_persistent_readings_of_one_model():
    # k -> l with p only at l: classically ~p and p -> bot hold at k; read
    # persistently (BPC) they fail, because the successor l forces p
    m = KripkeModel(("k", "l"), frozenset({("k", "l")}), {"p": frozenset({"l"})})
    for f in (Neg(p), Imp(p, BOT)):
        assert check(m, "k", f) is True
        assert check_int(m, "k", f, "BPC") is False


def test_check_int_rejects_box():
    with pytest.raises(TypeError):
        check_int(single_reflexive(), "k", Box(p), "IPC")


def test_check_int_mpc_bot_forcing_node():
    # the MPC/IPC separation witness: a single reflexive node forcing
    # bot but not p refutes bot -> p under MPC
    m = single_reflexive(**{BOT_KEY: {"k"}})
    assert check_int(m, "k", parse_prop("bot -> p"), "MPC") is False
    assert check_int(m, "k", parse_prop("bot -> p"), "IPC") is True


def test_check_int_ipc_excluded_middle_countermodel():
    m = KripkeModel(
        ("k", "l"),
        frozenset({("k", "k"), ("l", "l"), ("k", "l")}),
        {"p": frozenset({"l"})},
    )
    f = parse_prop("p \\/ ~p")
    assert check_int(m, "k", f, "IPC") is False
    assert check_int(m, "l", f, "IPC") is True


def test_check_int_top_imp_top():
    m = single_reflexive()
    for flavor in ("BPC", "IPC", "MPC", "CPC"):
        assert check_int(m, "k", parse_prop("top -> top"), flavor) is True


def test_check_int_rejects_bad_frame():
    irrefl = KripkeModel(("k",), frozenset(), {})
    with pytest.raises(FrameViolationError):
        check_int(irrefl, "k", p, "IPC")


def test_check_int_persistence_of_compound_formulas():
    # persistence lifts from atoms to all formulas on valid frames
    m = KripkeModel(
        ("a", "b", "c"),
        frozenset({("a", "a"), ("b", "b"), ("c", "c"), ("a", "b"), ("a", "c"), ("b", "c")}),
        {"p": frozenset({"b", "c"}), "q": frozenset({"c"})},
    )
    for f in (parse_prop("p -> q"), parse_prop("p \\/ q"), parse_prop("~p"), parse_prop("p /\\ q")):
        for k, l in m.relation:
            if check_int(m, k, f, "IPC"):
                assert check_int(m, l, f, "IPC")


def test_validate_frame_irreflexivity_violation():
    m = KripkeModel(("k",), frozenset({("k", "k")}), {})
    violations = validate_frame(m, GL_FRAME)
    assert ("irreflexivity", ("k",)) in violations


def test_validate_frame_transitivity_violation():
    m = KripkeModel(
        ("a", "b", "c"),
        frozenset({("a", "b"), ("b", "c")}),
        {},
        clusters=(frozenset({"a"}), frozenset({"b"}), frozenset({"c"})),
    )
    violations = validate_frame(m, K4_FRAME)
    assert ("transitivity", ("a", "b", "c")) in violations


def test_validate_frame_accepts_cluster_tree():
    m = KripkeModel(
        ("a", "b", "c"),
        frozenset({("a", "b"), ("a", "c"), ("b", "c"), ("c", "b"), ("b", "b"), ("c", "c")}),
        {},
        clusters=(frozenset({"a"}), frozenset({"b", "c"})),
    )
    assert validate_frame(m, K4_FRAME) == []
    assert ("reflexivity", ("a",)) in validate_frame(m, S4_FRAME)
    assert validate_frame(m, KD4_FRAME) == []


def test_validate_frame_rejects_wrong_cluster_split():
    m = KripkeModel(
        ("b", "c"),
        frozenset({("b", "c"), ("c", "b"), ("b", "b"), ("c", "c")}),
        {},
        clusters=(frozenset({"b"}), frozenset({"c"})),
    )
    assert any(v[0] == "quotient-not-antisymmetric" for v in validate_frame(m, K4_FRAME))


def test_validate_frame_forest_is_not_a_tree():
    m = KripkeModel(
        ("a", "b"),
        frozenset(),
        {},
        clusters=(frozenset({"a"}), frozenset({"b"})),
    )
    assert any(v[0] == "quotient-not-a-single-rooted-tree" for v in validate_frame(m, K4_FRAME))


def test_validate_frame_seriality():
    m = KripkeModel(("a",), frozenset(), {}, clusters=(frozenset({"a"}),))
    assert ("seriality", ("a",)) in validate_frame(m, KD4_FRAME)


def test_validate_frame_persistence():
    m = KripkeModel(
        ("a", "b"),
        frozenset({("a", "a"), ("b", "b"), ("a", "b")}),
        {"p": frozenset({"a"})},
    )
    assert ("persistence", ("p", "a", "b")) in validate_frame(m, int_frame("IPC"))


def test_validate_frame_cpc_single_node():
    m = KripkeModel(("a", "b"), frozenset({("a", "a"), ("b", "b")}), {})
    assert any(v[0] == "one-node" for v in validate_frame(m, int_frame("CPC")))


def test_json_round_trip():
    m = KripkeModel(
        ("k0", "k1", "k2"),
        frozenset({("k0", "k1"), ("k0", "k2"), ("k1", "k2"), ("k2", "k1"), ("k1", "k1"), ("k2", "k2")}),
        {"p": frozenset({"k1"})},
        clusters=(frozenset({"k0"}), frozenset({"k1", "k2"})),
    )
    again = KripkeModel.from_json(m.to_json())
    assert again.nodes == m.nodes
    assert again.relation == m.relation
    assert again.valuation == m.valuation
    assert again.clusters == m.clusters


def test_dot_export():
    m = KripkeModel(("k0", "k1"), frozenset({("k0", "k1")}), {"p": frozenset({"k1"})},
                    clusters=(frozenset({"k0"}), frozenset({"k1"})))
    dot = m.to_dot(refuting="k0")
    assert "subgraph cluster_0" in dot
    assert '"k0" -> "k1";' in dot
    assert "peripheries=2" in dot
    assert dot.startswith("digraph")
