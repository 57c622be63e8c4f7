import hashlib
import json
import random

import pytest

from provlab.corpus import DEFAULT_PARAMS, generate_corpus
from provlab.formulas import And, Atom, BOT, Bot, Box, Imp, Neg, Or, Top, modal_degree, parse_modal, parse_prop
from provlab.frames import enumerate_models
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


def test_check_int_rejects_any_formula_with_a_box():
    # the box is rejected wherever it stands, also where the node's truth
    # would not depend on it: p holds at k, so p \/ []q would read true
    m = single_reflexive(p={"k"})
    for text in ("p \\/ []q", "[]q -> p", "~~[]q /\\ p"):
        with pytest.raises(TypeError):
            check_int(m, "k", parse_modal(text), "IPC")


def test_forcing_returns_on_deep_formulas():
    m = KripkeModel(("k", "l"), frozenset({("k", "k"), ("k", "l"), ("l", "l")}), {"p": frozenset({"l"})})
    boxes, negs, imps = p, p, p
    for _ in range(5000):
        boxes, negs, imps = Box(boxes), Neg(negs), Imp(p, imps)
    assert check(m, "k", boxes) is False and check(m, "l", boxes) is True
    assert check(m, "l", negs) is True
    assert check(m, "k", imps) is True
    for flavor in ("IPC", "BPC"):
        # 5000 negations read as two: no node forces ~p, so ~~p holds everywhere
        assert check_int(m, "k", negs, flavor) is True
        assert check_int(m, "k", Neg(negs), flavor) is False
        assert check_int(m, "k", imps, flavor) is True


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


# --- forcing, pinned on every small model and checked against a reference ---

def _reference(model, node, f, flavor=None):
    """Point-wise forcing read straight off the clauses, with no memo: the
    oracle of the differential test, independent of kripke's checker."""
    def succ(k):
        return [m for a, m in sorted(model.relation) if a == k]

    def force(k, g):
        match g:
            case Atom(name):
                return k in model.valuation.get(name, ())
            case Bot():
                return flavor == "MPC" and k in model.valuation.get(BOT_KEY, ())
            case Top():
                return True
            case Neg(sub):
                return not force(k, sub) if flavor is None else force(k, Imp(sub, BOT))
            case And(l, r):
                return force(k, l) and force(k, r)
            case Or(l, r):
                return force(k, l) or force(k, r)
            case Imp(l, r) if flavor is None:
                return not force(k, l) or force(k, r)
            case Imp(l, r):
                return all(force(m, r) for m in succ(k) if force(m, l))
            case Box(sub) if flavor is None:
                return all(force(m, sub) for m in succ(k))
        raise TypeError(g)

    return force(node, f)


PIN_FLAVORS = ("BPC", "IPC", "FPL", "MPC")


def _pin_formulas():
    corpus = generate_corpus(DEFAULT_PARAMS).formulas
    box_free = [f for f in corpus if modal_degree(f) == 0]
    return corpus[::125], box_free[::365]


def _int_models(flavor, n=3):
    return enumerate_models(n, int_frame(flavor), ["p", "q"] + ([BOT_KEY] if flavor == "MPC" else []))


# sha256 of check at every node of every model of up to 3 nodes over p, q in
# the K4 class, for 16 default-corpus formulas, then of check_int on the
# persistent models of up to 3 nodes (bot an atom under MPC) of BPC, IPC, FPL
# and MPC, for 4 box-free ones; recorded on the point-wise checker.
FORCING_DIGEST = "beed1db8a493772dbaf71a97a551435ab4da826600072ee8d6b687bad4233dbf"
FORCING_COUNTS = (35483, 19924, 2814, 2612, 14930)


def test_forcing_is_pinned():
    modal, box_free = _pin_formulas()
    h = hashlib.sha256()
    counts = []
    models = list(enumerate_models(3, K4_FRAME, ["p", "q"]))
    res = [[check(m, k, f) for m in models for k in m.nodes] for f in modal]
    counts.append(sum(map(sum, res)))
    h.update(json.dumps(res).encode())
    for flavor in PIN_FLAVORS:
        models = list(_int_models(flavor))
        res = [[check_int(m, k, f, flavor) for m in models for k in m.nodes] for f in box_free]
        counts.append(sum(map(sum, res)))
        h.update(json.dumps(res).encode())
    assert (h.hexdigest(), tuple(counts)) == (FORCING_DIGEST, FORCING_COUNTS)


def test_forcing_matches_a_pointwise_reference():
    # random graphs (any relation, not only the frame classes) for check; the
    # persistent models of up to 2 nodes for check_int
    rng = random.Random(5)
    corpus = generate_corpus(DEFAULT_PARAMS).formulas
    box_free = [f for f in corpus if modal_degree(f) == 0]
    checked = 0
    for _ in range(150):
        nodes = tuple(f"n{i}" for i in range(rng.randint(1, 4)))
        rel = frozenset((a, b) for a in nodes for b in nodes if rng.random() < 0.4)
        val = {a: frozenset(k for k in nodes if rng.random() < 0.5) for a in ("p", "q")}
        m = KripkeModel(nodes, rel, val)
        for f in rng.sample(corpus, 4):
            for k in nodes:
                assert check(m, k, f) is _reference(m, k, f)
                checked += 1
    for flavor in PIN_FLAVORS:
        for m in _int_models(flavor, 2):
            for f in rng.sample(box_free, 3):
                for k in m.nodes:
                    assert check_int(m, k, f, flavor) is _reference(m, k, f, flavor)
                    checked += 1
    assert checked > 2000


# --- frame validation: whole violation lists, content and order ---

def _transitivity_walk(model):
    """Every (a, b, c) with a R b R c and not a R c, in the order of the
    successor sets' iteration: the seed's triple walk, kept as the oracle."""
    return [("transitivity", (a, b, c)) for a in model.nodes for b in model.successors(a)
            for c in model.successors(b) if (a, c) not in model.relation]


def _persistence_walk(model):
    return [("persistence", (atom, k, m)) for atom, ns in model.valuation.items()
            for k in ns for m in model.successors(k) if m not in ns]


def test_validate_frame_lists_are_pinned():
    # each node has at most one successor and each atom one node, so that the
    # order does not depend on how a frozenset iterates
    chain = KripkeModel(("a", "b", "c", "d"), frozenset({("a", "b"), ("b", "c"), ("c", "d")}),
                        {"p": frozenset({"a"}), "q": frozenset({"c"})})
    assert validate_frame(chain, GL_FRAME) == [
        ("transitivity", ("a", "b", "c")), ("transitivity", ("b", "c", "d"))]
    assert validate_frame(chain, int_frame("BPC")) == [
        ("transitivity", ("a", "b", "c")), ("transitivity", ("b", "c", "d")),
        ("persistence", ("p", "a", "b")), ("persistence", ("q", "c", "d"))]
    assert validate_frame(chain, int_frame("IPC")) == validate_frame(chain, int_frame("BPC")) + [
        ("reflexivity", (k,)) for k in chain.nodes]
    clustered = KripkeModel(chain.nodes, chain.relation, {},
                            clusters=tuple(frozenset(k) for k in chain.nodes))
    assert validate_frame(clustered, KD4_FRAME) == [
        ("transitivity", ("a", "b", "c")), ("transitivity", ("b", "c", "d")), ("seriality", ("d",))]
    loop = KripkeModel(("a", "b"), frozenset({("a", "b"), ("b", "a")}), {"p": frozenset({"a"})})
    assert validate_frame(loop, int_frame("FPL")) == [
        ("transitivity", ("a", "b", "a")), ("transitivity", ("b", "a", "b")),
        ("persistence", ("p", "a", "b"))]


def test_validate_frame_lists_match_the_triple_walk():
    rng = random.Random(11)
    broken = 0
    for _ in range(300):
        nodes = tuple(f"n{i}" for i in range(rng.randint(1, 5)))
        rel = frozenset((a, b) for a in nodes for b in nodes if rng.random() < 0.35)
        val = {a: frozenset(k for k in nodes if rng.random() < 0.5) for a in ("p", "q")}
        m = KripkeModel(nodes, rel, val)
        expected = _transitivity_walk(m) + _persistence_walk(m)
        assert validate_frame(m, int_frame("BPC")) == expected
        broken += bool(expected)
    assert broken > 150
