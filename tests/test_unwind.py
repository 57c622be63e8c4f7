import hashlib
import importlib
import itertools
import json
import random

import pytest

from provlab.formulas import Atom, Box, Imp, Neg, parse_modal
from provlab.frames import enumerate_models, frames_of_size, frame_model
from provlab.kripke import (
    FrameViolationError,
    GL_FRAME,
    K4_FRAME,
    KripkeModel,
    UnknownNodeError,
    check,
    validate_frame,
)
from provlab.provability import (
    InvalidWitnessError,
    WitnessLengthError,
    canonical_witness,
    translate_k4_to_gl,
)
from provlab.unwind import QAtomCollision, claim2_holds, t_complexity, unwind, verify_transfer

p, q = Atom("p"), Atom("q")


def reflexive_point(p_true: bool) -> KripkeModel:
    return KripkeModel(
        ("k",),
        frozenset({("k", "k")}),
        {"p": frozenset({"k"} if p_true else ())},
        clusters=(frozenset({"k"}),),
    )


def irreflexive_point() -> KripkeModel:
    return KripkeModel(("k",), frozenset(), {"p": frozenset()}, clusters=(frozenset({"k"}),))


def test_t_complexity_atom():
    assert t_complexity(p, ())[()] == -1


def test_t_complexity_single_box():
    out = t_complexity(Box(p), (0,))
    assert out[()] == 0
    assert out[(0,)] == -1


def test_t_complexity_worked_example():
    f = parse_modal("[]p -> [][]p")
    out = t_complexity(f, (1, 2, 1))
    assert out[()] == 2
    assert out[(0,)] == 1  # the left box
    assert out[(1,)] == 2  # the right outer box
    assert out[(1, 0)] == 1  # the right inner box


def test_unwind_irreflexive_node_is_identity():
    m = irreflexive_point()
    out = unwind(m, Box(p), (0,))
    assert out.nodes == ("k",)
    assert out.relation == frozenset()
    assert out.valuation["q0"] == frozenset({"k"})


def test_unwind_reflexive_singleton_box_p():
    # one reflexive node with p true, a = []p, t = (0): paths (k) and (k,k),
    # q0 true on both, and (k) models the translated [](q0 -> p)
    m = reflexive_point(p_true=True)
    out = unwind(m, Box(p), (0,))
    assert set(out.nodes) == {"k", "k|k"}
    assert out.relation == frozenset({("k", "k|k")})
    assert out.valuation["q0"] == frozenset({"k", "k|k"})
    assert out.valuation["p"] == frozenset({"k", "k|k"})
    assert check(out, "k", parse_modal("[](q0 -> p)")) is True
    assert validate_frame(out, GL_FRAME) == []


def test_unwind_output_always_gl():
    rng = random.Random(0)
    models = list(enumerate_models(3, K4_FRAME, ["p"]))
    for m in rng.sample(models, 40):
        out = unwind(m, Box(p), (1,))
        assert validate_frame(out, GL_FRAME) == []


def test_unwind_rejects_bad_frame():
    bad = KripkeModel(("a",), frozenset({("a", "a")}), {}, clusters=None)
    with pytest.raises(FrameViolationError):
        unwind(bad, Box(p), (0,))


def test_unwind_rejects_q_collision():
    m = KripkeModel(("k",), frozenset(), {"q0": frozenset({"k"})}, clusters=(frozenset({"k"}),))
    with pytest.raises(QAtomCollision):
        unwind(m, Box(p), (0,))


def test_unwind_rejects_invalid_translation():
    with pytest.raises(InvalidWitnessError):
        unwind(irreflexive_point(), Box(Box(p)), (0, 1))


def test_path_census_reflexive_cluster():
    # for a reflexive cluster of size c the unwound piece has all R-paths of
    # length <= n+2; brute-force path enumeration is the oracle
    for c, t in ((1, (0,)), (2, (0,)), (2, (1, 0)), (3, ())):
        nodes = tuple(f"m{i}" for i in range(c))
        rel = frozenset((a, b) for a in nodes for b in nodes)
        m = KripkeModel(nodes, rel, {}, clusters=(frozenset(nodes),))
        f = Box(Box(p)) if len(t) == 2 else (Box(p) if len(t) == 1 else p)
        n = max(t) if t else -1
        out = unwind(m, f, t)
        walks = 0
        for length in range(1, n + 3):
            for seq in itertools.product(nodes, repeat=length):
                if all((seq[i], seq[i + 1]) in rel for i in range(len(seq) - 1)):
                    walks += 1
        assert len(out.nodes) == walks == sum(c**L for L in range(1, n + 3))


# sha256 of the unwound models' JSON, which keeps the node order, over every
# 3-node K4 model with a fixed formula of degree <= 2 and witness start 0-1.
UNWIND_DIGEST = "058b3747c7b5f99501064848dcfa97a3e9326e805511714ee00f8ca85400896c"


PINNED_TEXTS = ("[]p", "[]p -> [][]p", "~[](~[]p /\\ q)", "[](p \\/ q) -> []p \\/ []q", "p /\\ []([]q -> p)")


def _pinned_instances():
    """Every 3-node K4 model, with the formulas and translations of the pins."""
    fs = [parse_modal(s) for s in PINNED_TEXTS]
    for i, m in enumerate(enumerate_models(3, K4_FRAME, ["p", "q"])):
        f = fs[i % len(fs)]
        yield i, m, f, canonical_witness(f, i % 2)


def test_unwinding_is_pinned():
    h = hashlib.sha256()
    for i, m, f, t in _pinned_instances():
        out = unwind(m, f, t)
        h.update(json.dumps(out.to_json(), sort_keys=True).encode())
    assert i + 1 == 1432
    assert h.hexdigest() == UNWIND_DIGEST


# sha256 of (verify_transfer at each node, claim2_holds) over the instances of
# test_unwinding_is_pinned, recorded before the unwinding was cached.
TRANSFER_DIGEST = "a0bb09cff38cf1b00e8cf2042c1bcaae968f314e0dad2d0885577ca030960478"


def test_transfer_results_are_pinned():
    h = hashlib.sha256()
    for i, m, f, t in _pinned_instances():
        res = [[verify_transfer(m, f, t, k) for k in m.nodes], claim2_holds(m, f, t)]
        h.update(json.dumps(res).encode())
    assert i + 1 == 1432
    assert h.hexdigest() == TRANSFER_DIGEST


def test_transfer_fails_on_a_wrong_translation(monkeypatch):
    # the negative control of the pin above: both checks must read the
    # translation they are given, not a cached or vacuous answer
    uw = importlib.import_module("provlab.unwind")
    monkeypatch.setattr(uw, "translate_k4_to_gl", lambda a, t: Neg(translate_k4_to_gl(a, t)))
    m = reflexive_point(p_true=True)  # a fresh model object: nothing cached for it
    assert verify_transfer(m, Box(p), (0,), "k") is False
    assert claim2_holds(m, Box(p), (0,)) is False


def test_cached_unwinding_is_keyed_by_model_formula_and_translation():
    # a reflexive 2-cluster below an irreflexive node, so the translation's top
    # entry changes the unwinding; []p and ~[]p take the same translations,
    # and the transfer fails if either is checked against the other's
    m = KripkeModel(
        ("a", "b", "c"),
        frozenset({("a", "a"), ("a", "b"), ("b", "a"), ("b", "b"), ("a", "c"), ("b", "c")}),
        {"p": frozenset({"a", "c"})},
        clusters=(frozenset({"a", "b"}), frozenset({"c"})),
    )
    copy = KripkeModel.from_json(m.to_json())
    other = reflexive_point(p_true=True)
    f, g = Box(p), Neg(Box(p))
    steps = [(m, f, (0,)), (m, f, (2,)), (m, g, (2,)), (copy, g, (2,)), (other, g, (2,)), (m, f, (0,))]
    fresh = [unwind(KripkeModel.from_json(x.to_json()), a, t).to_json() for x, a, t in steps]
    assert fresh[0] != fresh[1] and fresh[4] != fresh[3]
    for (x, a, t), expected in zip(steps, fresh):
        assert all(verify_transfer(x, a, t, k) for k in x.nodes)
        assert claim2_holds(x, a, t)
        assert unwind(x, a, t).to_json() == expected
        # a new triple runs every input check again, even next to a cached one
        with pytest.raises(InvalidWitnessError):
            unwind(x, Box(a), t + t)
        with pytest.raises(WitnessLengthError):
            verify_transfer(x, a, t + (0,), x.nodes[0])


def test_verify_transfer_reflexive_example():
    m = reflexive_point(p_true=True)
    assert verify_transfer(m, Box(p), (0,), "k") is True
    with pytest.raises(UnknownNodeError):
        verify_transfer(m, Box(p), (0,), "zz")


def test_verify_transfer_vacuous_boxes():
    m = irreflexive_point()
    assert verify_transfer(m, parse_modal("[]bot"), (0,), "k") is True


def test_verify_transfer_negative_half():
    # p false at the reflexive point: []p fails there and the translation
    # fails at the corresponding path
    m = reflexive_point(p_true=False)
    assert check(m, "k", Box(p)) is False
    assert verify_transfer(m, Box(p), (0,), "k") is True


def test_claim2_on_sampled_instances():
    rng = random.Random(7)
    formulas = [
        parse_modal(s)
        for s in ("[]p", "[]p -> [][]p", "[](p \\/ q)", "~[](~[]p /\\ p)", "[]p /\\ []q -> [](p /\\ q)")
    ]
    models = list(enumerate_models(3, K4_FRAME, ["p", "q"]))
    checked_false = 0
    for _ in range(30):
        m = rng.choice(models)
        f = rng.choice(formulas)
        t = canonical_witness(f, rng.randrange(0, 2))
        assert claim2_holds(m, f, t)
        checked_false += sum(not check(m, k, f) for k in m.nodes)
    assert checked_false > 0  # the negative half of the claim was exercised
