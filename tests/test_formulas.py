import dataclasses
import os
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from provlab.corpus import DEFAULT_PARAMS, generate_corpus
from provlab.formulas import (
    Atom,
    BOT,
    TOP,
    And,
    Box,
    Bot,
    FormulaSyntaxError,
    Imp,
    Neg,
    Or,
    ReservedAtomError,
    Sequent,
    Top,
    atoms,
    box_occurrences,
    boxes_within,
    conj,
    count_boxes,
    disj,
    is_box_free,
    modal_degree,
    neg_as_imp,
    parse_modal,
    parse_prop,
    print_formula,
    print_sequent,
    size,
    subformula_at,
    subformula_occurrences,
)
from provlab.provability import canonical_witness, translation_valid
from provlab.prover import gls_reduce
from provlab.unwind import t_complexity

p, q, r = Atom("p"), Atom("q"), Atom("r")


def formulas(max_leaves=6, atom_names=("p", "q")):
    leaves = st.sampled_from([Atom(a) for a in atom_names] + [BOT, TOP])
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


def test_parse_box_imp():
    assert parse_modal("[]([]p -> p)") == Box(Imp(Box(p), p))


def test_parse_nested_negation_shape():
    # the S4 theorem ~[](~[]p /\ p)
    assert parse_modal("~[](~[]p /\\ p)") == Neg(Box(And(Neg(Box(p)), p)))


def test_parse_imp_right_associative():
    assert parse_modal("p -> q -> r") == Imp(p, Imp(q, r))


def test_parse_incomplete_input_position():
    with pytest.raises(FormulaSyntaxError) as err:
        parse_modal("[]")
    assert err.value.position == 2


def test_parse_bad_character_position():
    with pytest.raises(FormulaSyntaxError) as err:
        parse_modal("p /\\ ?q")
    assert err.value.position == 5


def test_parse_constants():
    assert parse_modal("bot") == BOT
    assert parse_modal("top") == TOP


def test_print_box_chain():
    assert print_formula(Box(Box(p))) == "[][]p"


def test_print_imp_of_and():
    assert print_formula(Imp(And(p, q), r)) == "p /\\ q -> r"


def test_print_or_under_and():
    assert print_formula(And(p, Or(q, r))) == "p /\\ (q \\/ r)"


def test_print_left_nested_imp():
    assert print_formula(Imp(Imp(p, q), r)) == "(p -> q) -> r"


def test_print_binary_associativity():
    assert print_formula(And(And(p, q), r)) == "p /\\ q /\\ r"
    assert print_formula(And(p, And(q, r))) == "p /\\ (q /\\ r)"


@given(formulas())
def test_round_trip(f):
    assert parse_modal(print_formula(f)) == f


def test_modal_degree_examples():
    assert modal_degree(p) == 0
    assert modal_degree(Box(Neg(Box(Box(p))))) == 3
    assert modal_degree(Imp(Box(p), Box(Box(p)))) == 2


@given(formulas())
def test_modal_degree_box_step(f):
    assert modal_degree(Box(f)) == modal_degree(f) + 1


@given(formulas())
def test_modal_degree_zero_iff_box_free(f):
    assert (modal_degree(f) == 0) == is_box_free(f)


def test_box_occurrences_orders_witness_slots():
    # [](p -> q) \/ [](~[]p -> []q): witness entries align with exactly these
    # four boxes, left-to-right outermost-first.
    f = parse_modal("[](p -> q) \\/ [](~[]p -> []q)")
    occ = box_occurrences(f)
    assert len(occ) == 4
    assert occ == [(0,), (1,), (1, 0, 0, 0), (1, 0, 1)]
    assert subformula_at(f, occ[0]) == Box(Imp(p, q))
    assert subformula_at(f, occ[2]) == Box(p)
    assert subformula_at(f, occ[3]) == Box(q)


def test_box_occurrences_trivial():
    assert box_occurrences(And(p, q)) == []
    assert box_occurrences(Box(Box(p))) == [(), (0,)]


@given(formulas())
def test_box_occurrences_count_matches_boxes(f):
    assert count_boxes(f) == print_formula(f).count("[]")


def test_boxes_within_is_the_prefix_definition():
    for f in generate_corpus(DEFAULT_PARAMS).formulas:
        occ = box_occurrences(f)
        assert occ == sorted(occ)
        for path, _ in subformula_occurrences(f):
            prefixed = [i for i, bp in enumerate(occ) if bp[: len(path)] == path]
            assert list(boxes_within(occ, path)) == prefixed


def test_box_walks_do_not_recurse():
    depth = 2000
    f = Atom("p")
    for _ in range(depth):
        f = Box(f)
    occ = box_occurrences(f)
    assert len(occ) == count_boxes(f) == depth
    assert occ[-1] == (0,) * (depth - 1)
    t = tuple(range(depth - 1, -1, -1))
    assert canonical_witness(f) == t
    assert translation_valid(t, f)
    assert not translation_valid(t[::-1], f)
    comp = t_complexity(f, t)
    assert len(comp) == depth + 1
    assert comp[()] == depth - 1 and comp[(0,) * (depth - 1)] == 0 and comp[(0,) * depth] == -1
    reduced = gls_reduce(f)
    assert reduced.right is f
    instances, g = [], reduced.left
    while isinstance(g, And):
        instances.append(g.right)
        g = g.left
    instances.append(g)
    # the conjunction is left-associated: the outermost box's instance ends the left spine
    assert len(instances) == depth and instances[-1] == Imp(f, f.sub)


def test_parse_prop_rewrites_negation():
    assert parse_prop("~p") == Imp(p, BOT)
    assert parse_prop("~~p") == Imp(Imp(p, BOT), BOT)


def test_parse_prop_rejects_boxes():
    with pytest.raises(FormulaSyntaxError):
        parse_prop("[]p")


def test_parse_prop_rejects_reserved_atoms():
    with pytest.raises(ReservedAtomError):
        parse_prop("q0 -> p")
    with pytest.raises(ReservedAtomError):
        parse_prop("qw")
    # q followed by letters other than w is an ordinary atom
    assert parse_prop("qa") == Atom("qa")


def test_modal_mode_allows_reserved_atoms():
    assert parse_modal("q0") == Atom("q0")


def test_atoms_and_size():
    f = parse_modal("[](p -> q) /\\ ~p")
    assert atoms(f) == {"p", "q"}
    assert size(f) == 7


def test_conj_disj_empty():
    assert conj([]) == TOP
    assert disj([]) == BOT
    assert conj([p, q, r]) == And(And(p, q), r)


def test_sequent_formula_and_print():
    s = Sequent((p, q), (r,))
    assert s.formula() == Imp(And(p, q), r)
    assert print_sequent(s) == "p, q => r"
    assert print_sequent(Sequent((), ())) == " => "


@given(formulas())
def test_neg_as_imp_is_box_and_neg_free_of_neg(f):
    g = neg_as_imp(f)
    assert "~" not in print_formula(g)


def _neg_chain(depth):
    f = Atom("p")
    for _ in range(depth):
        f = Neg(f)
    return f


def test_hash_and_eq_do_not_recurse():
    f, g = _neg_chain(5000), _neg_chain(5000)
    assert f is not g
    assert hash(f) == hash(g)
    assert f == g
    assert f != _neg_chain(4999) and f != Box(g.sub)
    assert {f: 1}[g] == 1
    assert g in {f}


def test_separately_built_formulas_are_equal():
    a = parse_modal("[](p -> q) /\\ ~p \\/ top")
    b = Or(And(Box(Imp(Atom("p"), Atom("q"))), Neg(Atom("p"))), TOP)
    assert a is not b and a == b and hash(a) == hash(b)
    assert Bot() == BOT and hash(Bot()) == hash(BOT)
    assert Bot() != Top() and Neg(p) != Box(p) and Atom("p") != "p"


def test_nodes_are_slotted_and_frozen():
    f = Imp(p, BOT)
    assert not hasattr(f, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        f.left = q
    assert repr(Atom("p")) == "Atom(name='p')"
    assert repr(f) == "Imp(left=Atom(name='p'), right=Bot())"


def test_pickled_node_hashes_as_in_the_loading_process():
    # the cached hash depends on PYTHONHASHSEED, so a pickle made under one
    # seed must not carry it into a process running under another
    code = (
        "import pickle, sys\n"
        "from provlab.formulas import parse_modal\n"
        "f = parse_modal('[](p -> q) /\\\\ ~r')\n"
        "if sys.argv[1] == 'dump':\n"
        "    sys.stdout.buffer.write(pickle.dumps(f))\n"
        "else:\n"
        "    g = pickle.loads(sys.stdin.buffer.read())\n"
        "    assert hash(g) == hash(f) and {f: 1}[g] == 1\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    dumped = subprocess.run([sys.executable, "-c", code, "dump"], capture_output=True, check=True,
                            env={**env, "PYTHONHASHSEED": "1"}).stdout
    subprocess.run([sys.executable, "-c", code, "load"], input=dumped, check=True,
                   env={**env, "PYTHONHASHSEED": "2"})
