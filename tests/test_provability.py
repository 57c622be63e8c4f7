import hashlib
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from provlab.corpus import BOX_FREE_PARAMS, DEFAULT_PARAMS, generate_corpus
from provlab.crosscheck import _random_valid_translation
from provlab.formulas import (
    Atom,
    BOT,
    TOP,
    And,
    Box,
    Imp,
    Neg,
    Or,
    atoms,
    count_boxes,
    modal_degree,
    neg_as_imp,
    parse_modal,
    parse_prop,
    print_formula,
    size,
)
from provlab.provability import (
    InvalidWitnessError,
    Pr,
    ReservedAtomCollision,
    SigmaAtom,
    WitnessLengthError,
    canonical_witness,
    expansions,
    interpret,
    is_expansion,
    parse_witness,
    print_term,
    print_witness,
    translate_bhk,
    translate_k4_to_gl,
    translation_valid,
    witness_check,
)

p, q = Atom("p"), Atom("q")
FOUR_BOX = parse_modal("[](p -> q) \\/ [](~[]p -> []q)")


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


def test_witness_four_box_disjunction():
    # (n, m, k, r) works iff m > k and m > r
    assert witness_check((5, 3, 1, 2), FOUR_BOX) is True
    assert witness_check((0, 3, 1, 2), FOUR_BOX) is True  # n unconstrained: its scope is box-free
    assert witness_check((5, 1, 1, 2), FOUR_BOX) is False
    assert witness_check((5, 2, 1, 2), FOUR_BOX) is False


def test_witness_atom_empty():
    assert witness_check((), p) is True


def test_witness_nested_boxes():
    bb = Box(Box(p))
    assert witness_check((1, 2), bb) is False
    assert witness_check((2, 1), bb) is True


def test_witness_length_mismatch():
    with pytest.raises(WitnessLengthError):
        witness_check((1,), p)


def test_witness_outer_sees_all_inner_entries():
    f = Box(Box(Box(p)))
    assert witness_check((5, 4, 3), f) is True
    assert witness_check((4, 5, 3), f) is False
    # outer must exceed *every* entry in its scope, not just the next one
    assert witness_check((4, 3, 5), Box(And(Box(p), Box(q)))) is False


def test_canonical_witness_examples():
    assert canonical_witness(parse_modal("[]([]p /\\ q)"), 0) == (1, 0)
    assert canonical_witness(p, 7) == ()
    w = canonical_witness(Box(Box(p)), 2)
    assert w == (3, 2)
    assert witness_check(w, Box(Box(p)))


@settings(max_examples=200, deadline=None)
@given(formulas(), st.integers(min_value=0, max_value=5))
def test_canonical_witness_always_checks(f, start):
    assert witness_check(canonical_witness(f, start), f)


@settings(max_examples=300, deadline=None)
@given(formulas(), st.data())
def test_witness_and_translation_validators_coincide(f, data):
    n = count_boxes(f)
    wit = tuple(data.draw(st.integers(min_value=0, max_value=4)) for _ in range(n))
    assert witness_check(wit, f) == translation_valid(wit, f)


def test_witness_serialization():
    assert parse_witness("5,3,1,2") == (5, 3, 1, 2)
    assert parse_witness("") == ()
    assert print_witness((5, 3, 1, 2)) == "5,3,1,2"
    with pytest.raises(ValueError):
        parse_witness("1,-2")
    assert parse_witness("9" * 18) == (10**18 - 1,)
    for text in ("1," + "9" * 19, "\u00b2", "\u0661"):
        with pytest.raises(InvalidWitnessError):
            parse_witness(text)


def test_is_expansion_nested_disjunction_pair():
    big = parse_modal("[](~[]([]p \\/ []p) \\/ ~[][](p \\/ p))")
    assert is_expansion(big, parse_modal("[]~[][]p")) is True


def test_is_expansion_identity():
    for text in ("p", "[]p", "[](p -> q) \\/ [][]q", "~[]bot"):
        f = parse_modal(text)
        assert is_expansion(f, f) is True


def test_is_expansion_distinct_atoms():
    assert is_expansion(q, p) is False


def test_is_expansion_rejects_wrong_disjunct():
    assert is_expansion(parse_modal("[](p \\/ q)"), Box(p)) is False
    assert is_expansion(parse_modal("[](p \\/ p)"), Box(p)) is True


def test_expansions_atom():
    assert list(expansions(p, 3, 10)) == [p]


def test_expansions_single_box():
    out = list(expansions(Box(p), 2, 10))
    assert Box(p) in out
    assert Box(Or(p, p)) in out
    assert len(out) == 2


def test_expansions_contain_nested_disjunction_pair():
    src = parse_modal("[]~[][]p")
    out = list(expansions(src, 2, 40))
    assert parse_modal("[](~[]([]p \\/ []p) \\/ ~[][](p \\/ p))") in out


@settings(max_examples=60, deadline=None)
@given(formulas(max_leaves=3))
def test_expansions_all_pass_is_expansion(f):
    outs = list(expansions(f, 2, 24))
    if size(f) <= 24:
        assert f in outs
    for g in outs[:50]:
        assert is_expansion(g, f)


def test_interpret_four_box_rendering():
    term = interpret(FOUR_BOX, (5, 3, 1, 2))
    assert print_term(term) == "Pr_5(p -> q) \\/ Pr_3(~Pr_1(p) -> Pr_2(q))"


def test_interpret_atom_with_sigma():
    assert interpret(p, (), {"p": SigmaAtom("phi")}) == SigmaAtom("phi")


def test_interpret_single_box():
    assert interpret(Box(p), (4,)) == Pr(4, SigmaAtom("p"))


def test_interpret_rejects_invalid_witness():
    with pytest.raises(InvalidWitnessError):
        interpret(Box(Box(p)), (1, 2))


def test_interpret_top_is_itself():
    assert print_term(interpret(parse_modal("[](top /\\ p)"), (0,))) == "Pr_0(top /\\ p)"


@settings(max_examples=100, deadline=None)
@given(formulas())
def test_interpret_consumes_witness_in_box_order(f):
    wit = canonical_witness(f, 0)
    term = interpret(f, wit)
    printed = [int(n) for n in re.findall(r"Pr_(\d+)\(", print_term(term))]
    assert printed == list(wit)


def test_translate_bhk_imp():
    assert translate_bhk(parse_prop("p -> q"), "b") == parse_modal("[]([]p -> []q)")


def test_translate_bhk_negation():
    # prop-mode already stores ~p as p -> bot; both routes give Box(Box p -> Box bot)
    assert translate_bhk(parse_prop("~p"), "b") == parse_modal("[]([]p -> []bot)")
    assert translate_bhk(Neg(p), "b") == parse_modal("[]([]p -> []bot)")
    assert translate_bhk(Neg(p), "g") == parse_modal("[](~[]p)")


def test_translate_bhk_falsum_flavors():
    assert translate_bhk(BOT, "b") == Box(BOT)
    assert translate_bhk(BOT, "w") == Box(Atom("qw"))
    assert translate_bhk(BOT, "g") == BOT


def test_translate_bhk_weak_flavor_reserves_qw():
    with pytest.raises(ReservedAtomCollision):
        translate_bhk(Imp(Atom("qw"), p), "w")


def test_translate_k4_to_gl_worked_example():
    f = parse_modal("[]p -> [][]p")
    out = translate_k4_to_gl(f, (1, 2, 1))
    assert print_formula(out) == "[](q0 /\\ q1 -> p) -> [](q0 /\\ q1 /\\ q2 -> [](q0 /\\ q1 -> p))"


def test_translate_k4_to_gl_box_free():
    f = parse_modal("p -> q \\/ bot")
    assert translate_k4_to_gl(f, ()) == f


def test_translate_k4_to_gl_invalid_translation():
    with pytest.raises(InvalidWitnessError):
        translate_k4_to_gl(Box(Box(p)), (0, 1))


def test_translate_k4_to_gl_q_collision():
    with pytest.raises(ReservedAtomCollision):
        translate_k4_to_gl(Box(Atom("q0")), (0,))


# One sha256 over the outputs of every structural rewrite on the default and
# box-free corpora: size, modal_degree, sorted atoms and printed neg_as_imp;
# translate_bhk in every flavor (box-free corpus only); translate_k4_to_gl
# under the canonical witness from 0 and from 2 and a seeded random valid
# translation; interpret under the canonical witness, with and without a
# sigma dict.  It pins each rewrite's output and the order in which its
# boxes are numbered.
REWRITES_DIGEST = "6d85eec6ea76837027cf3784508d39ab75eda1967c70675eddef3a4b67228f3f"


def test_rewrites_are_pinned():
    h = hashlib.sha256()
    rng = random.Random(1)
    sigma = {"p": SigmaAtom("S"), "q": SigmaAtom("0 = 1")}
    for params in (DEFAULT_PARAMS, BOX_FREE_PARAMS):
        for f in generate_corpus(params).formulas:
            out = [str(size(f)), str(modal_degree(f)), ",".join(sorted(atoms(f))), print_formula(neg_as_imp(f))]
            if params is BOX_FREE_PARAMS:
                out += [print_formula(translate_bhk(f, flavor)) for flavor in ("b", "w", "g")]
            for t in (canonical_witness(f), canonical_witness(f, 2), _random_valid_translation(f, rng, 4)):
                out.append(print_formula(translate_k4_to_gl(f, t)))
            wit = canonical_witness(f)
            out += [print_term(interpret(f, wit)), print_term(interpret(f, wit, sigma))]
            h.update(("\t".join(out) + "\n").encode())
    assert h.hexdigest() == REWRITES_DIGEST


# One sha256 over the printed expansions of the first 100 default-corpus
# formulas and FOUR_BOX under three (max_disjuncts, max_total_size) bounds:
# it pins the members of each list and their order.
EXPANSIONS_DIGEST = "fbf56264be174f25c15e3a83825deeb231a2c0c94f8309fdd2c0c48755446cbb"


def test_expansions_are_pinned():
    h = hashlib.sha256()
    for f in (*generate_corpus(DEFAULT_PARAMS).formulas[:100], FOUR_BOX):
        for max_disjuncts, max_total_size in ((1, 64), (2, 40), (3, 64)):
            out = [print_formula(g) for g in expansions(f, max_disjuncts, max_total_size)]
            h.update(("\t".join(out) + "\n").encode())
    assert h.hexdigest() == EXPANSIONS_DIGEST
