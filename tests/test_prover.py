import hashlib
import json

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from provlab.budget import Budget, BudgetExhausted
from provlab.calculus import Logic, check_derivation
from provlab.corpus import BOX_FREE_PARAMS, DEFAULT_PARAMS, generate_corpus
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
from provlab.kripke import KripkeModel, check, validate_frame
from provlab.provability import translate_bhk
from provlab import prover
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


def compounds(sub):
    return st.one_of(
        st.builds(Neg, sub),
        st.builds(Box, sub),
        st.builds(And, sub, sub),
        st.builds(Or, sub, sub),
        st.builds(Imp, sub, sub),
    )


def formulas(max_leaves=5, leaves=(p, q, BOT, TOP)):
    return st.recursive(st.sampled_from(leaves), compounds, max_leaves=max_leaves)


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


def test_search_provable_is_none_when_the_budget_runs_out():
    s = Sequent((), (parse_modal("[]([]p -> p) -> []p"),))
    assert search_provable(Logic.GL, s) is True
    assert search_provable(Logic.GL, s, Budget(steps=3)) is None
    assert isinstance(prove(Logic.GL, s, Budget(steps=3)), Exhausted)


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


# One sha256 over (logic, result type, budget.steps_used, derivation JSON) of
# prove on the first 500 default-corpus formulas in every modal logic, then
# (verdict, budget.steps_used) of search_provable on the box-free corpus.  It
# pins the search's choice of rule and principal formula at every step far
# beyond REPLAY_PINS: any change of choice moves a step count or a derivation.
CORPUS_SEARCH_DIGEST = "f6716055bdd133a494499f8314b622766070afff1ba147b2d3efe42afc2e4477"


def test_corpus_searches_are_pinned():
    h = hashlib.sha256()
    default = generate_corpus(DEFAULT_PARAMS).formulas[:500]
    for logic in (Logic.K4, Logic.KD4, Logic.S4, Logic.GL, Logic.GLS):
        for f in default:
            budget = Budget()
            res = prove(logic, Sequent((), (f,)), budget)
            body = json.dumps(res.derivation.to_json(), sort_keys=True) if isinstance(res, Provable) else ""
            h.update(f"{logic.name} {type(res).__name__} {budget.steps_used} {body}\n".encode())
    for logic in (Logic.K4, Logic.S4, Logic.GL):
        for f in generate_corpus(BOX_FREE_PARAMS).formulas:
            budget = Budget()
            verdict = search_provable(logic, Sequent((), (f,)), budget)
            h.update(f"{logic.name} {verdict} {budget.steps_used}\n".encode())
    assert h.hexdigest() == CORPUS_SEARCH_DIGEST


# The corpora of the search-model test: the default corpus in every modal
# logic, the box-free one under the b translation in K4, KD4, S4 and GL, and
# under w in S4.
def _search_model_cases():
    default = generate_corpus(DEFAULT_PARAMS).formulas
    box_free = generate_corpus(BOX_FREE_PARAMS).formulas
    for logic in (Logic.K4, Logic.KD4, Logic.S4, Logic.GL, Logic.GLS):
        yield f"default {logic.name}", logic, default
    for logic in (Logic.K4, Logic.KD4, Logic.S4, Logic.GL):
        yield f"b {logic.name}", logic, [translate_bhk(f, "b") for f in box_free]
    yield "w S4", Logic.S4, [translate_bhk(f, "w") for f in box_free]


# Per case: (models read off the search, NotProvable verdicts that fell back
# to find_countermodel because the search's model had more nodes than the
# default bound of 8).  Each fallback found a countermodel.
SEARCH_MODEL_COUNTS = {
    "default K4": (1136, 0), "default KD4": (1123, 0), "default S4": (1116, 0),
    "default GL": (1136, 0), "default GLS": (1116, 0),
    "b K4": (1182, 47), "b KD4": (873, 323), "b S4": (1118, 73), "b GL": (1224, 1),
    "w S4": (1208, 89),
}
# sha256 over "<case> <one letter per formula: P, N or X>\n" in case order:
# the verdicts of prove from before countermodels were read off the search
SEARCH_MODEL_VERDICTS_DIGEST = "d33c9aafe4f5e0a731c5d3190bda2419000a289cdbd7711c3783faf381874b6d"


def test_search_models_over_the_corpora(monkeypatch):
    fallbacks = []
    scan = prover.find_countermodel
    monkeypatch.setattr(prover, "find_countermodel", lambda *args: fallbacks.append(args) or scan(*args))
    h = hashlib.sha256()
    counts = {}
    for case, logic, fs in _search_model_cases():
        letters, built, before = [], 0, len(fallbacks)
        for f in fs:
            res = prove(logic, Sequent((), (f,)))
            letters.append({Provable: "P", NotProvable: "N", Exhausted: "X"}[type(res)])
            if isinstance(res, NotProvable):
                target, frame = (res.reduction, Logic.GL) if logic == Logic.GLS else (f, logic)
                assert validate_frame(res.model, FRAME_OF_LOGIC[frame]) == [], (case, f)
                assert check(res.model, res.node, target) is False, (case, f)
                built += 1
        counts[case] = (built - (len(fallbacks) - before), len(fallbacks) - before)
        h.update(f"{case} {''.join(letters)}\n".encode())
    assert counts == SEARCH_MODEL_COUNTS
    assert h.hexdigest() == SEARCH_MODEL_VERDICTS_DIGEST


def test_exhausted_reason_names_the_largest_bound_searched():
    s = Sequent((), (parse_modal("[]p \\/ []~p"),))
    res = prove(Logic.K4, s, Budget(max_nodes=1, escalate_nodes=0))
    assert isinstance(res, Exhausted)
    assert res.reason == "no countermodel within 1 nodes"
    res = prove(Logic.K4, s, Budget(max_nodes=1, escalate_nodes=1))
    assert res.reason == "no countermodel within 1 nodes"


def test_escalation_defaults_to_two_nodes_past_max_nodes():
    assert (Budget().max_nodes, Budget().escalate_nodes) == (6, 8)
    assert Budget(max_nodes=3).escalate_nodes == 5
    assert Budget(max_nodes=1, escalate_nodes=0).escalate_nodes == 0


def test_escalation_scans_each_size_once():
    # the search's model has three nodes, past the bound of 2, so the scan
    # decides; the first countermodel needs two nodes, past max_nodes, and the
    # scan charges one pass over sizes 1..2, not a pass of size 1 and another
    s = Sequent((), (parse_modal("[]p \\/ []~p"),))
    budget = Budget(max_nodes=1, escalate_nodes=2)
    res = prove(Logic.K4, s, budget)
    single = Budget()
    hit = find_countermodel(s.formula(), FRAME_OF_LOGIC[Logic.K4], 2, single)
    assert isinstance(res, NotProvable) and len(res.model.nodes) == 2
    assert (res.model.to_json(), res.node) == (hit[0].to_json(), hit[1])
    assert budget.models_used == single.models_used


def test_search_model_within_the_escalation_bound():
    # the model read off the search: a root that sees one world refuting p
    # and one forcing it; within the bound of 3 it is returned, with no scan
    s = Sequent((), (parse_modal("[]p \\/ []~p"),))
    budget = Budget(max_nodes=1, escalate_nodes=3)
    res = prove(Logic.K4, s, budget)
    assert isinstance(res, NotProvable) and budget.models_used == 0
    m = res.model
    assert (m.nodes, res.node) == (("k0", "k1", "k2"), "k0")
    assert m.relation == {("k0", "k1"), ("k0", "k2")}
    assert m.valuation == {"p": frozenset({"k2"})}
    assert validate_frame(m, FRAME_OF_LOGIC[Logic.K4]) == [] and not check(m, "k0", s.formula())
    # a one-world model is bounded like any other: under a bound of 0 nodes
    # no model is returned, and the scan finds none either
    for logic in (Logic.K4, Logic.KD4, Logic.S4, Logic.GL):
        res = prove(logic, Sequent((), (parse_modal("p"),)), Budget(max_nodes=0, escalate_nodes=0))
        assert isinstance(res, Exhausted) and res.reason == "no countermodel within 0 nodes"


def test_deep_gl_refutation_needs_no_enumeration():
    # the search refutes []^7(p \/ q) in 9 steps; scanning the GL frames up to
    # 8 nodes for it took 44 s and ended Exhausted
    s = Sequent((), (parse_modal("[]" * 7 + "(p \\/ q)"),))
    budget = Budget()
    res = prove(Logic.GL, s, budget)
    assert isinstance(res, NotProvable) and budget.models_used == 0 and budget.steps_used == 9
    nodes = tuple(f"k{i}" for i in range(8))
    assert res.model.nodes == nodes and res.node == "k0"
    assert res.model.relation == {(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]}
    assert validate_frame(res.model, FRAME_OF_LOGIC[Logic.GL]) == []
    assert check(res.model, "k0", s.formula()) is False


def _drop_edge(m: KripkeModel, edge) -> KripkeModel:
    return KripkeModel(m.nodes, m.relation - {edge}, m.valuation, m.clusters)


def _flip_root_atom(m: KripkeModel, atom) -> KripkeModel:
    return KripkeModel(m.nodes, m.relation, {**m.valuation, atom: m.valuation[atom] ^ {"k0"}}, m.clusters)


@pytest.mark.parametrize("logic,text,mutate", [
    (Logic.K4, "[]p \\/ []~p", lambda m: _drop_edge(m, ("k0", "k1"))),  # then k0 forces []p
    (Logic.S4, "p -> []p", lambda m: _drop_edge(m, ("k0", "k0"))),  # not reflexive
    (Logic.K4, "[]p -> p", lambda m: _flip_root_atom(m, "p")),  # then k0 forces p
], ids=["drop-edge", "drop-loop", "flip-atom"])
def test_a_broken_search_model_raises(monkeypatch, logic, text, mutate):
    build = prover._search_model
    monkeypatch.setattr(prover, "_search_model", lambda *args: mutate(build(*args)))

    def no_scan(*args):
        raise AssertionError("fell back to enumeration")

    monkeypatch.setattr(prover, "find_countermodel", no_scan)
    budget = Budget()
    with pytest.raises(AssertionError, match="countermodel failed re-verification"):
        prove(logic, Sequent((), (parse_modal(text),)), budget)
    assert budget.models_used == 0


def capped_sequents():
    """(ante, succ) as capped multisets over p, q and bot: a few atoms and bots,
    and a few formulas with a drawn main connective on a drawn side, so that
    rules compete.  There is no top: the search normalizes it away first."""
    count = st.integers(1, prover._CAP)

    def place(atoms, placed):
        ante, succ = atoms, {}
        for f, left, n in placed:
            (ante if left else succ)[f] = n
        return ante, succ

    main = compounds(formulas(2, (p, q, BOT)))
    return st.builds(place, st.dictionaries(st.sampled_from([p, q, BOT]), count, max_size=2),
                     st.lists(st.tuples(main, st.booleans(), count), min_size=1, max_size=4))


def reference_pick(logic, ante, succ, unboxed):
    """(kind, principal) of the first step, straight from the rule table in
    its order: None past the invertible rules, at a modal leaf."""
    if BOT in ante:
        return "close-bot", BOT
    shared = [f for f in ante if f in succ]
    if shared:
        return "close-id", min(shared, key=print_formula)
    for rule in prover._INVERTIBLE:
        if rule.conn is Box:
            if logic != Logic.S4:
                continue
            cands = [g for g in ante if isinstance(g, Box) and g.sub not in ante and g not in unboxed]
        else:
            cands = [g for g in (ante if rule.left else succ) if isinstance(g, rule.conn)]
        if cands:
            return rule.kind, min(cands, key=print_formula)
    return None


def sides(ante, succ):
    """Capped multisets of comma-separated formulas (no formula here has a comma)."""
    return tuple({parse_modal(t): 1 for t in text.split(",") if t.strip()} for text in (ante, succ))


@example(Logic.K4, sides("q, p, ~bot", "~bot, p, q"), frozenset())  # close-id on the least print key
# one proof for each two adjacent rows of the rule table, each row with a candidate
@example(Logic.K4, sides("~~bot", "~p"), frozenset())  # negL before negR
@example(Logic.K4, sides("p /\\ q", "~bot"), frozenset())  # negR before andL
@example(Logic.K4, sides("p /\\ q", "p \\/ q"), frozenset())  # andL before orR
@example(Logic.K4, sides("", "p \\/ q, p -> p"), frozenset())  # orR before impR
@example(Logic.S4, sides("[]p", "q -> p"), frozenset())  # impR before unboxS4
@example(Logic.S4, sides("[]bot, p \\/ q", ""), frozenset())  # unboxS4 before orL
@example(Logic.K4, sides("p \\/ p", "p /\\ p"), frozenset())  # orL before andR
@example(Logic.K4, sides("p -> q", "~bot /\\ ~bot"), frozenset())  # andR before impL
# S4 unboxes neither a box unboxed in this layer nor one whose body is there
@example(Logic.S4, sides("[]bot, []p, p, []q", "q"), frozenset([parse_modal("[]bot")]))
@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([Logic.K4, Logic.KD4, Logic.S4, Logic.GL]),
    capped_sequents(),
    st.frozensets(st.builds(Box, st.sampled_from([p, q, BOT])), max_size=2),
)
def test_first_step_is_the_table_order_pick(logic, sequent, unboxed):
    ante, succ = sequent
    try:
        macro, _ = prover._decide(prover._SearchState(logic, Budget()), ante, succ, unboxed)
    except BudgetExhausted:
        macro = None
    # a failed search returns no macro, so only proofs show their first step
    assume(macro is not None)
    want = reference_pick(logic, ante, succ, unboxed)
    if want is None:
        assert macro.kind in {"box4R", "boxDR", "boxSR", "GLR"}
    else:
        assert (macro.kind, macro.principal) == want


def memo_key(c):
    return frozenset(c.items())


@settings(max_examples=100, deadline=None)
@given(st.lists(formulas(3), max_size=6), st.randoms(use_true_random=False))
def test_multisets_hold_no_zero_counts(fs, rnd):
    added = {}
    for f in fs:
        added = prover._cap_add(added, f)
        assert added[f] <= prover._CAP
    shuffled = list(fs)
    rnd.shuffle(shuffled)
    other = {}
    for f in shuffled:
        other = prover._cap_add(other, f)
    assert memo_key(other) == memo_key(added)
    # a formula added and dropped again leaves no key behind
    extra = Atom("r")
    assert memo_key(prover._drop(prover._cap_add(other, extra), extra)) == memo_key(added)
    for f in list(added):
        while f in added:
            added = prover._drop(added, f)
        assert f not in added
    assert added == {}


def test_multiset_helpers_keep_counts_positive_and_capped():
    assert prover._drop({p: 1, q: 2}, p) == {q: 2}
    assert prover._drop({p: 2}, p) == {p: 1}
    c = {}
    for _ in range(5):
        c = prover._cap_add(c, p)
    assert c == {p: prover._CAP}
    assert prover._capped({p: 5, q: 1, BOT: 3}) == {p: prover._CAP, q: 1, BOT: prover._CAP}
    assert prover._sum({p: 1}, {p: 2, q: 1}) == {p: 3, q: 1}
    base = {p: 1}
    prover._plus(base, q)
    prover._drop(base, p)
    assert base == {p: 1}  # the helpers build new dicts
