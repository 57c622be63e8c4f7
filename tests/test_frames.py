import hashlib
import itertools
import random

import pytest

from provlab import frames
from provlab.budget import Budget, BudgetExhausted
from provlab.corpus import BOX_FREE_PARAMS, DEFAULT_PARAMS, generate_corpus
from provlab.formulas import Atom, atoms, parse_modal, parse_prop
from provlab.frames import (
    CompiledFormulas,
    enumerate_models,
    find_countermodel,
    find_entailment_countermodel,
    frames_of_size,
    rooted_frames_of_size,
    sweep_refutations,
)
from provlab.kripke import (
    BOT_KEY,
    GL_FRAME,
    K4_FRAME,
    KD4_FRAME,
    S4_FRAME,
    check,
    check_int,
    int_frame,
    validate_frame,
)

p = Atom("p")


# -- independent brute-force oracles ----------------------------------------

def brute_relations(n):
    pairs = [(a, b) for a in range(n) for b in range(n)]
    for bits in range(1 << len(pairs)):
        yield frozenset(pairs[i] for i in range(len(pairs)) if bits >> i & 1)


def is_transitive(rel):
    return all((a, d) in rel for (a, b) in rel for (c, d) in rel if b == c)


def is_irreflexive(rel, n):
    return all((k, k) not in rel for k in range(n))


def is_tree_with_clusters(rel, n):
    """Independent predicate for the K4 frame class on an integer relation."""
    if not is_transitive(rel):
        return False
    clusters = []
    done = set()
    for k in range(n):
        if k in done:
            continue
        c = frozenset({k} | {m for m in range(n) if (k, m) in rel and (m, k) in rel})
        clusters.append(c)
        done |= c
    for c in clusters:
        if len(c) == 1:
            continue
        if not all((x, y) in rel for x in c for y in c):
            return False
    idx = {k: i for i, c in enumerate(clusters) for k in c}
    q = {(idx[a], idx[b]) for (a, b) in rel if idx[a] != idx[b]}
    if any((j, i) in q for (i, j) in q):
        return False
    preds = {i: {j for j in range(len(clusters)) if (j, i) in q} for i in range(len(clusters))}
    roots = [i for i in preds if not preds[i]]
    if len(roots) != 1:
        return False
    for i, ps in preds.items():
        for a in ps:
            for b in ps:
                if a != b and (a, b) not in q and (b, a) not in q:
                    return False
    return True


def isomorphic_to_some(rel, n, frames):
    for perm in itertools.permutations(range(n)):
        mapped = frozenset((perm[a], perm[b]) for a, b in rel)
        if any(fr.n == n and fr.rel == mapped for fr in frames):
            return True
    return False


@pytest.mark.parametrize("n", [1, 2, 3])
def test_gl_frames_cover_all_strict_orders(n):
    frames = frames_of_size(GL_FRAME, n)
    expected = [rel for rel in brute_relations(n) if is_transitive(rel) and is_irreflexive(rel, n)]
    for rel in expected:
        assert isomorphic_to_some(rel, n, frames)
    for fr in frames:
        assert is_transitive(fr.rel) and is_irreflexive(fr.rel, n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_k4_frames_cover_all_trees_with_clusters(n):
    frames = frames_of_size(K4_FRAME, n)
    expected = [rel for rel in brute_relations(n) if is_tree_with_clusters(rel, n)]
    for rel in expected:
        assert isomorphic_to_some(rel, n, frames)
    for fr in frames:
        assert is_tree_with_clusters(fr.rel, n)


def test_gl_frame_census_within_two_nodes():
    # one single-node frame plus, at two nodes, the isolated pair and the
    # single-edge frame; nothing else is irreflexive-transitive up to renaming
    assert len(frames_of_size(GL_FRAME, 1)) == 1
    assert len(frames_of_size(GL_FRAME, 2)) == 2
    assert len(frames_of_size(GL_FRAME, 1)) + len(frames_of_size(GL_FRAME, 2)) == 3


def test_gl_one_node_one_atom_models():
    models = list(enumerate_models(1, GL_FRAME, ["p"]))
    assert len(models) == 2
    valuations = {m.valuation["p"] for m in models}
    assert valuations == {frozenset(), frozenset({"k0"})}


def test_s4_one_node_no_atoms():
    models = list(enumerate_models(1, S4_FRAME, []))
    assert len(models) == 1
    assert models[0].relation == frozenset({("k0", "k0")})


def test_enumerated_models_validate():
    for cls in (K4_FRAME, KD4_FRAME, S4_FRAME, GL_FRAME, int_frame("IPC"), int_frame("BPC"), int_frame("FPL")):
        for m in enumerate_models(3, cls, ["p"]):
            assert validate_frame(m, cls) == [], (cls, m.to_json())


def test_enumeration_deterministic():
    a = [m.to_json() for m in enumerate_models(3, K4_FRAME, ["p"])]
    b = [m.to_json() for m in enumerate_models(3, K4_FRAME, ["p"])]
    assert a == b


def test_find_countermodel_box_p_imp_p():
    hit = find_countermodel(parse_modal("[]p -> p"), K4_FRAME, 1)
    assert hit is not None
    model, node = hit
    assert len(model.nodes) == 1
    assert validate_frame(model, K4_FRAME) == []
    assert check(model, node, parse_modal("[]p -> p")) is False


def test_find_countermodel_axiom4_absent():
    assert find_countermodel(parse_modal("[]p -> [][]p"), K4_FRAME, 4) is None


def test_find_countermodel_absent_for_s4_theorem():
    assert find_countermodel(parse_modal("~[](~[]p /\\ p)"), S4_FRAME, 4) is None


# Every connective of the fast path: top, bot, ~, [] (or the persistent ->),
# /\, \/, and under MPC the bot atom.  Box-free texts go through parse_modal
# so that ~ stays a negation node.
MODAL_TEXTS = [
    "[](p \\/ q) -> []p \\/ []q",
    "~[]bot -> [](top /\\ ~p) \\/ []q",
    "[]([]p -> p) -> []p",
    "p /\\ ~[]q -> [](bot \\/ q)",
    "[]p -> [][]p",
]
PROP_TEXTS = [
    "p \\/ ~p",
    "(~~p -> p) \\/ (top -> q)",
    "bot -> p",
    "((p -> q) -> p) -> p",
    "~(p /\\ ~p) /\\ (q -> top)",
    "p -> q \\/ bot",
]
DIFF_CLASSES = [(fc, MODAL_TEXTS) for fc in (K4_FRAME, KD4_FRAME, S4_FRAME, GL_FRAME)] + [
    (int_frame(fl), PROP_TEXTS) for fl in ("BPC", "IPC", "FPL", "MPC", "CPC")]


def naive_first_refutation(frame_class, gamma, a, max_nodes):
    """First (model, node) of enumerate_models forcing gamma but not a, by the naive checker."""
    names = set().union(*(atoms(g) for g in (*gamma, a)))
    if frame_class.kind == "Int":
        flavor = frame_class.flavor
        if flavor == "MPC":
            names.add(BOT_KEY)
        forced = lambda m, k, g: check_int(m, k, g, flavor)  # noqa: E731
    else:
        forced = check
    for m in enumerate_models(max_nodes, frame_class, sorted(names)):
        for k in m.nodes:
            if all(forced(m, k, g) for g in gamma) and not forced(m, k, a):
                return m.to_json(), k
    return None


def as_json(hit):
    return None if hit is None else (hit[0].to_json(), hit[1])


# Their first BPC countermodels lie in 3-node classes of several enumerated
# frames, so the isomorphism cut drops frames where the search finds them.
BPC_CUT_TEXTS = [
    "~~p \\/ (~(p -> bot) \\/ bot -> (q -> q) -> q)",
    "~((p \\/ bot) /\\ top) \\/ (q /\\ ((bot -> q) -> p -> bot) -> (~top -> p /\\ top) -> p)",
]
# Local formulas (no box, no persistent implication): the scan decides them at
# the one-node frames, refuted there or valid.
LOCAL_MODAL_TEXTS = ["p \\/ ~p", "p -> q", "bot", "top"]
LOCAL_PROP_TEXTS = ["p \\/ q", "(p /\\ q) \\/ bot"]
NAIVE_CLASSES = [(fc, texts + (LOCAL_PROP_TEXTS if fc.kind == "Int" else LOCAL_MODAL_TEXTS)
                  + (BPC_CUT_TEXTS if fc == int_frame("BPC") else []))
                 for fc, texts in DIFF_CLASSES]


def test_find_countermodel_matches_naive_enumeration():
    bpc = int_frame("BPC")
    assert len(rooted_frames_of_size(bpc, 3)) < len(rooted(bpc, 3))
    for frame_class, texts in NAIVE_CLASSES:
        fs = [parse_modal(t) for t in texts]
        expected = [naive_first_refutation(frame_class, (), f, 3) for f in fs]
        assert any(e is not None for e in expected), frame_class
        if frame_class == bpc:
            assert [len(e[0]["nodes"]) for e in expected[-len(BPC_CUT_TEXTS):]] == [3, 3]
        assert [as_json(find_countermodel(f, frame_class, 3)) for f in fs] == expected, frame_class


def test_find_entailment_countermodel_matches_naive_enumeration():
    for frame_class, texts in NAIVE_CLASSES:
        fs = [parse_modal(t) for t in texts]
        cases = [((fs[i], fs[i + 1]), fs[(i + 2) % len(fs)]) for i in range(len(fs) - 1)]
        cases.append(((parse_modal("p"),), parse_modal("q \\/ ~q")))
        expected = [naive_first_refutation(frame_class, g, a, 3) for g, a in cases]
        assert any(e is not None for e in expected), frame_class
        got = [as_json(find_entailment_countermodel(g, a, frame_class, 3)) for g, a in cases]
        assert got == expected, frame_class


@pytest.mark.parametrize("frame_class,premise,a", [(int_frame("IPC"), "~~p", "p"), (GL_FRAME, "~[]bot", "p")],
                         ids=["IPC", "GL"])
def test_a_non_local_premise_keeps_local_formulas_in_the_scan(frame_class, premise, a):
    # a is local, but no one-node model forces the premise and refutes a:
    # the first refutation has 2 nodes, so the scan must not stop at one
    gamma, a = (parse_modal(premise),), parse_modal(a)
    expected = naive_first_refutation(frame_class, gamma, a, 3)
    assert len(expected[0]["nodes"]) == 2
    assert as_json(find_entailment_countermodel(gamma, a, frame_class, 3)) == expected


def test_local_formulas_leave_the_scan_after_one_node(monkeypatch):
    built = []
    enumerated = frames.rooted_frames_of_size
    monkeypatch.setattr(frames, "rooted_frames_of_size", lambda fc, n: built.append(n) or enumerated(fc, n))
    fs = [parse_modal("p \\/ ~p"), parse_modal("p -> p")]
    b = Budget()
    assert sweep_refutations(fs, K4_FRAME, 7, b) == {f: None for f in fs}
    # the one-node models: two frames, two valuations of p each
    assert b.models_used == len(enumerated(K4_FRAME, 1)) * 2 == 4
    assert max(built) < 3


def test_find_countermodel_int_flavors():
    em = parse_prop("p \\/ ~p")
    hit = find_countermodel(em, int_frame("IPC"), 4)
    assert hit is not None
    model, node = hit
    assert check_int(model, node, em, "IPC") is False
    assert find_countermodel(em, int_frame("CPC"), 4) is None


def test_find_countermodel_mpc_bot():
    f = parse_prop("bot -> p")
    hit = find_countermodel(f, int_frame("MPC"), 2)
    assert hit is not None
    model, node = hit
    assert check_int(model, node, f, "MPC") is False
    assert find_countermodel(f, int_frame("IPC"), 3) is None


def valid_within_bound(f, frame_class, max_nodes):
    return find_countermodel(f, frame_class, max_nodes) is None


def test_frame_soundness_of_axioms():
    ax4 = parse_modal("[]p -> [][]p")
    axT = parse_modal("[]p -> p")
    loeb = parse_modal("[]([]p -> p) -> []p")
    assert valid_within_bound(ax4, K4_FRAME, 3)
    assert valid_within_bound(ax4, S4_FRAME, 3)
    assert valid_within_bound(axT, S4_FRAME, 3)
    assert valid_within_bound(loeb, GL_FRAME, 3)
    assert valid_within_bound(parse_modal("~[]bot"), KD4_FRAME, 3)


def restricted(hit, names):
    """as_json(hit) with the valuation cut down to names; every other atom must be empty."""
    if hit is None:
        return None
    model, node = as_json(hit)
    assert not any(v for a, v in model["valuation"].items() if a not in names)
    return {**model, "valuation": {a: v for a, v in model["valuation"].items() if a in names}}, node


def test_sweep_matches_single_search(monkeypatch):
    # the isomorphism cut drops frames within these bounds, and a sweep must
    # still meet each formula's first countermodel where the full scan does:
    # the same frame, node and valuation of the formula's own atoms, byte
    # for byte, with the sweep's other atoms empty.  The reference search
    # scans every enumerated frame, so it does not share the cut it checks.
    # "p -> p" is also an operand of "[](p -> p)": a root that another root reads
    axioms = [parse_modal(s) for s in ["[]p -> p", "[]p -> [][]p", "p -> []p", "[](p -> p)", "p -> p"]]
    # local formulas, valid or refuted at one node, among boxed ones that the
    # scan follows past it
    mixed = [parse_modal(s) for s in ["p \\/ ~p", "[]q -> q", "p -> q", "[](p \\/ ~p)", "top", "~[]bot",
                                      "p /\\ q -> p", "[]p -> [][]p", "bot", "q \\/ [](q -> p)"]]
    modal = random.Random(6).sample(generate_corpus(DEFAULT_PARAMS).formulas, 40)
    box_free = random.Random(6).sample(generate_corpus(BOX_FREE_PARAMS).formulas, 40) + [
        parse_modal(t) for t in BPC_CUT_TEXTS]
    for frame_class, fs, max_nodes in [(K4_FRAME, axioms, 3), (K4_FRAME, mixed, 3), (S4_FRAME, mixed, 4),
                                       (K4_FRAME, modal, 4),
                                       (GL_FRAME, modal, 4), (int_frame("BPC"), box_free, 4)]:
        assert any(len(rooted_frames_of_size(frame_class, n)) < len(rooted(frame_class, n))
                   for n in range(1, max_nodes + 1))
        swept = sweep_refutations(fs, frame_class, max_nodes)
        assert any(swept[f] is not None for f in fs) and any(swept[f] is None for f in fs)
        with monkeypatch.context() as m:
            m.setattr(frames, "rooted_frames_of_size", frames_of_size)
            for f in fs:
                assert restricted(swept[f], atoms(f)) == as_json(find_countermodel(f, frame_class, max_nodes)), f


# -- the isomorphism cut of rooted_frames_of_size -----------------------------

def rooted(frame_class, n):
    """Every enumerated rooted frame of n nodes, isomorphic copies included."""
    return [fr for fr in frames_of_size(frame_class, n)
            if any(all(x == k or (k, x) in fr.rel for x in range(n)) for k in range(n))]


def brute_canon(fr):
    """Least adjacency bitmask over all n! relabelings."""
    n = fr.n
    return min(sum(1 << (perm[a] * n + perm[b]) for a, b in fr.rel)
               for perm in itertools.permutations(range(n)))


ALL_CLASSES = [(fc, 5) for fc in (K4_FRAME, KD4_FRAME, S4_FRAME, GL_FRAME)] + [
    (int_frame(fl), 4) for fl in ("BPC", "IPC", "FPL", "MPC", "CPC")]


@pytest.mark.parametrize("frame_class,max_nodes", ALL_CLASSES,
                         ids=[fc.flavor if fc.kind == "Int" else fc.kind for fc, _ in ALL_CLASSES])
def test_rooted_frames_keep_the_least_frame_of_each_class(frame_class, max_nodes):
    for n in range(1, max_nodes + 1):
        least: dict[int, int] = {}
        for fr in rooted(frame_class, n):
            least.setdefault(brute_canon(fr), fr.bitmask)
        kept = rooted_frames_of_size(frame_class, n)
        assert sorted(least.values()) == [fr.bitmask for fr in kept], (frame_class, n)


# sha256 of the frame lists, in enumeration order: enumerate_models, and the
# unwinding and transfer suites through it, depend on this order.
FRAME_LISTS_DIGEST = "5f1fba037c3b17e0a0e17d7e16e0612c85a945b381b68f3b15c5f8711c0b867f"


def test_frame_lists_are_pinned():
    modal = [K4_FRAME, KD4_FRAME, S4_FRAME, GL_FRAME]
    sizes = [(fc, n) for fc in modal + [int_frame(fl) for fl in ("BPC", "IPC", "FPL", "MPC", "CPC")]
             for n in range(1, 5)] + [(fc, 5) for fc in modal]
    h = hashlib.sha256()
    for fc, n in sizes:
        h.update(repr((str(fc), n, [fr.bitmask for fr in frames_of_size(fc, n)])).encode())
    assert h.hexdigest() == FRAME_LISTS_DIGEST


# sha256 of every field of the frame lists that the workloads and the CLI's
# default bound reach: modal classes up to 6 nodes, propositional flavors up to 5.
FRAME_FIELDS_DIGEST = "45d7d546858a45ab377bc7d8f8a46a7eb56786fc27a598a2f255660e68a79a28"


def test_frame_fields_are_pinned():
    modal = [K4_FRAME, KD4_FRAME, S4_FRAME, GL_FRAME]
    sizes = [(fc, n) for fc in modal for n in range(1, 7)] + [
        (int_frame(fl), n) for fl in ("BPC", "IPC", "FPL", "MPC", "CPC") for n in range(1, 6)]
    h = hashlib.sha256()
    for fc, n in sizes:
        h.update(repr((str(fc), n, [(fr.bitmask, fr.clusters, fr.succ_masks)
                                    for fr in frames_of_size(fc, n)])).encode())
    assert h.hexdigest() == FRAME_FIELDS_DIGEST


def test_frame_fields_follow_the_relation():
    # naturally labeled posets on n points, OEIS A006455
    assert [len(frames_of_size(GL_FRAME, n)) for n in range(1, 7)] == [1, 2, 7, 40, 357, 4824]
    sizes = [(fc, 5) for fc in (K4_FRAME, KD4_FRAME, S4_FRAME, GL_FRAME)] + [
        (int_frame(fl), 4) for fl in ("BPC", "IPC", "FPL", "MPC", "CPC")]
    for fc, max_nodes in sizes:
        for n in range(1, max_nodes + 1):
            for fr in frames_of_size(fc, n):
                rel = fr.rel
                assert fr.bitmask == sum(1 << (a * n + b) for a, b in rel)
                assert fr.succ_masks == tuple(sum(1 << b for b in range(n) if (a, b) in rel) for a in range(n))
                classes = []
                for k in range(n):
                    if not any(k in c for c in classes):
                        classes.append(tuple(m for m in range(n) if m == k or {(k, m), (m, k)} <= rel))
                assert fr.clusters == tuple(classes), (fc, fr)


def test_isomorphism_class_counts():
    counts = {fc.kind: len(rooted_frames_of_size(fc, 6)) for fc in (K4_FRAME, GL_FRAME, KD4_FRAME, S4_FRAME)}
    assert counts == {"K4": 1606, "GL": 63, "KD4": 498, "S4": 108}
    assert len(rooted_frames_of_size(int_frame("BPC"), 5)) == 534


@pytest.mark.parametrize("frame_class,texts", [(K4_FRAME, MODAL_TEXTS), (int_frame("MPC"), PROP_TEXTS)],
                         ids=["K4", "MPC"])
def test_pruned_program_matches_a_fresh_compile(frame_class, texts):
    fs = [parse_modal(t) for t in texts]
    flavor = frame_class.flavor if frame_class.kind == "Int" else None
    for keep in ([0, 2, 4], [3], [1, 2, 3, 4], list(range(len(fs)))):
        prog = CompiledFormulas(fs, flavor)
        prog.prune(keep)
        fresh = CompiledFormulas([fs[i] for i in keep], flavor)
        assert len(prog.ops) == len(fresh.ops) and prog.atom_names() == fresh.atom_names()
        names = fresh.atom_names()
        chunks = []
        for frame in rooted_frames_of_size(frame_class, 3):
            allowed = frames._allowed_masks(frame, flavor is not None)
            total = len(allowed) ** len(names)
            for start, length in ((0, total), (5, 7), (total - 3, 3)):
                chunks.append((frame, length, frames._atom_rows(names, allowed, frame.n, start, length)))
        # each chunk alone, and all of them side by side in one batch
        for batch in [frames._Batch(3, [chunk]) for chunk in chunks] + [frames._Batch(3, chunks)]:
            assert prog.run(batch) == fresh.run(batch)


# Each row: a formula first refuted at 3 nodes, and a valid one that the scan
# follows to the bound.  A local valid formula would leave the scan after one
# node, so the K4 one is boxed.
THREE_ATOM_CASES = [
    (K4_FRAME, "[](r -> p \\/ q) -> [](r -> p) \\/ [](r -> q)", "[](p /\\ q /\\ r) -> [](r \\/ ~p)"),
    (int_frame("IPC"), "(r -> p \\/ q) -> (r -> p) \\/ (r -> q)", "p /\\ q /\\ r -> (r \\/ ~p)"),
]
THREE_ATOM_GAMMA = ("p \\/ r", "~q")


def three_atom_results(frame_class, refuted, valid):
    """(hit, models charged, whether the scan ran to the end) of each search
    over the three-atom cases at 3 nodes."""
    gamma = tuple(map(parse_modal, THREE_ATOM_GAMMA))
    out = []
    for f in (refuted, valid):
        b = Budget()
        hit = as_json(find_countermodel(f, frame_class, 3, b))
        out.append((hit, b.models_used, hit is None))
        b = Budget()
        hit = as_json(find_entailment_countermodel(gamma, f, frame_class, 3, b))
        out.append((hit, b.models_used, hit is None))
    b = Budget()
    swept = sweep_refutations([refuted, valid], frame_class, 3, b)
    out.append(([as_json(swept[refuted]), as_json(swept[valid])], b.models_used, True))
    return out


@pytest.mark.parametrize("frame_class,refuted_text,valid_text", THREE_ATOM_CASES, ids=["K4", "IPC"])
def test_chunk_boundaries_do_not_change_results(frame_class, refuted_text, valid_text, monkeypatch):
    # 3 atoms, first refuted at 3 nodes: the digit periods (base, base**2,
    # base**3) are not multiples of 7, so chunks start inside digit runs
    refuted, valid = parse_modal(refuted_text), parse_modal(valid_text)
    default = three_atom_results(frame_class, refuted, valid)
    monkeypatch.setattr(frames, "_CHUNK", 7)
    chunked = three_atom_results(frame_class, refuted, valid)
    assert default[0][0] is not None and default[2][0] is None
    for (hit, used, complete), (hit7, used7, _) in zip(default, chunked):
        assert hit7 == hit
        # every chunk is charged whole, so only a scan that stops early may charge less
        assert used7 == used if complete else used7 <= used


@pytest.mark.parametrize("frame_class,refuted_text,valid_text", THREE_ATOM_CASES, ids=["K4", "IPC"])
def test_packing_width_does_not_change_results(frame_class, refuted_text, valid_text, monkeypatch):
    # width 1 runs every chunk alone; 1 << 40 packs every frame of one size
    # into one run.  Chunks are charged one at a time either way, so the hits,
    # the models charged and the point where the budget runs out are equal.
    refuted, valid = parse_modal(refuted_text), parse_modal(valid_text)

    def stop(models):
        b = Budget(models=models)
        with pytest.raises(BudgetExhausted):
            sweep_refutations([valid], frame_class, 3, b)
        return b.models_used

    up_to = []
    for n in (2, 3):
        b = Budget()
        sweep_refutations([valid], frame_class, n, b)
        up_to.append(b.models_used)
    # half way through the models of 3 nodes: at the default width the
    # budget runs out at a chunk that does not end its batch
    middle = (up_to[0] + up_to[1]) // 2
    default = three_atom_results(frame_class, refuted, valid), stop(middle)
    names = CompiledFormulas([valid], frames._flavor(frame_class)).atom_names()
    ends = list(itertools.accumulate(batch.width for batch in frames._batches(frame_class, 3, names)))
    assert ends[-1] == up_to[1] and default[1] not in ends
    # the refuted formula's search stops charging at its hit
    assert default[0][0][1] < up_to[1]
    for width in (1, 1 << 40):
        monkeypatch.setattr(frames, "_PACK", width)
        assert (three_atom_results(frame_class, refuted, valid), stop(middle)) == default, width


def test_fast_path_disagreement_raises(monkeypatch):
    # an evaluator that reports every formula false at every node must be
    # caught by the naive re-check, not returned as a countermodel
    monkeypatch.setattr(frames.CompiledFormulas, "run",
                        lambda self, batch: [0] * len(self.roots))
    valid = parse_modal("p -> p")
    with pytest.raises(AssertionError, match="re-verification"):
        find_countermodel(valid, K4_FRAME, 2)
    with pytest.raises(AssertionError, match="re-verification"):
        sweep_refutations([valid], K4_FRAME, 2)
    with pytest.raises(AssertionError, match="re-verification"):
        find_entailment_countermodel((), valid, int_frame("IPC"), 2)


def test_budget_exhaustion():
    b = Budget(models=10)
    with pytest.raises(BudgetExhausted):
        find_countermodel(parse_modal("[]p -> [][]p"), K4_FRAME, 4, budget=b)


def test_persistence_lifts_to_all_formulas_by_enumeration():
    fs = [parse_prop(s) for s in ("p -> q", "p \\/ q", "~p", "(p -> q) -> q")]
    for m in itertools.islice(enumerate_models(3, int_frame("IPC"), ["p", "q"]), 0, None, 7):
        for f in fs:
            for k, l in m.relation:
                if check_int(m, k, f, "IPC"):
                    assert check_int(m, l, f, "IPC")
