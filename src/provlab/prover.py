"""Backward proof search for K4, KD4, S4, GL, and the GLS reduction to GL.

The search works on multisets with duplicate counts capped at two (the
standard contraction bound for these calculi).  Fully invertible steps
(the propositional rules, and S4 unboxing which keeps the box) are applied
eagerly; the non-invertible box rules branch, with a history check blocking
any sequent repeated along a branch.  A successful search is replayed into a
cut-free derivation made of the primitive rules only, so every Provable
verdict is independently checkable.  A failed search leaves a failure
witness: the worlds of its failed modal leaves, joined by their failed box
premises and by history hits.  A NotProvable verdict carries the Kripke
countermodel read off that witness (a finite tree of clusters, or an
irreflexive DAG for GL; Sambin & Valentini 1982, Gore 1999), re-verified by
frame validation and the naive forcing checker before it is returned.

Multisets are plain dicts from formula to count that never hold a zero
count, so two multisets are equal exactly when their dicts are, and the
frozenset of a dict's items is its memo key.  The derivation checker in
calculus.py uses the same representation with its own helpers; the prover
keeps its own on purpose, so the checker stays independent of the code it
checks.

One table of invertible rules, and one right box rule per logic, drive both
the search and the replay: each row builds its premises for the search
(with duplicates capped) and again for the replay (exact), so the two cannot
drift apart.  The search picks its rule in one scan of each side of a
sequent, through a map from connective to table row that is derived from
the table, so the table alone fixes the order in which rules are tried.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from .budget import Budget, BudgetExhausted
from .calculus import Derivation, Logic
from .formulas import (
    BOT,
    And,
    Atom,
    Box,
    Formula,
    Imp,
    Neg,
    Or,
    Sequent,
    Top,
    atoms,
    conj,
    preorder,
    print_formula,
)
from .frames import find_countermodel
from .kripke import (
    FrameClass,
    GL_FRAME,
    K4_FRAME,
    KD4_FRAME,
    KripkeModel,
    S4_FRAME,
    check,
    validate_frame,
)

_CAP = 2


@dataclass(frozen=True)
class Provable:
    logic: Logic
    sequent: Sequent
    derivation: Derivation
    reduction: Formula | None = None  # set for GLS: the reduced GL formula


@dataclass(frozen=True)
class NotProvable:
    logic: Logic
    sequent: Sequent
    model: KripkeModel | None
    node: str | None
    reduction: Formula | None = None  # set for GLS: the failed reduction instance


@dataclass(frozen=True)
class Exhausted:
    logic: Logic
    sequent: Sequent
    reason: str


ProveResult = Provable | NotProvable | Exhausted

FRAME_OF_LOGIC: dict[Logic, FrameClass] = {
    Logic.K4: K4_FRAME,
    Logic.KD4: KD4_FRAME,
    Logic.S4: S4_FRAME,
    Logic.GL: GL_FRAME,
}


_NOT_BOT = Neg(BOT)


def normalize_top(f: Formula) -> Formula:
    """top := ~bot inside the prover; the calculi of the rule tables have no top rule.

    Returns f itself when it has no top below it.
    """
    # class tests instead of match patterns, as in formulas.children: every search walks its goal here
    cls = f.__class__
    if cls is Top:
        return _NOT_BOT
    if cls is Neg or cls is Box:
        s = normalize_top(f.sub)
        return f if s is f.sub else cls(s)
    if cls is And or cls is Or or cls is Imp:
        l, r = f.left, f.right
        nl, nr = normalize_top(l), normalize_top(r)
        return f if nl is l and nr is r else cls(nl, nr)
    return f


@dataclass
class _Macro:
    kind: str
    ante: dict
    succ: dict
    principal: Formula | None
    subs: tuple["_Macro", ...] = ()


class _SortKeys(dict):
    """Sort keys of search, replay and box branches: print_formula, each subformula
    printed once per search (a missing formula is printed with this dict as memo)."""

    def __missing__(self, f: Formula) -> str:
        return print_formula(f, self)


class _World:
    """A failed modal leaf: one world of the countermodel.

    ante is the leaf's antecedent, whose atoms the world forces; children
    are the witnesses of its failed box-rule premises, in the order they
    were tried: a world, or a history hit, which is the depth of the
    ancestor leaf with the same sequent (the root leaf has depth 0).
    blocked says whether a history hit lies below, which keeps the failure
    out of the memo.  A history hit holds only an int, so a failed search
    keeps no sequent that it would otherwise free.
    """

    __slots__ = ("ante", "children", "blocked")

    def __init__(self, ante: dict, children: list) -> None:
        self.ante = ante
        self.children = children
        self.blocked = any(c.__class__ is int or c.blocked for c in children)


_Witness = _World | int


@dataclass
class _SearchState:
    logic: Logic
    budget: Budget
    skeys: _SortKeys = field(default_factory=_SortKeys)
    memo_true: dict = field(default_factory=dict)
    memo_false: dict = field(default_factory=dict)  # (key, unboxed) -> unblocked witness
    history: dict = field(default_factory=dict)  # key of each modal leaf on the branch -> its depth
    # looked up once per search: a Logic key hashes through the Python-level Enum.__hash__
    ranks: tuple = field(init=False)
    box_rule: _BoxRule = field(init=False)

    def __post_init__(self) -> None:
        self.ranks = _RANKS[self.logic]
        self.box_rule = _BOX_RULE[self.logic]


# The multiset helpers never change their arguments (_cap_add at the cap
# returns its argument itself), so a macro can keep the multisets it was given.


def _count(fs) -> dict:
    out = {}
    for f in fs:
        out[f] = out.get(f, 0) + 1
    return out


def _cap_add(c: dict, f: Formula) -> dict:
    n = c.get(f, 0)
    if n >= _CAP:
        return c
    out = c.copy()
    out[f] = n + 1
    return out


def _drop(c: dict, f: Formula) -> dict:
    out = c.copy()
    n = out.pop(f) - 1
    if n:
        out[f] = n
    return out


def _plus(c: dict, f: Formula, n: int = 1) -> dict:
    out = c.copy()
    out[f] = out.get(f, 0) + n
    return out


def _sum(a: dict, b: dict) -> dict:
    out = a.copy()
    for f, n in b.items():
        out[f] = out.get(f, 0) + n
    return out


def _capped(c: dict) -> dict:
    return {f: min(n, _CAP) for f, n in c.items()}


def _boxed_parts(ante: dict) -> tuple[dict, dict]:
    boxes = {}
    inner = {}
    for f, n in ante.items():
        if f.__class__ is Box:
            boxes[f] = n
            inner[f.sub] = inner.get(f.sub, 0) + n
    return boxes, inner


# -- the rule tables ----------------------------------------------------------
#
# A premise builder takes (add, f, rest, other): add is _cap_add in the search
# and _plus in the replay, f the principal formula, rest f's side without f,
# and other the opposite side.  It returns the premise as (ante, succ).


@dataclass(frozen=True)
class _Rule:
    kind: str  # macro kind
    left: bool  # principal formula in the antecedent
    conn: type  # principal connective
    primitive: str  # rule name in the replayed derivation
    premises: tuple[Callable, ...]  # one builder per premise


# Tried in this order; the first rule with a principal formula is applied.
# Non-branching rules come first, then S4 unboxing, then the branching rules.
_INVERTIBLE = (
    _Rule("negL", True, Neg, "NegL", (lambda add, f, rest, succ: (rest, add(succ, f.sub)),)),
    _Rule("negR", False, Neg, "NegR", (lambda add, f, rest, ante: (add(ante, f.sub), rest),)),
    _Rule("andL", True, And, "AndL", (lambda add, f, rest, succ: (add(add(rest, f.left), f.right), succ),)),
    _Rule("orR", False, Or, "OrR", (lambda add, f, rest, ante: (ante, add(add(rest, f.left), f.right)),)),
    _Rule("impR", False, Imp, "ImpR", (lambda add, f, rest, ante: (add(ante, f.left), add(rest, f.right)),)),
    # S4 unboxing keeps the box: its rest is the whole antecedent
    _Rule("unboxS4", True, Box, "BoxL", (lambda add, f, rest, succ: (add(rest, f.sub), succ),)),
    _Rule("orL", True, Or, "OrL", (lambda add, f, rest, succ: (add(rest, f.left), succ),
                                   lambda add, f, rest, succ: (add(rest, f.right), succ))),
    _Rule("andR", False, And, "AndR", (lambda add, f, rest, ante: (ante, add(rest, f.left)),
                                       lambda add, f, rest, ante: (ante, add(rest, f.right)))),
    _Rule("impL", True, Imp, "ImpL", (lambda add, f, rest, succ: (rest, add(succ, f.left)),
                                      lambda add, f, rest, succ: (add(rest, f.right), succ))),
)
_RULE_OF_KIND = {r.kind: r for r in _INVERTIBLE}


@dataclass(frozen=True)
class _BoxRule:
    kind: str  # macro kind
    primitive: str  # rule name in the replayed derivation
    ante: Callable  # (add, boxes, inner, principal) -> premise antecedent


# The right box rule of each logic, for a leaf of atoms, bot and boxes.  Its
# premise is (ante => principal.sub); KD4 may also close by BoxDR, whose
# premise antecedent is KD4's own (it does not read the principal).
_BOX4R = _BoxRule("box4R", "Box4R", lambda add, boxes, inner, bf: _sum(boxes, inner))
_BOX_RULE = {
    Logic.K4: _BOX4R,
    Logic.KD4: _BOX4R,
    Logic.S4: _BoxRule("boxSR", "BoxSR", lambda add, boxes, inner, bf: boxes),
    Logic.GL: _BoxRule("GLR", "GLR", lambda add, boxes, inner, bf: add(_sum(boxes, inner), bf)),  # the diagonal formula
}
# Per logic, (antecedent ranks, succedent ranks): each maps a connective to the
# row of _INVERTIBLE whose principal formula it is, so one scan of a sequent
# finds the first row that applies.  S4 alone unboxes.
_RANKS = {
    lg: tuple({r.conn: i for i, r in enumerate(_INVERTIBLE) if r.left is left and (r.conn is not Box or lg == Logic.S4)}
              for left in (True, False))
    for lg in _BOX_RULE
}


def _sides(rule: _Rule, ante: dict, succ: dict) -> tuple[dict, dict]:
    """(f's side, the other side) for rule's principal formula f; applied to
    (f's side, the other side) it gives back (ante, succ)."""
    return (ante, succ) if rule.left else (succ, ante)


def _decide(
    st: _SearchState,
    ante: dict,
    succ: dict,
    unboxed: frozenset,
) -> tuple[_Macro | None, _Witness | None]:
    """Search a capped-multiset sequent; returns (macro proof, None) or (None, failure witness).

    Only unblocked failures (no history hit in their witness) are
    history-independent and safe to cache.
    """
    key = frozenset(ante.items()), frozenset(succ.items())
    hit = st.memo_true.get(key)
    if hit is not None:
        return hit, None
    # membership, then an index on a hit: a .get and a None test here cost
    # about 25 % on deep KD4 searches (CPython 3.11)
    if (key, unboxed) in st.memo_false:
        return None, st.memo_false[key, unboxed]
    st.budget.spend_step()

    def done(m: _Macro) -> tuple[_Macro, None]:
        st.memo_true[key] = m
        return m, None

    def fail(w: _Witness) -> tuple[None, _Witness]:
        if w.__class__ is not int and not w.blocked:
            st.memo_false[key, unboxed] = w
        return None, w

    # closure
    if BOT in ante:
        return done(_Macro("close-bot", ante, succ, BOT))

    # one scan of each side: the formulas shared for close-id, and the principal
    # candidates of the first rule of _INVERTIBLE that has one (rank best)
    ante_rank, succ_rank = st.ranks
    best = len(_INVERTIBLE)
    cands = []
    shared = []
    for g in ante:
        if g in succ:
            shared.append(g)
        r = ante_rank.get(g.__class__)
        # S4 unboxes a box once per modal layer, and only while its unboxing is new
        if r is not None and r <= best and (g.__class__ is not Box or (g.sub not in ante and g not in unboxed)):
            if r < best:
                best, cands = r, [g]
            else:
                cands.append(g)
    if shared:
        f = shared[0] if len(shared) == 1 else min(shared, key=st.skeys.__getitem__)
        return done(_Macro("close-id", ante, succ, f))
    for g in succ:
        r = succ_rank.get(g.__class__)
        if r is not None and r <= best:
            if r < best:
                best, cands = r, [g]
            else:
                cands.append(g)

    # invertible decomposition: the first rule with a principal formula, on the least one
    if cands:
        rule = _INVERTIBLE[best]
        f = cands[0] if len(cands) == 1 else min(cands, key=st.skeys.__getitem__)
        side, other = _sides(rule, ante, succ)
        rest, sub_unboxed = (side, unboxed | {f}) if rule.conn is Box else (_drop(side, f), unboxed)
        subs = []
        for premise in rule.premises:  # a later premise is built only once the earlier ones hold
            # unpacked first: a starred call leaves the interpreter's fast path for
            # Python-to-Python calls, which cost about 20 % on deep KD4 searches
            pa, ps = premise(_cap_add, f, rest, other)
            sub, witness = _decide(st, pa, ps, sub_unboxed)
            if sub is None:
                return fail(witness)  # the failing premise's world refutes this sequent too
            subs.append(sub)
        return done(_Macro(rule.kind, ante, succ, f, tuple(subs)))

    # modal leaf: only atoms, bot and boxes remain
    history = st.history
    if key in history:  # as for the memo, membership then an index
        return None, history[key]
    history[key] = len(history)
    box_rule = st.box_rule
    boxes, inner = _boxed_parts(ante)
    branches = [
        (box_rule.kind, bf, {bf.sub: 1})
        for bf in sorted({g for g in succ if isinstance(g, Box)}, key=st.skeys.__getitem__)
    ]
    if st.logic == Logic.KD4 and boxes:
        branches.append(("boxDR", None, {}))
    children = []
    for kind, bf, psucc in branches:
        pante = _capped(box_rule.ante(_cap_add, boxes, inner, bf))
        sub, witness = _decide(st, pante, psucc, frozenset())
        if sub is not None:
            del history[key]
            return done(_Macro(kind, ante, succ, bf, (sub,)))
        children.append(witness)
    del history[key]
    return fail(_World(ante, children))


# -- reading a countermodel off a failure witness ------------------------------


def _world_graph(root: _World) -> tuple[list[_World], list[list[int]], list[int], list[int]]:
    """The worlds that root reaches, in pre-order; each one's direct successors
    (its children, a history hit resolved to its ancestor); each one's
    cluster, named by the position of its shallowest world; and the
    positions in post-order.

    A history hit closes a cycle through the worlds on the path from its
    ancestor down, which therefore form one cluster.  Only blocked worlds
    hold history hits, each blocked world is the child of one world, and the
    memo serves only unblocked ones, so the walk's stack is the search's
    branch wherever a history hit is read: a hit's depth is a stack depth.
    The walk keeps an explicit stack, as deep as the chain of modal leaves.
    """
    worlds, pos, succ, parent = [root], {root: 0}, [[]], [0]
    post = []
    stack = [(0, iter(root.children))]

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    while stack:
        i, kids = stack[-1]
        c = next(kids, None)
        if c is None:
            stack.pop()
            post.append(i)
        elif c.__class__ is int:
            top = stack[c][0]
            succ[i].append(top)
            for j, _ in stack[c + 1:]:
                parent[find(j)] = find(top)
        else:
            j = pos.get(c)
            if j is None:
                j = pos[c] = len(worlds)
                worlds.append(c)
                succ.append([])
                parent.append(j)
                stack.append((j, iter(c.children)))
            succ[i].append(j)
    return worlds, succ, [find(i) for i in range(len(worlds))], post


def _search_model(logic: Logic, root: _World, names: list[str], max_nodes: int) -> KripkeModel | None:
    """The countermodel of a failed search, refuting its goal at k0; None when it
    has more than max_nodes nodes.

    A world forces the atoms of its antecedent.  The worlds of one cycle are
    one reflexive cluster, and so is every S4 world and every KD4 world
    without successors.  K4, KD4 and S4 need a rooted tree of clusters, so
    the cluster quotient is unravelled into one; a GL witness has no history
    hits, and its worlds are the nodes of an irreflexive DAG.  The relation
    is the transitive closure; nodes are named in pre-order, k0 the root.
    """
    if logic == Logic.GL:
        placed, succ, _, post = _world_graph(root)
        if len(placed) > max_nodes:
            return None
        seen = [0] * len(placed)  # bit j: the world sees world j; post-order closes it bottom-up
        for i in post:
            for j in succ[i]:
                seen[i] |= seen[j] | 1 << j
        relation = frozenset((f"k{i}", f"k{j}") for i, row in enumerate(seen)
                             for j in range(len(placed)) if row >> j & 1)
        tree_clusters = None
    else:
        worlds, succ, cluster, _ = _world_graph(root)
        members: dict[int, list[int]] = {}
        for i, c in enumerate(cluster):
            members.setdefault(c, []).append(i)
        placed, tree_clusters, pairs = [], [], []
        todo = [(0, ())]  # (cluster, the names of its copy's ancestors)
        while todo:
            c, above = todo.pop()
            ms = members[c]
            if len(placed) + len(ms) > max_nodes:
                return None
            below = dict.fromkeys(cluster[j] for i in ms for j in succ[i] if cluster[j] != c)
            names_here = tuple(f"k{len(placed) + t}" for t in range(len(ms)))
            placed += [worlds[i] for i in ms]
            tree_clusters.append(frozenset(names_here))
            pairs += [(a, b) for a in above for b in names_here]
            if (logic == Logic.S4 or len(ms) > 1 or ms[0] in succ[ms[0]]
                    or (logic == Logic.KD4 and not below)):
                pairs += [(a, b) for a in names_here for b in names_here]
            todo += [(d, above + names_here) for d in reversed(below)]
        relation = frozenset(pairs)
        tree_clusters = tuple(tree_clusters)
    nodes = tuple(f"k{t}" for t in range(len(placed)))
    true_atoms = [{f.name for f in w.ante if f.__class__ is Atom} for w in placed]
    valuation = {a: frozenset(k for k, ts in zip(nodes, true_atoms) if a in ts) for a in names}
    return KripkeModel(nodes, relation, valuation, tree_clusters)


# -- replaying a successful search into a primitive-rule derivation ----------


def _seq_of(st: _SearchState, ante: dict, succ: dict) -> Sequent:
    left = []
    for f in sorted(ante, key=st.skeys.__getitem__):
        left.extend([f] * ante[f])
    right = []
    for f in sorted(succ, key=st.skeys.__getitem__):
        right.extend([f] * succ[f])
    return Sequent(tuple(left), tuple(right))


def _restructure(st: _SearchState, d: Derivation, has_a: dict, has_s: dict,
                 ante: dict, succ: dict) -> Derivation:
    """Weaken and contract d, which concludes has_a => has_s (held by the caller, so not
    counted again), to ante => succ: per side, in print-key order, each count steps
    toward its target by wL/wR while below it and by cL/cR while above it."""
    cur = [has_a, has_s]
    for i, want, weaken, contract in ((0, ante, "wL", "cL"), (1, succ, "wR", "cR")):
        if cur[i] == want:
            continue
        for f in sorted(cur[i] | want, key=st.skeys.__getitem__):  # dict |: no formula is hashed again
            have, n = cur[i].get(f, 0), want.get(f, 0)
            for _ in range(have, n):
                cur[i] = _plus(cur[i], f)
                d = Derivation(_seq_of(st, cur[0], cur[1]), weaken, (d,))
            for _ in range(n, have):
                cur[i] = _drop(cur[i], f)
                d = Derivation(_seq_of(st, cur[0], cur[1]), contract, (d,))
    return d


def _expand(st: _SearchState, m: _Macro) -> Derivation:
    """Turn one macro step into primitive rules, recursing on sub-proofs."""
    ante, succ, f = m.ante, m.succ, m.principal

    def sub_at(i: int, want: tuple[dict, dict]) -> Derivation:
        # search premises are duplicate-capped; pad back up to the exact rule premise
        want_a, want_s = want
        sub = m.subs[i]
        return _restructure(st, _expand(st, sub), sub.ante, sub.succ, want_a, want_s)

    if m.kind == "close-bot":
        leaf = Derivation(Sequent((BOT,), ()), "Axiom-Bot")
        return _restructure(st, leaf, {BOT: 1}, {}, ante, succ)
    if m.kind == "close-id":
        leaf = Derivation(Sequent((f,), (f,)), "Axiom-Id")
        return _restructure(st, leaf, {f: 1}, {f: 1}, ante, succ)

    rule = _RULE_OF_KIND.get(m.kind)
    if rule is not None:
        side, other = _sides(rule, ante, succ)
        rest = side if rule.conn is Box else _drop(side, f)
        ds = tuple(sub_at(i, premise(_plus, f, rest, other)) for i, premise in enumerate(rule.premises))
        if len(ds) == 2:  # the two premises split the context: conclude on both copies
            rest, other = _sum(rest, rest), _sum(other, other)
        elif rule.conn in (And, Or):  # AndL and OrR take one immediate subformula at a time
            first = _sides(rule, _plus(_plus(rest, f.right), f), other)
            ds = (Derivation(_seq_of(st, *first), rule.primitive, ds),)
            rest = _plus(rest, f)
        elif rule.conn is not Box:  # NegL, NegR and ImpR conclude on the goal itself
            return Derivation(_seq_of(st, ante, succ), rule.primitive, ds)
        # the other rules conclude on more than the goal (BoxL keeps its box): contract
        has_a, has_s = _sides(rule, _plus(rest, f), other)
        d = Derivation(_seq_of(st, has_a, has_s), rule.primitive, ds)
        return _restructure(st, d, has_a, has_s, ante, succ)

    boxes, inner = _boxed_parts(ante)
    box_rule = st.box_rule
    if m.kind == "boxDR":
        d = sub_at(0, (box_rule.ante(_plus, boxes, inner, None), {}))
        has_s = {}
        d = Derivation(_seq_of(st, boxes, has_s), "BoxDR", (d,))
    else:
        d = sub_at(0, (box_rule.ante(_plus, boxes, inner, f), {f.sub: 1}))
        has_s = {f: 1}
        d = Derivation(_seq_of(st, boxes, has_s), box_rule.primitive, (d,))
    return _restructure(st, d, boxes, has_s, ante, succ)


def gls_reduce(a: Formula) -> Formula:
    """Conjunction of reflection instances over the boxed subformulas of a, implying a.

    The empty conjunction is top.
    """
    # each distinct boxed subformula once, in box_occurrences order
    boxed = dict.fromkeys(g for g in preorder(a) if g.__class__ is Box)
    return Imp(conj([Imp(b, b.sub) for b in boxed]), a)


def _sequent_goal(s: Sequent) -> Formula:
    if not s.ante and len(s.succ) == 1:
        return s.succ[0]
    return s.formula()


def _normalized(s: Sequent) -> Sequent:
    return Sequent(tuple(normalize_top(f) for f in s.ante), tuple(normalize_top(f) for f in s.succ))


def _search(logic: Logic, s: Sequent,
            budget: Budget) -> tuple[_SearchState, Sequent, Sequent, _Macro | None, _World | None]:
    """Shared by prove and search_provable: (state, searched sequent, its top-normalized
    form, macro proof or None, failure witness or None).  GLS searches its GL
    reduction instance."""
    if logic == Logic.GLS:
        logic, s = Logic.GL, Sequent((), (gls_reduce(_sequent_goal(s)),))
    st = _SearchState(logic, budget)
    norm = _normalized(s)
    proof, witness = _decide(st, _capped(_count(norm.ante)), _capped(_count(norm.succ)), frozenset())
    return st, s, norm, proof, witness


def search_provable(logic: Logic, s: Sequent, budget: Budget | None = None) -> bool | None:
    """Verdict-only search, without countermodel extraction: True or False, or
    None when the budget runs out (the three-valued verdict of PropVerdict.provable)."""
    try:
        return _search(logic, s, budget if budget is not None else Budget())[3] is not None
    except BudgetExhausted:
        return None


def prove(logic: Logic, s: Sequent, budget: Budget | None = None) -> ProveResult:
    """Decide a sequent: a checkable cut-free derivation, or a verified countermodel.

    The countermodel is read off the failed search.  Only when it has more
    nodes than the budget's bound (the larger of max_nodes and
    escalate_nodes) does find_countermodel scan the frames up to that bound
    instead, so a verdict is Exhausted exactly where that scan finds nothing.

    GLS is decided by reduction: Provable carries the GL derivation of the
    reduced sequent; NotProvable carries the failed reduction instance with
    its GL countermodel as evidence (GLS has no frame class here).
    """
    budget = budget if budget is not None else Budget()
    try:
        st, searched, norm, proof, witness = _search(logic, s, budget)
    except BudgetExhausted as e:
        return Exhausted(logic, s, e.reason)
    reduction = searched.succ[0] if logic == Logic.GLS else None
    if proof is not None:
        d = _expand(st, proof)
        d = _restructure(st, d, proof.ante, proof.succ, _count(norm.ante), _count(norm.succ))
        return Provable(logic, s, Derivation(norm, d.rule, d.premises), reduction)

    goal = searched.formula()
    frame_class = FRAME_OF_LOGIC[st.logic]
    max_nodes = max(budget.max_nodes, budget.escalate_nodes)
    model = _search_model(st.logic, witness, sorted(atoms(goal)), max_nodes)
    if model is not None:
        # evidence, not trust: a model that fails either check is a bug, never a fallback
        if validate_frame(model, frame_class) != [] or check(model, "k0", goal):
            raise AssertionError("countermodel failed re-verification")
        return NotProvable(logic, s, model, "k0", reduction)
    try:
        hit = find_countermodel(goal, frame_class, max_nodes, budget)
    except BudgetExhausted as e:
        return Exhausted(logic, s, e.reason)
    if hit is None:
        return Exhausted(logic, s, f"no countermodel within {max_nodes} nodes")
    model, node = hit
    # find_countermodel has already confirmed with the naive checker that the
    # goal fails at node; it does not validate modal frames, so that stays here
    if validate_frame(model, frame_class) != []:
        raise AssertionError("countermodel failed re-verification")
    return NotProvable(logic, s, model, node, reduction)


def derives(logic: Logic, gamma, a: Formula, budget: Budget | None = None) -> ProveResult:
    """Local consequence: decide gamma => a."""
    return prove(logic, Sequent(tuple(gamma), (a,)), budget)
