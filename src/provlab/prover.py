"""Backward proof search for K4, KD4, S4, GL, and the GLS reduction to GL.

The search works on multisets with duplicate counts capped at two (the
standard contraction bound for these calculi).  Fully invertible steps
(the propositional rules, and S4 unboxing which keeps the box) are applied
eagerly; the non-invertible box rules branch, with a history check blocking
any sequent repeated along a branch.  A successful search is replayed into a
cut-free derivation made of the primitive rules only, so every Provable
verdict is independently checkable; NotProvable verdicts carry a bounded-
enumeration countermodel that is re-verified before being returned.

One table of invertible rules, and one right box rule per logic, drive both
the search and the replay: each row builds its premises for the search
(with duplicates capped) and again for the replay (exact), so the two cannot
drift apart.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field

from .budget import Budget, BudgetExhausted
from .calculus import Derivation, Logic
from .formulas import (
    BOT,
    And,
    Box,
    Formula,
    Imp,
    Neg,
    Or,
    Sequent,
    Top,
    conj,
    print_formula,
    subformula_occurrences,
)
from .frames import find_countermodel
from .kripke import (
    FrameClass,
    GL_FRAME,
    K4_FRAME,
    KD4_FRAME,
    KripkeModel,
    S4_FRAME,
    check,  # unused here; kept because the benchmark's tracer wraps provlab.prover.check
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
    match f:
        case Top():
            return _NOT_BOT
        case Neg(sub) | Box(sub):
            s = normalize_top(sub)
            return f if s is sub else f.__class__(s)
        case And(l, r) | Or(l, r) | Imp(l, r):
            nl, nr = normalize_top(l), normalize_top(r)
            return f if nl is l and nr is r else f.__class__(nl, nr)
        case _:
            return f


@dataclass
class _Macro:
    kind: str
    ante: Counter
    succ: Counter
    principal: Formula | None
    subs: tuple["_Macro", ...] = ()


@dataclass
class _SearchState:
    logic: Logic
    budget: Budget
    skeys: dict[Formula, str] = field(default_factory=dict)
    memo_true: dict = field(default_factory=dict)
    memo_false: set = field(default_factory=set)


def _skey(st: _SearchState, f: Formula) -> str:
    s = st.skeys.get(f)
    if s is None:
        s = print_formula(f)
        st.skeys[f] = s
    return s


def _copy(c: Counter, _new=Counter.__new__) -> Counter:
    # Counter(c) goes through Counter.update and an ABC Mapping check; an empty
    # Counter filled by dict.update is the same Counter at a fraction of the cost
    out = _new(Counter)
    dict.update(out, c)
    return out


def _cap_add(c: Counter, f: Formula) -> Counter:
    out = _copy(c)
    if out[f] < _CAP:
        out[f] += 1
    return out


def _drop(c: Counter, f: Formula) -> Counter:
    out = _copy(c)
    out[f] -= 1
    if out[f] <= 0:
        del out[f]
    return out


def _plus(c: Counter, f: Formula, n: int = 1) -> Counter:
    out = _copy(c)
    out[f] += n
    return out


def _capped(c: Counter) -> Counter:
    return Counter({f: min(n, _CAP) for f, n in c.items()})


def _pick(st: _SearchState, candidates) -> Formula | None:
    best = None
    for f in candidates:
        if best is None or _skey(st, f) < _skey(st, best):
            best = f
    return best


def _boxed_parts(ante: Counter) -> tuple[Counter, Counter]:
    boxes = Counter()
    inner = Counter()
    for f, n in ante.items():
        if isinstance(f, Box):
            boxes[f] += n
            inner[f.sub] += n
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
_BOX4R = _BoxRule("box4R", "Box4R", lambda add, boxes, inner, bf: boxes + inner)
_BOX_RULE = {
    Logic.K4: _BOX4R,
    Logic.KD4: _BOX4R,
    Logic.S4: _BoxRule("boxSR", "BoxSR", lambda add, boxes, inner, bf: boxes),
    Logic.GL: _BoxRule("GLR", "GLR", lambda add, boxes, inner, bf: add(boxes + inner, bf)),  # the diagonal formula
}
_RULES_OF_LOGIC = {lg: tuple(r for r in _INVERTIBLE if r.conn is not Box or lg == Logic.S4) for lg in _BOX_RULE}


def _sides(rule: _Rule, ante: Counter, succ: Counter) -> tuple[Counter, Counter]:
    """(f's side, the other side) for rule's principal formula f; applied to
    (f's side, the other side) it gives back (ante, succ)."""
    return (ante, succ) if rule.left else (succ, ante)


def _decide(
    st: _SearchState,
    ante: Counter,
    succ: Counter,
    history: frozenset,
    unboxed: frozenset,
) -> tuple[_Macro | None, bool]:
    """Search a capped-multiset sequent; returns (macro proof, blocked flag).

    The blocked flag reports whether the failure involved a history cut; only
    unblocked failures are history-independent and safe to cache.
    """
    key = frozenset(ante.items()), frozenset(succ.items())
    hit = st.memo_true.get(key)
    if hit is not None:
        return hit, False
    if (key, unboxed) in st.memo_false:
        return None, False
    st.budget.spend_step()

    def done(m: _Macro) -> tuple[_Macro, bool]:
        st.memo_true[key] = m
        return m, False

    def fail(blocked: bool) -> tuple[None, bool]:
        if not blocked:
            st.memo_false.add((key, unboxed))
        return None, blocked

    # closure
    if BOT in ante:
        return done(_Macro("close-bot", ante, succ, BOT))
    shared = _pick(st, (f for f in ante if f in succ))
    if shared is not None:
        return done(_Macro("close-id", ante, succ, shared))

    # invertible decomposition: the first rule with a principal formula
    for rule in _RULES_OF_LOGIC[st.logic]:
        conn = rule.conn
        if conn is Box:  # once per box and modal layer, and only while its unboxing is new
            f = _pick(st, (g for g in ante if isinstance(g, Box) and g.sub not in ante and g not in unboxed))
        else:
            f = _pick(st, (g for g in (ante if rule.left else succ) if isinstance(g, conn)))
        if f is None:
            continue
        side, other = _sides(rule, ante, succ)
        rest, sub_unboxed = (side, unboxed | {f}) if conn is Box else (_drop(side, f), unboxed)
        subs = []
        for premise in rule.premises:  # a later premise is built only once the earlier ones hold
            # unpacked first: a starred call leaves the interpreter's fast path for
            # Python-to-Python calls, which cost about 20 % on deep KD4 searches
            pa, ps = premise(_cap_add, f, rest, other)
            sub, blocked = _decide(st, pa, ps, history, sub_unboxed)
            if sub is None:
                return fail(blocked)
            subs.append(sub)
        return done(_Macro(rule.kind, ante, succ, f, tuple(subs)))

    # modal leaf: only atoms, bot and boxes remain
    if key in history:
        return None, True
    history = history | {key}
    box_rule = _BOX_RULE[st.logic]
    boxes, inner = _boxed_parts(ante)
    branches = [
        (box_rule.kind, bf, Counter({bf.sub: 1}))
        for bf in sorted({g for g in succ if isinstance(g, Box)}, key=lambda g: _skey(st, g))
    ]
    if st.logic == Logic.KD4 and boxes:
        branches.append(("boxDR", None, Counter()))
    blocked_any = False
    for kind, bf, psucc in branches:
        pante = _capped(box_rule.ante(_cap_add, boxes, inner, bf))
        sub, blocked = _decide(st, pante, psucc, history, frozenset())
        if sub is not None:
            return done(_Macro(kind, ante, succ, bf, (sub,)))
        blocked_any |= blocked
    return fail(blocked_any)


# -- replaying a successful search into a primitive-rule derivation ----------


def _seq_of(st: _SearchState, ante: Counter, succ: Counter) -> Sequent:
    left = []
    for f in sorted(ante, key=lambda g: _skey(st, g)):
        left.extend([f] * ante[f])
    right = []
    for f in sorted(succ, key=lambda g: _skey(st, g)):
        right.extend([f] * succ[f])
    return Sequent(tuple(left), tuple(right))


def _weaken_up(st: _SearchState, d: Derivation, ante: Counter, succ: Counter) -> Derivation:
    cur_a = Counter(d.sequent.ante)
    cur_s = Counter(d.sequent.succ)
    for f in sorted(ante, key=lambda g: _skey(st, g)):
        while cur_a[f] < ante[f]:
            cur_a[f] += 1
            d = Derivation(_seq_of(st, cur_a, cur_s), "wL", (d,))
    for f in sorted(succ, key=lambda g: _skey(st, g)):
        while cur_s[f] < succ[f]:
            cur_s[f] += 1
            d = Derivation(_seq_of(st, cur_a, cur_s), "wR", (d,))
    return d


def _contract_down(st: _SearchState, d: Derivation, ante: Counter, succ: Counter) -> Derivation:
    cur_a = Counter(d.sequent.ante)
    cur_s = Counter(d.sequent.succ)
    for f in sorted(cur_a, key=lambda g: _skey(st, g)):
        while cur_a[f] > ante[f]:
            cur_a[f] -= 1
            d = Derivation(_seq_of(st, cur_a, cur_s), "cL", (d,))
    for f in sorted(cur_s, key=lambda g: _skey(st, g)):
        while cur_s[f] > succ[f]:
            cur_s[f] -= 1
            d = Derivation(_seq_of(st, cur_a, cur_s), "cR", (d,))
    return d


def _expand(st: _SearchState, m: _Macro) -> Derivation:
    """Turn one macro step into primitive rules, recursing on sub-proofs."""
    ante, succ, f = m.ante, m.succ, m.principal

    def sub_at(i: int, want: tuple[Counter, Counter]) -> Derivation:
        # search premises are duplicate-capped; pad back up to the exact rule premise
        want_a, want_s = want
        return _weaken_up(st, _expand(st, m.subs[i]), want_a, want_s)

    if m.kind == "close-bot":
        leaf = Derivation(Sequent((BOT,), ()), "Axiom-Bot")
        return _weaken_up(st, leaf, ante, succ)
    if m.kind == "close-id":
        leaf = Derivation(Sequent((f,), (f,)), "Axiom-Id")
        return _weaken_up(st, leaf, ante, succ)

    rule = _RULE_OF_KIND.get(m.kind)
    if rule is not None:
        side, other = _sides(rule, ante, succ)
        rest = side if rule.conn is Box else _drop(side, f)
        ds = tuple(sub_at(i, premise(_plus, f, rest, other)) for i, premise in enumerate(rule.premises))
        if len(ds) == 2:  # the two premises split the context: conclude on both copies
            rest, other = rest + rest, other + other
        elif rule.conn in (And, Or):  # AndL and OrR take one immediate subformula at a time
            first = _sides(rule, _plus(_plus(rest, f.right), f), other)
            ds = (Derivation(_seq_of(st, *first), rule.primitive, ds),)
            rest = _plus(rest, f)
        elif rule.conn is not Box:  # NegL, NegR and ImpR conclude on the goal itself
            return Derivation(_seq_of(st, ante, succ), rule.primitive, ds)
        # the other rules conclude on more than the goal (BoxL keeps its box): contract
        d = Derivation(_seq_of(st, *_sides(rule, _plus(rest, f), other)), rule.primitive, ds)
        return _contract_down(st, d, ante, succ)

    boxes, inner = _boxed_parts(ante)
    box_rule = _BOX_RULE[st.logic]
    if m.kind == "boxDR":
        d = sub_at(0, (box_rule.ante(_plus, boxes, inner, None), Counter()))
        d = Derivation(_seq_of(st, boxes, Counter()), "BoxDR", (d,))
    else:
        d = sub_at(0, (box_rule.ante(_plus, boxes, inner, f), Counter({f.sub: 1})))
        d = Derivation(_seq_of(st, boxes, Counter({f: 1})), box_rule.primitive, (d,))
    return _weaken_up(st, d, ante, succ)


def gls_reduce(a: Formula) -> Formula:
    """Conjunction of reflection instances over the boxed subformulas of a, implying a.

    The empty conjunction is top.
    """
    # each distinct boxed subformula once, in box_occurrences order
    boxed = dict.fromkeys(g for _, g in subformula_occurrences(a) if isinstance(g, Box))
    return Imp(conj([Imp(b, b.sub) for b in boxed]), a)


def _sequent_goal(s: Sequent) -> Formula:
    if not s.ante and len(s.succ) == 1:
        return s.succ[0]
    return s.formula()


def _normalized(s: Sequent) -> Sequent:
    return Sequent(tuple(normalize_top(f) for f in s.ante), tuple(normalize_top(f) for f in s.succ))


def _search(logic: Logic, s: Sequent, budget: Budget) -> tuple[_SearchState, Sequent, Sequent, _Macro | None]:
    """Shared by prove and search_provable: (state, searched sequent, its top-normalized
    form, macro proof or None).  GLS searches its GL reduction instance."""
    if logic == Logic.GLS:
        logic, s = Logic.GL, Sequent((), (gls_reduce(_sequent_goal(s)),))
    st = _SearchState(logic, budget)
    norm = _normalized(s)
    proof, _ = _decide(st, _capped(Counter(norm.ante)), _capped(Counter(norm.succ)), frozenset(), frozenset())
    return st, s, norm, proof


def search_provable(logic: Logic, s: Sequent, budget: Budget | None = None) -> bool:
    """Verdict-only search, without countermodel extraction (raises BudgetExhausted)."""
    return _search(logic, s, budget if budget is not None else Budget())[3] is not None


def prove(logic: Logic, s: Sequent, budget: Budget | None = None) -> ProveResult:
    """Decide a sequent: a checkable cut-free derivation, or a verified countermodel.

    GLS is decided by reduction: Provable carries the GL derivation of the
    reduced sequent; NotProvable carries the failed reduction instance with
    its GL countermodel as evidence (GLS has no frame class here).
    """
    budget = budget if budget is not None else Budget()
    try:
        st, searched, norm, proof = _search(logic, s, budget)
    except BudgetExhausted as e:
        return Exhausted(logic, s, e.reason)
    reduction = searched.succ[0] if logic == Logic.GLS else None
    if proof is not None:
        d = _expand(st, proof)
        d = _weaken_up(st, d, Counter(norm.ante), Counter(norm.succ))
        return Provable(logic, s, Derivation(norm, d.rule, d.premises), reduction)

    goal = searched.formula()
    frame_class = FRAME_OF_LOGIC[st.logic]
    max_nodes = max(budget.max_nodes, budget.escalate_nodes)
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
