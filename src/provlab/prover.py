"""Backward proof search for K4, KD4, S4, GL, and the GLS reduction to GL.

The search works on multisets with duplicate counts capped at two (the
standard contraction bound for these calculi).  Fully invertible steps
(the propositional rules, and S4 unboxing which keeps the box) are applied
eagerly; the non-invertible box rules branch, with a history check blocking
any sequent repeated along a branch.  A successful search is replayed into a
cut-free derivation made of the primitive rules only, so every Provable
verdict is independently checkable; NotProvable verdicts carry a bounded-
enumeration countermodel that is re-verified before being returned.
"""

from __future__ import annotations

from collections import Counter
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
    box_occurrences,
    conj,
    print_formula,
    subformula_at,
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


def _cap_add(c: Counter, f: Formula) -> Counter:
    out = Counter(c)
    if out[f] < _CAP:
        out[f] += 1
    return out


def _drop(c: Counter, f: Formula) -> Counter:
    out = Counter(c)
    out[f] -= 1
    if out[f] <= 0:
        del out[f]
    return out


def _plus(c: Counter, f: Formula, n: int = 1) -> Counter:
    out = Counter(c)
    out[f] += n
    return out


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

    # closure
    if BOT in ante:
        return done(_Macro("close-bot", ante, succ, BOT))
    shared = _pick(st, (f for f in ante if f in succ))
    if shared is not None:
        return done(_Macro("close-id", ante, succ, shared))

    # invertible decomposition, non-branching first
    f = _pick(st, (g for g in ante if isinstance(g, Neg)))
    if f is not None:
        sub, blocked = _decide(st, _drop(ante, f), _cap_add(succ, f.sub), history, unboxed)
        if sub:
            return done(_Macro("negL", ante, succ, f, (sub,)))
        if not blocked:
            st.memo_false.add((key, unboxed))
        return None, blocked
    f = _pick(st, (g for g in succ if isinstance(g, Neg)))
    if f is not None:
        sub, blocked = _decide(st, _cap_add(ante, f.sub), _drop(succ, f), history, unboxed)
        if sub:
            return done(_Macro("negR", ante, succ, f, (sub,)))
        if not blocked:
            st.memo_false.add((key, unboxed))
        return None, blocked
    f = _pick(st, (g for g in ante if isinstance(g, And)))
    if f is not None:
        pa = _cap_add(_cap_add(_drop(ante, f), f.left), f.right)
        sub, blocked = _decide(st, pa, succ, history, unboxed)
        if sub:
            return done(_Macro("andL", ante, succ, f, (sub,)))
        if not blocked:
            st.memo_false.add((key, unboxed))
        return None, blocked
    f = _pick(st, (g for g in succ if isinstance(g, Or)))
    if f is not None:
        ps = _cap_add(_cap_add(_drop(succ, f), f.left), f.right)
        sub, blocked = _decide(st, ante, ps, history, unboxed)
        if sub:
            return done(_Macro("orR", ante, succ, f, (sub,)))
        if not blocked:
            st.memo_false.add((key, unboxed))
        return None, blocked
    f = _pick(st, (g for g in succ if isinstance(g, Imp)))
    if f is not None:
        sub, blocked = _decide(st, _cap_add(ante, f.left), _cap_add(_drop(succ, f), f.right), history, unboxed)
        if sub:
            return done(_Macro("impR", ante, succ, f, (sub,)))
        if not blocked:
            st.memo_false.add((key, unboxed))
        return None, blocked
    if st.logic == Logic.S4:
        f = _pick(
            st,
            (g for g in ante if isinstance(g, Box) and g.sub not in ante and g not in unboxed),
        )
        if f is not None:
            sub, blocked = _decide(st, _cap_add(ante, f.sub), succ, history, unboxed | {f})
            if sub:
                return done(_Macro("unboxS4", ante, succ, f, (sub,)))
            if not blocked:
                st.memo_false.add((key, unboxed))
            return None, blocked

    # branching invertible rules
    f = _pick(st, (g for g in ante if isinstance(g, Or)))
    if f is not None:
        rest = _drop(ante, f)
        s1, b1 = _decide(st, _cap_add(rest, f.left), succ, history, unboxed)
        if s1 is None:
            if not b1:
                st.memo_false.add((key, unboxed))
            return None, b1
        s2, b2 = _decide(st, _cap_add(rest, f.right), succ, history, unboxed)
        if s2 is None:
            if not b2:
                st.memo_false.add((key, unboxed))
            return None, b2
        return done(_Macro("orL", ante, succ, f, (s1, s2)))
    f = _pick(st, (g for g in succ if isinstance(g, And)))
    if f is not None:
        rest = _drop(succ, f)
        s1, b1 = _decide(st, ante, _cap_add(rest, f.left), history, unboxed)
        if s1 is None:
            if not b1:
                st.memo_false.add((key, unboxed))
            return None, b1
        s2, b2 = _decide(st, ante, _cap_add(rest, f.right), history, unboxed)
        if s2 is None:
            if not b2:
                st.memo_false.add((key, unboxed))
            return None, b2
        return done(_Macro("andR", ante, succ, f, (s1, s2)))
    f = _pick(st, (g for g in ante if isinstance(g, Imp)))
    if f is not None:
        rest = _drop(ante, f)
        s1, b1 = _decide(st, rest, _cap_add(succ, f.left), history, unboxed)
        if s1 is None:
            if not b1:
                st.memo_false.add((key, unboxed))
            return None, b1
        s2, b2 = _decide(st, _cap_add(rest, f.right), succ, history, unboxed)
        if s2 is None:
            if not b2:
                st.memo_false.add((key, unboxed))
            return None, b2
        return done(_Macro("impL", ante, succ, f, (s1, s2)))

    # modal leaf: only atoms, bot and boxes remain
    if key in history:
        return None, True
    history = history | {key}
    boxes, inner = _boxed_parts(ante)
    blocked_any = False
    for bf in sorted({g for g in succ if isinstance(g, Box)}, key=lambda g: _skey(st, g)):
        if st.logic in (Logic.K4, Logic.KD4):
            pante = boxes + inner
        elif st.logic == Logic.S4:
            pante = Counter(boxes)
        else:  # GL: carry the diagonal formula
            pante = _cap_add(boxes + inner, bf)
        pante = Counter({g: min(n, _CAP) for g, n in pante.items()})
        sub, blocked = _decide(st, pante, Counter({bf.sub: 1}), history, frozenset())
        if sub is not None:
            kind = {"K4": "box4R", "KD4": "box4R", "S4": "boxSR", "GL": "GLR"}[st.logic.value]
            return done(_Macro(kind, ante, succ, bf, (sub,)))
        blocked_any |= blocked
    if st.logic == Logic.KD4 and boxes:
        pante = Counter({g: min(n, _CAP) for g, n in (boxes + inner).items()})
        sub, blocked = _decide(st, pante, Counter(), history, frozenset())
        if sub is not None:
            return done(_Macro("boxDR", ante, succ, None, (sub,)))
        blocked_any |= blocked
    if not blocked_any:
        st.memo_false.add((key, unboxed))
    return None, blocked_any


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
    goal = _seq_of(st, ante, succ)

    def sub_at(i: int, want_a: Counter, want_s: Counter) -> Derivation:
        # search premises are duplicate-capped; pad back up to the exact rule premise
        return _weaken_up(st, _expand(st, m.subs[i]), want_a, want_s)

    if m.kind == "close-bot":
        leaf = Derivation(Sequent((BOT,), ()), "Axiom-Bot")
        return _weaken_up(st, leaf, ante, succ)
    if m.kind == "close-id":
        leaf = Derivation(Sequent((f,), (f,)), "Axiom-Id")
        return _weaken_up(st, leaf, ante, succ)
    if m.kind == "negL":
        d = sub_at(0, _drop(ante, f), _plus(succ, f.sub))
        return Derivation(goal, "NegL", (d,))
    if m.kind == "negR":
        d = sub_at(0, _plus(ante, f.sub), _drop(succ, f))
        return Derivation(goal, "NegR", (d,))
    if m.kind == "impR":
        d = sub_at(0, _plus(ante, f.left), _plus(_drop(succ, f), f.right))
        return Derivation(goal, "ImpR", (d,))
    if m.kind == "andL":
        rest = _drop(ante, f)
        d = sub_at(0, _plus(_plus(rest, f.left), f.right), succ)
        d = Derivation(_seq_of(st, _plus(_plus(rest, f.right), f), succ), "AndL", (d,))
        d = Derivation(_seq_of(st, _plus(_plus(rest, f), f), succ), "AndL", (d,))
        return Derivation(goal, "cL", (d,))
    if m.kind == "orR":
        rest = _drop(succ, f)
        d = sub_at(0, ante, _plus(_plus(rest, f.left), f.right))
        d = Derivation(_seq_of(st, ante, _plus(_plus(rest, f.right), f)), "OrR", (d,))
        d = Derivation(_seq_of(st, ante, _plus(_plus(rest, f), f)), "OrR", (d,))
        return Derivation(goal, "cR", (d,))
    if m.kind == "orL":
        rest = _drop(ante, f)
        d1 = sub_at(0, _plus(rest, f.left), succ)
        d2 = sub_at(1, _plus(rest, f.right), succ)
        wide = Derivation(_seq_of(st, _plus(rest + rest, f), succ + succ), "OrL", (d1, d2))
        return _contract_down(st, wide, ante, succ)
    if m.kind == "andR":
        rest = _drop(succ, f)
        d1 = sub_at(0, ante, _plus(rest, f.left))
        d2 = sub_at(1, ante, _plus(rest, f.right))
        wide = Derivation(_seq_of(st, ante + ante, _plus(rest + rest, f)), "AndR", (d1, d2))
        return _contract_down(st, wide, ante, succ)
    if m.kind == "impL":
        rest = _drop(ante, f)
        d1 = sub_at(0, rest, _plus(succ, f.left))
        d2 = sub_at(1, _plus(rest, f.right), succ)
        wide = Derivation(_seq_of(st, _plus(rest + rest, f), succ + succ), "ImpL", (d1, d2))
        return _contract_down(st, wide, ante, succ)
    if m.kind == "unboxS4":
        d = sub_at(0, _plus(ante, f.sub), succ)
        d = Derivation(_seq_of(st, _plus(ante, f), succ), "BoxL", (d,))
        return Derivation(goal, "cL", (d,))
    if m.kind in ("box4R", "boxSR", "GLR", "boxDR"):
        boxes, inner = _boxed_parts(ante)
        if m.kind == "boxDR":
            d = sub_at(0, boxes + inner, Counter())
            d = Derivation(_seq_of(st, boxes, Counter()), "BoxDR", (d,))
            return _weaken_up(st, d, ante, succ)
        if m.kind == "box4R":
            want = boxes + inner
        elif m.kind == "boxSR":
            want = Counter(boxes)
        else:
            want = _plus(boxes + inner, f)
        d = sub_at(0, want, Counter({f.sub: 1}))
        rule = {"box4R": "Box4R", "boxSR": "BoxSR", "GLR": "GLR"}[m.kind]
        d = Derivation(_seq_of(st, boxes, Counter({f: 1})), rule, (d,))
        return _weaken_up(st, d, ante, succ)
    raise AssertionError(f"unknown macro {m.kind}")


def gls_reduce(a: Formula) -> Formula:
    """Conjunction of reflection instances over the boxed subformulas of a, implying a.

    The empty conjunction is top.
    """
    boxed: list[Box] = []
    seen = set()
    for path in box_occurrences(a):
        g = subformula_at(a, path)
        if g not in seen:
            seen.add(g)
            boxed.append(g)
    return Imp(conj([Imp(b, b.sub) for b in boxed]), a)


def _sequent_goal(s: Sequent) -> Formula:
    if not s.ante and len(s.succ) == 1:
        return s.succ[0]
    return s.formula()


def _normalized(s: Sequent) -> Sequent:
    return Sequent(tuple(normalize_top(f) for f in s.ante), tuple(normalize_top(f) for f in s.succ))


def _capped(fs: tuple[Formula, ...]) -> Counter:
    c = Counter()
    for f in fs:
        c = _cap_add(c, f)
    return c


def search_provable(logic: Logic, s: Sequent, budget: Budget | None = None) -> bool:
    """Verdict-only search, without countermodel extraction (raises BudgetExhausted)."""
    if logic == Logic.GLS:
        return search_provable(Logic.GL, Sequent((), (gls_reduce(_sequent_goal(s)),)), budget)
    budget = budget if budget is not None else Budget()
    norm = _normalized(s)
    proof, _ = _decide(_SearchState(logic, budget), _capped(norm.ante), _capped(norm.succ),
                       frozenset(), frozenset())
    return proof is not None


def prove(logic: Logic, s: Sequent, budget: Budget | None = None) -> ProveResult:
    """Decide a sequent: a checkable cut-free derivation, or a verified countermodel.

    GLS is decided by reduction: Provable carries the GL derivation of the
    reduced sequent; NotProvable carries the failed reduction instance with
    its GL countermodel as evidence (GLS has no frame class here).
    """
    budget = budget if budget is not None else Budget()
    if logic == Logic.GLS:
        red = gls_reduce(_sequent_goal(s))
        res = prove(Logic.GL, Sequent((), (red,)), budget)
        match res:
            case Provable(_, _, d):
                return Provable(Logic.GLS, s, d, reduction=red)
            case NotProvable(_, _, model, node):
                return NotProvable(Logic.GLS, s, model, node, reduction=red)
            case Exhausted(_, _, reason):
                return Exhausted(Logic.GLS, s, reason)

    st = _SearchState(logic, budget)
    norm = _normalized(s)
    try:
        proof, _ = _decide(st, _capped(norm.ante), _capped(norm.succ), frozenset(), frozenset())
    except BudgetExhausted as e:
        return Exhausted(logic, s, e.reason)
    if proof is not None:
        d = _expand(st, proof)
        d = _weaken_up(st, d, Counter(norm.ante), Counter(norm.succ))
        return Provable(logic, s, Derivation(norm, d.rule, d.premises))

    goal = s.formula()
    frame_class = FRAME_OF_LOGIC[logic]
    try:
        hit = find_countermodel(goal, frame_class, budget.max_nodes, budget)
        if hit is None and budget.escalate_nodes > budget.max_nodes:
            hit = find_countermodel(goal, frame_class, budget.escalate_nodes, budget)
    except BudgetExhausted as e:
        return Exhausted(logic, s, e.reason)
    if hit is None:
        return Exhausted(logic, s, f"no countermodel within {budget.escalate_nodes} nodes")
    model, node = hit
    if validate_frame(model, frame_class) != [] or check(model, node, goal):
        raise AssertionError("countermodel failed re-verification")
    return NotProvable(logic, s, model, node)


def derives(logic: Logic, gamma, a: Formula, budget: Budget | None = None) -> ProveResult:
    """Local consequence: decide gamma => a."""
    return prove(logic, Sequent(tuple(gamma), (a,)), budget)
