"""The sequent calculi G(K4), G(KD4), G(S4) and the GL box rule, as checkable rules.

A derivation is a tree of sequents, each node labeled by a rule name.  The
checker matches rule instances up to reordering: contexts are compared as
multisets while main formulas must occur literally.  Exchange is therefore
admissible rather than a rule.  The axioms and the right box rules take
contexts S, D (Troelstra & Schwichtenberg, Basic Proof Theory, ch. 9; Avron,
JSL 49, 1984 for GL), so weakening is admissible; it stays a rule, as do
contraction and cut, and the exact forms A => A, bot =>, []G => []A are
instances:

  Axiom-Id   S, A => A, D            Axiom-Bot  S, bot => D
  Box4R      S, []G => []A, D  from  G, []G => A
  BoxSR      S, []G => []A, D  from  []G => A
  GLR        S, []G => []A, D  from  G, []G, []A => A
  BoxDR      S, []G => D       from  G, []G =>

A multiset is a plain dict from formula to count that never holds a zero
count, so multisets are equal exactly when their dicts are.  The checker
walks the tree with an explicit stack, so any depth checks without recursion.

Per logic, the admitted rules are the axioms, structural rules (including
cut, which the prover never emits) and propositional rules, plus:
  K4:  Box4R            KD4: Box4R, BoxDR
  S4:  BoxSR, BoxL      GL:  GLR

Each rule is stated once, as a row of a table written from the calculus (never
from the prover's own rule tables, which this module checks): ONE_PREMISE
gives a rule's principal formula and a test of its premise, SPLIT the active
formulas of the rules whose two premises split the context, and ARITY every
rule's premise count.  The axioms and right box rules read the whole
conclusion and stay explicit code; a box rule reads its []G off the premise,
so it too is checked without search.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .formulas import And, Bot, Box, Formula, Imp, Neg, Or, Sequent, print_sequent, size


class Logic(Enum):
    K4 = "K4"
    KD4 = "KD4"
    S4 = "S4"
    GL = "GL"
    GLS = "GLS"


AXIOM_ID = "Axiom-Id"
AXIOM_BOT = "Axiom-Bot"
STRUCTURAL = ("wL", "wR", "cL", "cR", "cut")
PROPOSITIONAL = ("OrL", "OrR", "AndL", "AndR", "ImpL", "ImpR", "NegL", "NegR")

RULES_BY_LOGIC: dict[Logic, frozenset[str]] = {
    Logic.K4: frozenset((AXIOM_ID, AXIOM_BOT) + STRUCTURAL + PROPOSITIONAL + ("Box4R",)),
    Logic.KD4: frozenset((AXIOM_ID, AXIOM_BOT) + STRUCTURAL + PROPOSITIONAL + ("Box4R", "BoxDR")),
    Logic.S4: frozenset((AXIOM_ID, AXIOM_BOT) + STRUCTURAL + PROPOSITIONAL + ("BoxSR", "BoxL")),
    Logic.GL: frozenset((AXIOM_ID, AXIOM_BOT) + STRUCTURAL + PROPOSITIONAL + ("GLR",)),
}


@dataclass(frozen=True)
class Derivation:
    sequent: Sequent
    rule: str
    premises: tuple["Derivation", ...] = ()

    def to_json(self) -> dict:
        memo: dict = {}  # one printer memo for the whole tree

        def go(d: Derivation) -> dict:
            return {"rule": d.rule, "sequent": print_sequent(d.sequent, memo), "premises": [go(p) for p in d.premises]}

        return go(self)

    def nodes(self) -> list["Derivation"]:
        """Every node in pre-order, first premise first; an explicit stack, so deep chains do not recurse."""
        out, stack = [], [self]
        while stack:
            d = stack.pop()
            out.append(d)
            stack.extend(reversed(d.premises))
        return out

    def node_count(self) -> int:
        return len(self.nodes())


def _count(fs) -> dict:
    out = {}
    for f in fs:
        out[f] = out.get(f, 0) + 1
    return out


def _counts(d: Derivation) -> tuple[dict, dict]:
    return _count(d.sequent.ante), _count(d.sequent.succ)


def _minus(c: dict, f: Formula) -> dict:
    out = dict(c)
    n = out.pop(f, 0) - 1
    if n > 0:
        out[f] = n
    return out


def _plus(c: dict, f: Formula) -> dict:
    out = dict(c)
    out[f] = out.get(f, 0) + 1
    return out


def _sum(a: dict, b: dict) -> dict:
    out = dict(a)
    for f, n in b.items():
        out[f] = out.get(f, 0) + n
    return out


ANTE, SUCC = 0, 1

# One-premise rules.  rule: (side of the principal formula f, its connective or
# None for any formula, whether the premise (pa, ps) is the rule's premise for f
# in the conclusion (ca, cs), message).  Each test compares the cheap side first.
ONE_PREMISE = {
    "wL": (ANTE, None, lambda f, ca, cs, pa, ps: ps == cs and pa == _minus(ca, f),
           "wL premise must drop one antecedent formula"),
    "wR": (SUCC, None, lambda f, ca, cs, pa, ps: pa == ca and ps == _minus(cs, f),
           "wR premise must drop one succedent formula"),
    "cL": (ANTE, None, lambda f, ca, cs, pa, ps: ps == cs and pa == _plus(ca, f),
           "cL premise must duplicate one antecedent formula"),
    "cR": (SUCC, None, lambda f, ca, cs, pa, ps: pa == ca and ps == _plus(cs, f),
           "cR premise must duplicate one succedent formula"),
    "AndL": (ANTE, And, lambda f, ca, cs, pa, ps: ps == cs and pa in (_swap(ca, f, f.left), _swap(ca, f, f.right)),
             "AndL instance does not match"),
    "OrR": (SUCC, Or, lambda f, ca, cs, pa, ps: pa == ca and ps in (_swap(cs, f, f.left), _swap(cs, f, f.right)),
            "OrR instance does not match"),
    "ImpR": (SUCC, Imp, lambda f, ca, cs, pa, ps: pa == _plus(ca, f.left) and ps == _swap(cs, f, f.right),
             "ImpR instance does not match"),
    "NegL": (ANTE, Neg, lambda f, ca, cs, pa, ps: pa == _minus(ca, f) and ps == _plus(cs, f.sub),
             "NegL instance does not match"),
    "NegR": (SUCC, Neg, lambda f, ca, cs, pa, ps: ps == _minus(cs, f) and pa == _plus(ca, f.sub),
             "NegR instance does not match"),
    "BoxL": (ANTE, Box, lambda f, ca, cs, pa, ps: ps == cs and pa == _swap(ca, f, f.sub),
             "BoxL instance does not match"),
}

# Two-premise rules that split the context.  rule: (side of the principal
# formula f, or None for cut, whose f is a formula of the first premise's
# succedent and leaves no trace in the conclusion; its connective; each
# premise's active formula as (side, part of f); message).  Without their
# active formulas the premises sum to the conclusion without f.
SPLIT = {
    "cut": (None, None, ((SUCC, lambda f: f), (ANTE, lambda f: f)), "cut formula not found"),
    "AndR": (SUCC, And, ((SUCC, lambda f: f.left), (SUCC, lambda f: f.right)), "AndR instance does not match"),
    "OrL": (ANTE, Or, ((ANTE, lambda f: f.left), (ANTE, lambda f: f.right)), "OrL instance does not match"),
    "ImpL": (ANTE, Imp, ((SUCC, lambda f: f.left), (ANTE, lambda f: f.right)), "ImpL instance does not match"),
}

ARITY = {AXIOM_ID: 0, AXIOM_BOT: 0, "Box4R": 1, "BoxDR": 1, "BoxSR": 1, "GLR": 1,
         **dict.fromkeys(ONE_PREMISE, 1), **dict.fromkeys(SPLIT, 2)}


def _swap(c: dict, f: Formula, g: Formula) -> dict:
    """c with one f replaced by g."""
    return _plus(_minus(c, f), g)


def _without(counts: tuple[dict, dict], side: int, f: Formula) -> tuple[dict, dict] | None:
    """counts with one f taken from side, or None if side holds no f."""
    if f not in counts[side]:
        return None
    return (_minus(counts[0], f), counts[1]) if side == ANTE else (counts[0], _minus(counts[1], f))


def _box_context(ca: dict, pa: dict) -> tuple[dict, dict]:
    """([]G, G) read off a premise pa = G, []G, with []G drawn from the boxed formulas
    of the conclusion's antecedent ca.  pa holds []B once per []B and once per [][]B
    in []G, so taking the larger formulas first fixes each count without search."""
    boxed, inner = {}, {}
    for g in sorted((g for g in ca if isinstance(g, Box)), key=size, reverse=True):
        n = pa.get(g, 0) - inner.get(g, 0)
        if n > 0:
            boxed[g] = n
            inner[g.sub] = inner.get(g.sub, 0) + n
    return boxed, inner


def _whole_error(rule: str, ca: dict, cs: dict, pas: list[tuple[dict, dict]]) -> str | None:
    """_rule_error for the axioms and the right box rules, whose context is the rest of the conclusion."""
    if rule == AXIOM_ID:
        return None if any(f in cs for f in ca) else "Axiom-Id needs one formula on both sides"
    if rule == AXIOM_BOT:
        return None if Bot() in ca else "Axiom-Bot needs bot in the antecedent"
    pa, ps = pas[0]
    a = next(iter(ps), None)
    if rule == "BoxDR" and ps:
        return "BoxDR premise succedent must be empty"
    if rule != "BoxDR" and (ps != {a: 1} or Box(a) not in cs):
        return f"{rule} premise succedent must be A for a []A of the conclusion"
    if rule == "GLR":  # the diagonal formula
        if Box(a) not in pa:
            return "GLR premise antecedent does not match"
        pa = _minus(pa, Box(a))
    boxed, inner = (pa, {}) if rule == "BoxSR" else _box_context(ca, pa)
    if pa == _sum(boxed, inner) and all(isinstance(g, Box) and ca.get(g, 0) >= n for g, n in boxed.items()):
        return None
    return f"{rule} premise antecedent does not match"


def _rule_error(rule: str, counts: tuple[dict, dict], pas: list[tuple[dict, dict]]) -> str | None:
    """None if the conclusion (as the multisets counts) over premises pas is an instance of rule, else a reason."""
    if len(pas) != ARITY[rule]:
        return f"{rule} expects {ARITY[rule]} premise(s), got {len(pas)}"
    ca, cs = counts
    if rule in ONE_PREMISE:
        side, conn, test, message = ONE_PREMISE[rule]
        pa, ps = pas[0]
        for f in counts[side]:
            if (conn is None or isinstance(f, conn)) and test(f, ca, cs, pa, ps):
                return None
        return message
    if rule in SPLIT:
        side, conn, ((side1, part1), (side2, part2)), message = SPLIT[rule]
        for f in pas[0][SUCC] if side is None else counts[side]:
            if conn is not None and not isinstance(f, conn):
                continue
            rest1, rest2 = _without(pas[0], side1, part1(f)), _without(pas[1], side2, part2(f))
            if rest1 is None or rest2 is None:
                continue
            want = counts if side is None else _without(counts, side, f)
            if want[ANTE] == _sum(rest1[ANTE], rest2[ANTE]) and want[SUCC] == _sum(rest1[SUCC], rest2[SUCC]):
                return None
        return message
    return _whole_error(rule, ca, cs, pas)


def diagnose_derivation(logic: Logic, d: Derivation) -> str | None:
    """None if d is a correct G(logic) derivation, else a diagnostic naming its first bad node in pre-order."""
    if logic == Logic.GLS:
        raise ValueError("GLS has no sequent calculus; check the reduced GL derivation")
    allowed = RULES_BY_LOGIC[logic]
    # a node's trail is (premise index, parent's trail): the path is built only on failure;
    # a premise's multisets, counted to check its parent, are kept for its own check
    stack = [(d, _counts(d), None)]
    while stack:
        d, counts, trail = stack.pop()
        if d.rule not in allowed:
            return f"rule {d.rule} is not part of G({logic.value}) (at {_path(trail)})"
        pas = [_counts(p) for p in d.premises]
        err = _rule_error(d.rule, counts, pas)
        if err is not None:
            return f"{err} (at {_path(trail)}: {print_sequent(d.sequent)})"
        for i in range(len(pas) - 1, -1, -1):
            stack.append((d.premises[i], pas[i], (i, trail)))
    return None


def _path(trail) -> list[int]:
    out = []
    while trail is not None:
        i, trail = trail
        out.append(i)
    return out[::-1]


def check_derivation(logic: Logic, d: Derivation) -> bool:
    """True iff every node instantiates a rule admitted by G(logic)."""
    return diagnose_derivation(logic, d) is None
