"""The sequent calculi G(K4), G(KD4), G(S4) and the GL box rule, as checkable rules.

A derivation is a tree of sequents, each node labeled by a rule name.  The
checker matches rule instances up to reordering: contexts are compared as
multisets while main formulas must occur literally.  Exchange is therefore
admissible rather than a rule; weakening and contraction stay explicit.

A multiset is a plain dict from formula to count that never holds a zero
count, so multisets are equal exactly when their dicts are.  The checker
walks the tree with an explicit stack, so any depth checks without recursion.

Per logic, the admitted rules are the axioms, structural rules (including
cut, which the prover never emits) and propositional rules, plus:
  K4:  Box4R            KD4: Box4R, BoxDR
  S4:  BoxSR, BoxL      GL:  GLR
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .formulas import And, Bot, Box, Formula, Imp, Neg, Or, Sequent, print_sequent


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

    def node_count(self) -> int:
        return 1 + sum(d.node_count() for d in self.premises)


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


def _unboxed(c: dict) -> dict | None:
    """The unboxings of c if every formula in c is boxed, else None."""
    inner = {}
    for f, n in c.items():
        if not isinstance(f, Box):
            return None
        inner[f.sub] = inner.get(f.sub, 0) + n
    return inner


def _rule_error(rule: str, concl: Sequent, counts: tuple[dict, dict], pas: list[tuple[dict, dict]]) -> str | None:
    """None if concl (as the multisets counts) over premises pas is an instance of rule, else a reason."""
    ca, cs = counts

    def arity(n: int) -> str | None:
        if len(pas) != n:
            return f"{rule} expects {n} premise(s), got {len(pas)}"
        return None

    if rule == AXIOM_ID:
        if err := arity(0):
            return err
        if len(concl.ante) == 1 and len(concl.succ) == 1 and concl.ante[0] == concl.succ[0]:
            return None
        return "Axiom-Id must be exactly A => A"

    if rule == AXIOM_BOT:
        if err := arity(0):
            return err
        if concl.ante == (Bot(),) and concl.succ == ():
            return None
        return "Axiom-Bot must be exactly bot =>"

    if rule == "wL":
        if err := arity(1):
            return err
        pa, ps = pas[0]
        for f in ca:
            if pa == _minus(ca, f) and ps == cs:
                return None
        return "wL premise must drop one antecedent formula"

    if rule == "wR":
        if err := arity(1):
            return err
        pa, ps = pas[0]
        for f in cs:
            if ps == _minus(cs, f) and pa == ca:
                return None
        return "wR premise must drop one succedent formula"

    if rule == "cL":
        if err := arity(1):
            return err
        pa, ps = pas[0]
        for f in ca:
            if pa == _plus(ca, f) and ps == cs:
                return None
        return "cL premise must duplicate one antecedent formula"

    if rule == "cR":
        if err := arity(1):
            return err
        pa, ps = pas[0]
        for f in cs:
            if ps == _plus(cs, f) and pa == ca:
                return None
        return "cR premise must duplicate one succedent formula"

    if rule == "cut":
        if err := arity(2):
            return err
        (p1a, p1s), (p2a, p2s) = pas
        for f in p1s:
            if p2a.get(f, 0) >= 1:
                if ca == _sum(p1a, _minus(p2a, f)) and cs == _sum(_minus(p1s, f), p2s):
                    return None
        return "cut formula not found"

    if rule == "AndL":
        if err := arity(1):
            return err
        pa, ps = pas[0]
        for f in ca:
            if isinstance(f, And) and ps == cs:
                rest = _minus(ca, f)
                if pa in (_plus(rest, f.left), _plus(rest, f.right)):
                    return None
        return "AndL instance does not match"

    if rule == "OrR":
        if err := arity(1):
            return err
        pa, ps = pas[0]
        for f in cs:
            if isinstance(f, Or) and pa == ca:
                rest = _minus(cs, f)
                if ps in (_plus(rest, f.left), _plus(rest, f.right)):
                    return None
        return "OrR instance does not match"

    if rule == "AndR":
        if err := arity(2):
            return err
        (p1a, p1s), (p2a, p2s) = pas
        for f in cs:
            if isinstance(f, And):
                if p1s.get(f.left, 0) < 1 or p2s.get(f.right, 0) < 1:
                    continue
                if ca == _sum(p1a, p2a) and _minus(cs, f) == _sum(_minus(p1s, f.left), _minus(p2s, f.right)):
                    return None
        return "AndR instance does not match"

    if rule == "OrL":
        if err := arity(2):
            return err
        (p1a, p1s), (p2a, p2s) = pas
        for f in ca:
            if isinstance(f, Or):
                if p1a.get(f.left, 0) < 1 or p2a.get(f.right, 0) < 1:
                    continue
                if _minus(ca, f) == _sum(_minus(p1a, f.left), _minus(p2a, f.right)) and cs == _sum(p1s, p2s):
                    return None
        return "OrL instance does not match"

    if rule == "ImpL":
        if err := arity(2):
            return err
        (p1a, p1s), (p2a, p2s) = pas
        for f in ca:
            if isinstance(f, Imp):
                if p1s.get(f.left, 0) < 1 or p2a.get(f.right, 0) < 1:
                    continue
                if _minus(ca, f) == _sum(p1a, _minus(p2a, f.right)) and cs == _sum(_minus(p1s, f.left), p2s):
                    return None
        return "ImpL instance does not match"

    if rule == "ImpR":
        if err := arity(1):
            return err
        pa, ps = pas[0]
        for f in cs:
            if isinstance(f, Imp):
                if pa == _plus(ca, f.left) and ps == _plus(_minus(cs, f), f.right):
                    return None
        return "ImpR instance does not match"

    if rule == "NegL":
        if err := arity(1):
            return err
        pa, ps = pas[0]
        for f in ca:
            if isinstance(f, Neg):
                if pa == _minus(ca, f) and ps == _plus(cs, f.sub):
                    return None
        return "NegL instance does not match"

    if rule == "NegR":
        if err := arity(1):
            return err
        pa, ps = pas[0]
        for f in cs:
            if isinstance(f, Neg):
                if ps == _minus(cs, f) and pa == _plus(ca, f.sub):
                    return None
        return "NegR instance does not match"

    if rule in ("Box4R", "BoxSR", "GLR"):
        if err := arity(1):
            return err
        pa, ps = pas[0]
        inner = _unboxed(ca)
        if inner is None:
            return f"{rule} conclusion antecedent must be all boxed"
        if len(concl.succ) != 1 or not isinstance(concl.succ[0], Box):
            return f"{rule} conclusion succedent must be a single boxed formula"
        box_a = concl.succ[0]
        if ps != {box_a.sub: 1}:
            return f"{rule} premise succedent must be the unboxed formula"
        if rule == "Box4R":
            want = _sum(ca, inner)
        elif rule == "BoxSR":
            want = ca
        else:  # GLR carries the diagonal formula on the left
            want = _plus(_sum(ca, inner), box_a)
        if pa == want:
            return None
        return f"{rule} premise antecedent does not match"

    if rule == "BoxDR":
        if err := arity(1):
            return err
        pa, ps = pas[0]
        inner = _unboxed(ca)
        if inner is None:
            return "BoxDR conclusion antecedent must be all boxed"
        if concl.succ != () or ps:
            return "BoxDR needs empty succedents"
        if pa == _sum(ca, inner):
            return None
        return "BoxDR premise antecedent does not match"

    if rule == "BoxL":
        if err := arity(1):
            return err
        pa, ps = pas[0]
        for f in ca:
            if isinstance(f, Box):
                if pa == _plus(_minus(ca, f), f.sub) and ps == cs:
                    return None
        return "BoxL instance does not match"

    return f"unknown rule {rule!r}"


def diagnose_derivation(logic: Logic, d: Derivation, path: tuple[int, ...] = ()) -> str | None:
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
            return f"rule {d.rule} is not part of G({logic.value}) (at {_path(path, trail)})"
        pas = [_counts(p) for p in d.premises]
        err = _rule_error(d.rule, d.sequent, counts, pas)
        if err is not None:
            return f"{err} (at {_path(path, trail)}: {print_sequent(d.sequent)})"
        for i in range(len(pas) - 1, -1, -1):
            stack.append((d.premises[i], pas[i], (i, trail)))
    return None


def _path(prefix: tuple[int, ...], trail) -> list[int]:
    out = []
    while trail is not None:
        i, trail = trail
        out.append(i)
    return list(prefix) + out[::-1]


def check_derivation(logic: Logic, d: Derivation) -> bool:
    """True iff every node instantiates a rule admitted by G(logic)."""
    return diagnose_derivation(logic, d) is None
