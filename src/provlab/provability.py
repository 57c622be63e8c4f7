"""Witnesses, expansions, symbolic interpretations, and the translations.

A witness assigns one natural number per box occurrence, in the left-to-right
outermost-first order of box_occurrences; each box's number must strictly
exceed every number assigned inside its scope.  The K4-to-GL translation is
based on a sequence with the same validity condition, so one notion of
ordered sequence serves both.  Which boxes lie directly inside a box is read
from formulas.box_children; as > is transitive, a box that exceeds those
exceeds every box in its scope.  interpret and translate_k4_to_gl read their
sequence from the end, as formulas.fold meets the boxes last first.
witness_check stays a recursive walk of its own on purpose: it is the
independent check of translation_valid.

Interpretations are rendered purely symbolically: atoms become opaque
substituted sentences and each box becomes an indexed provability operator
Pr_n applied to its scope.  Nothing here evaluates over arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator, Union

from .formulas import (
    And,
    Atom,
    BOT,
    Bot,
    Box,
    Formula,
    Imp,
    InputError,
    Neg,
    Or,
    RESERVED_ATOM_RE,
    Top,
    atoms,
    box_children,
    count_boxes,
    fold,
    print_formula,
    size,
)

Witness = tuple[int, ...]

# How far an entry of a K4-to-GL translation may exceed the number of boxes:
# an entry n conjoins n + 1 fresh atoms under its box (a valid translation of
# k nested boxes needs entries up to k - 1), so the work stays linear in the input.
MAX_ENTRY_OVER_BOXES = 64
MAX_ENTRY_DIGITS = 18  # parse_witness refuses a longer entry before int() reads it

BHK = "b"
WEAK_BHK = "w"
GODEL = "g"
FLAVORS = (BHK, WEAK_BHK, GODEL)

WEAK_BHK_ATOM = "qw"


class WitnessLengthError(InputError):
    pass


class InvalidWitnessError(InputError):
    pass


class ReservedAtomCollision(InputError):
    pass


def witness_check(wit: Witness, f: Formula) -> bool:
    """True iff wit assigns the boxes of f in the outer-greater-than-inner order."""
    if len(wit) != count_boxes(f):
        raise WitnessLengthError(
            f"witness length {len(wit)} != {count_boxes(f)} box occurrences"
        )

    def go(g: Formula, i: int) -> tuple[bool, int]:
        # returns (ok, next unconsumed index); entries for g occupy wit[i:next]
        match g:
            case Box(sub):
                n = wit[i]
                ok, j = go(sub, i + 1)
                inner = wit[i + 1 : j]
                return ok and all(n > m for m in inner), j
            case Neg(sub):
                return go(sub, i)
            case And(l, r) | Or(l, r) | Imp(l, r):
                ok1, j = go(l, i)
                ok2, k = go(r, j)
                return ok1 and ok2, k
            case _:
                return True, i

    ok, consumed = go(f, 0)
    assert consumed == len(wit)
    return ok


def translation_valid(t: Witness, f: Formula) -> bool:
    """Validity of a K4-to-GL translation sequence, checked positionally.

    Each box's number must exceed the numbers of all boxes nested inside it;
    this coincides with the witness condition (one campaign in the test suite
    confirms the two validators agree).
    """
    inside = box_children(f)
    if len(t) != len(inside):
        raise WitnessLengthError(f"translation length {len(t)} != {len(inside)} box occurrences")
    return all(t[i] > t[j] for i, kids in enumerate(inside) for j in kids)


def canonical_witness(f: Formula, start: int = 0) -> Witness:
    """Witness each box by the nesting depth of its scope plus start."""
    inside = box_children(f)
    depth = [0] * len(inside)
    # innermost first: a scope's depth is one more than the deepest scope directly inside it
    for i in reversed(range(len(inside))):
        depth[i] = max((depth[j] + 1 for j in inside[i]), default=0)
    return tuple(d + start for d in depth)


def parse_witness(text: str) -> Witness:
    """Comma-separated naturals (ASCII digits); the empty string is the empty witness."""
    text = text.strip()
    if not text:
        return ()
    parts = [s.strip() for s in text.split(",")]
    vals = []
    for s in parts:
        if not (s.isascii() and s.isdigit()):
            raise InvalidWitnessError(f"witness entries must be naturals, got {s!r}")
        if len(s) > MAX_ENTRY_DIGITS:
            raise InvalidWitnessError(f"witness entry of {len(s)} digits is above the bound of {MAX_ENTRY_DIGITS}")
        vals.append(int(s))
    return tuple(vals)


def print_witness(wit: Witness) -> str:
    return ",".join(str(n) for n in wit)


# -- expansions ---------------------------------------------------------------


def is_expansion(b: Formula, a: Formula) -> bool:
    """Membership in E(a): connectives componentwise, each box over a finite
    disjunction of expansions of its scope."""
    memo: dict[tuple[Formula, Formula], bool] = {}

    def exp(x: Formula, y: Formula) -> bool:
        key = (x, y)
        if key in memo:
            return memo[key]
        match (x, y):
            case (Atom(n1), Atom(n2)):
                v = n1 == n2
            case (Bot(), Bot()) | (Top(), Top()):
                v = True
            case (Neg(s1), Neg(s2)):
                v = exp(s1, s2)
            case (And(l1, r1), And(l2, r2)) | (Or(l1, r1), Or(l2, r2)) | (Imp(l1, r1), Imp(l2, r2)):
                v = exp(l1, l2) and exp(r1, r2)
            case (Box(s1), Box(s2)):
                v = disjunction_of(s1, s2)
            case _:
                v = False
        memo[key] = v
        return v

    def disjunction_of(x: Formula, y: Formula) -> bool:
        # x is a nonempty disjunction (any association) of members of E(y)
        if exp(x, y):
            return True
        if isinstance(x, Or):
            return disjunction_of(x.left, y) and disjunction_of(x.right, y)
        return False

    return exp(b, a)


def expansions(a: Formula, max_disjuncts: int = 2, max_total_size: int = 64) -> Iterator[Formula]:
    """All members of E(a) with at most max_disjuncts disjuncts under each box
    and at most max_total_size AST nodes, smallest first."""
    if max_disjuncts < 1:
        raise ValueError("max_disjuncts must be >= 1")

    def visit(g: Formula, kids: tuple) -> list[Formula]:
        cls = g.__class__
        if cls is Box:
            out = [Box(d) for k in range(1, max_disjuncts + 1)
                   for d in _disjunction_tuples(kids[0], k, max_total_size - 1)]
        elif cls is Neg:
            out = [Neg(d) for d in kids[0]]
        elif kids:
            out = [cls(dl, dr) for dl in kids[0] for dr in kids[1] if size(dl) + size(dr) < max_total_size]
        else:
            out = [g]
        return [f for f in out if size(f) <= max_total_size]

    yield from sorted(fold(a, visit), key=lambda f: (size(f), print_formula(f)))


def _disjunction_tuples(ds: list[Formula], k: int, budget: int) -> Iterator[Formula]:
    """Right-associated disjunctions of exactly k choices from ds within budget."""
    if k == 1:
        for d in ds:
            if size(d) <= budget:
                yield d
        return
    for d in ds:
        rest_budget = budget - size(d) - 1
        if rest_budget <= 0:
            continue
        for tail in _disjunction_tuples(ds, k - 1, rest_budget):
            yield Or(d, tail)


# -- symbolic interpretation --------------------------------------------------


@dataclass(frozen=True)
class SigmaAtom:
    name: str


@dataclass(frozen=True)
class Falsum:
    pass


@dataclass(frozen=True)
class Verum:
    pass


@dataclass(frozen=True)
class INeg:
    sub: "InterpretationTerm"


@dataclass(frozen=True)
class IAnd:
    left: "InterpretationTerm"
    right: "InterpretationTerm"


@dataclass(frozen=True)
class IOr:
    left: "InterpretationTerm"
    right: "InterpretationTerm"


@dataclass(frozen=True)
class IImp:
    left: "InterpretationTerm"
    right: "InterpretationTerm"


@dataclass(frozen=True)
class Pr:
    index: int
    body: "InterpretationTerm"


InterpretationTerm = Union[SigmaAtom, Falsum, Verum, INeg, IAnd, IOr, IImp, Pr]

_ICONN = {Neg: INeg, And: IAnd, Or: IOr, Imp: IImp}


def interpret(a: Formula, wit: Witness, sigma: dict[str, SigmaAtom] | None = None) -> InterpretationTerm:
    """Substitute atoms by sigma and read the i-th box as Pr with the i-th
    witness number; boolean connectives are interpreted as themselves."""
    if not witness_check(wit, a):
        raise InvalidWitnessError(f"{wit} is not a witness for the formula")
    lookup = SigmaAtom if sigma is None else lambda name: sigma.get(name, SigmaAtom(name))

    numbers = reversed(wit)

    def visit(g: Formula, kids: tuple) -> InterpretationTerm:
        cls = g.__class__
        if cls is Atom:
            return lookup(g.name)
        if cls is Bot:
            return Falsum()
        if cls is Top:
            return Verum()
        if cls is Box:
            return Pr(next(numbers), kids[0])
        return _ICONN[cls](*kids)

    return fold(a, visit)


_IPREC = {IImp: 1, IOr: 2, IAnd: 3, INeg: 4}


def print_term(t: InterpretationTerm) -> str:
    """ASCII rendering with Pr_n(...) provability operators."""

    def prec(x) -> int:
        return _IPREC.get(type(x), 5)

    def go(x, min_prec: int) -> str:
        match x:
            case SigmaAtom(name):
                s = name
            case Falsum():
                s = "bot"
            case Verum():
                s = "top"
            case INeg(sub):
                s = "~" + go(sub, 4)
            case IAnd(l, r):
                s = go(l, 3) + " /\\ " + go(r, 4)
            case IOr(l, r):
                s = go(l, 2) + " \\/ " + go(r, 3)
            case IImp(l, r):
                s = go(l, 2) + " -> " + go(r, 1)
            case Pr(index, body):
                s = f"Pr_{index}({go(body, 0)})"
            case _:
                raise TypeError(f"not an interpretation term: {x!r}")
        if prec(x) < min_prec:
            return "(" + s + ")"
        return s

    return go(t, 0)


# -- translations --------------------------------------------------------------


def translate_bhk(f: Formula, flavor: str) -> Formula:
    """The three provability translations of box-free formulas.

    b: atoms and bot become boxed, implication becomes a boxed implication,
       negation becomes Box(A -> Box bot).
    w: as b, but bot reads as the boxed fresh atom qw.
    g: as b, but bot stays bot and negation becomes Box(~A).
    top translates to itself (a boolean constant, provable in all the target
    logics either way).
    """
    if flavor not in FLAVORS:
        raise ValueError(f"unknown translation flavor {flavor!r}")
    match flavor:
        case "b":
            falsum = Box(BOT)
        case "w":
            falsum = Box(Atom(WEAK_BHK_ATOM))
        case _:
            falsum = BOT

    def visit(g: Formula, kids: tuple) -> Formula:
        cls = g.__class__
        if cls is Atom:
            return Box(g)
        if cls is Bot:
            return falsum
        if cls is Top:
            return g
        if cls is And or cls is Or:
            return cls(*kids)
        if cls is Imp:
            return Box(Imp(*kids))
        if cls is Neg:
            if flavor == "g":
                return Box(Neg(kids[0]))
            return Box(Imp(kids[0], falsum))
        raise ValueError("translation input must be box-free")

    if flavor == "w" and WEAK_BHK_ATOM in atoms(f):
        raise ReservedAtomCollision(f"input already uses the reserved atom {WEAK_BHK_ATOM!r}")
    return fold(f, visit)


def translate_k4_to_gl(a: Formula, t: Witness) -> Formula:
    """Relativize each box: Box(B) with assigned n becomes Box(q0 /\\ ... /\\ qn -> B).

    t must be a valid translation for a, with no entry more than
    MAX_ENTRY_OVER_BOXES above its length, and a must not use the q-indexed atoms.
    """
    for name in atoms(a):
        if RESERVED_ATOM_RE.match(name) and name != WEAK_BHK_ATOM:
            raise ReservedAtomCollision(f"input already uses the reserved atom {name!r}")
    if not translation_valid(t, a):
        raise InvalidWitnessError(f"{t} is not a valid translation for the formula")
    if max(t, default=-1) > len(t) + MAX_ENTRY_OVER_BOXES:
        raise InvalidWitnessError(f"translation entry {max(t)} is above the bound of {len(t) + MAX_ENTRY_OVER_BOXES}"
                                  f" ({MAX_ENTRY_OVER_BOXES} over the box count)")

    # prefixes[n] is q0 /\ ... /\ qn, left-associated; the boxes share them
    prefixes = list(accumulate((Atom(f"q{i}") for i in range(max(t, default=-1) + 1)), And))
    numbers = reversed(t)

    def visit(g: Formula, kids: tuple) -> Formula:
        cls = g.__class__
        if cls is Box:
            return Box(Imp(prefixes[next(numbers)], kids[0]))
        return cls(*kids) if kids else g

    return fold(a, visit)
