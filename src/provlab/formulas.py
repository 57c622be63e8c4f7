"""Modal formula ASTs, the ASCII surface grammar, and structural helpers.

Surface syntax: atoms match [a-z][a-z0-9_]*, constants `bot` and `top`,
connectives `~` `[]` `/\\` `\\/` `->`.  Precedence is ~ = [] > /\\ > \\/ > ->
with -> right-associative and /\\, \\/ left-associative.

Formula nodes are frozen, slotted dataclasses that compute their hash once,
when they are built, from the children's cached hashes.  The provers, the
derivation checker and the evaluators key dicts, sets and Counters by
formulas, and a recomputed hash walks the whole subtree on every lookup;
the cached one is O(1).  It is built from str hashes, so it varies with
PYTHONHASHSEED, and pickling rebuilds a node through its constructor.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterator, Union


class FormulaSyntaxError(ValueError):
    """Raised on malformed input; carries the character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position


class ReservedAtomError(ValueError):
    """Raised when propositional input uses a generated-atom name (q0, q1, ..., qw)."""


class _Node:
    """Base of the formula node classes: a cached hash and an iterative ``==``.

    ``_h`` is set once, in ``__init__``, from a per-class string tag and
    the children's ``_h``; equal formulas get equal tags and equal children,
    so they hash alike.  ``__eq__`` rejects on a different class or hash at
    once and compares children with an explicit stack, so neither ``hash``
    nor ``==`` recurses, whatever the depth.
    """

    __slots__ = ()

    def __hash__(self) -> int:
        return self._h

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, _Node):
            return NotImplemented
        stack = [self, other]
        pop, push = stack.pop, stack.append
        while stack:
            b = pop()
            a = pop()
            if a is b:
                continue
            cls = a.__class__
            if cls is not b.__class__ or a._h != b._h:
                return False
            if cls is Atom:
                if a.name != b.name:
                    return False
            elif cls is Neg or cls is Box:
                push(a.sub)
                push(b.sub)
            elif cls is not Bot and cls is not Top:
                push(a.left)
                push(b.left)
                push(a.right)
                push(b.right)
        return True

    def __reduce__(self):
        # rebuild through the constructor, so the hash is that of the loading process
        return self.__class__, tuple(getattr(self, name) for name in self.__match_args__)


_set = object.__setattr__
# The node classes write their own __init__ (init=False): it fills the fields
# and the hash in one call, about half the overhead of a generated __init__
# followed by __post_init__, and every formula the parser, the corpus and the
# translations build pays it.


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Atom(_Node):
    name: str
    _h: int = field(init=False, repr=False, compare=False)

    def __init__(self, name: str) -> None:
        _set(self, "name", name)
        _set(self, "_h", hash(("Atom", name)))


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Bot(_Node):
    _h: int = field(init=False, repr=False, compare=False)

    def __init__(self) -> None:
        _set(self, "_h", hash("Bot"))


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Top(_Node):
    _h: int = field(init=False, repr=False, compare=False)

    def __init__(self) -> None:
        _set(self, "_h", hash("Top"))


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Neg(_Node):
    sub: "Formula"
    _h: int = field(init=False, repr=False, compare=False)

    def __init__(self, sub: "Formula") -> None:
        _set(self, "sub", sub)
        _set(self, "_h", hash(("Neg", sub._h)))


@dataclass(frozen=True, slots=True, eq=False, init=False)
class And(_Node):
    left: "Formula"
    right: "Formula"
    _h: int = field(init=False, repr=False, compare=False)

    def __init__(self, left: "Formula", right: "Formula") -> None:
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "_h", hash(("And", left._h, right._h)))


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Or(_Node):
    left: "Formula"
    right: "Formula"
    _h: int = field(init=False, repr=False, compare=False)

    def __init__(self, left: "Formula", right: "Formula") -> None:
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "_h", hash(("Or", left._h, right._h)))


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Imp(_Node):
    left: "Formula"
    right: "Formula"
    _h: int = field(init=False, repr=False, compare=False)

    def __init__(self, left: "Formula", right: "Formula") -> None:
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "_h", hash(("Imp", left._h, right._h)))


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Box(_Node):
    sub: "Formula"
    _h: int = field(init=False, repr=False, compare=False)

    def __init__(self, sub: "Formula") -> None:
        _set(self, "sub", sub)
        _set(self, "_h", hash(("Box", sub._h)))


Formula = Union[Atom, Bot, Top, Neg, And, Or, Imp, Box]

BOT = Bot()
TOP = Top()

ATOM_RE = re.compile(r"[a-z][a-z0-9_]*\Z")
# Names minted by the translations: q0, q1, ... for the K4->GL translation
# and qw for the weak-BHK falsum atom.
RESERVED_ATOM_RE = re.compile(r"q([0-9]+|w)\Z")

_TOKEN_RE = re.compile(r"\[\]|/\\|\\/|->|[~()]|[a-z][a-z0-9_]*")


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise FormulaSyntaxError(f"unexpected character {text[pos]!r}", pos)
        tokens.append((m.group(0), pos))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def _peek(self) -> str | None:
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def _offset(self) -> int:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][1]
        return len(self.text)

    def _advance(self) -> str:
        tok = self._peek()
        if tok is None:
            raise FormulaSyntaxError("unexpected end of input", self._offset())
        self.pos += 1
        return tok

    def parse(self) -> Formula:
        f = self._imp()
        if self._peek() is not None:
            raise FormulaSyntaxError(f"unexpected token {self._peek()!r}", self._offset())
        return f

    def _imp(self) -> Formula:
        left = self._or()
        if self._peek() == "->":
            self._advance()
            return Imp(left, self._imp())
        return left

    def _or(self) -> Formula:
        f = self._and()
        while self._peek() == "\\/":
            self._advance()
            f = Or(f, self._and())
        return f

    def _and(self) -> Formula:
        f = self._unary()
        while self._peek() == "/\\":
            self._advance()
            f = And(f, self._unary())
        return f

    def _unary(self) -> Formula:
        tok = self._peek()
        if tok is None:
            raise FormulaSyntaxError("unexpected end of input", self._offset())
        if tok == "~":
            self._advance()
            return Neg(self._unary())
        if tok == "[]":
            self._advance()
            return Box(self._unary())
        if tok == "(":
            self._advance()
            f = self._imp()
            if self._peek() != ")":
                raise FormulaSyntaxError("expected ')'", self._offset())
            self._advance()
            return f
        if tok == "bot":
            self._advance()
            return BOT
        if tok == "top":
            self._advance()
            return TOP
        if ATOM_RE.match(tok):
            self._advance()
            return Atom(tok)
        raise FormulaSyntaxError(f"unexpected token {tok!r}", self._offset())


def parse_modal(text: str) -> Formula:
    """Parse a modal formula; raises FormulaSyntaxError with a position on bad input."""
    return _Parser(text).parse()


def neg_as_imp(f: Formula) -> Formula:
    """Rewrite every ~A into A -> bot (the propositional reading of negation)."""
    match f:
        case Neg(sub):
            return Imp(neg_as_imp(sub), BOT)
        case And(l, r):
            return And(neg_as_imp(l), neg_as_imp(r))
        case Or(l, r):
            return Or(neg_as_imp(l), neg_as_imp(r))
        case Imp(l, r):
            return Imp(neg_as_imp(l), neg_as_imp(r))
        case Box(sub):
            return Box(neg_as_imp(sub))
        case _:
            return f


def parse_prop(text: str) -> Formula:
    """Parse a box-free propositional formula.

    Negation is eagerly stored as A -> bot and the generated atom names
    (q0, q1, ..., qw) are rejected.
    """
    f = parse_modal(text)
    if not is_box_free(f):
        raise FormulaSyntaxError("box is not allowed in propositional input", text.find("[]"))
    for a in sorted(atoms(f)):
        if RESERVED_ATOM_RE.match(a):
            raise ReservedAtomError(f"atom {a!r} is reserved for generated formulas")
    return neg_as_imp(f)


_PREC_IMP, _PREC_OR, _PREC_AND, _PREC_UNARY, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(f: Formula) -> int:
    match f:
        case Atom() | Bot() | Top():
            return _PREC_ATOM
        case Neg() | Box():
            return _PREC_UNARY
        case And():
            return _PREC_AND
        case Or():
            return _PREC_OR
        case Imp():
            return _PREC_IMP
    raise TypeError(f"not a formula: {f!r}")


def print_formula(f: Formula) -> str:
    """Minimal-parentheses ASCII rendering; round-trips through parse_modal."""

    def go(g: Formula, min_prec: int) -> str:
        match g:
            case Atom(name):
                s = name
            case Bot():
                s = "bot"
            case Top():
                s = "top"
            case Neg(sub):
                s = "~" + go(sub, _PREC_UNARY)
            case Box(sub):
                s = "[]" + go(sub, _PREC_UNARY)
            case And(l, r):
                s = go(l, _PREC_AND) + " /\\ " + go(r, _PREC_AND + 1)
            case Or(l, r):
                s = go(l, _PREC_OR) + " \\/ " + go(r, _PREC_OR + 1)
            case Imp(l, r):
                s = go(l, _PREC_IMP + 1) + " -> " + go(r, _PREC_IMP)
            case _:
                raise TypeError(f"not a formula: {g!r}")
        if _prec(g) < min_prec:
            return "(" + s + ")"
        return s

    return go(f, 0)


def children(f: Formula) -> tuple[Formula, ...]:
    # class tests instead of match patterns: every walk below calls this per node
    cls = f.__class__
    if cls is Neg or cls is Box:
        return (f.sub,)
    if cls is And or cls is Or or cls is Imp:
        return (f.left, f.right)
    return ()


def subformula_at(f: Formula, path: tuple[int, ...]) -> Formula:
    for i in path:
        f = children(f)[i]
    return f


def subformula_occurrences(f: Formula) -> Iterator[tuple[tuple[int, ...], Formula]]:
    """Pre-order traversal yielding (path, subformula) pairs."""
    stack = [((), f)]
    pop, push = stack.pop, stack.append
    while stack:
        path, g = pop()
        yield path, g
        kids = children(g)
        # the right child goes on the stack first, so the left one is visited first
        if len(kids) == 2:
            push((path + (1,), kids[1]))
        if kids:
            push((path + (0,), kids[0]))


def subformulas(f: Formula) -> set[Formula]:
    return {g for _, g in subformula_occurrences(f)}


def atoms(f: Formula) -> set[str]:
    return {g.name for g in subformulas(f) if isinstance(g, Atom)}


def size(f: Formula) -> int:
    """Number of AST nodes."""
    return 1 + sum(size(c) for c in children(f))


def is_box_free(f: Formula) -> bool:
    return not any(isinstance(g, Box) for g in subformulas(f))


def modal_degree(f: Formula) -> int:
    """Maximum number of nested boxes along any root-to-leaf path."""
    match f:
        case Box(sub):
            return 1 + modal_degree(sub)
        case _:
            kids = children(f)
            return max((modal_degree(c) for c in kids), default=0)


def box_occurrences(f: Formula) -> list[tuple[int, ...]]:
    """Paths of all Box nodes, left-to-right and outermost-first.

    This enumeration order is the one witness and translation sequences
    index into.  It is pre-order over child indices 0 and 1, so the list is
    sorted, and boxes_within finds the boxes below any path by bisection.
    """
    return [path for path, g in subformula_occurrences(f) if isinstance(g, Box)]


def boxes_within(occ: list[tuple[int, ...]], path: tuple[int, ...]) -> range:
    """Indices into occ = box_occurrences(f) of the boxes at or below path.

    These are the paths that extend path; in the sorted list they form the
    run from path up to path + (2,), which no child index reaches.  For a box
    at index i the range starts at i, so range[1:] are the boxes inside it.
    """
    return range(bisect_left(occ, path), bisect_left(occ, path + (2,)))


def count_boxes(f: Formula) -> int:
    return len(box_occurrences(f))


def conj(fs: list[Formula] | tuple[Formula, ...]) -> Formula:
    """Left-associated conjunction; the empty conjunction is top."""
    if not fs:
        return TOP
    out = fs[0]
    for g in fs[1:]:
        out = And(out, g)
    return out


def disj(fs: list[Formula] | tuple[Formula, ...]) -> Formula:
    """Left-associated disjunction; the empty disjunction is bot."""
    if not fs:
        return BOT
    out = fs[0]
    for g in fs[1:]:
        out = Or(out, g)
    return out


@dataclass(frozen=True)
class Sequent:
    """Antecedent and succedent as ordered sequences of formulas.

    Duplicates and positions are kept: the calculus has explicit structural
    rules, so a sequent is an ordered multiset, not a set.
    """

    ante: tuple[Formula, ...]
    succ: tuple[Formula, ...]

    def formula(self) -> Formula:
        """The single-formula reading /\\ ante -> \\/ succ."""
        return Imp(conj(self.ante), disj(self.succ))


def print_sequent(s: Sequent) -> str:
    left = ", ".join(print_formula(f) for f in s.ante)
    right = ", ".join(print_formula(f) for f in s.succ)
    return f"{left} => {right}"
