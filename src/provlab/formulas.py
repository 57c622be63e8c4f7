"""Modal formula ASTs, the ASCII surface grammar, and structural helpers.

Surface syntax: atoms match [a-z][a-z0-9_]*, constants `bot` and `top`,
connectives `~` `[]` `/\\` `\\/` `->`.  Precedence is ~ = [] > /\\ > \\/ > ->
with -> right-associative and /\\, \\/ left-associative.

Formula nodes are frozen, slotted dataclasses that compute their hash once,
when they are built, from the children's cached hashes.  The provers, the
derivation checker and the evaluators key dicts and sets by formulas, and
a recomputed hash walks the whole subtree on every lookup; the cached one
is O(1).  It is built from str hashes, so it varies with
PYTHONHASHSEED, and pickling rebuilds a node through its constructor.

Structural walks and rewrites go through one walk, which never recurses:
preorder lists the nodes (left child first, by an explicit stack) and fold
visits them children first, over that list reversed.  So fold meets the boxes
last first.  The printer and the parser stay recursive: they are hot paths.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Iterator, TypeVar, Union

T = TypeVar("T")


class InputError(ValueError):
    """Base of every module's bad-input errors (formula, witness, model, bound, option); still a ValueError."""


class FormulaSyntaxError(InputError):
    """Raised on malformed input; carries the character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position


class ReservedAtomError(InputError):
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

    def visit(g: Formula, kids: tuple) -> Formula:
        cls = g.__class__
        if cls is Neg:
            return Imp(kids[0], BOT)
        return cls(*kids) if kids else g

    return fold(f, visit)


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
_PREC = {Atom: _PREC_ATOM, Bot: _PREC_ATOM, Top: _PREC_ATOM, Neg: _PREC_UNARY, Box: _PREC_UNARY,
         And: _PREC_AND, Or: _PREC_OR, Imp: _PREC_IMP}


def print_formula(f: Formula, memo: dict | None = None) -> str:
    """Minimal-parentheses ASCII rendering; round-trips through parse_modal.

    With a memo, a subformula found in it is not printed again, and every
    subformula printed is entered with its rendering (as print_formula gives
    it, without outer parentheses).  A memo may be shared by many calls.
    """

    def go(g: Formula, min_prec: int) -> str:
        # class tests instead of match patterns: this runs once per node
        cls = g.__class__
        if cls is Atom:
            s = g.name
        elif cls is Imp:
            s = sub(g.left, _PREC_IMP + 1) + " -> " + sub(g.right, _PREC_IMP)
        elif cls is Neg:
            s = "~" + sub(g.sub, _PREC_UNARY)
        elif cls is Box:
            s = "[]" + sub(g.sub, _PREC_UNARY)
        elif cls is And:
            s = sub(g.left, _PREC_AND) + " /\\ " + sub(g.right, _PREC_AND + 1)
        elif cls is Or:
            s = sub(g.left, _PREC_OR) + " \\/ " + sub(g.right, _PREC_OR + 1)
        elif cls is Bot:
            s = "bot"
        elif cls is Top:
            s = "top"
        else:
            raise TypeError(f"not a formula: {g!r}")
        return "(" + s + ")" if _PREC[cls] < min_prec else s

    if memo is None:
        sub = go
    else:

        def sub(g: Formula, min_prec: int) -> str:
            s = memo.get(g)
            if s is None:
                s = memo[g] = go(g, 0)
            return "(" + s + ")" if _PREC[g.__class__] < min_prec else s

    return sub(f, 0)


def children(f: Formula) -> tuple[Formula, ...]:
    # class tests instead of match patterns: subformula_occurrences calls this per node
    cls = f.__class__
    if cls is Neg or cls is Box:
        return (f.sub,)
    if cls is And or cls is Or or cls is Imp:
        return (f.left, f.right)
    return ()


def preorder(f: Formula) -> list[Formula]:
    """The nodes of f in pre-order, left child first; TypeError on a non-formula."""
    out = []
    stack = [f]
    pop, push, emit = stack.pop, stack.append, out.append
    while stack:
        g = pop()
        emit(g)
        # class tests, as in _Node.__eq__: this runs once per node
        cls = g.__class__
        if cls is Neg or cls is Box:
            push(g.sub)
        elif cls is And or cls is Or or cls is Imp:
            push(g.right)
            push(g.left)
        elif cls is not Atom and cls is not Bot and cls is not Top:
            raise TypeError(f"not a formula: {g!r}")
    return out


def fold(f: Formula, visit: Callable[[Formula, tuple], T]) -> T:
    """Call visit(g, kids) at every node g of f, children first; the value at f.

    kids holds the values of g's children, left to right.  The nodes are met in
    reversed pre-order, so the boxes come last first: a rewrite that numbers its
    boxes by a sequence t in box_occurrences order reads t from the end
    (numbers = reversed(t), then next(numbers) at each box).
    """
    vals: list = []
    pop, push = vals.pop, vals.append
    for g in reversed(preorder(f)):
        cls = g.__class__
        if cls is Neg or cls is Box:
            push(visit(g, (pop(),)))
        elif cls is And or cls is Or or cls is Imp:
            # the right subtree is met first, so the left child's value is on top
            push(visit(g, (pop(), pop())))
        else:
            push(visit(g, ()))
    return vals[0]


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
    return set(preorder(f))


def atoms(f: Formula) -> set[str]:
    return {g.name for g in preorder(f) if g.__class__ is Atom}


def size(f: Formula) -> int:
    """Number of AST nodes."""
    return len(preorder(f))


def is_box_free(f: Formula) -> bool:
    return not any(g.__class__ is Box for g in preorder(f))


def modal_degree(f: Formula) -> int:
    """Maximum number of nested boxes along any root-to-leaf path."""
    return fold(f, lambda g, kids: max(kids, default=0) + (g.__class__ is Box))


def box_occurrences(f: Formula) -> list[tuple[int, ...]]:
    """Paths of all Box nodes, left-to-right and outermost-first.

    This enumeration order is the one witness and translation sequences
    index into.  It is pre-order over child indices 0 and 1, so the list is
    sorted.
    """
    return [path for path, g in subformula_occurrences(f) if isinstance(g, Box)]


def box_children(f: Formula) -> list[list[int]]:
    """For each box of f, in box_occurrences order, the indices of the boxes
    directly inside it (no box between); a child's index exceeds its box's."""
    out: list[list[int]] = []
    stack = [(f, [])]  # (node, the child list of the nearest box above it)
    pop, push = stack.pop, stack.append
    while stack:
        g, kids = pop()
        cls = g.__class__
        if cls is Box:
            kids.append(len(out))
            out.append([])
            push((g.sub, out[-1]))
        elif cls is Neg:
            push((g.sub, kids))
        elif cls is And or cls is Or or cls is Imp:
            push((g.right, kids))
            push((g.left, kids))
    return out


def count_boxes(f: Formula) -> int:
    return sum(g.__class__ is Box for g in preorder(f))


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


def print_sequent(s: Sequent, memo: dict | None = None) -> str:
    """The sequent as `A, B => C`; memo as in print_formula."""
    left = ", ".join(print_formula(f, memo) for f in s.ante)
    right = ", ".join(print_formula(f, memo) for f in s.succ)
    return f"{left} => {right}"
