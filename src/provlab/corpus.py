"""Deterministic formula corpora.

Formulas are enumerated exhaustively in a canonical order: by connective
count, then by operator block (~, [], /\\, \\/, ->), with binary blocks
ordered by left-subformula connective count, then left rank, then right rank.
Leaves come first: the atoms in sorted order, then bot, then top.  The
enumeration is realized by counting and unranking, so down-sampling draws
index sets with a seeded RNG and unranks them without materializing the full
space (the default bounds allow billions of formulas).

Regeneration from equal parameters is bit-identical on a fixed Python
version (the sampler is random.Random(seed).sample).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from functools import lru_cache

from .formulas import And, Atom, BOT, Box, Formula, Imp, InputError, Neg, Or, TOP, print_formula

_EXHAUSTIVE_LIMIT = 500_000


@dataclass(frozen=True)
class CorpusParams:
    atoms: tuple[str, ...]
    max_connectives: int
    max_degree: int
    sample_size: int | None = None
    seed: int = 1


@dataclass(frozen=True)
class Corpus:
    params: CorpusParams
    formulas: tuple[Formula, ...]

    def digest(self) -> str:
        h = hashlib.sha256()
        for f in self.formulas:
            h.update(print_formula(f).encode())
            h.update(b"\n")
        return h.hexdigest()[:16]


DEFAULT_PARAMS = CorpusParams(atoms=("p", "q"), max_connectives=7, max_degree=3,
                              sample_size=2000, seed=1)
BOX_FREE_PARAMS = CorpusParams(atoms=("p", "q"), max_connectives=7, max_degree=0,
                               sample_size=2000, seed=1)


class _Enumeration:
    def __init__(self, params: CorpusParams):
        if params.max_connectives < 0 or params.max_degree < 0:
            raise InputError("bounds must be non-negative")
        self.leaves: list[Formula] = [Atom(a) for a in sorted(params.atoms)] + [BOT, TOP]
        self.max_degree = params.max_degree
        self.count = lru_cache(maxsize=None)(self._count)

    def _count(self, k: int, d: int) -> int:
        if k == 0:
            return len(self.leaves)
        unary = self.count(k - 1, d)
        boxed = self.count(k - 1, d - 1) if d >= 1 else 0
        binary = sum(self.count(i, d) * self.count(k - 1 - i, d) for i in range(k))
        return unary + boxed + 3 * binary

    def unrank(self, k: int, d: int, r: int) -> Formula:
        if k == 0:
            return self.leaves[r]
        block = self.count(k - 1, d)
        if r < block:
            return Neg(self.unrank(k - 1, d, r))
        r -= block
        if d >= 1:
            block = self.count(k - 1, d - 1)
            if r < block:
                return Box(self.unrank(k - 1, d - 1, r))
            r -= block
        for ctor in (And, Or, Imp):
            for i in range(k):
                left_n = self.count(i, d)
                right_n = self.count(k - 1 - i, d)
                block = left_n * right_n
                if r < block:
                    li, ri = divmod(r, right_n)
                    return ctor(self.unrank(i, d, li), self.unrank(k - 1 - i, d, ri))
                r -= block
        raise IndexError("rank out of range")

    def total(self, max_connectives: int) -> int:
        return sum(self.count(k, self.max_degree) for k in range(max_connectives + 1))

    def formula_at(self, index: int, max_connectives: int) -> Formula:
        for k in range(max_connectives + 1):
            n = self.count(k, self.max_degree)
            if index < n:
                return self.unrank(k, self.max_degree, index)
            index -= n
        raise IndexError("index out of range")


def corpus_size(params: CorpusParams) -> int:
    return _Enumeration(params).total(params.max_connectives)


def generate_corpus(params: CorpusParams) -> Corpus:
    enum = _Enumeration(params)
    total = enum.total(params.max_connectives)
    if params.sample_size is None or params.sample_size >= total:
        if total > _EXHAUSTIVE_LIMIT:
            raise InputError(f"{total} formulas within bounds; pass sample_size to down-sample")
        indices = range(total)
    else:
        rng = random.Random(params.seed)
        indices = sorted(rng.sample(range(total), params.sample_size))
    formulas = tuple(enum.formula_at(i, params.max_connectives) for i in indices)
    return Corpus(params, formulas)
