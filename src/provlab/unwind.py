"""Unwinding transitive trees-with-clusters into irreflexive transitive models.

Each reflexive cluster I is replaced by all paths through I of length at most
n+2 (n being the largest number the translation assigns), ordered by proper
initial segment; an irreflexive node is its own only path.  Original atoms
hold at a path iff they hold at its endpoint; the fresh atom q_i holds at
every path of length at most n+2-i, which includes every irreflexive node.
The result validates the GL frame class and transfers truth: a node
satisfying A maps to nodes satisfying the translated formula.

unwind, verify_transfer and claim2_holds share one cached unwinding per
(model, formula, translation), with the translation, one naive truth-set memo
per model, and each node's stand-ins per length bound as one node set; keyed
by the model's identity, it relies on models being immutable.
"""

from __future__ import annotations

import itertools

from .formulas import Box, Formula, children, subformula_occurrences
# check is unused here; kept because the benchmark's tracer wraps provlab.unwind.check
from .kripke import (FrameViolationError, K4_FRAME, Extension, KripkeModel, ModelFormatError, UnknownNodeError,
                     _force, check, validate_frame)
from .provability import (
    InvalidWitnessError,
    ReservedAtomCollision,
    Witness,
    translate_k4_to_gl,
    translation_valid,
)

PATH_SEP = "|"

StandIns = dict[str, list[tuple[int, str]]]  # per original node: (path length, name)
_latest: tuple = (None,) * 4  # (model, a, t, _unwinding(model, a, t)) of the latest build


class QAtomCollision(ReservedAtomCollision):
    pass


def t_complexity(a: Formula, t: Witness) -> dict[tuple[int, ...], int]:
    """Complexity of every subformula occurrence: -1 when box-free, otherwise
    the largest number t assigns to a box inside it.  Keyed by occurrence path
    because structurally equal occurrences can carry different numbers."""
    if not translation_valid(t, a):
        raise InvalidWitnessError(f"{t} is not a valid translation for the formula")
    # children before parents, so the boxes come last first; t is valid, so a
    # box's own number is the largest in its scope
    numbers = reversed(t)
    comp: dict[tuple[int, ...], int] = {}
    for path, g in reversed(list(subformula_occurrences(a))):
        comp[path] = next(numbers) if g.__class__ is Box else max(
            (comp[path + (i,)] for i in range(len(children(g)))), default=-1)
    return comp


def _unwinding(model: KripkeModel, a: Formula, t: Witness) -> tuple[KripkeModel, StandIns, Formula, Extension, Extension, dict]:
    """The unwound model and every original node's stand-ins, from one path table,
    a's translation, one truth-set function on each model, and an empty cache
    of stand-in sets keyed (node, bound); the latest is cached."""
    global _latest
    if _latest[0] is model and _latest[1] == a and _latest[2] == t:
        return _latest[3]
    violations = validate_frame(model, K4_FRAME)
    if violations:
        raise FrameViolationError(violations)
    if not translation_valid(t, a):
        raise InvalidWitnessError(f"{t} is not a valid translation for the formula")
    n = max(t) if t else -1
    for i in range(n + 1):
        if f"q{i}" in model.valuation:
            raise QAtomCollision(f"model valuation already defines q{i}")
    for k in model.nodes:
        if PATH_SEP in k:
            raise ModelFormatError(f"node id {k!r} contains the path separator {PATH_SEP!r}")

    table: dict[frozenset[str], list[tuple[tuple[str, ...], str]]] = {}
    for cluster in model.clusters:
        members = tuple(sorted(cluster))
        # a cluster of two or more nodes is reflexive, by transitivity
        max_len = n + 2 if (members[0], members[0]) in model.relation else 1
        table[cluster] = [
            (path, PATH_SEP.join(path))
            for length in range(1, max_len + 1)
            for path in itertools.product(members, repeat=length)
        ]
    rows = [row for cluster in model.clusters for row in table[cluster]]

    rel: set[tuple[str, str]] = set()
    # R1: every inter-cluster edge of R connects all the corresponding paths
    cluster_of = {k: c for c in model.clusters for k in c}
    for cx, cy in {(cluster_of[x], cluster_of[y]) for x, y in model.relation}:
        if cx != cy:
            rel.update((pa, pb) for _, pa in table[cx] for _, pb in table[cy])
    # R2: proper initial segments within each cluster
    for path, name in rows:
        rel.update((PATH_SEP.join(path[:k]), name) for k in range(1, len(path)))

    valuation = {
        atom: frozenset(name for path, name in rows if path[-1] in extension)
        for atom, extension in model.valuation.items()
    }
    for i in range(n + 1):
        valuation[f"q{i}"] = frozenset(name for path, name in rows if len(path) <= n + 2 - i)

    stand_ins = {k: [(len(p), name) for p, name in table[cluster_of[k]] if p[-1] == k] for k in model.nodes}
    unw = KripkeModel(tuple(name for _, name in rows), frozenset(rel), valuation, clusters=None)
    entry = (unw, stand_ins, translate_k4_to_gl(a, t), _force(model, None), _force(unw, None), {})
    _latest = (model, a, t, entry)
    return entry


def unwind(model: KripkeModel, a: Formula, t: Witness) -> KripkeModel:
    """Cluster-unwinding transformation; output passes validate_frame(GL_FRAME).
    Cached by model identity: relies on KripkeModel being immutable by convention."""
    return _unwinding(model, a, t)[0]


def _agrees(entry: tuple, b: Formula, translated: Formula, bound: int, nodes: tuple[str, ...]) -> bool:
    """Each of nodes agrees about b with its unwound stand-ins of length <=
    bound about translated: all of them force it, or none does."""
    _, stand_ins, _, ext, ext_unw, standing = entry
    truth, truth_unw = ext(b), ext_unw(translated)
    for node in nodes:
        names = standing.get((node, bound))
        if names is None:
            names = standing[node, bound] = frozenset(name for length, name in stand_ins[node] if length <= bound)
        if not (names <= truth_unw if node in truth else names.isdisjoint(truth_unw)):
            return False
    return True


def verify_transfer(model: KripkeModel, a: Formula, t: Witness, node: str) -> bool:
    """Truth transfer at one node, both halves: the corresponding unwound
    nodes agree with `node` about a / its translation.

    This is claim2_holds at the root occurrence, whose complexity is max(t) = n,
    so the stand-ins are those of length n + 1 - n = 1.
    """
    entry = _unwinding(model, a, t)
    if node not in model._succ:
        raise UnknownNodeError(node)
    return _agrees(entry, a, entry[2], 1, (node,))


def claim2_holds(model: KripkeModel, a: Formula, t: Witness) -> bool:
    """The full quantitative transfer: every subformula occurrence B agrees
    between each node and its unwound stand-ins of length <= n+1-C(B).

    a is translated once: B's translation is the subterm at B's path, read
    through each Box(q0 /\\ ... /\\ qm -> B') at its implication's right."""
    entry = _unwinding(model, a, t)
    complexity = t_complexity(a, t)  # at the root, n = max(t)
    for path, b in subformula_occurrences(a):
        tb = entry[2]
        for i in path:
            tb = tb.sub.right if isinstance(tb, Box) else children(tb)[i]
        if not _agrees(entry, b, tb, complexity[()] + 1 - complexity[path], model.nodes):
            return False
    return True
