"""Unwinding transitive trees-with-clusters into irreflexive transitive models.

Each reflexive cluster I is replaced by all paths through I of length at most
n+2 (n being the largest number the translation assigns), ordered by proper
initial segment; irreflexive nodes survive unchanged.  Original atoms hold at
a path iff they hold at its endpoint; the fresh atom q_i holds at every
irreflexive node and at every path of length at most n+2-i.  The result
validates the GL frame class and transfers truth: a node satisfying A maps to
nodes satisfying the translated formula.
"""

from __future__ import annotations

import itertools

from .formulas import Formula, box_occurrences, boxes_within, subformula_occurrences
from .kripke import FrameViolationError, GL_FRAME, K4_FRAME, KripkeModel, check, validate_frame
from .provability import (
    InvalidWitnessError,
    ReservedAtomCollision,
    Witness,
    translate_k4_to_gl,
    translation_valid,
)

PATH_SEP = "|"


class QAtomCollision(ReservedAtomCollision):
    pass


def t_complexity(a: Formula, t: Witness) -> dict[tuple[int, ...], int]:
    """Complexity of every subformula occurrence: -1 when box-free, otherwise
    the largest number t assigns to a box inside it.  Keyed by occurrence path
    because structurally equal occurrences can carry different numbers."""
    if not translation_valid(t, a):
        raise InvalidWitnessError(f"{t} is not a valid translation for the formula")
    occ = box_occurrences(a)
    return {
        path: max((t[i] for i in boxes_within(occ, path)), default=-1)
        for path, _ in subformula_occurrences(a)
    }


def _path_name(path: tuple[str, ...]) -> str:
    return PATH_SEP.join(path)


def _cluster_paths(members: tuple[str, ...], max_len: int) -> list[tuple[str, ...]]:
    out = []
    for length in range(1, max_len + 1):
        out.extend(itertools.product(members, repeat=length))
    return out


def unwind(model: KripkeModel, a: Formula, t: Witness) -> KripkeModel:
    """Cluster-unwinding transformation; output passes validate_frame(GL_FRAME)."""
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
            raise ValueError(f"node id {k!r} contains the path separator {PATH_SEP!r}")

    reflexive = {k: (k, k) in model.relation for k in model.nodes}
    # X(I): the original node for irreflexive singletons, bounded paths otherwise
    pieces: dict[frozenset[str], list[tuple[str, ...]]] = {}
    for cluster in model.clusters:
        members = tuple(sorted(cluster))
        if len(members) == 1 and not reflexive[members[0]]:
            pieces[cluster] = [(members[0],)]
        else:
            pieces[cluster] = _cluster_paths(members, n + 2)

    nodes: list[str] = []
    lengths: dict[str, int] = {}
    endpoint: dict[str, str] = {}
    is_orig_irrefl: dict[str, bool] = {}
    for cluster in model.clusters:
        irrefl = len(cluster) == 1 and not reflexive[next(iter(cluster))]
        for path in pieces[cluster]:
            name = _path_name(path)
            nodes.append(name)
            lengths[name] = len(path)
            endpoint[name] = path[-1]
            is_orig_irrefl[name] = irrefl

    rel: set[tuple[str, str]] = set()
    # R1: every inter-cluster edge of R connects all the corresponding pieces
    cluster_of = {k: c for c in model.clusters for k in c}
    seen_pairs = set()
    for (x, y) in model.relation:
        cx, cy = cluster_of[x], cluster_of[y]
        if cx == cy:
            continue
        if (cx, cy) in seen_pairs:
            continue
        seen_pairs.add((cx, cy))
        for pa in pieces[cx]:
            for pb in pieces[cy]:
                rel.add((_path_name(pa), _path_name(pb)))
    # R2: proper initial segments within each reflexive cluster
    for cluster in model.clusters:
        ps = pieces[cluster]
        if len(ps) == 1 and is_orig_irrefl[_path_name(ps[0])]:
            continue
        for pb in ps:
            for k in range(1, len(pb)):
                rel.add((_path_name(pb[:k]), _path_name(pb)))

    valuation: dict[str, frozenset[str]] = {}
    for atom, extension in model.valuation.items():
        valuation[atom] = frozenset(name for name in nodes if endpoint[name] in extension)
    for i in range(n + 1):
        valuation[f"q{i}"] = frozenset(
            name
            for name in nodes
            if is_orig_irrefl[name] or lengths[name] <= n + 2 - i
        )

    return KripkeModel(tuple(nodes), frozenset(rel), valuation, clusters=None)


def _targets(model: KripkeModel, node: str, bound: int) -> list[str]:
    """Unwound nodes standing for `node`: the node itself if irreflexive, else
    the paths through its cluster ending at node with length <= bound."""
    if (node, node) not in model.relation:
        return [node]
    members = tuple(sorted(model.cluster_of(node)))
    out = []
    for path in _cluster_paths(members, bound):
        if path[-1] == node:
            out.append(_path_name(path))
    return out


def _agrees(
    model: KripkeModel, unw: KripkeModel, b: Formula, translated: Formula, bound: int,
    nodes: tuple[str, ...],
) -> bool:
    """Each of nodes agrees about b with its unwound stand-ins of length <= bound
    about translated."""
    for node in nodes:
        truth = check(model, node, b)
        for target in _targets(model, node, bound):
            if check(unw, target, translated) != truth:
                return False
    return True


def verify_transfer(model: KripkeModel, a: Formula, t: Witness, node: str) -> bool:
    """Truth transfer at one node, both halves: the corresponding unwound
    nodes agree with `node` about a / its translation.

    This is claim2_holds at the root occurrence, whose complexity is max(t) = n,
    so the stand-ins are those of length n + 1 - n = 1.
    """
    unw = unwind(model, a, t)
    return _agrees(model, unw, a, translate_k4_to_gl(a, t), 1, (node,))


def claim2_holds(model: KripkeModel, a: Formula, t: Witness) -> bool:
    """The full quantitative transfer: every subformula occurrence B agrees
    between each node and its unwound stand-ins of length <= n+1-C(B)."""
    unw = unwind(model, a, t)
    occ = box_occurrences(a)
    n = max(t) if t else -1
    for path, b in subformula_occurrences(a):
        slice_t = tuple(t[i] for i in boxes_within(occ, path))
        bound = n + 1 - max(slice_t, default=-1)
        if not _agrees(model, unw, b, translate_k4_to_gl(b, slice_t), bound, model.nodes):
            return False
    return True
