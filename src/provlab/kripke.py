"""Finite Kripke models, forcing, and frame-class validation.

Forcing, the naive reference checker, computes each subformula's set of
forcing nodes by the clauses on node sets, and keeps it per model (see _force).

Frame classes:
  - K4Frame:  transitive tree with clusters (each cluster a singleton
    irreflexive node or a set of mutually related reflexive nodes, with a
    rooted tree as quotient)
  - KD4Frame: K4Frame plus seriality (every node has a successor)
  - GLFrame:  finite transitive irreflexive
  - S4Frame:  K4Frame with every node reflexive
  - IntFrame(flavor): persistent-valuation frames for BPC/IPC/MPC/FPL/CPC
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass, field

from .formulas import And, Atom, Bot, Box, Formula, InputError, Neg, Or, Top, preorder

# Valuation key for the falsum extension in MPC models, where bot behaves
# like an ordinary persistent atom.
BOT_KEY = "bot"

INT_FLAVORS = ("BPC", "IPC", "MPC", "FPL", "CPC")

Extension = Callable[[Formula], frozenset[str]]  # ext(f): the nodes forcing f, see _force


@dataclass(frozen=True)
class FrameClass:
    kind: str  # "K4" | "KD4" | "GL" | "S4" | "Int"
    flavor: str | None = None

    def __str__(self) -> str:
        if self.kind == "Int":
            return f"IntFrame({self.flavor})"
        return f"{self.kind}Frame"


K4_FRAME = FrameClass("K4")
KD4_FRAME = FrameClass("KD4")
GL_FRAME = FrameClass("GL")
S4_FRAME = FrameClass("S4")


def int_frame(flavor: str) -> FrameClass:
    if flavor not in INT_FLAVORS:
        raise ValueError(f"unknown propositional flavor {flavor!r}")
    return FrameClass("Int", flavor)


class UnknownNodeError(KeyError):
    pass


class FrameViolationError(InputError):
    def __init__(self, violations):
        super().__init__(f"frame violations: {violations}")
        self.violations = violations


class ModelFormatError(InputError):
    """A model's JSON lacks a key or has a value of the wrong shape."""


def _names(value, what: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise ModelFormatError(f"model {what} must be a list of node names, got {value!r}")
    return value


@dataclass
class KripkeModel:
    """Finite directed graph with valuation and optional cluster partition.

    Immutable after construction by convention; all operations are pure.
    Atoms missing from the valuation read as false everywhere.
    """

    nodes: tuple[str, ...]
    relation: frozenset[tuple[str, str]]
    valuation: dict[str, frozenset[str]]
    clusters: tuple[frozenset[str], ...] | None = None
    _succ: dict[str, frozenset[str]] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        succ: dict[str, set[str]] = {k: set() for k in self.nodes}
        for a, b in self.relation:
            if a in succ:
                succ[a].add(b)
        object.__setattr__(self, "_succ", {k: frozenset(v) for k, v in succ.items()})

    def successors(self, node: str) -> frozenset[str]:
        if node not in self._succ:
            raise UnknownNodeError(node)
        return self._succ[node]

    def holds(self, atom: str, node: str) -> bool:
        return node in self.valuation.get(atom, frozenset())

    def to_json(self) -> dict:
        out = {
            "nodes": list(self.nodes),
            "relation": sorted([a, b] for a, b in self.relation),
            "valuation": {a: sorted(ns) for a, ns in sorted(self.valuation.items())},
        }
        if self.clusters is not None:
            out["clusters"] = [sorted(c) for c in self.clusters]
        return out

    @staticmethod
    def from_json(data: dict | str) -> "KripkeModel":
        """The model of to_json's format; ModelFormatError names a missing key or bad shape."""
        if isinstance(data, str):
            data = json.loads(data)
        if not isinstance(data, dict):
            raise ModelFormatError(f"model JSON must be an object, got {type(data).__name__}")
        for key in ("nodes", "relation"):
            if key not in data:
                raise ModelFormatError(f"model JSON has no {key!r} key")
        relation = data["relation"]
        if not isinstance(relation, list) or not all(len(_names(e, "edge")) == 2 for e in relation):
            raise ModelFormatError(f"model relation must be a list of [node, node] pairs, got {relation!r}")
        valuation = data.get("valuation", {})
        if not isinstance(valuation, dict):
            raise ModelFormatError(f"model valuation must be an object, got {valuation!r}")
        clusters = data.get("clusters")
        if clusters is not None:
            if not isinstance(clusters, list):
                raise ModelFormatError(f"model clusters must be a list, got {clusters!r}")
            clusters = tuple(frozenset(_names(c, "cluster")) for c in clusters)
        return KripkeModel(
            nodes=tuple(_names(data["nodes"], "nodes")),
            relation=frozenset((a, b) for a, b in relation),
            valuation={a: frozenset(_names(ns, f"valuation of {a!r}")) for a, ns in valuation.items()},
            clusters=clusters,
        )

    def to_dot(self, refuting: str | None = None) -> str:
        """DOT export; clusters render as subgraphs, the refuting node double-circled."""
        lines = ["digraph kripke {", "  rankdir=BT;"]
        if self.clusters is not None:
            for i, c in enumerate(self.clusters):
                members = " ".join(f'"{k}";' for k in sorted(c))
                lines.append(f"  subgraph cluster_{i} {{ {members} }}")
        for k in self.nodes:
            true_atoms = sorted(a for a in self.valuation if self.holds(a, k))
            label = k + "\\n{" + ",".join(true_atoms) + "}"
            extra = " peripheries=2" if k == refuting else ""
            lines.append(f'  "{k}" [label="{label}"{extra}];')
        for a, b in sorted(self.relation):
            lines.append(f'  "{a}" -> "{b}";')
        lines.append("}")
        return "\n".join(lines)


def check(model: KripkeModel, node: str, f: Formula) -> bool:
    """Classical forcing: boolean clauses at the node, Box quantifies over successors."""
    if node not in model._succ:
        raise UnknownNodeError(node)
    return node in _force(model, None)(f)


def check_int(model: KripkeModel, node: str, f: Formula, flavor: str) -> bool:
    """Persistent-valuation forcing for the propositional flavors.

    Imp(A, B) holds at k iff every successor forcing A forces B; on the
    reflexive flavors (IPC/MPC/CPC) this subsumes the local clause.  bot is
    everywhere-false except under MPC, where it reads the persistent BOT_KEY
    extension.  Negation evaluates as A -> bot.  TypeError if f has a box.
    """
    violations = validate_frame(model, int_frame(flavor))
    if violations:
        raise FrameViolationError(violations)
    if node not in model._succ:
        raise UnknownNodeError(node)
    return node in _force(model, flavor)(f)


def _force(model: KripkeModel, flavor: str | None) -> Extension:
    """The naive reference checker, by truth sets: ext(f) is the frozenset of
    the nodes that force f, classically when flavor is None, else persistently
    for that flavor (see check and check_int).  Each set is computed from its
    children's by the clause of its connective, children first over
    formulas.preorder with a stack of values, so no depth recurses; one memo
    per model keeps every compound subformula's set for later questions."""
    memo: dict[Formula, frozenset[str]] = {}
    valuation, order, nodes, succ = model.valuation, model.nodes, frozenset(model.nodes), model._succ
    empty: frozenset[str] = frozenset()
    bot = valuation.get(BOT_KEY, empty) if flavor == "MPC" else empty

    def ext(f: Formula) -> frozenset[str]:
        if f in memo:
            return memo[f]
        vals: list[frozenset[str]] = []
        pop, push = vals.pop, vals.append
        for g in reversed(preorder(f)):
            cls = g.__class__
            if cls is Atom:
                push(valuation.get(g.name, empty))
                continue
            if cls is Bot or cls is Top:
                push(bot if cls is Bot else nodes)
                continue
            if cls is And:
                v = pop() & pop()
            elif cls is Or:
                v = pop() | pop()
            elif cls is Box:
                if flavor is not None:
                    raise TypeError("box is not part of the propositional language")
                a = pop()
                v = frozenset(k for k in order if succ[k] <= a)
            else:  # Imp, or Neg read as A -> bot; persistently: no successor forces A and fails B
                a = pop()  # the left child's value is on top
                b = bot if cls is Neg else pop()
                if flavor is None:
                    v = (nodes - a) | b
                else:
                    fails = a - b
                    v = frozenset(k for k in order if succ[k].isdisjoint(fails))
            push(v)
            memo[g] = v
        return vals[0]

    return ext


Violation = tuple[str, tuple]


def _basic_violations(model: KripkeModel) -> list[Violation]:
    out: list[Violation] = []
    nodes = set(model.nodes)
    if len(nodes) != len(model.nodes):
        out.append(("duplicate-nodes", ()))
    for a, b in model.relation:
        if a not in nodes or b not in nodes:
            out.append(("relation-outside-nodes", (a, b)))
    for atom, ns in model.valuation.items():
        for k in ns:
            if k not in nodes:
                out.append(("valuation-outside-nodes", (atom, k)))
    return out


def _transitivity_violations(model: KripkeModel) -> list[Violation]:
    """Each (a, b, c) with a R b R c but not a R c; the triples are walked only
    where b's successors are not a's."""
    out = []
    succ = model._succ
    for a in model.nodes:
        for b in succ[a]:
            if not succ[b] <= succ[a]:
                out += [("transitivity", (a, b, c)) for c in succ[b] if c not in succ[a]]
    return out


def _cluster_violations(model: KripkeModel) -> list[Violation]:
    """Cluster partition consistency for tree-with-clusters frames."""
    out: list[Violation] = []
    if model.clusters is None:
        return [("clusters-missing", ())]
    seen: set[str] = set()
    for c in model.clusters:
        if not c:
            out.append(("empty-cluster", ()))
        if c & seen:
            out.append(("overlapping-clusters", tuple(sorted(c & seen))))
        seen |= c
    if seen != set(model.nodes):
        out.append(("clusters-not-a-partition", tuple(sorted(set(model.nodes) ^ seen))))
        return out
    for c in model.clusters:
        members = sorted(c)
        if len(members) == 1:
            # singleton: either irreflexive, or reflexive (a one-node cluster)
            continue
        for x in members:
            for y in members:
                if (x, y) not in model.relation:
                    out.append(("cluster-not-mutually-related", (x, y)))
    # reflexivity inside multi-node clusters is implied by mutual relation;
    # a singleton {k} with (k,k) in R counts as a reflexive cluster.
    return out


def _quotient_tree_violations(model: KripkeModel) -> list[Violation]:
    """The cluster quotient must be a rooted tree order."""
    out: list[Violation] = []
    clusters = list(model.clusters)
    index = {k: i for i, c in enumerate(clusters) for k in c}
    edges: set[tuple[int, int]] = set()
    for a, b in model.relation:
        ia, ib = index[a], index[b]
        if ia != ib:
            edges.add((ia, ib))
    for i, j in edges:
        if (j, i) in edges:
            out.append(("quotient-not-antisymmetric", (sorted(clusters[i])[0], sorted(clusters[j])[0])))
    # every edge between distinct clusters must relate all member pairs
    for i, j in edges:
        for x in clusters[i]:
            for y in clusters[j]:
                if (x, y) not in model.relation:
                    out.append(("inter-cluster-edge-not-full", (x, y)))
    preds: dict[int, set[int]] = {i: set() for i in range(len(clusters))}
    for i, j in edges:
        preds[j].add(i)
    roots = [i for i in range(len(clusters)) if not preds[i]]
    if len(roots) != 1:
        out.append(("quotient-not-a-single-rooted-tree", tuple(sorted(sorted(clusters[i])[0] for i in roots))))
    for j, ps in preds.items():
        ps = sorted(ps)
        for a in ps:
            for b in ps:
                if a != b and (a, b) not in edges and (b, a) not in edges:
                    out.append(
                        ("quotient-ancestors-not-a-chain", (sorted(clusters[a])[0], sorted(clusters[b])[0], sorted(clusters[j])[0]))
                    )
    return out


def _persistence_violations(model: KripkeModel) -> list[Violation]:
    out = []
    for atom, ns in model.valuation.items():
        for k in ns:
            if not model.successors(k) <= ns:
                out += [("persistence", (atom, k, m)) for m in model.successors(k) if m not in ns]
    return out


def validate_frame(model: KripkeModel, frame_class: FrameClass) -> list[Violation]:
    """Empty list iff the model satisfies the frame-class predicate.

    Each violation names the failing condition and the witnessing nodes.
    """
    out = _basic_violations(model)
    if out:
        return out
    out += _transitivity_violations(model)
    kind = frame_class.kind
    if kind in ("K4", "KD4", "S4"):
        cluster_errs = _cluster_violations(model)
        out += cluster_errs
        if not cluster_errs:
            out += _quotient_tree_violations(model)
            if kind == "S4":
                for k in model.nodes:
                    if (k, k) not in model.relation:
                        out.append(("reflexivity", (k,)))
            if kind == "KD4":
                for k in model.nodes:
                    if not model.successors(k):
                        out.append(("seriality", (k,)))
    elif kind == "GL":
        for k in model.nodes:
            if (k, k) in model.relation:
                out.append(("irreflexivity", (k,)))
    elif kind == "Int":
        flavor = frame_class.flavor
        out += _persistence_violations(model)
        if flavor in ("IPC", "MPC", "CPC"):
            for k in model.nodes:
                if (k, k) not in model.relation:
                    out.append(("reflexivity", (k,)))
        if flavor == "FPL":
            for k in model.nodes:
                if (k, k) in model.relation:
                    out.append(("irreflexivity", (k,)))
        if flavor == "CPC":
            if len(model.nodes) != 1:
                out.append(("one-node", tuple(model.nodes)))
        # BPC: transitivity + persistence only
    else:
        raise ValueError(f"unknown frame class {frame_class!r}")
    return out

