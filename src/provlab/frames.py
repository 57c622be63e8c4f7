"""Exhaustive frame/model enumeration and bounded countermodel search.

Every finite transitive relation decomposes into clusters (mutual-reachability
classes: reflexive sets of mutually related nodes, or irreflexive singletons)
arranged along a strict partial order.  Frames are therefore generated as a
quotient structure (a strict order, or a rooted tree for the tree-with-cluster
classes) decorated with cluster sizes and reflexivity flags.  Quotients are
enumerated in a "naturally labeled" form (node indices are a linear
extension), which covers every isomorphism class; exact duplicates are
removed.  ``frames_of_size`` keeps isomorphic copies, and ``enumerate_models``
streams them all; every countermodel search and validity sweep scans
``rooted_frames_of_size``, one rooted frame per isomorphism class, through one
loop, and meets the refutation a scan of every model would meet first.

Enumeration order is canonical: node count, then adjacency bitmask, then
valuation bitmask (sorted atoms, first atom in the least significant bits).
The fast path evaluates a whole chunk of valuations per frame at once,
bit-sliced on Python ints: one int per subformula holds, for every node, one
bit per valuation.  It reports the least failing valuation, then the least
node, so "first countermodel" is the one the naive enumeration meets first.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

from . import kripke
from .budget import Budget
from .formulas import And, Atom, Bot, Box, Formula, Imp, Neg, Or, Top
from .kripke import BOT_KEY, FrameClass, KripkeModel

_CHUNK = 1 << 18


@dataclass(frozen=True)
class _Frame:
    n: int
    rel: frozenset[tuple[int, int]]
    clusters: tuple[tuple[int, ...], ...]
    succ_masks: tuple[int, ...]
    bitmask: int


def _make_frame(n: int, rel: frozenset[tuple[int, int]]) -> _Frame:
    succ = [0] * n
    for a, b in rel:
        succ[a] |= 1 << b
    clusters = []
    done = set()
    for k in range(n):
        if k in done:
            continue
        c = tuple(sorted({k} | {m for m in range(n) if (k, m) in rel and (m, k) in rel}))
        clusters.append(c)
        done.update(c)
    bitmask = sum(1 << (a * n + b) for a, b in rel)
    return _Frame(n, rel, tuple(clusters), tuple(succ), bitmask)


def _down_closed_subsets(i: int, downs: list[int]) -> Iterator[int]:
    # subsets of {0..i-1}, as bitmasks, closed under the existing down-sets
    for mask in range(1 << i):
        ok = True
        m = mask
        while m:
            x = (m & -m).bit_length() - 1
            if downs[x] & ~mask:
                ok = False
                break
            m &= m - 1
        if ok:
            yield mask


def _strict_orders(m: int) -> list[frozenset[tuple[int, int]]]:
    """All strict partial orders on range(m) for which 0..m-1 is a linear extension."""
    out: list[frozenset[tuple[int, int]]] = []

    def rec(i: int, downs: list[int]):
        if i == m:
            rel = frozenset((x, j) for j in range(m) for x in range(j) if downs[j] >> x & 1)
            out.append(rel)
            return
        for mask in _down_closed_subsets(i, downs):
            rec(i + 1, downs + [mask])

    rec(0, [])
    return out


def _tree_canon(parents: tuple[int, ...]) -> tuple:
    kids: dict[int, list[int]] = {i: [] for i in range(len(parents))}
    for i, par in enumerate(parents):
        if par >= 0:
            kids[par].append(i)

    def canon(i: int) -> tuple:
        return tuple(sorted(canon(c) for c in kids[i]))

    return canon(0)


def _rooted_trees(m: int) -> list[tuple[int, ...]]:
    """One parent array per unlabeled rooted tree on m nodes (root index 0)."""
    seen = {}
    for parents in itertools.product(*(range(i) for i in range(1, m))):
        arr = (-1,) + parents
        key = _tree_canon(arr)
        if key not in seen:
            seen[key] = arr
    return list(seen.values()) if m > 1 else [(-1,)]


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _class_params(frame_class: FrameClass) -> tuple[str, str, bool]:
    """(quotient kind, cluster kind, serial) for a frame class."""
    kind = frame_class.kind
    if kind == "K4":
        return "tree", "mixed", False
    if kind == "KD4":
        return "tree", "mixed", True
    if kind == "S4":
        return "tree", "reflexive", False
    if kind == "GL":
        return "order", "irreflexive", False
    if kind == "Int":
        flavor = frame_class.flavor
        if flavor == "BPC":
            return "order", "mixed", False
        if flavor == "FPL":
            return "order", "irreflexive", False
        if flavor in ("IPC", "MPC"):
            return "order", "reflexive", False
        if flavor == "CPC":
            return "order", "reflexive", False  # restricted to n == 1 below
    raise ValueError(f"unknown frame class {frame_class!r}")


def _quotients(quotient_kind: str, m: int) -> list[frozenset[tuple[int, int]]]:
    if quotient_kind == "order":
        return _strict_orders(m)
    rels = []
    for parents in _rooted_trees(m):
        rel = set()
        for j in range(m):
            a = parents[j]
            while a >= 0:
                rel.add((a, j))
                a = parents[a]
        rels.append(frozenset(rel))
    return rels


@lru_cache(maxsize=None)
def frames_of_size(frame_class: FrameClass, n: int) -> tuple[_Frame, ...]:
    """All frames of the class with exactly n nodes, sorted by adjacency bitmask."""
    quotient_kind, cluster_kind, serial = _class_params(frame_class)
    if frame_class.kind == "Int" and frame_class.flavor == "CPC":
        if n != 1:
            return ()
        return (_make_frame(1, frozenset([(0, 0)])),)
    found: dict[int, _Frame] = {}
    for m in range(1, n + 1):
        if cluster_kind == "irreflexive" and m != n:
            continue
        for quot in _quotients(quotient_kind, m):
            succ_slots = {a for a, _ in quot}
            for sizes in _compositions(n, m):
                flag_choices = []
                for i, s in enumerate(sizes):
                    if cluster_kind == "reflexive" or s > 1:
                        flag_choices.append((True,))
                    elif cluster_kind == "irreflexive":
                        flag_choices.append((False,))
                    elif serial and i not in succ_slots:
                        flag_choices.append((True,))
                    else:
                        flag_choices.append((False, True))
                for flags in itertools.product(*flag_choices):
                    offsets = [0]
                    for s in sizes:
                        offsets.append(offsets[-1] + s)
                    members = [range(offsets[i], offsets[i + 1]) for i in range(m)]
                    rel = set()
                    for i in range(m):
                        if flags[i]:
                            rel.update((x, y) for x in members[i] for y in members[i])
                    for a, b in quot:
                        rel.update((x, y) for x in members[a] for y in members[b])
                    fr = _make_frame(n, frozenset(rel))
                    found.setdefault(fr.bitmask, fr)
    return tuple(sorted(found.values(), key=lambda fr: fr.bitmask))


def _iso_key(frame: _Frame) -> int:
    """The least adjacency bitmask over the relabelings that respect refined colours.

    A node's colour starts as its reflexivity and is refined by the sorted
    colours of its successors and of its predecessors until the partition is
    stable.  Colours are ranks of sorted signatures, so an isomorphism maps
    colour cells onto equal colour cells, and isomorphic frames have the same
    set of colour-respecting relabelings: the key is a canonical form.  Only
    permutations inside a cell are tried, never all n! of them.
    """
    n, succ = frame.n, frame.succ_masks
    outs = [[j for j in range(n) if succ[i] >> j & 1] for i in range(n)]
    ins = [[j for j in range(n) if succ[j] >> i & 1] for i in range(n)]
    colour = [succ[i] >> i & 1 for i in range(n)]
    while True:
        sigs = [(colour[i], tuple(sorted(colour[j] for j in outs[i])),
                 tuple(sorted(colour[j] for j in ins[i]))) for i in range(n)]
        rank = {sig: r for r, sig in enumerate(sorted(set(sigs)))}
        refined = [rank[sig] for sig in sigs]
        if len(rank) == len(set(colour)):
            break
        colour = refined
    cells = [[i for i in range(n) if refined[i] == c] for c in range(len(rank))]

    def relabeled(order: tuple[tuple[int, ...], ...]) -> int:
        label = [0] * n
        for new, old in enumerate(itertools.chain.from_iterable(order)):
            label[old] = new
        return sum(1 << (label[a] * n + label[b]) for a, b in frame.rel)

    return min(map(relabeled, itertools.product(*(itertools.permutations(cell) for cell in cells))))


@lru_cache(maxsize=None)
def rooted_frames_of_size(frame_class: FrameClass, n: int) -> tuple[_Frame, ...]:
    """One frame per isomorphism class of rooted frames: its least-bitmask member.

    A frame is rooted when a node sees every other node.  Any refutation lives
    inside the refuting node's generated submodel, which is rooted, no larger
    and of the same class, and a frame isomorphic to a refuting one refutes
    too, so the countermodel searches skip rootless frames and all but one
    frame of each class.  At the least size with a refutation, every refuting
    frame is rooted, so the first of them in canonical order is the first of
    its class: the kept frame, and the one a scan of every frame meets first.
    """
    full = (1 << n) - 1
    seen: set[int] = set()
    out = []
    for fr in frames_of_size(frame_class, n):
        if any(fr.succ_masks[i] | (1 << i) == full for i in range(n)):
            key = _iso_key(fr)
            if key not in seen:
                seen.add(key)
                out.append(fr)
    return tuple(out)


def _node_name(i: int) -> str:
    return f"k{i}"


def _persistent(frame_class: FrameClass) -> bool:
    return frame_class.kind == "Int"


def _allowed_masks(frame: _Frame, persistent: bool) -> list[int]:
    if not persistent:
        return list(range(1 << frame.n))
    out = []
    for mask in range(1 << frame.n):
        ok = True
        m = mask
        while m:
            k = (m & -m).bit_length() - 1
            if frame.succ_masks[k] & ~mask:
                ok = False
                break
            m &= m - 1
        if ok:
            out.append(mask)
    return out


def frame_model(frame: _Frame, masks: dict[str, int], frame_class: FrameClass) -> KripkeModel:
    nodes = tuple(_node_name(i) for i in range(frame.n))
    relation = frozenset((_node_name(a), _node_name(b)) for a, b in frame.rel)
    valuation = {
        atom: frozenset(_node_name(i) for i in range(frame.n) if mask >> i & 1)
        for atom, mask in masks.items()
    }
    clusters = None
    if frame_class.kind in ("K4", "KD4", "S4"):
        clusters = tuple(frozenset(_node_name(i) for i in c) for c in frame.clusters)
    return KripkeModel(nodes, relation, valuation, clusters)


def enumerate_models(max_nodes: int, frame_class: FrameClass, atom_set: Sequence[str]) -> Iterator[KripkeModel]:
    """Stream all models of the class with <= max_nodes nodes, canonical order.

    Exhaustive up to isomorphism-insensitive duplication; for Int classes only
    persistent valuations are produced.
    """
    if max_nodes < 1:
        raise ValueError("max_nodes must be >= 1")
    names = sorted(set(atom_set))
    persistent = _persistent(frame_class)
    for n in range(1, max_nodes + 1):
        for frame in frames_of_size(frame_class, n):
            allowed = _allowed_masks(frame, persistent)
            if not names:
                yield frame_model(frame, {}, frame_class)
                continue
            # first atom occupies the least significant bits of the combined
            # valuation index, so it varies fastest
            for combo in itertools.product(allowed, repeat=len(names)):
                masks = {names[len(names) - 1 - i]: combo[i] for i in range(len(names))}
                yield frame_model(frame, masks, frame_class)


class CompiledFormulas:
    """Linearized subformula DAG, evaluated bit-sliced per frame over a chunk.

    Each slot holds the truth of one subformula as one int of ``n`` segments
    of ``length`` bits: bit ``i * length + v`` is the truth at node ``i``
    under valuation ``v`` of the chunk.  Connectives are word operations;
    box is, per node, the AND of its successors' segments.  flavor None
    means classical/modal forcing; a flavor string selects the persistent
    propositional clauses (Imp is the box of ``~A \\/ B`` over successors,
    bot reads the BOT_KEY atom under MPC).
    """

    def __init__(self, formulas: Sequence[Formula], flavor: str | None):
        self.flavor = flavor
        self.ops: list[tuple] = []
        slot: dict[Formula, int] = {}

        def compile(f: Formula) -> int:
            idx = slot.get(f)
            if idx is not None:
                return idx
            match f:
                case Atom(name):
                    op = ("atom", name)
                case Bot():
                    op = ("atom", BOT_KEY) if flavor == "MPC" else ("bot",)
                case Top():
                    op = ("top",)
                case And(l, r):
                    op = ("and", compile(l), compile(r))
                case Or(l, r):
                    op = ("or", compile(l), compile(r))
                case Neg(sub):
                    op = ("neg", compile(sub)) if flavor is None else ("iimp", compile(sub), compile(Bot()))
                case Imp(l, r):
                    op = ("imp" if flavor is None else "iimp", compile(l), compile(r))
                case Box(sub):
                    if flavor is not None:
                        raise TypeError("box is not part of the propositional language")
                    op = ("box", compile(sub))
                case _:
                    raise TypeError(f"not a formula: {f!r}")
            self.ops.append(op)
            idx = slot[f] = len(self.ops) - 1
            return idx

        self.roots = [compile(f) for f in formulas]

    def atom_names(self) -> list[str]:
        """The sorted atoms the program reads, in the order that fixes valuations.

        Under MPC, BOT_KEY is a name even where no bot occurs, so the
        valuation order and the number of models charged do not depend on it.
        """
        names = {op[1] for op in self.ops if op[0] == "atom"}
        if self.flavor == "MPC":
            names.add(BOT_KEY)
        return sorted(names)

    def prune(self, keep: Sequence[int]) -> None:
        """Keep only the roots at positions keep, and the ops they reach.

        Operands precede the ops that read them, so one backward pass marks
        what the kept roots reach and one forward pass renumbers it.
        """
        live = [False] * len(self.ops)
        for i in keep:
            live[self.roots[i]] = True
        for idx in range(len(self.ops) - 1, -1, -1):
            op = self.ops[idx]
            if live[idx] and op[0] != "atom":
                for arg in op[1:]:
                    live[arg] = True
        new = [-1] * len(self.ops)
        ops: list[tuple] = []
        for idx, op in enumerate(self.ops):
            if live[idx]:
                new[idx] = len(ops)
                ops.append(op if op[0] == "atom" else (op[0], *(new[arg] for arg in op[1:])))
        self.roots = [new[self.roots[i]] for i in keep]
        self.ops = ops

    def run(self, atom_blocks: dict[str, int], frame: _Frame, length: int) -> list[int]:
        n = frame.n
        seg = (1 << length) - 1
        full = (1 << n * length) - 1
        shifts = [i * length for i in range(n)]
        succ = [[j for j in range(n) if sm >> j & 1] for sm in frame.succ_masks]

        def box(x: int) -> int:
            segs = [x >> s & seg for s in shifts]
            out = 0
            for s, js in zip(shifts, succ):
                a = seg
                for j in js:
                    a &= segs[j]
                out |= a << s
            return out

        vals: list[int] = []
        for op in self.ops:
            code = op[0]
            if code == "and":
                v = vals[op[1]] & vals[op[2]]
            elif code == "or":
                v = vals[op[1]] | vals[op[2]]
            elif code == "imp":
                v = vals[op[1]] ^ full | vals[op[2]]
            elif code == "iimp":
                v = box(vals[op[1]] ^ full | vals[op[2]])
            elif code == "box":
                v = box(vals[op[1]])
            elif code == "neg":
                v = vals[op[1]] ^ full
            elif code == "atom":
                v = atom_blocks[op[1]]
            elif code == "bot":
                v = 0
            else:  # top
                v = full
            vals.append(v)
        return [vals[r] for r in self.roots]


def _atom_blocks(
    names: list[str], allowed: list[int], n: int, start: int, length: int
) -> dict[str, int]:
    """Bit-sliced truth of each atom over valuations start .. start + length - 1.

    Atom k is digit k of the valuation index in base len(allowed): runs of
    base**k equal valuations, repeating with period base**(k+1).  A period
    shorter than the chunk is built once and repeated by multiplying with a
    repunit; a longer one is built on the chunk's own runs.
    """
    base = len(allowed)
    seg = (1 << length) - 1
    out = {}
    for k, name in enumerate(names):
        run = base**k
        period = run * base
        lo, hi = (0, period) if period < length else (start, start + length)
        rows = [0] * n
        for r in range(lo // run, (hi - 1) // run + 1):
            bits = (1 << min(hi, (r + 1) * run) - lo) - (1 << max(lo, r * run) - lo)
            mask = allowed[r % base]
            while mask:
                low = mask & -mask
                rows[low.bit_length() - 1] |= bits
                mask ^= low
        if period < length:
            offset = start % period
            repunit, width = 1, period
            while width < offset + length:
                repunit |= repunit << width
                width <<= 1
            rows = [row * repunit >> offset & seg for row in rows]
        out[name] = sum(row << i * length for i, row in enumerate(rows))
    return out


def _scan_frames(frame_class: FrameClass, max_nodes: int, names: list[str], budget: Budget | None):
    """Yield (frame, atom_blocks, length) chunks of the rooted frames, canonical order."""
    persistent = _persistent(frame_class)
    for n in range(1, max_nodes + 1):
        for frame in rooted_frames_of_size(frame_class, n):
            allowed = _allowed_masks(frame, persistent)
            total = len(allowed) ** len(names) if names else 1
            for start in range(0, total, _CHUNK):
                stop = min(start + _CHUNK, total)
                if budget is not None:
                    budget.spend_models(stop - start)
                yield frame, _atom_blocks(names, allowed, n, start, stop - start), stop - start


def _witness(
    frame: _Frame, frame_class: FrameClass, atom_blocks: dict[str, int], length: int, bad: int
) -> tuple[KripkeModel, str]:
    """Model and node of the least valuation, then least node, set in bad."""
    seg = (1 << length) - 1
    rows = [bad >> i * length & seg for i in range(frame.n)]
    some = 0
    for row in rows:
        some |= row
    v = (some & -some).bit_length() - 1
    node = next(i for i, row in enumerate(rows) if row >> v & 1)
    masks = {
        name: sum((block >> i * length + v & 1) << i for i in range(frame.n))
        for name, block in atom_blocks.items()
    }
    return frame_model(frame, masks, frame_class), _node_name(node)


def _verified(
    hit: tuple[KripkeModel, str], gamma: Sequence[Formula], a: Formula, frame_class: FrameClass
) -> tuple[KripkeModel, str]:
    """Return hit after the naive forcing checker confirms gamma holds and a fails there.

    Raises AssertionError on disagreement, also under ``python -O``.
    """
    model, node = hit
    if frame_class.kind == "Int":
        def forced(g: Formula) -> bool:
            return kripke.check_int(model, node, g, frame_class.flavor)
    else:
        def forced(g: Formula) -> bool:
            return kripke.check(model, node, g)
    if forced(a) or not all(forced(g) for g in gamma):
        raise AssertionError("countermodel failed re-verification")
    return hit


def _flavor(frame_class: FrameClass) -> str | None:
    return frame_class.flavor if frame_class.kind == "Int" else None


def _refutations(
    gamma: Sequence[Formula],
    formulas: Sequence[Formula],
    frame_class: FrameClass,
    max_nodes: int,
    budget: Budget | None,
) -> dict[Formula, tuple[KripkeModel, str] | None]:
    """Per formula, the first verified (model, node) forcing gamma but not it, or None.

    One pass compiles gamma and the formulas once; a chunk that refutes some
    formulas prunes their ops from the program, and the pass stops when none
    is left.
    """
    result: dict[Formula, tuple[KripkeModel, str] | None] = {f: None for f in formulas}
    pending = list(dict.fromkeys(formulas))
    if not pending:
        return result
    gamma = tuple(gamma)
    k = len(gamma)
    prog = CompiledFormulas(gamma + tuple(pending), _flavor(frame_class))
    for frame, blocks, length in _scan_frames(frame_class, max_nodes, prog.atom_names(), budget):
        full = (1 << frame.n * length) - 1
        vals = prog.run(blocks, frame, length)
        premises = full
        for g in vals[:k]:
            premises &= g
        keep = []
        for i, (f, res) in enumerate(zip(pending, vals[k:])):
            bad = 0 if res == full else (res ^ full) & premises
            if bad:
                hit = _witness(frame, frame_class, blocks, length, bad)
                result[f] = _verified(hit, gamma, f, frame_class)
            else:
                keep.append(i)
        if len(keep) != len(pending):
            if not keep:
                break
            pending = [pending[i] for i in keep]
            prog.prune([*range(k), *(k + i for i in keep)])
    return result


def find_countermodel(
    f: Formula,
    frame_class: FrameClass,
    max_nodes: int,
    budget: Budget | None = None,
) -> tuple[KripkeModel, str] | None:
    """First model and node refuting f, or None if none within the bound.

    The entailment search with no premises.
    """
    return find_entailment_countermodel((), f, frame_class, max_nodes, budget)


def sweep_refutations(
    formulas: Sequence[Formula],
    frame_class: FrameClass,
    max_nodes: int,
    budget: Budget | None = None,
) -> dict[Formula, tuple[KripkeModel, str] | None]:
    """Refutation status of many formulas over one shared enumeration pass.

    Returns, per formula, a verified refuting (model, node) or None if the
    formula holds at every node of every model within the bound.  Each
    formula's refutation is the one ``find_countermodel`` returns for it, with
    the atoms of the other formulas empty.
    """
    return _refutations((), formulas, frame_class, max_nodes, budget)


def find_entailment_countermodel(
    gamma: Sequence[Formula],
    a: Formula,
    frame_class: FrameClass,
    max_nodes: int,
    budget: Budget | None = None,
) -> tuple[KripkeModel, str] | None:
    """First model and node forcing every member of gamma but not a, or None.

    Needed for the persistent semantics, where 'gamma holds and a fails at a
    node' is not expressible as the failure of a single formula.  The scan
    meets frames in canonical order (node count, then adjacency bitmask), one
    rooted frame per isomorphism class, then valuations, then nodes; the hit
    is the first one a scan of every enumerated model would meet, and the
    naive forcing checker confirms it before it is returned.
    """
    return _refutations(gamma, (a,), frame_class, max_nodes, budget)[a]
