"""Exhaustive frame/model enumeration and bounded countermodel search.

Every finite transitive relation decomposes into clusters (mutual-reachability
classes: reflexive sets of mutually related nodes, or irreflexive singletons)
arranged along a strict partial order.  Frames are therefore generated as a
quotient structure (a strict order, or a rooted tree for the tree-with-cluster
classes) decorated with cluster sizes and reflexivity flags.  Quotients are
enumerated in a "naturally labeled" form (node indices are a linear
extension), which covers every isomorphism class.  Quotients and frames are
built as successor masks, never as sets of pairs; frames with equal
adjacency bitmasks are kept once.  ``frames_of_size`` keeps isomorphic
copies, and ``enumerate_models`` streams them all; every countermodel search
and validity sweep scans ``rooted_frames_of_size``, one rooted frame per
isomorphism class, through one loop, and meets the refutation a scan of
every model would meet first.  A local formula (no box, no persistent
implication) holds at a node exactly when the node's valuation makes it true,
so under local premises one that no one-node model refutes is valid: the scan
drops it there, and ends once every formula is refuted or so decided.

Enumeration order is canonical: node count, then adjacency bitmask, then
valuation bitmask (sorted atoms, first atom in the least significant bits).
The fast path evaluates a batch of rooted frames of one size at once,
bit-sliced on Python ints.  A frame's valuations are cut into chunks of at
most ``_CHUNK``; chunks are packed side by side, in canonical order, into a
batch until the next one would take it past ``_PACK`` bits per node.  One int
per subformula holds, for every node i, a segment of ``width`` bits in which
chunk f owns bits ``i * width + offset_f + v``, one per valuation v of the
chunk.  Box and the persistent implication read, per node pair (i, j), an
edge mask of the chunks whose frame does not let i see j.  A scan reports
the least chunk, then the least valuation, then the least node that fails,
so "first countermodel" is the one the naive enumeration meets first.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

from . import kripke
from .budget import Budget
from .formulas import And, Atom, Bot, Box, Formula, Imp, Neg, Or, Top
from .kripke import BOT_KEY, FrameClass, KripkeModel

_CHUNK = 1 << 18  # most valuations of one frame in one chunk
_PACK = 1 << 13  # most bits per node segment of a batch of several chunks


@dataclass(frozen=True, slots=True)
class _Frame:
    n: int
    clusters: tuple[tuple[int, ...], ...]
    succ_masks: tuple[int, ...]
    bitmask: int

    @property
    def rel(self) -> frozenset[tuple[int, int]]:
        """The relation as (a, b) pairs; built on demand, so the cached frame lists stay small."""
        return frozenset((a, b) for a, sm in enumerate(self.succ_masks) for b in range(self.n) if sm >> b & 1)


def _closed_masks(reqs: Sequence[int]) -> list[int]:
    """Subsets of range(len(reqs)), as ascending bitmasks, that hold reqs[x] for each member x."""
    out = []
    for mask in range(1 << len(reqs)):
        m = mask
        while m:
            x = (m & -m).bit_length() - 1
            if reqs[x] & ~mask:
                break
            m &= m - 1
        else:
            out.append(mask)
    return out


def _strict_orders(m: int) -> list[tuple[int, ...]]:
    """All strict partial orders on range(m) for which 0..m-1 is a linear extension.

    Each order is a tuple of successor masks: bit j of q[x] is set when x < j.
    """
    out: list[tuple[int, ...]] = []

    def rec(i: int, downs: list[int], qsucc: tuple[int, ...]):
        if i == m:
            out.append(qsucc)
            return
        for mask in _closed_masks(downs):
            rec(i + 1, downs + [mask], tuple(q | (mask >> x & 1) << i for x, q in enumerate(qsucc)) + (0,))

    rec(0, [], ())
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


def _quotients(quotient_kind: str, m: int) -> list[tuple[int, ...]]:
    """The quotient strict orders on range(m), each as successor masks."""
    if quotient_kind == "order":
        return _strict_orders(m)
    out = []
    for parents in _rooted_trees(m):
        qsucc = [0] * m
        for j in range(m):
            a = parents[j]
            while a >= 0:
                qsucc[a] |= 1 << j
                a = parents[a]
        out.append(tuple(qsucc))
    return out


@lru_cache(maxsize=None)
def frames_of_size(frame_class: FrameClass, n: int) -> tuple[_Frame, ...]:
    """All frames of the class with exactly n nodes, sorted by adjacency bitmask.

    A node of quotient cluster i sees every node of the clusters above i, and
    its own cluster's nodes when the cluster is reflexive.
    """
    quotient_kind, cluster_kind, serial = _class_params(frame_class)
    if frame_class.kind == "Int" and frame_class.flavor == "CPC":
        return (_Frame(1, ((0,),), (1,), 1),) if n == 1 else ()
    found: dict[int, _Frame] = {}
    for m in range(1, n + 1):
        if cluster_kind == "irreflexive" and m != n:
            continue
        quots = _quotients(quotient_kind, m)
        for sizes in _compositions(n, m):
            offsets = list(itertools.accumulate(sizes, initial=0))
            clusters = tuple(tuple(range(offsets[i], offsets[i + 1])) for i in range(m))
            cmask = [(1 << offsets[i + 1]) - (1 << offsets[i]) for i in range(m)]
            spread = [sum(1 << a * n for a in c) for c in clusters]  # times a row: that row at each member
            members = [0]  # members[q]: the nodes of the clusters in quotient mask q
            for cm in cmask:
                members += [x | cm for x in members]
            for qsucc in quots:
                partial = [((), 0)]  # (rows, packed rows) of the clusters so far, one per flag choice
                for i, s in enumerate(sizes):
                    above = members[qsucc[i]]
                    if cluster_kind == "reflexive" or s > 1 or (serial and not qsucc[i]):
                        rows = (above | cmask[i],)
                    elif cluster_kind == "irreflexive":
                        rows = (above,)
                    else:
                        rows = (above, above | cmask[i])
                    partial = [(succ + (r,) * s, bits + r * spread[i])
                               for succ, bits in partial for r in rows]
                for succ, bitmask in partial:
                    if bitmask not in found:
                        found[bitmask] = _Frame(n, clusters, succ, bitmask)
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
    rel = frame.rel

    def relabeled(order: tuple[tuple[int, ...], ...]) -> int:
        label = [0] * n
        for new, old in enumerate(itertools.chain.from_iterable(order)):
            label[old] = new
        return sum(1 << (label[a] * n + label[b]) for a, b in rel)

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


def _flavor(frame_class: FrameClass) -> str | None:
    """The intuitionistic flavor, or None for a classical (modal) frame class."""
    return frame_class.flavor if frame_class.kind == "Int" else None


def _allowed_masks(frame: _Frame, persistent: bool) -> list[int]:
    return _closed_masks(frame.succ_masks) if persistent else list(range(1 << frame.n))


def frame_model(frame: _Frame, masks: dict[str, int], frame_class: FrameClass) -> KripkeModel:
    nodes = tuple(_node_name(i) for i in range(frame.n))
    relation = frozenset((nodes[a], nodes[b]) for a, sm in enumerate(frame.succ_masks)
                         for b in range(frame.n) if sm >> b & 1)
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
    persistent = _flavor(frame_class) is not None
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
    """Linearized subformula DAG, evaluated bit-sliced over a batch of chunks.

    Each slot holds the truth of one subformula as one int of ``n`` segments
    of ``width`` bits: bit ``i * width + offset_f + v`` is the truth at node
    ``i`` under valuation ``v`` of the batch's chunk ``f`` (see ``_Batch``).
    Connectives are word operations; box sets node i's segment to the AND,
    over the nodes j, of ``seg_j | lacks_ij``, where the edge mask
    ``lacks_ij`` marks the chunks whose frame does not let i see j.  flavor
    None means classical/modal forcing; a flavor string selects the
    persistent propositional clauses (Imp is the box of ``~A \\/ B`` over
    successors, bot reads the BOT_KEY atom under MPC).  A slot is freed
    after its last reader, unless it is a root.
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
        self._plan()

    def _plan(self) -> None:
        """dead[idx]: the operands whose last reader is op idx, which run frees after it.

        A root is never freed: run returns it.
        """
        last = {}
        for idx, op in enumerate(self.ops):
            if op[0] != "atom":
                for arg in op[1:]:
                    last[arg] = idx
        for root in self.roots:
            last.pop(root, None)
        self.dead: list[tuple[int, ...]] = [()] * len(self.ops)
        for arg, idx in last.items():
            self.dead[idx] += (arg,)

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
        self._plan()

    def local_roots(self) -> list[bool]:
        """Per root, whether it reaches no box and no persistent implication, in one forward pass."""
        local: list[bool] = []
        for op in self.ops:
            local.append(op[0] == "atom" or op[0] not in ("box", "iimp") and all(local[a] for a in op[1:]))
        return [local[r] for r in self.roots]

    def run(self, batch: _Batch) -> list[int]:
        """The truth of each root over the batch."""
        width = batch.width
        seg = (1 << width) - 1
        full = (1 << batch.n * width) - 1
        shifts = range(0, batch.n * width, width)
        edges, atoms = batch.edges, batch.atoms

        def box(x: int) -> int:
            segs = [x >> s & seg for s in shifts]
            out = 0
            for s, row in zip(shifts, edges):
                a = seg
                for j, lacks in row:
                    a &= segs[j] | lacks if lacks else segs[j]
                out |= a << s
            return out

        vals: list[int | None] = []
        for op, dead in zip(self.ops, self.dead):
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
                v = atoms[op[1]]
            elif code == "bot":
                v = 0
            else:  # top
                v = full
            # true everywhere: keep the one full int, so the many roots that
            # a sweep cannot refute hold no memory of their own
            vals.append(full if v == full else v)
            for arg in dead:
                vals[arg] = None
        return [vals[r] for r in self.roots]


def _atom_rows(
    names: list[str], allowed: list[int], n: int, start: int, length: int
) -> dict[str, list[int]]:
    """Per atom and node, its truth over valuations start .. start + length - 1, one bit each.

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
        out[name] = rows
    return out


class _Batch:
    """Chunks of rooted frames of one size, laid side by side for one run.

    chunks holds (frame, length, rows) triples, rows as ``_atom_rows`` gives
    them.  Chunk f owns bits offsets[f] .. offsets[f] + length - 1 of each
    node's segment of ``width`` bits.  atoms holds each atom's truth in that
    layout; edges[i] lists, for each node j that i sees in some chunk's
    frame, j and the mask of the chunks whose frame does not let i see j (0
    when every frame does).
    """

    def __init__(self, n: int, chunks: list[tuple[_Frame, int, dict[str, list[int]]]]):
        self.n, self.chunks = n, chunks
        self.offsets = list(itertools.accumulate((length for _, length, _ in chunks), initial=0))
        self.width = self.offsets.pop()
        lacks = [[0] * n for _ in range(n)]
        packed = {name: [0] * n for name in chunks[0][2]}
        for (frame, length, rows), offset in zip(chunks, self.offsets):
            bits = ((1 << length) - 1) << offset
            for i, sm in enumerate(frame.succ_masks):
                for j in range(n):
                    if not sm >> j & 1:
                        lacks[i][j] |= bits
            for name, row in rows.items():
                acc = packed[name]
                for i in range(n):
                    acc[i] |= row[i] << offset
        self.atoms = {name: sum(row << i * self.width for i, row in enumerate(acc))
                      for name, acc in packed.items()}
        seg = (1 << self.width) - 1
        self.edges = [[(j, mask) for j, mask in enumerate(row) if mask != seg] for row in lacks]


def _batches(frame_class: FrameClass, max_nodes: int, names: list[str]) -> Iterator[_Batch]:
    """The chunks of the rooted frames, canonical order, packed into batches of one size.

    A chunk joins the open batch unless that would take it past _PACK bits
    per node, so a chunk longer than _PACK (each _CHUNK-sized piece of a
    large frame, for one) makes a batch of its own.  Atom rows are built once
    per run of chunks with equal (allowed masks, start, length), which in a
    modal class is every whole frame of one size.
    """
    persistent = _flavor(frame_class) is not None
    key = rows = None
    for n in range(1, max_nodes + 1):
        chunks: list[tuple[_Frame, int, dict[str, list[int]]]] = []
        width = 0
        for frame in rooted_frames_of_size(frame_class, n):
            allowed = _allowed_masks(frame, persistent)
            total = len(allowed) ** len(names) if names else 1
            for start in range(0, total, _CHUNK):
                length = min(_CHUNK, total - start)
                if key != (allowed, start, length):
                    key = (allowed, start, length)
                    rows = _atom_rows(names, allowed, n, start, length)
                if chunks and width + length > _PACK:
                    yield _Batch(n, chunks)
                    chunks, width = [], 0
                chunks.append((frame, length, rows))
                width += length
        if chunks:
            yield _Batch(n, chunks)


def _witness(batch: _Batch, frame_class: FrameClass, bad: int) -> tuple[int, tuple[KripkeModel, str]]:
    """The chunk, and the model and node, of the least chunk, then valuation, then node set in bad."""
    n, width = batch.n, batch.width
    seg = (1 << width) - 1
    some = 0
    for i in range(n):
        some |= bad >> i * width & seg
    b = (some & -some).bit_length() - 1
    f = bisect.bisect_right(batch.offsets, b) - 1
    frame, _, rows = batch.chunks[f]
    v = b - batch.offsets[f]
    node = next(i for i in range(n) if bad >> i * width + b & 1)
    masks = {name: sum((row[i] >> v & 1) << i for i in range(n)) for name, row in rows.items()}
    return f, (frame_model(frame, masks, frame_class), _node_name(node))


def _verified(
    hit: tuple[KripkeModel, str], gamma: Sequence[Formula], a: Formula, frame_class: FrameClass
) -> tuple[KripkeModel, str]:
    """Return hit after the naive forcing checker confirms gamma holds and a fails there.

    Raises AssertionError on disagreement, also under ``python -O``.
    """
    model, node = hit
    flavor = _flavor(frame_class)

    def forced(g: Formula) -> bool:
        return kripke.check(model, node, g) if flavor is None else kripke.check_int(model, node, g, flavor)

    if forced(a) or not all(forced(g) for g in gamma):
        raise AssertionError("countermodel failed re-verification")
    return hit


def _refutations(
    gamma: Sequence[Formula],
    formulas: Sequence[Formula],
    frame_class: FrameClass,
    max_nodes: int,
    budget: Budget | None,
) -> dict[Formula, tuple[KripkeModel, str] | None]:
    """Per formula, the first verified (model, node) forcing gamma but not it, or None.

    One pass compiles gamma and the formulas once and runs it per batch.
    The batch's chunks are then charged to the budget one at a time, in
    canonical order, and each formula's first refutation is verified at its
    chunk.  A batch that refutes some formulas prunes their ops from the
    program.  After the one-node frames, under local premises, the local
    formulas still pending are valid (see the module docstring) and leave
    the program.  The pass stops once none is pending, so the charge and
    the hits are those of a scan chunk by chunk that ends there.
    """
    result: dict[Formula, tuple[KripkeModel, str] | None] = {f: None for f in formulas}
    pending = list(dict.fromkeys(formulas))
    if not pending:
        return result
    gamma = tuple(gamma)
    k = len(gamma)
    prog = CompiledFormulas(gamma + tuple(pending), _flavor(frame_class))
    one_node = True
    for batch in _batches(frame_class, max_nodes, prog.atom_names()):
        if one_node and batch.n > 1:
            one_node, local = False, prog.local_roots()
            keep = [i for i in range(len(pending)) if not (local[k + i] and all(local[:k]))]
            if not keep:
                return result
            pending = [pending[i] for i in keep]
            prog.prune([*range(k), *(k + i for i in keep)])
        full = (1 << batch.n * batch.width) - 1
        vals = prog.run(batch)
        premises = full
        for g in vals[:k]:
            premises &= g
        hits: dict[int, list[tuple[Formula, tuple[KripkeModel, str]]]] = {}
        for f, res in zip(pending, vals[k:]):
            bad = 0 if res == full else (res ^ full) & premises
            if bad:
                chunk, hit = _witness(batch, frame_class, bad)
                hits.setdefault(chunk, []).append((f, hit))
        refuted = 0
        for chunk, (_, length, _) in enumerate(batch.chunks):
            if budget is not None:
                budget.spend_models(length)
            for f, hit in hits.get(chunk, ()):
                result[f] = _verified(hit, gamma, f, frame_class)
                refuted += 1
            if refuted == len(pending):
                return result
        if refuted:
            keep = [i for i, f in enumerate(pending) if result[f] is None]
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
