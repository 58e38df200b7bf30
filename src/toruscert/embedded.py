"""Labeled embedded graphs: fat vertices with endpoint labels, signed edges.

This is the member-level view of an intersection graph: every vertex is a
boundary circle carrying ``delta * n_opposite`` endpoint slots in rotation
order, each slot labelled by the opposite boundary circle met there.  Around
every vertex the labels advance by a constant step of +1 or -1 mod
``n_opposite`` (the opposite circles are parallel and coherently oriented, so
a traversal of the vertex circle meets them periodically); the step direction
is the vertex parity.  Edge signs are parity products, which makes every loop
edge positive.
"""
from __future__ import annotations

from dataclasses import dataclass

from toruscert.errors import (
    GraphError,
    LabelBlockViolation,
    ParityContradiction,
    SlotCollision,
)
from toruscert.fatgraph import FatGraph


@dataclass(frozen=True)
class EdgeEnd:
    vertex: int
    slot: int
    label: int


@dataclass(frozen=True)
class Edge:
    end_a: EdgeEnd
    end_b: EdgeEnd
    sign: int

    @property
    def labels(self):
        return (self.end_a.label, self.end_b.label)


@dataclass(frozen=True)
class FatVertex:
    id: int
    parity: int
    labels: tuple[int, ...]  # endpoint labels in rotation (slot) order

    @property
    def degree(self):
        return len(self.labels)


@dataclass(frozen=True)
class Face:
    """A face of the embedding: edge sides alternating with vertex corners.

    ``sides[i]`` is ``(edge_index, direction)`` with direction 0 when the
    side runs from ``end_a`` to ``end_b``; ``corners[i]`` is ``(vertex,
    (label_from, label_to))`` for the corner crossed right after side ``i``.
    A disk n-face has n sides and n corners.
    """

    sides: tuple
    corners: tuple

    def __len__(self):
        return len(self.sides)


@dataclass(frozen=True)
class ParallelFamily:
    """A maximal family of parallel, consecutive, same-sign edges.

    ``label_seq_a[k]`` and ``label_seq_b[k]`` are the endpoint labels of the
    k-th member at the two ends of the band; both sequences are consecutive
    runs mod the opposite vertex count.
    """

    index: int
    size: int
    sign: int
    endpoints: tuple[int, int]
    label_seq_a: tuple[int, ...]
    label_seq_b: tuple[int, ...]


class EmbeddedGraph:
    """A validated labeled fat graph; see :func:`build_graph`."""

    def __init__(self, vertices, edges, delta, n_opposite, fat):
        self.vertices = tuple(vertices)
        self.edges = tuple(edges)
        self.delta = delta
        self.n_opposite = n_opposite
        self.fat = fat

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_edges(self):
        return len(self.edges)

    def __repr__(self):
        return (
            f"<EmbeddedGraph V={self.num_vertices} E={self.num_edges}"
            f" delta={self.delta} n_opposite={self.n_opposite}>"
        )


def _run_step(labels, n):
    """Constant non-cyclic step (+1 or -1 mod n) of a label run, or None."""
    if n == 1:
        return 1
    steps = {(labels[k + 1] - labels[k]) % n for k in range(len(labels) - 1)}
    if len(steps) != 1:
        return None
    step = steps.pop()
    if step == 1 % n:
        return 1
    if step == (-1) % n:
        return -1
    return None


def build_graph(parities, edge_specs, *, delta, n_opposite):
    """Validate and assemble an :class:`EmbeddedGraph`.

    ``parities`` lists the vertex parities (+1 or -1).  Each edge spec is
    ``((v1, slot1, label1), (v2, slot2, label2))`` or the same with a trailing
    sign; labels are 1-based in ``1..n_opposite``, the partner count, and
    every vertex has degree ``delta * n_opposite``.

    Raises :class:`GraphError` when a parity, vertex or label is out of range,
    :class:`SlotCollision` when the slots of a vertex are not covered
    exactly once, :class:`LabelBlockViolation` when a vertex label cycle is
    not a periodic +-1 run (equivalently, when it does not consist of
    ``delta`` consecutive blocks), and :class:`ParityContradiction` when a
    given sign differs from the parity product.
    """
    parities = tuple(parities)
    if any(p not in (1, -1) for p in parities):
        raise GraphError("parities must be +1 or -1")
    nv = len(parities)
    deg = delta * n_opposite

    slot_label = [[None] * deg for _ in range(nv)]
    ends_seen = set()
    normalized = []
    for spec in edge_specs:
        if len(spec) == 3:
            ea, eb, sign = spec
        else:
            ea, eb = spec
            sign = None
        ea = EdgeEnd(*ea)
        eb = EdgeEnd(*eb)
        for end in (ea, eb):
            if not 0 <= end.vertex < nv:
                raise GraphError(f"vertex {end.vertex} out of range")
            if not 0 <= end.slot < deg:
                raise SlotCollision(
                    f"slot {end.slot} out of range 0..{deg - 1} at vertex {end.vertex}"
                )
            if not 1 <= end.label <= n_opposite:
                raise GraphError(f"label {end.label} out of range 1..{n_opposite}")
            if (end.vertex, end.slot) in ends_seen:
                raise SlotCollision(f"slot {end.slot} of vertex {end.vertex} used twice")
            ends_seen.add((end.vertex, end.slot))
            slot_label[end.vertex][end.slot] = end.label
        expected = parities[ea.vertex] * parities[eb.vertex]
        if sign is None:
            sign = expected
        elif sign != expected:
            raise ParityContradiction(
                f"edge {(ea, eb)} has sign {sign}, parity classes force {expected}"
            )
        normalized.append(Edge(ea, eb, sign))

    if len(ends_seen) != nv * deg:
        missing = [
            (v, k) for v in range(nv) for k in range(deg) if slot_label[v][k] is None
        ]
        raise SlotCollision(f"unused endpoint slots: {missing[:4]}...")

    for v, labels in enumerate(slot_label):
        # a cycle is a run that also steps from its last slot to its first
        if _run_step(labels + labels[:1], n_opposite) is None:
            raise LabelBlockViolation(
                f"label cycle at vertex {v} is not {delta} consecutive blocks:"
                f" {labels}"
            )

    matching = [-1] * (nv * deg)
    for e in normalized:
        a = e.end_a.vertex * deg + e.end_a.slot
        b = e.end_b.vertex * deg + e.end_b.slot
        matching[a] = b
        matching[b] = a
    fat = FatGraph([deg] * nv, matching)
    vertices = tuple(
        FatVertex(v, parities[v], tuple(slot_label[v])) for v in range(nv)
    )
    return EmbeddedGraph(vertices, tuple(normalized), delta, n_opposite, fat)


def trace_faces(g: EmbeddedGraph):
    """Faces of the embedding, with edge sides and labeled corners.

    Every edge side appears in exactly one face, so the face sizes sum to
    twice the edge count.
    """
    deg = g.delta * g.n_opposite
    edge_of = {}
    for i, e in enumerate(g.edges):
        edge_of[e.end_a.vertex * deg + e.end_a.slot] = (i, 0)
        edge_of[e.end_b.vertex * deg + e.end_b.slot] = (i, 1)
    out = []
    for orbit in g.fat.faces():
        sides = []
        corners = []
        for d in orbit:
            sides.append(edge_of[d])
            m = g.fat.matching[d]
            nxt = g.fat.rotation_next(m)
            v = g.fat.vertex_of(m)
            lab_from = g.vertices[v].labels[m - v * deg]
            lab_to = g.vertices[v].labels[nxt - v * deg]
            corners.append((v, (lab_from, lab_to)))
        out.append(Face(tuple(sides), tuple(corners)))
    return tuple(out)


@dataclass(frozen=True)
class ReducedGraph:
    """Result of amalgamating parallel families: a reduced fat graph whose
    edge ``i`` carries ``families[i]``."""

    graph: FatGraph
    parities: tuple
    families: tuple
    delta: int
    n_opposite: int


def reduce_graph(g: EmbeddedGraph) -> ReducedGraph:
    """Amalgamate every maximal parallel family into a single edge.

    The output graph has no two parallel edges; each of its edges carries the
    size and the member label sequences of its source family.
    """
    reduced_fat, fam_members = g.fat.amalgamate_parallel()
    deg = g.delta * g.n_opposite
    families = []
    for i in sorted(fam_members):
        members = fam_members[i]
        rep = g.edges[members[0]]
        signs = {g.edges[m].sign for m in members}
        if len(signs) != 1:
            raise ParityContradiction(f"family {i} mixes signs {signs}")
        u, v = rep.end_a.vertex, rep.end_b.vertex
        # align member ends: side a holds the ends in the block containing
        # the representative's end_a slot
        a_dart = rep.end_a.vertex * deg + rep.end_a.slot
        block_a = _block_darts(g, members, a_dart)
        seq_a, seq_b = [], []
        for m in members:
            e = g.edges[m]
            da = e.end_a.vertex * deg + e.end_a.slot
            if da in block_a:
                seq_a.append(e.end_a.label)
                seq_b.append(e.end_b.label)
            else:
                seq_a.append(e.end_b.label)
                seq_b.append(e.end_a.label)
        for seq in (seq_a, seq_b):
            if len(seq) > 1 and _run_step(seq, g.n_opposite) is None:
                raise LabelBlockViolation(
                    f"family {i} label sequence {seq} is not a consecutive run"
                )
        families.append(
            ParallelFamily(
                index=i,
                size=len(members),
                sign=signs.pop(),
                endpoints=(u, v),
                label_seq_a=tuple(seq_a),
                label_seq_b=tuple(seq_b),
            )
        )
    parities = tuple(v.parity for v in g.vertices)
    return ReducedGraph(
        graph=reduced_fat,
        parities=parities,
        families=tuple(families),
        delta=g.delta,
        n_opposite=g.n_opposite,
    )


def _block_darts(g: EmbeddedGraph, members, seed_dart):
    """Darts of the family ``members`` in the same consecutive block as
    ``seed_dart`` at its vertex.

    A block contains one dart per member.  For a loop family whose two blocks
    happen to be adjacent in the rotation, the one-dart-per-member rule is
    what stops the walk at the junction.
    """
    deg = g.delta * g.n_opposite
    member_of_dart = {}
    for m in members:
        e = g.edges[m]
        member_of_dart[e.end_a.vertex * deg + e.end_a.slot] = m
        member_of_dart[e.end_b.vertex * deg + e.end_b.slot] = m
    v = seed_dart // deg
    base = v * deg
    block = {seed_dart}
    covered = {member_of_dart[seed_dart]}
    for step in (1, -1):
        k = seed_dart - base
        while len(block) < len(members):
            k2 = (k + step) % deg
            d2 = base + k2
            m2 = member_of_dart.get(d2)
            if m2 is None or m2 in covered:
                break
            block.add(d2)
            covered.add(m2)
            k = k2
    return block


def expand_decorated(reduced: FatGraph, size, parities, offsets):
    """Materialize the member-level labeled graph of a decorated reduced graph.

    Every edge of ``reduced`` becomes a band of ``size`` parallel members.
    Vertex ``v`` reads its endpoint labels as the arithmetic progression
    ``offsets[v] + parity * slot`` (mod ``size``, 1-based), so each rotation
    position of the reduced graph turns into one consecutive label block.
    The inverse of :func:`reduce_graph` on the graphs this engine enumerates.
    """
    t = int(size)
    degs = set(reduced.degrees)
    if len(degs) != 1:
        raise ValueError("expand_decorated requires a regular reduced graph")
    deg = degs.pop()
    expanded, blocks = reduced.expand_edges(t)

    def label(vertex, slot):
        return (offsets[vertex] + parities[vertex] * slot) % t + 1

    edge_specs = []
    for a, b in reduced.edge_darts():
        va, vb = reduced.vertex_of(a), reduced.vertex_of(b)
        for k in range(t):
            da = blocks[a][k]
            db = blocks[b][t - 1 - k]
            sa = da - va * deg * t
            sb = db - vb * deg * t
            edge_specs.append(
                ((va, sa, label(va, sa)), (vb, sb, label(vb, sb)))
            )
    return build_graph(parities, edge_specs, delta=deg, n_opposite=t)
