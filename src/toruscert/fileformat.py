"""Text format for labeled embedded graphs.

One line per vertex and one per edge, ``#`` comments allowed::

    v<id> <+|-> : <edge id list in rotation order>
    e<id> <+|-> (<v>,<slot>,<label>)-(<v>,<slot>,<label>)

Each edge id appears exactly twice across the vertex lines; the edge line
pins which occurrence is which end and what the endpoint labels are.  The
distance and opposite count are recovered from the data: the opposite count
is the largest label and the distance is the common vertex degree divided by
it.
"""
from __future__ import annotations

import re

from toruscert.embedded import EmbeddedGraph, build_graph
from toruscert.errors import GraphError, SlotCollision

_VERTEX_RE = re.compile(r"^v(\d+)\s+([+-])\s*:\s*(.*)$")
_EDGE_RE = re.compile(
    r"^e(\d+)\s+([+-])\s+\((\d+),(\d+),(\d+)\)-\((\d+),(\d+),(\d+)\)$"
)


def loads(text: str) -> EmbeddedGraph:
    """Parse the text format into a validated :class:`EmbeddedGraph`."""
    vertex_rows = {}
    edge_rows = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _VERTEX_RE.match(line)
        if m:
            vid = int(m.group(1))
            if vid in vertex_rows:
                raise GraphError(f"vertex {vid} defined twice")
            parity = 1 if m.group(2) == "+" else -1
            refs = line.split(":", 1)[1].split()
            vertex_rows[vid] = (parity, refs)
            continue
        m = _EDGE_RE.match(line)
        if m:
            eid = int(m.group(1))
            if eid in edge_rows:
                raise GraphError(f"edge {eid} defined twice")
            sign = 1 if m.group(2) == "+" else -1
            nums = [int(x) for x in m.groups()[2:]]
            edge_rows[eid] = (sign, tuple(nums[0:3]), tuple(nums[3:6]))
            continue
        raise GraphError(f"unparseable line: {raw!r}")
    if not edge_rows:
        raise GraphError("the file has no edge rows")

    if sorted(vertex_rows) != list(range(len(vertex_rows))):
        raise GraphError("vertex ids must be 0..V-1")
    parities = [vertex_rows[v][0] for v in sorted(vertex_rows)]

    degrees = {len(vertex_rows[v][1]) for v in vertex_rows}
    if len(degrees) != 1:
        raise GraphError(f"all vertices must have equal degree, got {degrees}")
    degree = degrees.pop()

    # check the rotation listings against the edge end slots
    positions = {}
    for v in sorted(vertex_rows):
        for slot, ref in enumerate(vertex_rows[v][1]):
            if not (ref.startswith("e") and ref[1:].isdecimal()):
                raise GraphError(f"bad edge reference {ref!r} at vertex {v}")
            positions.setdefault(int(ref[1:]), []).append((v, slot))
    for eid, (sign, end_a, end_b) in sorted(edge_rows.items()):
        claimed = sorted([end_a[:2], end_b[:2]])
        listed = sorted(positions.get(eid, []))
        if [tuple(x) for x in claimed] != listed:
            raise SlotCollision(
                f"edge {eid} ends {claimed} disagree with vertex rows {listed}"
            )
    if set(positions) != set(edge_rows):
        raise GraphError("vertex rows and edge rows name different edge sets")

    labels = [lab for _, ea, eb in edge_rows.values() for lab in (ea[2], eb[2])]
    n_opposite = max(labels)
    if degree % n_opposite:
        raise GraphError(
            f"vertex degree {degree} is not a multiple of the label count {n_opposite}"
        )
    delta = degree // n_opposite
    edge_specs = [
        (edge_rows[eid][1], edge_rows[eid][2], edge_rows[eid][0])
        for eid in sorted(edge_rows)
    ]
    return build_graph(parities, edge_specs, delta=delta, n_opposite=n_opposite)


def dumps(g: EmbeddedGraph) -> str:
    """Serialize an :class:`EmbeddedGraph` back into the text format."""
    deg = g.delta * g.n_opposite
    by_slot = {}
    for i, e in enumerate(g.edges):
        by_slot[(e.end_a.vertex, e.end_a.slot)] = i
        by_slot[(e.end_b.vertex, e.end_b.slot)] = i
    lines = []
    for v, vert in enumerate(g.vertices):
        refs = " ".join(f"e{by_slot[(v, k)]}" for k in range(deg))
        lines.append(f"v{v} {'+' if vert.parity > 0 else '-'} : {refs}")
    for i, e in enumerate(g.edges):
        sign = "+" if e.sign > 0 else "-"
        a, b = e.end_a, e.end_b
        lines.append(
            f"e{i} {sign} ({a.vertex},{a.slot},{a.label})-({b.vertex},{b.slot},{b.label})"
        )
    return "\n".join(lines) + "\n"


def load(path) -> EmbeddedGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def dump(g: EmbeddedGraph, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(g))
