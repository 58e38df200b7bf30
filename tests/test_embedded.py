"""Labeled layer: construction validation, faces with corners, reduction."""
import pytest

from toruscert.embedded import (
    build_graph,
    expand_decorated,
    reduce_graph,
    trace_faces,
)
from toruscert.errors import (
    GraphError,
    LabelBlockViolation,
    ParityContradiction,
    SlotCollision,
)
from tests.test_fatgraph import from_vertex_cycles


def triple_loop_graph(t, parities=(1,), offsets=(0,)):
    base = from_vertex_cycles([["a", "b", "c", "a", "b", "c"]])
    return expand_decorated(base, t, parities, offsets)


def two_vertex_graph(t, parities=(1, 1), offsets=(0, 0)):
    base = from_vertex_cycles(
        [["a", "b", "c", "a", "d", "e"], ["b", "c", "f", "d", "e", "f"]]
    )
    # sanity: the antipodal-loop two-vertex triangulation
    assert sorted(base.face_sizes()) == [3] * 4
    assert {e: base.edge_ends()[e] for e in base.loop_edges()} == {0: (0, 0), 5: (1, 1)}
    return expand_decorated(base, t, parities, offsets)


def test_build_graph_round_trip_one_vertex():
    g = triple_loop_graph(1)
    assert g.num_edges == 3
    assert g.delta == 6 and g.n_opposite == 1
    faces = trace_faces(g)
    assert sum(len(f) for f in faces) == 2 * g.num_edges


def test_label_block_violation():
    # label cycle 1,1,2,2 is not two consecutive blocks of 1,2
    specs = [
        ((0, 0, 1), (0, 2, 2)),
        ((0, 1, 1), (0, 3, 2)),
    ]
    with pytest.raises(LabelBlockViolation):
        build_graph([1], specs, delta=2, n_opposite=2)


def test_valid_two_block_cycle():
    # 1,2,1,2 around one vertex: two loops with crossing slots
    specs = [
        ((0, 0, 1), (0, 2, 1)),
        ((0, 1, 2), (0, 3, 2)),
    ]
    g = build_graph([1], specs, delta=2, n_opposite=2)
    assert g.vertices[0].labels == (1, 2, 1, 2)


def test_one_label_cycle_validates():
    # at n_opposite = 1 every slot carries label 1, a constant cycle
    g = build_graph([1], [((0, 0, 1), (0, 1, 1))], delta=2, n_opposite=1)
    assert g.vertices[0].labels == (1, 1)


@pytest.mark.parametrize(
    "parities, specs",
    [
        ([0], [((0, 0, 1), (0, 2, 1)), ((0, 1, 2), (0, 3, 2))]),
        ([1], [((0, 0, 1), (1, 2, 1)), ((0, 1, 2), (0, 3, 2))]),
        ([1], [((0, 0, 0), (0, 2, 1)), ((0, 1, 2), (0, 3, 2))]),
    ],
    ids=["parity", "vertex", "label"],
)
def test_out_of_range_input_is_a_graph_error(parities, specs):
    with pytest.raises(GraphError):
        build_graph(parities, specs, delta=2, n_opposite=2)


def test_slot_collision():
    specs = [
        ((0, 0, 1), (0, 0, 2)),
        ((0, 1, 1), (0, 3, 2)),
    ]
    with pytest.raises(SlotCollision):
        build_graph([1], specs, delta=2, n_opposite=2)


def test_unused_slot_is_a_collision():
    specs = [((0, 0, 1), (0, 2, 1))]
    with pytest.raises(SlotCollision):
        build_graph([1], specs, delta=2, n_opposite=2)


def test_parity_contradiction():
    # a loop edge cannot be negative
    specs = [
        ((0, 0, 1), (0, 2, 1), -1),
        ((0, 1, 2), (0, 3, 2)),
    ]
    with pytest.raises(ParityContradiction):
        build_graph([1], specs, delta=2, n_opposite=2)


def test_corner_labels_span_one_string():
    g = triple_loop_graph(3)
    for face in trace_faces(g):
        assert len(face.sides) == len(face.corners)
        for _, (a, b) in face.corners:
            assert (b - a) % 3 in (1, 3 - 1)


def test_reduce_loop_chain_single_family():
    t = 6
    base = from_vertex_cycles([["a", "a"]])
    expanded, blocks = base.expand_edges(t)
    # a sphere chain reduces fine; label everything 1 with n_opposite = 1
    specs = []
    for a, b in expanded.edge_darts():
        specs.append(((0, a, 1), (0, b, 1)))
    emb = build_graph([1], specs, delta=2 * t, n_opposite=1)
    red = reduce_graph(emb)
    assert red.graph.num_edges == 1
    assert red.families[0].size == t
    assert red.families[0].sign == 1


def test_reduce_two_vertex_expansion():
    t = 4
    g = two_vertex_graph(t)
    red = reduce_graph(g)
    assert red.graph.num_edges == 6
    assert all(f.size == t for f in red.families)
    # one loop family at each vertex
    loops = [f for f in red.families if f.endpoints[0] == f.endpoints[1]]
    assert sorted(f.endpoints[0] for f in loops) == [0, 1]
    # label sequences are consecutive runs covering all labels
    for f in red.families:
        assert sorted(f.label_seq_a) == list(range(1, t + 1))
        assert sorted(f.label_seq_b) == list(range(1, t + 1))


def test_reduce_already_reduced_is_identity():
    g = triple_loop_graph(1)
    red = reduce_graph(g)
    assert red.graph == g.fat
    assert all(f.size == 1 for f in red.families)


def test_expand_decorated_requires_regular_graph():
    g = from_vertex_cycles([["a", "b", "a", "b", "c", "c"], ["d", "d"]])
    with pytest.raises(ValueError):
        expand_decorated(g, 3, (1, 1), (0, 0))

