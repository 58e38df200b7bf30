"""Rotation-system core: faces, Euler counts, reduction, canonical keys."""
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from toruscert.fatgraph import FatGraph, random_fat_graph


def test_square_torus_map():
    g = FatGraph.from_vertex_cycles([["a", "b", "a", "b"]])
    assert g.face_sizes() == (4,)
    assert g.euler_characteristic() == 0
    assert g.genus() == 1


def test_one_vertex_triangulation():
    g = FatGraph.from_vertex_cycles([["a", "b", "c", "a", "b", "c"]])
    assert sorted(g.face_sizes()) == [3, 3]
    assert g.euler_characteristic() == 0
    assert g.loops_at(0) == (0, 1, 2)


def test_sphere_loop_flagged():
    g = FatGraph.from_vertex_cycles([["a", "a"]])
    assert g.euler_characteristic() == 2


def test_face_sides_sum_counts_every_side():
    rng = random.Random(7)
    for _ in range(300):
        g = random_fat_graph(rng)
        assert sum(g.face_sizes()) == 2 * g.num_edges
        assert g.edge_ends() == tuple(
            (g.vertex_of(a), g.vertex_of(b)) for a, b in g.edge_darts()
        )


def test_homology_detects_trivial_and_essential_loops():
    # (a a b b): a bounds a disk against the outer face, chi = 2 (sphere)
    sphere = FatGraph.from_vertex_cycles([["a", "a", "b", "b"]])
    assert sphere.euler_characteristic() == 2
    assert set(sphere.trivial_loops()) == {0, 1}
    torus = FatGraph.from_vertex_cycles([["a", "b", "a", "b"]])
    assert torus.trivial_loops() == ()
    assert torus.parallel_edge_pairs() == ()


def test_parallel_pair_on_torus():
    # two loops of the same slope plus one crossing loop: a and b parallel
    g = FatGraph.from_vertex_cycles([["a", "b", "c", "a", "b", "c"]])
    assert g.parallel_edge_pairs() == ()
    # chain of two parallel edges between two vertices (sphere bigon chain)
    h = FatGraph.from_vertex_cycles([["a", "b"], ["a", "b"]])
    assert h.face_sizes() == (2, 2)
    assert h.parallel_edge_pairs() == ((0, 1),)


def test_parallel_loops_do_not_depend_on_labelling():
    # two labellings of one class; loops 0 and 4 of the first bound a bigon
    # as e + e', loops 1 and 2 of the second as e - e'
    a = FatGraph((9, 2, 1), (3, 7, 9, 0, 11, 8, 10, 1, 5, 2, 6, 4))
    b = FatGraph((9, 2, 1), (3, 7, 5, 0, 9, 2, 11, 1, 10, 4, 8, 6))
    assert a.canonical_key() == b.canonical_key()
    assert a.parallel_edge_pairs() == ((0, 4),)
    assert b.parallel_edge_pairs() == ((1, 2),)


def test_amalgamate_parallel_loop_chain():
    # t parallel loops in one bigon chain collapse to a single family
    t = 5
    base = FatGraph.from_vertex_cycles([["a", "a"]])
    expanded, _ = base.expand_edges(t)
    assert expanded.num_edges == t
    reduced, families = expanded.amalgamate_parallel()
    assert reduced.num_edges == 1
    assert len(families[0]) == t


def test_amalgamate_is_idempotent_on_reduced_graphs():
    g = FatGraph.from_vertex_cycles([["a", "b", "c", "a", "b", "c"]])
    reduced, families = g.amalgamate_parallel()
    assert reduced == g
    assert all(len(m) == 1 for m in families.values())


def test_amalgamate_twice_equals_once():
    base = FatGraph.from_vertex_cycles([["a", "b", "c", "a", "b", "c"]])
    expanded, _ = base.expand_edges(3)
    once, _ = expanded.amalgamate_parallel()
    twice, _ = once.amalgamate_parallel()
    assert twice == once


def test_expand_edges_creates_bigon_bands():
    g = FatGraph.from_vertex_cycles([["a", "b", "c", "a", "b", "c"]])
    t = 4
    expanded, blocks = g.expand_edges(t)
    assert expanded.num_edges == 3 * t
    sizes = sorted(expanded.face_sizes())
    # each original edge band contributes t-1 bigons; original faces survive
    assert sizes.count(2) == 3 * (t - 1)
    assert expanded.euler_characteristic() == 0
    reduced, families = expanded.amalgamate_parallel()
    assert reduced.canonical_key() == g.canonical_key()
    assert sorted(len(m) for m in families.values()) == [t, t, t]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_canonical_key_is_group_invariant(data):
    rng = random.Random(data.draw(st.integers(0, 10_000)))
    g = random_fat_graph(rng, max_vertices=4, max_degree=6)
    while not g.is_connected():
        g = random_fat_graph(rng, max_vertices=4, max_degree=6)
    nv = g.num_vertices
    order = list(range(nv))
    rng.shuffle(order)
    # vertex permutation must preserve the degree profile for relabelling
    if tuple(g.degrees[v] for v in order) != g.degrees:
        order = sorted(range(nv), key=lambda v: (g.degrees[v], v))
        base = sorted(range(nv), key=lambda v: g.degrees[v])
        # fall back to identity when degrees collide awkwardly
        if tuple(g.degrees[v] for v in order) != g.degrees:
            order = list(range(nv))
    rotations = [rng.randrange(max(1, g.degrees[v])) for v in range(nv)]
    reflect = data.draw(st.booleans())
    h = g.relabelled(order, rotations, reflect)
    assert h.canonical_key() == g.canonical_key()


def test_canonical_distinguishes_different_maps():
    square = FatGraph.from_vertex_cycles([["a", "b", "a", "b"]])
    tri = FatGraph.from_vertex_cycles([["a", "b", "c", "a", "b", "c"]])
    assert square.canonical_key() != tri.canonical_key()


def test_canonical_rotation_and_reflection_examples():
    g1 = FatGraph.from_vertex_cycles([["a", "b", "a", "b"]])
    g2 = FatGraph.from_vertex_cycles([["b", "a", "b", "a"]])
    assert g1.canonical_key() == g2.canonical_key()
    g3 = FatGraph.from_vertex_cycles([["a", "b", "c", "a", "b", "c"]])
    g4 = FatGraph.from_vertex_cycles([["c", "b", "a", "c", "b", "a"]])
    assert g3.canonical_key() == g4.canonical_key()
