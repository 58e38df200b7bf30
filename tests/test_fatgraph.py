"""Rotation-system core: faces, Euler counts, reduction, canonical codes."""
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toruscert import fatgraph, kernel
from toruscert.enumeration import degree_sequences
from toruscert.fatgraph import FatGraph, random_fat_graph


def from_vertex_cycles(cycles):
    """A fat graph from per-vertex cyclic lists of edge names, each name
    written at both ends of its edge."""
    flat = [name for c in cycles for name in c]
    matching = [-1] * len(flat)
    first = {}
    for d, name in enumerate(flat):
        if name in first:
            matching[d], matching[first[name]] = first[name], d
        else:
            first[name] = d
    return FatGraph([len(c) for c in cycles], matching)


def relabelled(g, vertex_order, rotations, reflect):
    """The same map as ``g`` under other labels: new vertex ``v`` is old
    vertex ``vertex_order[v]`` with its darts rotated by ``rotations[v]``,
    and ``reflect`` mirrors every rotation."""
    degrees = tuple(g.degrees[v] for v in vertex_order)
    base_old = fatgraph._first_darts(g.degrees)
    base_new = fatgraph._first_darts(degrees)
    old_to_new = {}
    for new_v, old_v in enumerate(vertex_order):
        deg = degrees[new_v]
        for k in range(deg):
            kk = (k + rotations[new_v]) % deg
            if reflect:
                kk = (deg - kk) % deg
            old_to_new[base_old[old_v] + k] = base_new[new_v] + kk
    matching = [-1] * g.num_darts
    for a, b in enumerate(g.matching):
        matching[old_to_new[a]] = old_to_new[b]
    return FatGraph(degrees, matching)


def test_square_torus_map():
    g = from_vertex_cycles([["a", "b", "a", "b"]])
    assert g.face_sizes() == (4,)
    assert g.euler_characteristic() == 0


def test_one_vertex_triangulation():
    g = from_vertex_cycles([["a", "b", "c", "a", "b", "c"]])
    assert sorted(g.face_sizes()) == [3, 3]
    assert g.euler_characteristic() == 0
    assert g.loop_edges() == (0, 1, 2)


def test_sphere_loop_flagged():
    g = from_vertex_cycles([["a", "a"]])
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
    sphere = from_vertex_cycles([["a", "a", "b", "b"]])
    assert sphere.euler_characteristic() == 2
    assert set(sphere.trivial_loops()) == {0, 1}
    torus = from_vertex_cycles([["a", "b", "a", "b"]])
    assert torus.trivial_loops() == ()
    assert torus.parallel_edge_pairs() == ()


def test_parallel_pair_on_torus():
    # two loops of the same slope plus one crossing loop: a and b parallel
    g = from_vertex_cycles([["a", "b", "c", "a", "b", "c"]])
    assert g.parallel_edge_pairs() == ()
    # chain of two parallel edges between two vertices (sphere bigon chain)
    h = from_vertex_cycles([["a", "b"], ["a", "b"]])
    assert h.face_sizes() == (2, 2)
    assert h.parallel_edge_pairs() == ((0, 1),)


def test_parallel_loops_do_not_depend_on_labelling():
    # two labellings of one class; loops 0 and 4 of the first bound a bigon
    # as e + e', loops 1 and 2 of the second as e - e'
    a = FatGraph((9, 2, 1), (3, 7, 9, 0, 11, 8, 10, 1, 5, 2, 6, 4))
    b = FatGraph((9, 2, 1), (3, 7, 5, 0, 9, 2, 11, 1, 10, 4, 8, 6))
    assert kernel.canonical_code(a.degrees, a.matching) == kernel.canonical_code(
        b.degrees, b.matching
    )
    assert a.parallel_edge_pairs() == ((0, 4),)
    assert b.parallel_edge_pairs() == ((1, 2),)


# -- the reducedness filter against face potentials -------------------------
# The reference decides null homology without any FatGraph method: it traces
# the faces of the standard rotation itself and solves for integer face
# potentials, where the cycle ``z`` bounds exactly when some ``x`` has
# ``z_e = x(face of a_e) - x(face of b_e)`` on every edge ``(a_e, b_e)``,
# ``a_e < b_e``.  Potentials are propagated over a spanning forest of the
# dual graph and then checked on every edge.


def _reference_faces(degrees, matching):
    vertex, nxt = [], []
    base = 0
    for v, deg in enumerate(degrees):
        vertex.extend([v] * deg)
        nxt.extend(base + (k + 1) % deg for k in range(deg))
        base += deg
    face_of = [-1] * len(matching)
    count = 0
    for start in range(len(matching)):
        if face_of[start] >= 0:
            continue
        d = start
        while face_of[d] < 0:
            face_of[d] = count
            d = nxt[matching[d]]
        count += 1
    return vertex, face_of, count


def _reference_bounds(edges, face_of, num_faces, z):
    links = [[] for _ in range(num_faces)]
    for (a, b), ze in zip(edges, z):
        links[face_of[a]].append((face_of[b], -ze))
        links[face_of[b]].append((face_of[a], ze))
    x = [None] * num_faces
    for root in range(num_faces):
        if x[root] is not None:
            continue
        x[root] = 0
        stack = [root]
        while stack:
            f = stack.pop()
            for g, step in links[f]:
                if x[g] is None:
                    x[g] = x[f] + step
                    stack.append(g)
    return all(ze == x[face_of[a]] - x[face_of[b]] for (a, b), ze in zip(edges, z))


def reference_filter(degrees, matching):
    """``(parallel edge pairs, trivial loops)`` by face potentials."""
    vertex, face_of, num_faces = _reference_faces(degrees, matching)
    edges = [(a, b) for a, b in enumerate(matching) if a < b]
    ends = [(vertex[a], vertex[b]) for a, b in edges]

    def bounds(coeffs):
        z = [0] * len(edges)
        for e, c in coeffs:
            z[e] += c
        return _reference_bounds(edges, face_of, num_faces, z)

    pairs = []
    for i in range(len(edges)):
        for j in range(i + 1, len(edges)):
            if ends[i] == ends[j]:
                signs = (1, -1) if ends[i][0] == ends[i][1] else (1,)
            elif ends[i] == ends[j][::-1]:
                signs = (-1,)
            else:
                continue
            if any(bounds([(i, 1), (j, -sign)]) for sign in signs):
                pairs.append((i, j))
    loops = [e for e, (u, v) in enumerate(ends) if u == v and bounds([(e, 1)])]
    return tuple(pairs), tuple(loops)


def _assert_filter_matches_reference(g):
    want = reference_filter(g.degrees, g.matching)
    assert (g.parallel_edge_pairs(), g.trivial_loops()) == want, g
    return want


def test_filter_matches_face_potentials_on_random_graphs():
    rng = random.Random(20061)
    # disconnected graphs included: the reference roots one potential per
    # dual component, and the classes grow one dual tree per component
    disconnected = nonempty_pairs = nonempty_loops = 0
    for _ in range(2000):
        g = random_fat_graph(rng)
        pairs, loops = _assert_filter_matches_reference(g)
        disconnected += not g.is_connected()
        nonempty_pairs += bool(pairs)
        nonempty_loops += bool(loops)
    assert nonempty_pairs > 100 and nonempty_loops > 100 and disconnected > 50


def test_filter_matches_face_potentials_on_sweep_candidates():
    # every candidate the search yields for nv = 1..3 up to 7 edges, the
    # sweep before its filter, and each with every edge doubled, which makes
    # bigon bands of parallel edges
    candidates = rejected = 0
    for nv in (1, 2, 3):
        for ne in range(nv + 1, 8):
            for seq in degree_sequences(nv, ne):
                for matching in kernel.search_matchings(seq).values():
                    g = FatGraph(seq, matching)
                    pairs, loops = _assert_filter_matches_reference(g)
                    rejected += bool(pairs or loops)
                    doubled, _ = g.expand_edges(2)
                    pairs, _ = _assert_filter_matches_reference(doubled)
                    assert len(pairs) >= g.num_edges
                    candidates += 1
    assert candidates > 181 and rejected == candidates - 181


def test_edge_classes_are_built_once_per_graph(monkeypatch):
    forests = []
    spanning_forest = fatgraph._spanning_forest

    def counted(size, links):
        forests.append(size)
        return spanning_forest(size, links)

    monkeypatch.setattr(fatgraph, "_spanning_forest", counted)
    # three loops at one vertex: both filters read the classes, and one
    # build grows two forests, the tree and the dual tree
    g = from_vertex_cycles([["a", "b", "c", "a", "b", "c"]])
    first = (g.parallel_edge_pairs(), g.trivial_loops())
    assert forests == [1, 2]
    assert g._edge_classes() is g._edge_classes()
    assert len(forests) == 2
    # a fresh graph with the same matching builds its own classes
    h = FatGraph(g.degrees, g.matching)
    assert (h.parallel_edge_pairs(), h.trivial_loops()) == first
    assert len(forests) == 4
    assert h._edge_classes() == g._edge_classes()


def _disjoint_union(g, h):
    shift = g.num_darts
    return FatGraph(
        g.degrees + h.degrees, g.matching + tuple(b + shift for b in h.matching)
    )


def _euler_characteristics(degrees, matching):
    """``V - E + F`` of each component, by union-find on the vertices."""
    vertex, face_of, _ = _reference_faces(degrees, matching)
    parent = list(range(len(degrees)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in enumerate(matching):
        parent[find(vertex[a])] = find(vertex[b])
    chi = Counter(find(v) for v in range(len(degrees)))
    for a, b in enumerate(matching):
        if a < b:
            chi[find(vertex[a])] -= 1
    for d in {f: d for d, f in enumerate(face_of)}.values():
        chi[find(vertex[d])] += 1
    return list(chi.values())


def test_edge_classes_count_the_genus_and_kill_every_face():
    # any genus, with disjoint unions: there is one generator per dimension
    # of the first homology, the sum of 2 - chi over the components, every
    # unit vector is some edge's class, and every face boundary sums to zero
    # under the classes; so the classes map the first homology onto Z^rank
    rng = random.Random(1406)
    disconnected = 0
    for k in range(1500):
        g = random_fat_graph(rng, max_vertices=4, max_degree=7)
        if k % 3 == 0:
            g = _disjoint_union(g, random_fat_graph(rng, max_vertices=3, max_degree=5))
        disconnected += not g.is_connected()
        rank = sum(2 - chi for chi in _euler_characteristics(g.degrees, g.matching))
        classes = g._edge_classes()
        assert all(len(c) == rank for c in classes), g
        units = {tuple(int(c == i) for c in range(rank)) for i in range(rank)}
        assert units <= set(classes), g
        _, face_of, num_faces = _reference_faces(g.degrees, g.matching)
        edges = [(a, b) for a, b in enumerate(g.matching) if a < b]
        totals = [[0] * rank for _ in range(num_faces)]
        for (a, b), cls in zip(edges, classes):
            for c, y in enumerate(cls):
                totals[face_of[a]][c] += y
                totals[face_of[b]][c] -= y
        assert not any(any(t) for t in totals), g
    assert disconnected > 500


def test_matching_is_validated_and_dart_map_built_once(monkeypatch):
    for degrees, matching in [
        ((2,), (1, 0, 3, 2)),  # longer than the number of darts
        ((2,), (0, 1)),  # fixed point
        ((2,), (1, 2)),  # partner out of range
        ((2, 2), (1, 2, 3, 0)),  # not an involution
    ]:
        with pytest.raises(ValueError):
            FatGraph(degrees, matching)

    calls = []
    edge_darts = FatGraph.edge_darts

    def counted(self):
        calls.append(self)
        return edge_darts(self)

    monkeypatch.setattr(FatGraph, "edge_darts", counted)
    rng = random.Random(11)
    for _ in range(50):
        g = random_fat_graph(rng)
        calls.clear()
        edge_of = g.edge_index_of_dart()
        assert g.edge_index_of_dart() is edge_of and len(calls) == 1
        for i, (a, b) in enumerate(edge_darts(g)):
            assert edge_of[a] == edge_of[b] == i
        assert len(edge_of) == g.num_darts


def test_amalgamate_parallel_loop_chain():
    # t parallel loops in one bigon chain collapse to a single family
    t = 5
    base = from_vertex_cycles([["a", "a"]])
    expanded, _ = base.expand_edges(t)
    assert expanded.num_edges == t
    reduced, families = expanded.amalgamate_parallel()
    assert reduced.num_edges == 1
    assert len(families[0]) == t


def test_amalgamate_is_idempotent_on_reduced_graphs():
    g = from_vertex_cycles([["a", "b", "c", "a", "b", "c"]])
    reduced, families = g.amalgamate_parallel()
    assert reduced == g
    assert all(len(m) == 1 for m in families.values())


def test_amalgamate_twice_equals_once():
    base = from_vertex_cycles([["a", "b", "c", "a", "b", "c"]])
    expanded, _ = base.expand_edges(3)
    once, _ = expanded.amalgamate_parallel()
    twice, _ = once.amalgamate_parallel()
    assert twice == once


def test_expand_edges_creates_bigon_bands():
    g = from_vertex_cycles([["a", "b", "c", "a", "b", "c"]])
    t = 4
    expanded, blocks = g.expand_edges(t)
    assert expanded.num_edges == 3 * t
    sizes = sorted(expanded.face_sizes())
    # each original edge band contributes t-1 bigons; original faces survive
    assert sizes.count(2) == 3 * (t - 1)
    assert expanded.euler_characteristic() == 0
    reduced, families = expanded.amalgamate_parallel()
    assert kernel.canonical_code(reduced.degrees, reduced.matching) == (
        kernel.canonical_code(g.degrees, g.matching)
    )
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
    h = relabelled(g, order, rotations, reflect)
    assert kernel.canonical_code(h.degrees, h.matching) == kernel.canonical_code(
        g.degrees, g.matching
    )


def test_canonical_distinguishes_different_maps():
    square = from_vertex_cycles([list("abab")])
    tri = from_vertex_cycles([list("abcabc")])
    assert kernel.canonical_code(square.degrees, square.matching) != (
        kernel.canonical_code(tri.degrees, tri.matching)
    )


def test_canonical_rotation_and_reflection_examples():
    # each pair is one map, rotated or mirrored
    for a, b in [("abab", "baba"), ("abcabc", "cbacba")]:
        g, h = from_vertex_cycles([list(a)]), from_vertex_cycles([list(b)])
        assert kernel.canonical_code(g.degrees, g.matching) == (
            kernel.canonical_code(h.degrees, h.matching)
        )
