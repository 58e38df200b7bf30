"""The search kernel: canonical keys agree with a full-traversal reference,
each class comes out as its least matching with one canonical key, and the
defect budget sets the face sizes."""
import itertools
import random

import pytest

from toruscert import kernel
from toruscert.fatgraph import FatGraph

# (degrees, whether every face of every class is a triangle): the defect
# budget 3V - E is used up exactly when E = 3V
SHAPES = [
    ((6,), True),
    ((6, 6), True),
    ((6, 6, 6), True),
    ((2, 2), False),
    ((4, 4), False),
    ((4, 2), False),
    ((5, 3), False),
    ((6, 4, 2), False),
    ((6, 6, 4), False),
    ((8, 4, 2), False),
    ((3, 2, 1), False),
]


def reference_code(degrees, matching):
    """Canonical key by brute force: the least code over every start dart and
    both orientations, each traversal run to the end."""
    n = sum(degrees)
    _, rho, rho_inv = kernel.standard_rotation(degrees)
    codes = []
    for r in (rho, rho_inv):
        for start in range(n):
            lab = [-1] * n
            lab[start] = 0
            order = [start]
            for d in order:
                cur = r[d]
                while cur != d:
                    if lab[cur] < 0:
                        lab[cur] = len(order)
                        order.append(cur)
                    cur = r[cur]
                if lab[matching[d]] < 0:
                    lab[matching[d]] = len(order)
                    order.append(matching[d])
            assert len(order) == n, "reference_code needs a connected graph"
            codes.append(
                bytes(lab[matching[d]] for d in order) + bytes(lab[r[d]] for d in order)
            )
    return min(codes)


def random_standard_relabelling(rng, graph):
    """The same fat graph under a random relabelling that keeps the degree
    sequence: permute vertices of equal degree, shift each vertex's
    rotation, and maybe reflect."""
    order = list(range(graph.num_vertices))
    for deg in set(graph.degrees):
        slots = [v for v in range(graph.num_vertices) if graph.degrees[v] == deg]
        moved = rng.sample(slots, len(slots))
        for slot, v in zip(slots, moved):
            order[slot] = v
    rotations = [rng.randrange(graph.degrees[v]) for v in order]
    return graph.relabelled(order, rotations, rng.random() < 0.5)


def triangulated(degrees, matching):
    return set(FatGraph(degrees, matching).face_sizes()) == {3}


@pytest.mark.parametrize("degrees,triangles", SHAPES)
def test_canonical_code_matches_full_traversal_reference(degrees, triangles):
    rng = random.Random(f"{degrees}-{triangles}")
    for key, matching in kernel.search_matchings(degrees).items():
        want = reference_code(degrees, matching)
        assert key == want
        assert kernel.canonical_code(degrees, matching) == want
        assert triangulated(degrees, matching) == triangles
        graph = FatGraph(degrees, matching)
        for _ in range(8):
            other = random_standard_relabelling(rng, graph)
            assert other.degrees == graph.degrees
            assert reference_code(degrees, other.matching) == want
            assert kernel.canonical_code(degrees, other.matching) == want


@pytest.mark.parametrize(
    "degrees,triangles",
    [
        ((6, 6), True),
        ((6, 4, 2), False),
        ((6, 6, 6), True),
        ((6, 6, 4), False),
        ((6,) * 4, True),
    ],
)
def test_classes_are_triangulations_exactly_at_the_cap(degrees, triangles):
    found = kernel.search_matchings(degrees)
    assert found
    assert all(triangulated(degrees, m) == triangles for m in found.values())


def least_relabelling(degrees, matching):
    """The least matching of a class by brute force: the minimum over every
    relabelling that keeps the standard rotation (each vertex permutation
    that keeps the degrees, each rotation at each vertex, both
    orientations), built with ``FatGraph.relabelled``."""
    graph = FatGraph(degrees, matching)
    orders = [
        order
        for order in itertools.permutations(range(len(degrees)))
        if tuple(degrees[v] for v in order) == tuple(degrees)
    ]
    return min(
        graph.relabelled(order, rotations, reflect).matching
        for order in orders
        for rotations in itertools.product(*(range(degrees[v]) for v in order))
        for reflect in (False, True)
    )


@pytest.mark.parametrize("degrees", [degrees for degrees, _ in SHAPES])
def test_each_class_is_its_least_relabelling(degrees):
    for matching in kernel.search_matchings(degrees).values():
        assert matching == least_relabelling(degrees, matching)


def test_orderly_pruning_canonicalises_once_per_class(monkeypatch):
    # leaves come out in lexicographic order and the relabelling test drops
    # every leaf but the least of its class, so canonical_code, called
    # through the module global, runs once per class
    calls = []
    real = kernel.canonical_code

    def counted(degrees, matching):
        calls.append(degrees)
        return real(degrees, matching)

    monkeypatch.setattr(kernel, "canonical_code", counted)
    assert len(kernel.search_matchings((6,) * 4)) == 3
    assert len(calls) == 3
    for degrees, _ in SHAPES:
        calls.clear()
        assert len(kernel.search_matchings(degrees)) == len(calls)


def test_degree_six_catalog_counts():
    # the 6-regular torus triangulations with s vertices: 1, 1, 2, 3, 2
    # classes for s = 1..5 (OEIS A003051)
    counts = [len(kernel.search_matchings((6,) * s)) for s in range(1, 6)]
    assert counts == [1, 1, 2, 3, 2]


def test_defect_budget_sets_the_face_sizes():
    # one vertex on the torus has E - 1 faces and the budget 3V - E = 3 - E
    # for face sizes above three: (4,) spends 1 on one square face, (6,)
    # spends nothing, so both faces are triangles, and (8,) overdraws it
    assert len(kernel.search_matchings((4,))) == 1
    (matching,) = kernel.search_matchings((6,)).values()
    assert FatGraph((6,), matching).face_sizes() == (3, 3)
    assert kernel.search_matchings((8,)) == {}


def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        kernel.search_matchings((3,))
