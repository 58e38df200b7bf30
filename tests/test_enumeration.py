"""Enumeration driver: completeness, determinism, one pool task per degree
sequence."""
import multiprocessing
import os

import pytest

from toruscert import verify
from toruscert.certifier import certify_case
from toruscert.enumeration import (
    brute_force_torus_classes,
    degree_sequences,
    enumerate_reduced_torus_graphs,
)
from toruscert.errors import ScaleLimit
from toruscert.params import CaseParams


@pytest.fixture
def pool_sizes(monkeypatch):
    """The sizes of the pools asked for, from a stand-in pool that runs its
    tasks in this process, so an absurd worker count starts no process."""
    sizes = []

    class InlinePool:
        def __init__(self, size):
            sizes.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=None):
            return [fn(task) for task in tasks]

    class InlineContext:
        Pool = InlinePool

    monkeypatch.setattr(multiprocessing, "get_context", lambda method: InlineContext)
    return sizes


def test_degree_sequences():
    assert degree_sequences(1, 2) == [(4,)]
    assert degree_sequences(2, 3) == [(5, 1), (4, 2), (3, 3)]
    assert all(sum(s) == 10 for s in degree_sequences(3, 5))


def test_known_triangulation_class_counts():
    for s, expected in [(1, 1), (2, 1), (3, 2), (4, 3)]:
        classes = enumerate_reduced_torus_graphs(s, degrees=(6,) * s)
        assert len(classes) == expected
        for cls in classes:
            g = cls.graph()
            assert g.face_sizes() == (3,) * (2 * s)
            assert g.euler_characteristic() == 0
            assert g.is_reduced()


def test_completeness_against_brute_force_small():
    # the pruning search must find exactly the classes of the pruning-free
    # generator; at three vertices and up to six edges the defect budget
    # 3V - E starts at 3 to 5 and runs out during the search.  At degrees
    # (4, 4, 2, 2) a relabelling walk of the orderly test can reach a slot
    # that no vertex was sent to while the leaf is the least of its class,
    # so a prune there would lose a class.
    cases = [(1, {}), (2, {}), (3, {"max_edges": 6}), (4, {"degrees": (4, 4, 2, 2)})]
    for nv, limits in cases:
        fast = enumerate_reduced_torus_graphs(nv, **limits)
        slow = brute_force_torus_classes(nv, **limits)
        assert [(c.degrees, c.key) for c in fast] == [(c.degrees, c.key) for c in slow]


def test_general_class_counts_small():
    assert len(enumerate_reduced_torus_graphs(1)) == 2
    assert len(enumerate_reduced_torus_graphs(2)) == 16


def test_edge_cap_is_eulerian():
    # no reduced cellular torus graph exceeds 3 edges per vertex
    classes = enumerate_reduced_torus_graphs(2, max_edges=12)
    assert max(c.num_edges for c in classes) <= 6


def test_two_vertex_triangulation_has_one_loop_at_each_vertex():
    (cls,) = enumerate_reduced_torus_graphs(2, degrees=(6, 6))
    g = cls.graph()
    assert len(g.loops_at(0)) == 1 and len(g.loops_at(1)) == 1


def test_workers_produce_identical_classes():
    # the three-vertex sweep to 6 edges has 25 degree sequences to share out
    one = enumerate_reduced_torus_graphs(3, max_edges=6)
    two = enumerate_reduced_torus_graphs(3, max_edges=6, workers=2)
    assert len({c.degrees for c in one}) > 1
    assert [(c.degrees, c.matching, c.key) for c in one] == [
        (c.degrees, c.matching, c.key) for c in two
    ]


def test_pool_size_is_clamped_to_cores_and_tasks(pool_sizes):
    many = enumerate_reduced_torus_graphs(3, max_edges=6, workers=10**6)
    one = enumerate_reduced_torus_graphs(3, max_edges=6)
    # 25 degree sequences of 3 vertices and 4 to 6 edges, one task each
    assert pool_sizes == [min(len(os.sched_getaffinity(0)), 25)]
    assert many == one


def test_small_sweeps_never_start_a_pool(monkeypatch):
    # a sweep of one or two vertices costs less than a pool's start-up, so
    # no worker count makes it fork
    def get_context(method):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(multiprocessing, "get_context", get_context)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
    assert len(enumerate_reduced_torus_graphs(1, workers=8)) == 2
    assert len(enumerate_reduced_torus_graphs(2, workers=8)) == 16


def test_one_sequence_never_starts_a_pool(monkeypatch):
    # certify_case searches the one sequence (6,) * s, so no worker count
    # makes it fork
    def get_context(method):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(multiprocessing, "get_context", get_context)
    assert certify_case(CaseParams(4, 4, 6), workers=8).survivors == 0


def test_determinism_criterion_asks_for_a_pool_at_each_worker_count(pool_sizes, monkeypatch):
    # with cores to spare, workers 2 and 8 each get a pool of their size, so
    # the criterion runs each worker count instead of three in-process runs
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
    result = verify.criterion_determinism()
    assert result.passed, result.details
    assert pool_sizes == [2, 8]


def test_odd_degree_spec_is_empty():
    # a lone vertex of degree 5 admits no pairing of its dart ends
    assert enumerate_reduced_torus_graphs(1, degrees=(5,)) == ()


def test_degrees_must_match_the_vertex_count():
    # else degrees= would get round the vertex cap
    with pytest.raises(ValueError):
        enumerate_reduced_torus_graphs(1, degrees=(6,) * 5)
    with pytest.raises(ValueError):
        enumerate_reduced_torus_graphs(3, degrees=(6, 6))


def test_scale_limit():
    with pytest.raises(ScaleLimit):
        enumerate_reduced_torus_graphs(9)
