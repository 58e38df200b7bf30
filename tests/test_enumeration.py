"""Enumeration driver: completeness, determinism, one task per degree
sequence, and sweeps split between the caller and forked children."""
import multiprocessing
import os
import signal

import pytest

from tests.test_golden import golden_path
from toruscert import enumeration, verify
from toruscert.certifier import certify_case
from toruscert.cli import main
from toruscert.enumeration import (
    brute_force_torus_classes,
    degree_sequences,
    enumerate_reduced_torus_graphs,
)
from toruscert.errors import InvariantViolation, ScaleLimit
from toruscert.params import CaseParams


@pytest.fixture
def process_counts(monkeypatch):
    """The processes each split sweep asks for, the caller included, from a
    stand-in context whose children run their share when started and whose
    pipes hand over what was sent, so an absurd worker count starts no
    process."""
    counts = []

    class InlinePipe:
        def __init__(self):
            self.sent = []

        def send(self, obj):
            self.sent.append(obj)

        def recv(self):
            return self.sent.pop(0)

        def close(self):
            pass

    class InlineProcess:
        def __init__(self, target, args, daemon):
            counts[-1] += 1
            self.target, self.args = target, args

        def start(self):
            self.target(*self.args)

        def terminate(self):
            pass

        def join(self):
            pass

    class InlineContext:
        Process = InlineProcess

        @staticmethod
        def Pipe(duplex):
            pipe = InlinePipe()
            return pipe, pipe

    def get_context(method):
        counts.append(1)
        return InlineContext

    monkeypatch.setattr(multiprocessing, "get_context", get_context)
    return counts


@pytest.fixture
def two_cores(monkeypatch):
    """Room for one forked child, whatever the machine."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


@pytest.fixture
def deadline():
    """Fail a test that takes more than 30 s instead of letting it hang."""

    def expire(signum, frame):
        raise AssertionError("the sweep hung")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


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
            assert not g.parallel_edge_pairs() and not g.trivial_loops()


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
    assert sorted(g.edge_ends()[e] for e in g.loop_edges()) == [(0, 0), (1, 1)]


def test_workers_produce_identical_classes():
    # the three-vertex sweep to 6 edges has 25 degree sequences to share out
    one = enumerate_reduced_torus_graphs(3, max_edges=6)
    two = enumerate_reduced_torus_graphs(3, max_edges=6, workers=2)
    assert len({c.degrees for c in one}) > 1
    assert [(c.degrees, c.matching, c.key) for c in one] == [
        (c.degrees, c.matching, c.key) for c in two
    ]


def test_pool_size_is_clamped_to_cores_and_tasks(process_counts):
    many = enumerate_reduced_torus_graphs(3, max_edges=6, workers=10**6)
    one = enumerate_reduced_torus_graphs(3, max_edges=6)
    # 25 degree sequences of 3 vertices and 4 to 6 edges, one task each
    assert process_counts == [min(len(os.sched_getaffinity(0)), 25)]
    assert many == one


@pytest.mark.parametrize("where", ["child", "caller"])
def test_a_raising_share_leaves_no_process(where, two_cores, deadline, monkeypatch):
    # the other side returns far more than a pipe's buffer holds, so a child
    # left running would block in send and never exit
    caller = os.getpid()

    def reduced_classes(degrees):
        if (os.getpid() == caller) == (where == "caller"):
            raise InvariantViolation(f"broken in the {where}")
        return [b"x" * 1_000_000]

    monkeypatch.setattr(enumeration, "_reduced_classes", reduced_classes)
    with pytest.raises(InvariantViolation, match=f"broken in the {where}"):
        enumerate_reduced_torus_graphs(3, max_edges=6, workers=2)
    assert multiprocessing.active_children() == []


def test_a_child_invariant_violation_exits_3(two_cores, deadline, monkeypatch):
    # only the three-vertex sweep of the degree-face criterion forks
    caller = os.getpid()
    real = enumeration._reduced_classes

    def reduced_classes(degrees):
        if os.getpid() != caller:
            raise InvariantViolation("broken in a child")
        return real(degrees)

    monkeypatch.setattr(enumeration, "_reduced_classes", reduced_classes)
    assert main(["verify-all", "--workers", "2"]) == 3
    assert multiprocessing.active_children() == []


def test_sweeps_run_where_cores_cannot_be_read(process_counts, monkeypatch):
    # macOS and Windows have no sched_getaffinity: one worker never asks
    # for the cores, and more workers count the machine's
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    got = certify_case(CaseParams(3, 3, 6)).to_json()
    assert got.encode() == golden_path(3, 3).read_bytes()
    one = enumerate_reduced_torus_graphs(3, max_edges=6)
    assert process_counts == []
    assert enumerate_reduced_torus_graphs(3, max_edges=6, workers=2) == one
    assert process_counts == [2]


def test_sweeps_run_in_process_where_fork_is_missing(monkeypatch):
    # Windows offers only the spawn start method, which has no fork context
    def get_context(method):
        raise AssertionError("a fork context was asked for")

    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    monkeypatch.setattr(multiprocessing, "get_context", get_context)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    one = enumerate_reduced_torus_graphs(3, max_edges=6)
    assert enumerate_reduced_torus_graphs(3, max_edges=6, workers=2) == one


def test_small_sweeps_never_start_a_pool(monkeypatch):
    # splitting a sweep of one or two vertices gains less than a fork
    # costs, so no worker count makes it fork
    def get_context(method):
        raise AssertionError("a child was forked")

    monkeypatch.setattr(multiprocessing, "get_context", get_context)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
    assert len(enumerate_reduced_torus_graphs(1, workers=8)) == 2
    assert len(enumerate_reduced_torus_graphs(2, workers=8)) == 16


def test_one_sequence_never_starts_a_pool(monkeypatch):
    # certify_case searches the one sequence (6,) * s, so no worker count
    # makes it fork
    def get_context(method):
        raise AssertionError("a child was forked")

    monkeypatch.setattr(multiprocessing, "get_context", get_context)
    assert certify_case(CaseParams(4, 4, 6), workers=8).survivors == 0


def test_determinism_criterion_asks_for_a_pool_at_each_worker_count(process_counts, monkeypatch):
    # with cores to spare, workers 2 and 8 each split the sweep over that
    # many processes, so the criterion runs each worker count instead of
    # three in-process runs
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
    result = verify.criterion_determinism()
    assert result.passed, result.details
    assert process_counts == [2, 8]


@pytest.mark.parametrize("platform", ["one usable core", "no fork start method"])
def test_determinism_criterion_says_when_the_sweep_cannot_split(platform, monkeypatch):
    # three in-process runs compare nothing about the split, so the
    # criterion must not report them as the split's check
    def get_context(method):
        raise AssertionError("a child was forked")

    monkeypatch.setattr(multiprocessing, "get_context", get_context)
    if platform == "one usable core":
        monkeypatch.setattr(enumeration, "_usable_cores", lambda: 1)
    else:
        monkeypatch.setattr(enumeration, "_usable_cores", lambda: 64)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    result = verify.criterion_determinism()
    assert result.passed
    assert result.details == (
        "workers 1, 2, 8 byte-identical; the sweep could not split (one usable"
        " core or no fork start method), so every worker count ran in process"
    )
    assert multiprocessing.active_children() == []


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
