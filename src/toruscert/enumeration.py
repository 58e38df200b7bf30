"""Exhaustive enumeration of reduced cellular torus graphs.

The kernel enumerates dart matchings over standard rotations per degree
sequence (see :mod:`toruscert.kernel`); this module drives it over degree
sequences.  One task searches one sequence and applies the reducedness
filters that need exact homology (no parallel pair, no trivial loop).  A
sweep of three or more vertices is split into fixed shares: the calling
process searches the first and forked children the rest, each sending its
results back over a pipe.  Smaller sweeps gain little or nothing from a
fork and run in process, and so does every sweep where the platform cannot
fork.  A pruning-free brute-force generator doubles as the completeness
oracle at small scale.
"""
from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass

from toruscert import kernel
from toruscert.errors import ScaleLimit
from toruscert.fatgraph import FatGraph
from toruscert.params import max_s


@dataclass(frozen=True)
class GraphClass:
    """One canonical class of embedded graphs."""

    degrees: tuple
    matching: tuple
    key: bytes

    def graph(self) -> FatGraph:
        return FatGraph(self.degrees, self.matching)

    @property
    def num_edges(self):
        return len(self.matching) // 2


def degree_sequences(num_vertices, num_edges):
    """Non-increasing degree sequences with the given vertex and edge count."""
    total = 2 * num_edges

    def parts(remaining, slots, cap):
        if slots == 1:
            if 1 <= remaining <= cap:
                yield (remaining,)
            return
        for first in range(min(cap, remaining - (slots - 1)), 0, -1):
            for rest in parts(remaining - first, slots - 1, first):
                yield (first,) + rest

    return list(parts(total, num_vertices, total))


def _search(degrees):
    """The classes of one degree sequence: canonical key -> least matching."""
    return kernel.search_matchings(degrees)


def _reduced_classes(degrees):
    """The reduced classes of one degree sequence, sorted by key: the
    search's classes without a parallel pair or a trivial loop."""
    found = _search(degrees)
    classes = []
    for key in sorted(found):
        cls = GraphClass(degrees=degrees, matching=found[key], key=key)
        g = cls.graph()
        if g.parallel_edge_pairs() or g.trivial_loops():
            continue
        classes.append(cls)
    return classes


def _send_share(conn, share):
    """A child's work: the reduced classes of each sequence of ``share``,
    sent as ``(True, results)``, or ``(False, exception)`` if one raised."""
    try:
        result = (True, [_reduced_classes(seq) for seq in share])
    except BaseException as exc:
        result = (False, exc)
    conn.send(result)


def _usable_cores():
    """The cores this process may run on; where the platform cannot say
    which (macOS, Windows), the machine's core count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _split_size(workers):
    """The processes a sweep of three or more vertices is split over at
    ``workers``: at most one per usable core, and 1 (in this process) where
    the platform cannot fork (Windows)."""
    if workers <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        return 1
    return min(workers, _usable_cores())


def _search_all(seqs, workers):
    """The reduced classes of each sequence of ``seqs``, in order.

    With ``size`` processes, ``seqs[i::size]`` is share ``i``: this process
    searches share 0 while ``size - 1`` forked children search the others,
    one sequence at a time.  The split is fixed, so every run does the same
    work in each process.  A child's exception is raised again here, and
    if anything raises, the children are terminated before they are joined.

    A sweep of at most two vertices never forks: it has at most 6 edges
    (the Euler cap).  The one-vertex catalog takes 0.14 ms in process, less
    than the 1.5 ms a child costs to fork, answer and join.  The whole
    two-vertex catalog takes 3.9 ms in process against 3.4 ms split with one
    child, a gain smaller than the fork itself.  The three-vertex sweep to 7
    edges takes 67 ms in process and 36 ms split with one child (medians of
    15 calls, two cores, CPython 3.11).  Where the platform cannot fork
    (Windows), every sweep runs in process."""
    # more processes than cores or sequences would only wait
    size = min(_split_size(workers), len(seqs))
    if size <= 1 or len(seqs[0]) <= 2:
        return [_reduced_classes(seq) for seq in seqs]
    ctx = multiprocessing.get_context("fork")
    children = []
    try:
        for i in range(1, size):
            receiver, sender = ctx.Pipe(duplex=False)
            child = ctx.Process(target=_send_share, args=(sender, seqs[i::size]), daemon=True)
            child.start()
            # this end closes in the child alone, so a dead child reads as EOF
            sender.close()
            children.append((child, receiver))
        out = [None] * len(seqs)
        out[0::size] = [_reduced_classes(seq) for seq in seqs[0::size]]
        for i, (child, receiver) in enumerate(children, 1):
            ok, value = receiver.recv()
            if not ok:
                raise value
            out[i::size] = value
        return out
    except BaseException:
        # a child blocked sending a large result would never exit
        for child, _ in children:
            child.terminate()
        raise
    finally:
        for child, receiver in children:
            child.join()
            receiver.close()


def enumerate_reduced_torus_graphs(
    num_vertices,
    *,
    degrees=None,
    max_edges=None,
    workers=1,
):
    """One representative per canonical class of reduced cellular torus graphs.

    With ``degrees`` the enumeration is restricted to that degree sequence;
    otherwise all sequences with at most ``max_edges`` edges are swept (the
    cap defaults to ``3 * num_vertices``, which no reduced cellular torus
    graph can exceed since its faces have at least three sides).  At the
    cap, ``E = 3V``, every face is a triangle: the 6-regular catalog is
    ``degrees=(6,) * num_vertices``.  Classes are returned sorted by degree
    sequence, then key, for deterministic output.

    Raises :class:`ScaleLimit` when ``num_vertices`` exceeds the configured
    cap, and :class:`ValueError` when ``degrees`` does not have
    ``num_vertices`` entries.
    """
    cap = max_s()
    if num_vertices > cap:
        raise ScaleLimit(f"{num_vertices} vertices exceeds the configured cap {cap}")
    if num_vertices < 1:
        raise ValueError("need at least one vertex")
    if degrees is not None and len(degrees) != num_vertices:
        raise ValueError(f"{len(degrees)} degrees for {num_vertices} vertices")

    euler_cap = 3 * num_vertices
    if max_edges is None:
        max_edges = euler_cap
    max_edges = min(max_edges, euler_cap)

    if degrees is not None:
        seqs = [tuple(degrees)]
    else:
        seqs = []
        for ne in range(num_vertices + 1, max_edges + 1):
            seqs.extend(degree_sequences(num_vertices, ne))

    # handshake parity: an odd degree sum admits no matching
    seqs = [seq for seq in sorted(seqs) if sum(seq) % 2 == 0]
    return tuple(cls for found in _search_all(seqs, workers) for cls in found)


def brute_force_torus_classes(num_vertices, *, degrees=None, max_edges=None):
    """Pruning-free oracle for :func:`enumerate_reduced_torus_graphs`.

    Generates every matching outright, then filters with the full face trace
    of :class:`FatGraph`, an independent code path from the kernel's
    incremental pruning.  Only run this at small scale.  Its one face check,
    no face below three sides, leaves only triangles at ``E = 3V``, since
    the ``F = E - V`` faces have ``2E`` sides in all.
    """
    euler_cap = 3 * num_vertices
    if max_edges is None:
        max_edges = euler_cap
    max_edges = min(max_edges, euler_cap)
    if degrees is not None:
        seqs = [tuple(degrees)]
    else:
        seqs = []
        for ne in range(num_vertices + 1, max_edges + 1):
            seqs.extend(degree_sequences(num_vertices, ne))

    classes = {}
    for seq in sorted(seqs):
        n = sum(seq)
        matching = [-1] * n

        def rec():
            try:
                a = matching.index(-1)
            except ValueError:
                g = FatGraph(seq, matching)
                if not g.is_connected() or g.euler_characteristic() != 0:
                    return
                if any(s < 3 for s in g.face_sizes()):
                    return
                if g.parallel_edge_pairs() or g.trivial_loops():
                    return
                key = kernel.canonical_code(seq, tuple(matching))
                cand = tuple(matching)
                prev = classes.get((seq, key))
                if prev is None or cand < prev:
                    classes[(seq, key)] = cand
                return
            for b in range(a + 1, n):
                if matching[b] >= 0:
                    continue
                matching[a] = b
                matching[b] = a
                rec()
                matching[a] = -1
                matching[b] = -1

        rec()
    out = [
        GraphClass(degrees=seq, matching=m, key=key)
        for (seq, key), m in classes.items()
    ]
    out.sort(key=lambda c: (c.degrees, c.key))
    return tuple(out)
