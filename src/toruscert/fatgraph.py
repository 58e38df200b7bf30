"""Fat graphs as rotation systems on darts.

A fat graph is stored as a degree sequence plus a perfect matching of darts;
darts are numbered consecutively vertex by vertex and the rotation at each
vertex is the standard cyclic order of its darts (every fat graph can be
relabelled into this form, see :mod:`toruscert.kernel`).  Faces are orbits
of ``d -> rho[M[d]]``, and the derived closed orientable surface has Euler
characteristic ``V - E + F``.

Homology of edge cycles is decided with integers.  Each graph gives every
edge one integer homology class, by a tree-cotree split, the first time a
cycle is tested, and keeps the classes on the instance, beside the cached
faces.  A cycle bounds exactly when its classes sum to zero, so the
candidate pairs of :meth:`FatGraph.parallel_edge_pairs` compare two classes
up to sign and the loops of :meth:`FatGraph.trivial_loops` test one class
against zero.
"""
from __future__ import annotations

import random
from itertools import accumulate

from toruscert import kernel


class FatGraph:
    """An embedded graph given by a rotation system."""

    __slots__ = (
        "degrees", "matching", "_vert", "_rho", "_rho_inv", "_faces", "_ends",
        "_edge_of", "_classes",
    )

    def __init__(self, degrees, matching):
        self.degrees = tuple(degrees)
        self.matching = tuple(matching)
        self._vert, self._rho, self._rho_inv = kernel.standard_rotation(self.degrees)
        self._faces = None
        self._ends = None
        self._edge_of = None
        self._classes = None
        n = sum(self.degrees)
        if len(self.matching) != n:
            raise ValueError("matching length must equal the number of darts")
        for a, b in enumerate(self.matching):
            if not 0 <= b < n or b == a or self.matching[b] != a:
                raise ValueError("matching must be a fixed-point-free involution")

    @classmethod
    def from_vertex_cycles(cls, cycles):
        """Build a fat graph from per-vertex cyclic edge-name sequences.

        Each name must occur exactly twice overall; the two occurrences are
        the two ends of one edge.

        >>> g = FatGraph.from_vertex_cycles([["a", "b", "a", "b"]])
        >>> g.num_vertices, g.num_edges, len(g.faces())
        (1, 2, 1)
        """
        degrees = tuple(len(c) for c in cycles)
        flat = [name for c in cycles for name in c]
        n = len(flat)
        where = {}
        matching = [-1] * n
        for d, name in enumerate(flat):
            if name in where:
                other = where.pop(name)
                matching[d] = other
                matching[other] = d
            else:
                where[name] = d
        if where:
            raise ValueError(f"unpaired edge names: {sorted(where)}")
        return cls(degrees, matching)

    # -- basic counts -----------------------------------------------------

    @property
    def num_vertices(self):
        return len(self.degrees)

    @property
    def num_darts(self):
        return len(self.matching)

    @property
    def num_edges(self):
        return len(self.matching) // 2

    def vertex_of(self, dart):
        return self._vert[dart]

    def rotation_next(self, dart):
        return self._rho[dart]

    def edge_darts(self):
        """Darts ``(a, b)`` with ``a < b``, one pair per edge, in order of a."""
        return tuple(
            (a, b) for a, b in enumerate(self.matching) if a < b
        )

    def edge_index_of_dart(self):
        """Map dart -> edge index, edges ordered as in :meth:`edge_darts`.

        Computed once per graph and cached.
        """
        if self._edge_of is None:
            out = [0] * self.num_darts
            for i, (a, b) in enumerate(self.edge_darts()):
                out[a] = out[b] = i
            self._edge_of = tuple(out)
        return self._edge_of

    def edge_ends(self):
        """Vertex pairs ``(u, v)`` of the edges, in :meth:`edge_darts` order.

        Computed once per graph and cached.
        """
        if self._ends is None:
            vert = self._vert
            self._ends = tuple((vert[a], vert[b]) for a, b in self.edge_darts())
        return self._ends

    def loop_edges(self):
        """Edge indices whose two ends share a vertex."""
        return tuple(i for i, (u, v) in enumerate(self.edge_ends()) if u == v)

    def loops_at(self, vertex):
        return tuple(
            i for i, (u, v) in enumerate(self.edge_ends()) if u == v == vertex
        )

    # -- faces and the derived surface ------------------------------------

    def faces(self):
        """Face orbits of the rotation system, each a tuple of darts.

        Every dart lies in exactly one face; the face size (number of edge
        sides) is the orbit length.
        """
        if self._faces is None:
            n = self.num_darts
            seen = [False] * n
            rho, M = self._rho, self.matching
            out = []
            for d0 in range(n):
                if seen[d0]:
                    continue
                face = []
                d = d0
                while not seen[d]:
                    seen[d] = True
                    face.append(d)
                    d = rho[M[d]]
                out.append(tuple(face))
            self._faces = tuple(out)
        return self._faces

    def face_sizes(self):
        return tuple(len(f) for f in self.faces())

    def euler_characteristic(self):
        """``V - E + F`` of the derived closed surface."""
        return self.num_vertices - self.num_edges + len(self.faces())

    def is_connected(self):
        nv = self.num_vertices
        if nv <= 1:
            return True
        adj = [set() for _ in range(nv)]
        for a, b in enumerate(self.matching):
            adj[self._vert[a]].add(self._vert[b])
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == nv

    def genus(self):
        """Genus of the derived surface; the graph must be connected."""
        if not self.is_connected():
            raise ValueError("genus is only defined for connected graphs")
        chi = self.euler_characteristic()
        return (2 - chi) // 2

    # -- homology of edge cycles ------------------------------------------

    def _edge_classes(self):
        """One integer homology class per edge, a tuple of coordinates.

        Edges are oriented from their lower dart.  A tree-cotree split picks
        the coordinates: ``T`` is a spanning forest of the graph, ``T*`` a
        spanning forest of the dual among the other edges, and the edges in
        neither are the generators, ``2 - chi`` of them on each component.
        A ``T`` edge has class 0 and a generator a unit vector.  Every face
        boundary sums to zero, so a leaf face of ``T*`` fixes the class of
        its one unsolved ``T*`` edge, and peeling leaves solves them all; the
        root face of each dual tree holds too, since the faces of a
        component sum to zero.  An integer cycle bounds in the derived
        surface exactly when its classes sum to zero.  Computed once per
        graph and cached.
        """
        if self._classes is None:
            darts = self.edge_darts()
            vert, faces = self._vert, self.faces()
            face_of = [0] * self.num_darts
            for f, face in enumerate(faces):
                for d in face:
                    face_of[d] = f
            tree = _spanning_forest(
                self.num_vertices,
                [(e, vert[a], vert[b]) for e, (a, b) in enumerate(darts)],
            )
            cotree = _spanning_forest(
                len(faces),
                [(e, face_of[a], face_of[b])
                 for e, (a, b) in enumerate(darts) if e not in tree],
            )
            generators = [
                e for e in range(len(darts)) if e not in tree and e not in cotree
            ]
            zero = (0,) * len(generators)
            classes = [zero] * len(darts)
            for g, e in enumerate(generators):
                classes[e] = zero[:g] + (1,) + zero[g + 1:]
            unsolved = [[] for _ in faces]
            for e in cotree:
                a, b = darts[e]
                unsolved[face_of[a]].append(e)
                unsolved[face_of[b]].append(e)
            edge_of, matching = self.edge_index_of_dart(), self.matching
            leaves = [f for f, es in enumerate(unsolved) if len(es) == 1]
            while leaves:
                f = leaves.pop()
                if len(unsolved[f]) != 1:
                    continue
                e = unsolved[f].pop()
                total = [0] * len(zero)
                for d in faces[f]:
                    sign = 1 if d < matching[d] else -1
                    if edge_of[d] == e:
                        own = sign
                    else:
                        for c, y in enumerate(classes[edge_of[d]]):
                            total[c] += sign * y
                classes[e] = tuple(-own * y for y in total)
                a, b = darts[e]
                other = face_of[a] + face_of[b] - f
                unsolved[other].remove(e)
                if len(unsolved[other]) == 1:
                    leaves.append(other)
            self._classes = tuple(classes)
        return self._classes

    def parallel_edge_pairs(self):
        """Pairs of distinct edges that are parallel in the derived surface.

        Two edges with the same endpoints are parallel when the closed curve
        formed by one followed by the reverse of the other bounds, i.e. the
        cycle ``e - e'`` (with compatible orientations) is null homologous,
        which holds exactly when their classes (:meth:`_edge_classes`) are
        equal.  A loop has no preferred orientation, so two loops at one
        vertex are parallel when ``e - e'`` or ``e + e'`` bounds.
        """
        classes = self._edge_classes()
        minus = [tuple(-y for y in c) for c in classes]
        ends = self.edge_ends()
        out = []
        for i, (u, v) in enumerate(ends):
            for j in range(i + 1, len(ends)):
                if ends[j] == (u, v):
                    if classes[i] == classes[j] or (u == v and classes[i] == minus[j]):
                        out.append((i, j))
                elif ends[j] == (v, u) and classes[i] == minus[j]:
                    out.append((i, j))
        return tuple(out)

    def trivial_loops(self):
        """Loop edges that bound a disk in the derived surface: class 0."""
        classes = self._edge_classes()
        return tuple(i for i in self.loop_edges() if not any(classes[i]))

    def is_reduced(self):
        """No monogon or bigon faces, no parallel pair, no trivial loop."""
        if any(len(f) < 3 for f in self.faces()):
            return False
        return not self.parallel_edge_pairs() and not self.trivial_loops()

    # -- reduction and expansion ------------------------------------------

    def amalgamate_parallel(self):
        """Amalgamate maximal bigon-parallel families into single edges.

        Returns ``(reduced graph, families)`` where ``families`` maps each
        edge index of the reduced graph to the tuple of source edge indices
        it absorbed (in member order along the band).  Families are read off
        the bigon faces: consecutive parallel edges cobound bigons, so the
        transitive closure of the bigon relation groups each maximal family.
        """
        edge_of = self.edge_index_of_dart()
        parent = list(range(self.num_edges))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for face in self.faces():
            if len(face) == 2:
                e1, e2 = edge_of[face[0]], edge_of[face[1]]
                if e1 != e2:
                    parent[find(e1)] = find(e2)
        classes = {}
        for e in range(self.num_edges):
            classes.setdefault(find(e), []).append(e)

        darts = self.edge_darts()
        keep = {}
        for members in classes.values():
            members = self._order_family(members)
            keep[members[0]] = tuple(members)

        kept_darts = set()
        for e in keep:
            kept_darts.update(darts[e])
        new_id = {}
        new_cycles = []
        for v, base in enumerate(_first_darts(self.degrees)):
            cyc = []
            for d in range(base, base + self.degrees[v]):
                if d in kept_darts:
                    new_id[d] = (v, len(cyc))
                    cyc.append(d)
            new_cycles.append(cyc)
        new_degrees = tuple(len(c) for c in new_cycles)
        offsets = _first_darts(new_degrees)
        new_matching = [-1] * sum(new_degrees)
        for e in keep:
            a, b = darts[e]
            va, ka = new_id[a]
            vb, kb = new_id[b]
            na, nb = offsets[va] + ka, offsets[vb] + kb
            new_matching[na] = nb
            new_matching[nb] = na
        reduced = FatGraph(new_degrees, new_matching)
        # dart renumbering is monotone, so reduced edge i is the i-th kept
        # edge in original dart order
        families = {}
        kept_sorted = sorted(keep, key=lambda e: min(darts[e]))
        for i, e in enumerate(kept_sorted):
            families[i] = keep[e]
        return reduced, families

    def _order_family(self, members):
        """Order the edges of one parallel class along its band of bigons."""
        if len(members) == 1:
            return members
        edge_of = self.edge_index_of_dart()
        neighbors = {e: [] for e in members}
        mset = set(members)
        for face in self.faces():
            if len(face) == 2:
                e1, e2 = edge_of[face[0]], edge_of[face[1]]
                if e1 in mset and e2 in mset and e1 != e2:
                    neighbors[e1].append(e2)
                    neighbors[e2].append(e1)
        ends = [e for e in members if len(neighbors[e]) == 1]
        if not ends:
            # cyclic band (a sphere chain); break at the smallest member
            start = min(members)
        else:
            start = min(ends)
        order = [start]
        prev = None
        cur = start
        while len(order) < len(members):
            nxts = [x for x in neighbors[cur] if x != prev]
            if not nxts:
                break
            prev, cur = cur, nxts[0]
            order.append(cur)
        if len(order) != len(members):
            raise ValueError("parallel family is not a single band")
        return order

    def expand_edges(self, size):
        """Blow every edge up into ``size`` parallel members.

        Returns ``(graph, blocks)`` where ``blocks[d]`` lists the member
        darts replacing dart ``d``, in rotation order.  Members are paired in
        reverse across the two ends, which is what makes consecutive members
        cobound bigons.
        """
        t = int(size)
        if t < 1:
            raise ValueError("size must be >= 1")
        new_degrees = tuple(d * t for d in self.degrees)
        base_old = _first_darts(self.degrees)
        base_new = _first_darts(new_degrees)
        blocks = {}
        for d in range(self.num_darts):
            v = self._vert[d]
            pos = d - base_old[v]
            start = base_new[v] + pos * t
            blocks[d] = tuple(range(start, start + t))
        new_matching = [-1] * (self.num_darts * t)
        for a, b in self.edge_darts():
            for k in range(t):
                x = blocks[a][k]
                y = blocks[b][t - 1 - k]
                new_matching[x] = y
                new_matching[y] = x
        return FatGraph(new_degrees, new_matching), blocks

    # -- canonical form ----------------------------------------------------

    def canonical_key(self):
        """Canonical key, equal for graphs related by vertex relabelling,
        rotation of the cyclic orders, or global reflection."""
        return kernel.canonical_code(self.degrees, self.matching)

    def relabelled(self, vertex_order=None, rotations=None, reflect=False):
        """A combinatorially equal graph with permuted labels.

        ``vertex_order`` permutes vertices, ``rotations[v]`` rotates the dart
        cycle at vertex ``v``, and ``reflect`` mirrors all rotations.  Used by
        the canonical-form tests.
        """
        nv = self.num_vertices
        vertex_order = list(vertex_order) if vertex_order else list(range(nv))
        rotations = list(rotations) if rotations else [0] * nv
        new_degrees = tuple(self.degrees[v] for v in vertex_order)
        base_old = _first_darts(self.degrees)
        base_new = _first_darts(new_degrees)
        old_to_new = {}
        for new_v, old_v in enumerate(vertex_order):
            deg = self.degrees[old_v]
            for k in range(deg):
                kk = (k + rotations[new_v]) % deg
                if reflect:
                    kk = (deg - kk) % deg
                old_to_new[base_old[old_v] + k] = base_new[new_v] + kk
        new_matching = [-1] * self.num_darts
        for a, b in enumerate(self.matching):
            new_matching[old_to_new[a]] = old_to_new[b]
        return FatGraph(new_degrees, new_matching)

    def __eq__(self, other):
        return (
            isinstance(other, FatGraph)
            and self.degrees == other.degrees
            and self.matching == other.matching
        )

    def __hash__(self):
        return hash((self.degrees, self.matching))

    def __repr__(self):
        return f"FatGraph(degrees={self.degrees}, matching={self.matching})"


def _first_darts(degrees):
    """The first dart of each vertex, darts numbered vertex by vertex."""
    return list(accumulate(degrees, initial=0))[:-1]


def _spanning_forest(size, links):
    """Labels of the links ``(label, u, v)`` that a spanning forest on nodes
    ``0 .. size-1`` takes, growing by each link in turn that joins two trees."""
    parent = list(range(size))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    taken = set()
    for label, u, v in links:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            taken.add(label)
    return taken


def random_fat_graph(rng: random.Random, max_vertices=4, max_degree=8):
    """A uniformly sloppy random rotation system (no surface constraints)."""
    nv = rng.randint(1, max_vertices)
    while True:
        degrees = [rng.randint(1, max_degree) for _ in range(nv)]
        if sum(degrees) % 2 == 0 and sum(degrees) > 0:
            break
    n = sum(degrees)
    darts = list(range(n))
    rng.shuffle(darts)
    matching = [-1] * n
    for i in range(0, n, 2):
        a, b = darts[i], darts[i + 1]
        matching[a] = b
        matching[b] = a
    return FatGraph(degrees, matching)
