"""The search kernel: matching enumeration and canonical keys.

This module is the hot enumeration loop behind the catalog of reduced
cellular torus graphs (see :mod:`toruscert.enumeration`), written in plain
Python.

Representation
--------------

A fat graph with ``V`` vertices of degrees ``d_0, ..., d_{V-1}`` is encoded on
``n = sum(d_i)`` darts.  Darts are numbered consecutively vertex by vertex and
the rotation at every vertex is the *standard* one: dart ``k`` is followed by
the next dart of the same vertex, cyclically.  Every isomorphism class of fat
graphs with this degree sequence contains such a standard representative, so
enumerating perfect matchings of the darts (the edge pairing) covers all
classes.  Faces are the orbits of ``phi(d) = rho[M[d]]`` where ``rho`` is the
standard rotation and ``M`` the matching; the face size is the number of darts
in the orbit.

Pruning
-------

A torus graph has ``F = E - V`` faces with ``2E`` sides in all, so the
face defects ``len - 3`` sum to ``2E - 3F = 3V - E``.  The search carries
that budget as ``room`` and takes each closed face's defect from it, so a
branch dies when ``room`` falls below 0; ``E = 3V`` leaves no room, so
every face is a triangle, and ``E > 3V`` dies at the first pair.

Placing a pair ``(a, b)`` creates the face arcs ``a -> rho[b]`` and ``b ->
rho[a]``; the face path through each is walked on the spot.  A closed face
with fewer than three darts kills the branch.  An open path of ``k`` darts
still owes ``k - 3`` at least; the paths through ``a`` and ``b`` may be
one path, so the larger of the two charges, not their sum, must fit in
``room``.  A branch also dies when it closes more than ``E - V`` faces.

Forced completion.  With ``room`` at 0, an unmatched dart ``x`` that ends a
two-arc face path ``z -> y -> x`` has one legal partner, ``rho_inv[z]``,
which closes the triangle.  Each node places such a forced pair, if there
is one, before it branches on the lowest unmatched dart; the branch dies if
the forced partner is ``x`` itself or already matched.  Only the two arcs a
placement creates can extend a path to two arcs, so the candidates for the
next forced pair are the darts at most two arcs after them; a path that
grew before ``room`` reached 0 is left to plain branching.  No dart is
forced at the root, so ``first_partner`` still fixes dart 0's partner.  The
leaves are the same as without forcing: every complete all-triangle
matching contains each forced pair of its partial matchings.

Canonical keys.  A traversal is abandoned at the first byte of its code
that exceeds the best code so far; ties reveal automorphisms whose orbits
of start darts need no traversal (see :func:`canonical_code`).
"""

# the kernel that produced a report; printed by ``verify-all`` and in its JSON
BACKEND = "pure"


def standard_rotation(degrees):
    """Return ``(vert, rho, rho_inv)`` arrays for the standard rotation."""
    n = sum(degrees)
    vert = [0] * n
    rho = [0] * n
    rho_inv = [0] * n
    base = 0
    for vi, d in enumerate(degrees):
        for i in range(d):
            vert[base + i] = vi
            rho[base + i] = base + (i + 1) % d
            rho_inv[base + (i + 1) % d] = base + i
        base += d
    return vert, rho, rho_inv


def _rotation_half(walk):
    r, order, lab = walk
    return bytes([lab[r[d]] for d in order])


def canonical_code(degrees, matching):
    """Canonical key of a connected fat graph, as bytes.

    The key is the lexicographic minimum, over all start darts and both
    orientations, of the traversal code ``(relabelled matching, relabelled
    rotation)``.  Two standard-rotation matchings receive equal keys exactly
    when the fat graphs are related by a relabelling of darts preserving the
    rotation system, i.e. by vertex relabelling, rotation of the cyclic
    orders, or a global reflection.

    Byte ``i`` of a traversal's code is known once its node ``i`` is
    processed, so a traversal is abandoned at the first byte above the best
    code.  A traversal whose whole code ties with the best one in the same
    orientation exhibits an automorphism (dart ``order_best[i]`` to
    ``order[i]``); starts in the orbit of an earlier start repeat its code
    and are skipped.  A tie across the orientations exhibits a reflection,
    under which the second orientation repeats the first one's codes, so
    the search stops there.
    """
    n = sum(degrees)
    _, rho, rho_inv = standard_rotation(degrees)
    M = matching
    best = None  # matching half of the best code so far
    best_rot = None  # its rotation half, built on the first tie
    best_walk = None  # (orientation, order, labels) of that traversal
    orbit = list(range(n))  # union-find over darts; a root is its orbit's least dart

    def root(x):
        while orbit[x] != x:
            orbit[x] = x = orbit[orbit[x]]
        return x

    for r in (rho, rho_inv):
        for start in range(n):
            if root(start) != start:
                continue
            lab = [-1] * n
            lab[start] = 0
            order = [0] * n
            order[0] = start
            filled = 1
            tie = best is not None  # code prefix equals best so far
            i = 0
            while i < filled:
                d = order[i]
                cur = r[d]
                while cur != d:
                    if lab[cur] < 0:
                        lab[cur] = filled
                        order[filled] = cur
                        filled += 1
                    cur = r[cur]
                m = M[d]
                if lab[m] < 0:
                    lab[m] = filled
                    order[filled] = m
                    filled += 1
                if tie:
                    # byte i of the code is lab[m]; leave at the first larger one
                    c = lab[m]
                    if c != best[i]:
                        if c > best[i]:
                            break
                        tie = False
                i += 1
            else:
                if filled != n:
                    raise ValueError("canonical_code requires a connected graph")
                walk = (r, order, lab)
                if not tie:
                    best = bytes([lab[M[d]] for d in order])
                    best_rot = None
                    best_walk = walk
                    continue
                if best_rot is None:
                    best_rot = _rotation_half(best_walk)
                rot = _rotation_half(walk)
                if rot < best_rot:
                    best_rot = rot
                    best_walk = walk
                elif rot == best_rot:
                    if best_walk[0] is not r:
                        return best + best_rot
                    for x, y in zip(best_walk[1], order):
                        x = root(x)
                        y = root(y)
                        if x < y:
                            orbit[y] = x
                        elif y < x:
                            orbit[x] = y
    if best is None:
        return None  # no darts
    if best_rot is None:
        best_rot = _rotation_half(best_walk)
    return best + best_rot


def search_matchings(degrees, first_partner=-1):
    """Enumerate dart matchings under face constraints; bucket by canonical key.

    Returns a dict mapping canonical code (bytes) to the lexicographically
    smallest surviving matching (tuple of ints) in that class.

    Only connected leaves of Euler characteristic 0 (the torus) whose faces
    all have at least three sides are kept.  The defect budget ``3V - E``
    fixes how far the face sizes may exceed three in total: at ``E = 3V``
    every face is a triangle, and above it no matching survives.
    ``first_partner >= 0`` forces the partner of dart 0, which partitions
    the search space for parallel workers; the union of the results over
    all legal first partners equals the unrestricted result.
    """
    degrees = tuple(degrees)
    n = sum(degrees)
    if n == 0 or n % 2:
        raise ValueError("total degree must be positive and even")
    if any(d < 1 for d in degrees):
        raise ValueError("vertex degrees must be >= 1")
    if first_partner >= n:
        raise ValueError("first_partner out of range")
    vert, rho, rho_inv = standard_rotation(degrees)
    nv = len(degrees)
    ne = n // 2
    need_faces = ne - nv  # target count on a torus
    M = [-1] * n
    out = {}

    def walk(start, other):
        """The face path through the arc out of ``start``: ``(closed, darts,
        meets other)``.  An open path is counted from its first dart to its
        unmatched last one."""
        cnt = 0
        cur = start
        saw = False
        while True:
            m = M[cur]
            if m < 0:
                break
            cur = rho[m]
            cnt += 1
            if cur == other:
                saw = True
            if cur == start:
                return True, cnt, saw
        cur = start
        while True:
            p = rho_inv[cur]
            if M[p] < 0:
                return False, cnt + 1, saw
            cur = M[p]
            cnt += 1

    def leaf():
        if nv > 1:
            reached = 1
            stack = [0]
            count = 1
            adj = [0] * nv
            for d in range(n):
                adj[vert[d]] |= 1 << vert[M[d]]
            while stack:
                v = stack.pop()
                rest = adj[v] & ~reached
                while rest:
                    w = (rest & -rest).bit_length() - 1
                    reached |= 1 << w
                    rest &= rest - 1
                    count += 1
                    stack.append(w)
            if count != nv:
                return
        key = canonical_code(degrees, M)
        cand = tuple(M)
        prev = out.get(key)
        if prev is None or cand < prev:
            out[key] = cand

    def forced_partner(x):
        """With no budget left, the partner that closes the face path ending
        at the unmatched dart ``x``: ``rho_inv[z]`` when the path is ``z ->
        y -> x``, else -1."""
        p = rho_inv[x]
        if M[p] < 0:
            return -1
        p = rho_inv[M[p]]
        if M[p] < 0:
            return -1
        return rho_inv[M[p]]

    def place(a, b, closed_faces, room):
        """Face checks for the pair ``(a, b)`` just placed; returns the new
        closed-face count and budget, or None if the branch dies."""
        closed, darts, both = walk(a, b)
        charge = 0  # least defect still owed by the open paths through a, b
        if closed:
            if darts < 3:
                return None
            closed_faces += 1
            room -= darts - 3
        elif darts > 3:
            charge = darts - 3
            if charge > room:
                return None
        if not both:  # else one face path runs through both new arcs
            closed, darts, _ = walk(b, a)
            if closed:
                if darts < 3:
                    return None
                closed_faces += 1
                room -= darts - 3
            elif darts - 3 > charge:
                charge = darts - 3
        if closed_faces > need_faces or charge > room:
            return None
        return closed_faces, room

    def touched(a, b):
        """Darts whose face path may have grown to two arcs by placing ``(a, b)``."""
        darts = []
        for x in (rho[b], rho[a]):
            darts.append(x)
            if M[x] >= 0:
                darts.append(rho[M[x]])
        return darts

    def rec(lowest, closed_faces, room, pending):
        while pending:
            x = pending.pop()
            if M[x] >= 0:
                continue
            w = forced_partner(x)
            if w < 0:
                continue
            if w == x or M[w] >= 0:
                return
            M[x] = w
            M[w] = x
            state = place(x, w, closed_faces, room)
            if state is not None:
                rec(lowest, *state, pending + touched(x, w))
            M[x] = -1
            M[w] = -1
            return
        a = lowest
        while a < n and M[a] >= 0:
            a += 1
        if a == n:
            leaf()  # room >= 0 and closed_faces <= E - V force F = E - V
            return
        if a == 0 and first_partner >= 0:
            candidates = (first_partner,) if first_partner > 0 else ()
        else:
            candidates = range(a + 1, n)
        for b in candidates:
            if M[b] >= 0:
                continue
            M[a] = b
            M[b] = a
            state = place(a, b, closed_faces, room)
            if state is not None:
                rec(a + 1, *state, touched(a, b) if state[1] == 0 else [])
            M[a] = -1
            M[b] = -1

    rec(0, 0, 3 * nv - ne, [])
    return out
