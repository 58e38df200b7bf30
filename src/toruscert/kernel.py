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

Placing a pair ``(a, b)`` creates the face arcs ``a -> rho[b]`` and ``b ->
rho[a]``; any face cycle closed by the placement passes through ``a`` or
``b`` and is checked against the face-size constraint on the spot.  In
triangle mode, open face paths longer than three darts are dead.  On the
torus the final face count must be exactly ``E - V``, so a branch dies as
soon as the closed-face count exceeds that, or the remaining darts cannot
supply enough faces of at least three sides.

Forced completion (triangle mode).  An unmatched dart ``x`` that ends a
two-arc face path ``z -> y -> x`` has one legal partner, ``rho_inv[z]``,
which closes the triangle.  Each node places such a forced pair, if there
is one, before it branches on the lowest unmatched dart; the branch dies if
the forced partner is ``x`` itself or already matched.  Only the two arcs a
placement creates can extend a path to two arcs, so the candidates for the
next forced pair are the darts at most two arcs after them.  No dart is
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


def search_matchings(degrees, triangles_only=False, first_partner=-1):
    """Enumerate dart matchings under face constraints; bucket by canonical key.

    Returns a dict mapping canonical code (bytes) to the lexicographically
    smallest surviving matching (tuple of ints) in that class.

    Only connected leaves of Euler characteristic 0 (the torus) are kept.
    ``triangles_only`` restricts to matchings all of whose faces are
    triangles; otherwise every face must have at least three sides.
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
        """Follow face arcs from ``start``: (closed, length, saw_other)."""
        cnt = 0
        cur = start
        saw = False
        while True:
            m = M[cur]
            if m < 0:
                return False, cnt, saw
            cur = rho[m]
            cnt += 1
            if cur == other:
                saw = True
            if cur == start:
                return True, cnt, saw

    def closures_ok(a, b):
        """Face checks for a fresh pair; returns (ok, faces, darts) closed."""
        closed_a, len_a, saw_b = walk(a, b)
        faces = 0
        darts = 0
        if closed_a:
            bad = (len_a != 3) if triangles_only else (len_a < 3)
            if bad:
                return False, 0, 0
            faces += 1
            darts += len_a
        elif triangles_only:
            bwd = 0
            cur = a
            while True:
                p = rho_inv[cur]
                if M[p] < 0:
                    break
                cur = M[p]
                bwd += 1
            if len_a + bwd + 1 > 3:
                return False, 0, 0
        if closed_a and saw_b:
            return True, faces, darts  # one cycle through both new arcs
        closed_b, len_b, _ = walk(b, a)
        if closed_b:
            bad = (len_b != 3) if triangles_only else (len_b < 3)
            if bad:
                return False, 0, 0
            faces += 1
            darts += len_b
        elif triangles_only:
            bwd = 0
            cur = b
            while True:
                p = rho_inv[cur]
                if M[p] < 0:
                    break
                cur = M[p]
                bwd += 1
            if len_b + bwd + 1 > 3:
                return False, 0, 0
        return True, faces, darts

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
        """In triangle mode, the partner that closes the face path ending at
        the unmatched dart ``x``: ``rho_inv[z]`` when the path is ``z -> y
        -> x``, else -1."""
        p = rho_inv[x]
        if M[p] < 0:
            return -1
        p = rho_inv[M[p]]
        if M[p] < 0:
            return -1
        return rho_inv[M[p]]

    def place(a, b, closed_faces, closed_darts):
        """Face and Euler checks for the pair ``(a, b)`` just placed; returns
        the new closed-face and closed-dart counts, or None if the branch
        dies."""
        ok, faces, darts = closures_ok(a, b)
        if not ok:
            return None
        cf = closed_faces + faces
        cd = closed_darts + darts
        if cf > need_faces or cf + (n - cd) // 3 < need_faces:
            return None
        return cf, cd

    def touched(a, b):
        """Darts whose face path may have grown to two arcs by placing ``(a, b)``."""
        darts = []
        for x in (rho[b], rho[a]):
            darts.append(x)
            if M[x] >= 0:
                darts.append(rho[M[x]])
        return darts

    def rec(lowest, closed_faces, closed_darts, pending):
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
            counts = place(x, w, closed_faces, closed_darts)
            if counts is not None:
                rec(lowest, *counts, pending + touched(x, w))
            M[x] = -1
            M[w] = -1
            return
        a = lowest
        while a < n and M[a] >= 0:
            a += 1
        if a == n:
            if closed_faces == need_faces:
                leaf()
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
            counts = place(a, b, closed_faces, closed_darts)
            if counts is not None:
                rec(a + 1, *counts, touched(a, b) if triangles_only else [])
            M[a] = -1
            M[b] = -1

    rec(0, 0, 0, [])
    return out
