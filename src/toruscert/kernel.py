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
grew before ``room`` reached 0 is left to plain branching.  The leaves are
the same as without forcing: every complete all-triangle matching contains
each forced pair of its partial matchings.

Closed prefix.  When every dart of the vertices below the lowest unmatched
dart is matched among those vertices, they form a closed component, every
leaf below is disconnected, and the branch dies.  The search carries the
largest partner of the darts below ``lowest`` as ``reach``, so the test
costs one comparison at each vertex boundary.  Without it the search
below a closed component is barely pruned, as the relabelling walks that
start inside the component stop at its edge (see below).

Orderly generation
------------------

The relabellings that keep the standard rotation form a group: choose an
orientation ``e = +-1``, a permutation ``pi`` of the vertices that keeps the
degrees and an offset ``o_v`` at each vertex, and send dart ``(v, i)`` to
``(pi(v), (o_v + e*i) mod d_v)``.  Two matchings get one canonical key
exactly when one is ``g M g^-1`` for some ``g`` in this group.  The search
keeps one matching per class, the lexicographically least, and cuts every
subtree whose fixed entries already lose to a relabelling; this is the
isomorph rejection of McKay, "Isomorph-free exhaustive generation" (J.
Algorithms 26, 1998) and of plantri (Brinkmann & McKay, MATCH 58, 2007).

After each branching placement, and at each leaf, a walk per start asks
whether some ``g`` makes ``g M g^-1`` smaller than ``M``.  A start sends a
dart of degree ``d_0`` to dart 0 in either orientation; the walk then reads
positions ``j = 0, 1, ...``, where the relabelled entry is
``g(M[g^-1(j)])``.  A vertex first met this way takes the lowest free slot
of its degree, with the dart met first: every other choice gives a larger
entry, so the choice is forced.  The walk stops at the first position where
the entries differ.  A smaller entry prunes the node: the entries compared
are fixed, so every completion below loses to ``g`` (extended to all
vertices) and is not the least of its class, while the least matching of a
class is never pruned.  A larger entry ends that start for the whole
subtree, since fixed entries never change below.  An unfixed entry, of
``M`` or of ``g M g^-1``, leaves the start waiting on that dart.  The start
keeps its walk state: the position where it stopped and the slots, images
and offsets it has assigned.  Once the dart is matched, the walk resumes
from that position on copies of the state, not from dart 0.  This is
sound because every stop comes before its position assigns anything, and
the entries read before it are fixed for the whole subtree, so a walk
from dart 0 would retrace the same steps to the same state.  A slot
reached before any vertex was sent to it gives no verdict, for good, and
the start is dropped: trying every vertex and dart there would be repeated
at each node below, and a test that misses a prune only costs speed.
With equal degrees, a tie up to such a slot means that the vertices below
it have closed off, and the closed-prefix rule above kills that branch at
once.

The walks run at every branching node, not only where a vertex closes: a
prune found late is paid for by every node in between.  Checking only at
vertex boundaries made the ``nv <= 3`` sweep 6.5 times slower and the
``nv = 4`` search 40 times slower.

Leaves come out in lexicographic order: the search branches on the lowest
unmatched dart with ascending partners, so two leaves first differ at a
branching dart, where the earlier one has the smaller partner.  The first
leaf met in each class is therefore its least matching, and the others
fail the leaf test unless a walk found no verdict.  As a backstop,
``leaf()`` still keys every surviving leaf with :func:`canonical_code`,
called through the module global, and keeps the least matching per key, so
the result does not depend on how complete the test is.

Canonical keys.  A traversal is abandoned at the first byte of its code
that exceeds the best code so far; ties reveal automorphisms whose orbits
of start darts need no traversal (see :func:`canonical_code`).
"""

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


def search_matchings(degrees):
    """Enumerate dart matchings under face constraints; bucket by canonical key.

    Returns a dict mapping canonical code (bytes) to the lexicographically
    smallest surviving matching (tuple of ints) in that class.  Subtrees
    that a relabelling beats are cut (see "Orderly generation" above), so
    the key is usually computed once per class.

    Only connected leaves of Euler characteristic 0 (the torus) whose faces
    all have at least three sides are kept.  The defect budget ``3V - E``
    fixes how far the face sizes may exceed three in total: at ``E = 3V``
    every face is a triangle, and above it no matching survives.
    """
    degrees = tuple(degrees)
    n = sum(degrees)
    if n == 0 or n % 2:
        raise ValueError("total degree must be positive and even")
    if any(d < 1 for d in degrees):
        raise ValueError("vertex degrees must be >= 1")
    vert, rho, rho_inv = standard_rotation(degrees)
    nv = len(degrees)
    ne = n // 2
    need_faces = ne - nv  # target count on a torus
    M = [-1] * n
    out = {}
    base = [0] * nv  # first dart of each vertex
    for v in range(1, nv):
        base[v] = base[v - 1] + degrees[v - 1]
    pos = [d - base[vert[d]] for d in range(n)]  # a dart's place at its vertex
    slots = [[] for _ in range(max(degrees) + 1)]  # degree -> its vertices
    for v, deg in enumerate(degrees):
        slots[deg].append(v)
    first_free = [0] * len(slots)
    first_free[degrees[0]] = 1  # slot 0 goes to the start's vertex
    # a live start: (orientation, dart its walk waits for, position where it
    # stopped, src, img, off, free), where src maps a slot to the vertex
    # sent there, img a vertex to its slot, off a vertex to its dart sent to
    # the slot's dart 0, and free a degree to its lowest free slot.  Starts
    # share these lists until a walk sends a vertex to a slot, which copies
    # them, so the state of a start at a node is never changed below it.
    starts = []
    for e in (1, -1):
        for s in range(n):
            u = vert[s]
            if degrees[u] == degrees[0]:
                src = [-1] * nv
                src[0] = u
                img = [-1] * nv
                img[u] = 0
                off = [0] * nv
                off[u] = pos[s]
                starts.append((e, 0, 0, src, img, off, first_free))

    def live_starts(live):
        """The starts of ``live`` that give no verdict on ``M``, each walked
        on from where it stopped, or None if one of them makes ``M``
        smaller.  A start found larger, or stuck at a slot with no source,
        stays so below this node, as fixed entries never change, and is
        dropped."""
        kept = []
        for item in live:
            if M[item[1]] < 0:
                kept.append(item)  # the walk would stop at the same place
                continue
            e, _, j, src, img, off, free = item
            copied = False
            while j < n:
                mj = M[j]
                if mj < 0:
                    kept.append((e, j, j, src, img, off, free))
                    break
                v = src[vert[j]]
                if v < 0:
                    break
                x = base[v] + (off[v] + e * pos[j]) % degrees[v]
                y = M[x]
                if y < 0:
                    kept.append((e, x, j, src, img, off, free))
                    break
                u = vert[y]
                w = img[u]
                if w < 0:
                    # a new vertex: the lowest free slot, with y as its dart
                    # 0, is the least image any relabelling can give y
                    if not copied:
                        src, img, off, free = src[:], img[:], off[:], free[:]
                        copied = True
                    du = degrees[u]
                    w = slots[du][free[du]]
                    free[du] += 1
                    src[w] = u
                    img[u] = w
                    off[u] = pos[y]
                    gy = base[w]
                else:
                    gy = base[w] + e * (pos[y] - off[u]) % degrees[u]
                if gy != mj:
                    if gy < mj:
                        return None
                    break
                j += 1
        return kept

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

    def leaf(live):
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
        if live_starts(live) is None:
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

    def rec(lowest, closed_faces, room, pending, live, reach):
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
                rec(lowest, *state, pending + touched(x, w), live, reach)
            M[x] = -1
            M[w] = -1
            return
        a = lowest
        while a < n:
            if a and pos[a] == 0 and reach < a:
                return  # the vertices below a have no edge to the rest
            if M[a] < 0:
                break
            if M[a] > reach:
                reach = M[a]
            a += 1
        if a == n:
            leaf(live)  # room >= 0 and closed_faces <= E - V force F = E - V
            return
        for b in range(a + 1, n):
            if M[b] >= 0:
                continue
            M[a] = b
            M[b] = a
            state = place(a, b, closed_faces, room)
            if state is not None:
                kept = live_starts(live)
                if kept is not None:
                    watch = touched(a, b) if state[1] == 0 else []
                    rec(a + 1, *state, watch, kept, max(reach, b))
            M[a] = -1
            M[b] = -1

    rec(0, 0, 3 * nv - ne, [], starts, -1)
    return out
