"""Reference computations that share no code with toruscert.

Everything here is written from the definitions, so a fault in the engine's
search, face tracing, canonical keys or counting mode cannot also hide in the
check.  The module imports nothing from toruscert.
"""
from itertools import combinations

# Number of triangulations of the torus with n vertices, all of degree 6
# (OEIS A003051), for n = 1..8.
A003051 = (1, 1, 2, 3, 2, 3, 3, 5)

POLARIZED = "polarized"
NEUTRAL = "neutral"


# ---------------------------------------------------------------------------
# degree-6 torus triangulations as quotients of the triangular lattice


def _point_group():
    """The 12 symmetries of the triangular lattice, as integer matrices in
    the basis e1 = (1, 0), e2 = (1/2, sqrt(3)/2)."""
    rotate = ((0, -1), (1, 1))  # e1 -> e2, e2 -> e2 - e1
    reflect = ((1, 1), (0, -1))  # e1 -> e1, e2 -> e1 - e2

    def mul(p, q):
        return tuple(
            tuple(sum(p[i][k] * q[k][j] for k in range(2)) for j in range(2))
            for i in range(2)
        )

    group = {((1, 0), (0, 1))}
    frontier = list(group)
    while frontier:
        g = frontier.pop()
        for h in (rotate, reflect):
            gh = mul(g, h)
            if gh not in group:
                group.add(gh)
                frontier.append(gh)
    if len(group) != 12:
        raise AssertionError(f"point group has {len(group)} elements, not 12")
    return tuple(group)


def _apply(g, v):
    return (g[0][0] * v[0] + g[0][1] * v[1], g[1][0] * v[0] + g[1][1] * v[1])


def lattice_triangulation_count(n):
    """``A(n)``: index-``n`` sublattices of the triangular lattice up to its
    point group, i.e. degree-6 triangulations of the torus with ``n``
    vertices (Altshuler 1973; Negami 1983).

    A sublattice of index ``n`` has exactly one basis ``(a, 0), (b, d)`` with
    ``a * d = n`` and ``0 <= b < a`` (Hermite normal form).
    """
    forms = [(a, b, n // a) for a in range(1, n + 1) if n % a == 0 for b in range(a)]

    def contains(form, v):
        a, b, d = form
        x, y = v
        return y % d == 0 and (x - (y // d) * b) % a == 0

    seen = set()
    orbits = 0
    for form in forms:
        if form in seen:
            continue
        orbits += 1
        a, b, d = form
        for g in _point_group():
            u, w = _apply(g, (a, 0)), _apply(g, (b, d))
            # equal index, so containing both basis vectors means equality
            seen.update(f for f in forms if contains(f, u) and contains(f, w))
    return orbits


def lattice_counts():
    """``A(1..8)``, checked against OEIS A003051."""
    got = tuple(lattice_triangulation_count(n) for n in range(1, len(A003051) + 1))
    if got != A003051:
        raise AssertionError(f"lattice oracle gives {got}, OEIS A003051 is {A003051}")
    return got


def expected_configurations(s, t):
    """Decorated configurations entering the rule chain: ``A(s)`` graph
    classes, ``2^(s-1)`` parity and ``t^(s-1)`` offset choices (the first
    vertex is gauge fixed)."""
    return lattice_counts()[s - 1] * 2 ** (s - 1) * t ** (s - 1)


# ---------------------------------------------------------------------------
# rotation systems on the standard rotation


def _successor(degrees):
    """Dart -> next dart of the same vertex, cyclically; darts numbered
    vertex by vertex."""
    succ = []
    base = 0
    for d in degrees:
        succ.extend(base + (i + 1) % d for i in range(d))
        base += d
    return succ


def _vertex_of(degrees):
    return [v for v, d in enumerate(degrees) for _ in range(d)]


def trace_faces(degrees, matching):
    """Faces as orbits of ``x -> succ(matching(x))``; returns their sizes."""
    succ = _successor(degrees)
    seen = [False] * len(matching)
    sizes = []
    for x0 in range(len(matching)):
        size = 0
        x = x0
        while not seen[x]:
            seen[x] = True
            size += 1
            x = succ[matching[x]]
        if size:
            sizes.append(size)
    return sizes


def is_connected(degrees, matching):
    vertex = _vertex_of(degrees)
    parent = list(range(len(degrees)))

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for a, b in enumerate(matching):
        parent[find(vertex[a])] = find(vertex[b])
    return len({find(v) for v in range(len(degrees))}) == 1


def torus_class_facts(degrees, matching):
    """Problems with one reduced torus graph class, as a list of strings."""
    problems = []
    n = len(matching)
    if n != sum(degrees) or any(
        not 0 <= matching[a] < n or matching[a] == a or matching[matching[a]] != a
        for a in range(n)
    ):
        return ["matching is not a fixed-point-free involution"]
    faces = trace_faces(degrees, matching)
    if not is_connected(degrees, matching):
        problems.append("disconnected")
    if len(degrees) - n // 2 + len(faces) != 0:
        problems.append(f"V - E + F = {len(degrees) - n // 2 + len(faces)}")
    if min(faces) < 3:
        problems.append(f"face with {min(faces)} sides")
    regular_triangulation = all(d == 6 for d in degrees) and all(f == 3 for f in faces)
    if min(degrees) > 5 and not regular_triangulation:
        problems.append("no vertex of degree <= 5 and not a 6-regular triangulation")
    return problems


def degree_face_dichotomy_holds(degrees, matching):
    """(a) minimum degree >= 6 forces a 6-regular triangulation; (b) with no
    triangle face some vertex has degree <= 4."""
    faces = trace_faces(degrees, matching)
    part_a = min(degrees) < 6 or (
        all(d == 6 for d in degrees) and all(f == 3 for f in faces)
    )
    part_b = 3 in faces or min(degrees) <= 4
    return part_a and part_b


def isomorphic(g, h):
    """Whether two connected rotation systems ``(degrees, matching)`` are
    related by a dart bijection that commutes with the matchings and carries
    the rotation to the rotation or to its inverse (a reflection)."""
    (deg_g, m_g), (deg_h, m_h) = g, h
    n = len(m_g)
    if n != len(m_h) or sorted(deg_g) != sorted(deg_h):
        return False
    succ_g = _successor(deg_g)
    succ_h = _successor(deg_h)
    pred_h = [0] * n
    for x, y in enumerate(succ_h):
        pred_h[y] = x
    for rot_h in (succ_h, pred_h):
        for image in range(n):
            f = [-1] * n
            used = [False] * n
            f[0] = image
            used[image] = True
            stack = [0]
            ok = True
            while stack and ok:
                x = stack.pop()
                for step_g, step_h in ((succ_g, rot_h), (m_g, m_h)):
                    y, fy = step_g[x], step_h[f[x]]
                    if f[y] < 0:
                        if used[fy]:
                            ok = False
                            break
                        f[y] = fy
                        used[fy] = True
                        stack.append(y)
                    elif f[y] != fy:
                        ok = False
                        break
            if ok and all(v >= 0 for v in f):
                return True
    return False


def isomorphic_pairs(graphs):
    """Index pairs of isomorphic graphs among ``(degrees, matching)`` items."""
    buckets = {}
    for i, (degrees, matching) in enumerate(graphs):
        inv = (tuple(sorted(degrees)), tuple(sorted(trace_faces(degrees, matching))))
        buckets.setdefault(inv, []).append(i)
    return [
        (i, j)
        for idx in buckets.values()
        for i, j in combinations(idx, 2)
        if isomorphic(graphs[i], graphs[j])
    ]


# ---------------------------------------------------------------------------
# counting mode


def counting_bound(s, t, s_polarity=None, t_polarity=None):
    """Largest distance allowed by the degree-capacity inequalities.

    A polarized side with ``c`` circles gives ``c * delta <= 4 * (c + 1)``;
    two neutral sides give ``s * delta <= 4t + 4t``; two polarized sides
    are incompatible, and a single circle is always polarized.
    """

    def options(count, stated):
        if count == 1:
            return [POLARIZED]
        return [stated] if stated else [POLARIZED, NEUTRAL]

    best = 0
    for ps in options(s, s_polarity):
        for pt in options(t, t_polarity):
            if ps == pt == POLARIZED:
                continue
            if POLARIZED in (ps, pt):
                c = s if ps == POLARIZED else t
                allowed = [d for d in range(1, 64) if c * d <= 4 * (c + 1)]
            else:
                allowed = [d for d in range(1, 64) if s * d <= 4 * t + 4 * t]
            best = max(best, max(allowed))
    return best
