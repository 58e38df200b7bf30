"""Permutations induced by parallel-edge families, and their orbits.

A family of ``n`` parallel consecutive edges matches each endpoint label at
one end with a label at the other end; the matching is always of the affine
form ``sigma(x) = alpha - epsilon * x  (mod n)`` where ``epsilon`` is the
common sign of the family's edges.  Labels are 1-based with the usual
normalization ``0 -> n``; ``alpha`` is stored in ``0..n-1``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from toruscert.errors import FamilyTooSmall, InvariantViolation


@dataclass(frozen=True)
class InducedPermutation:
    """The label matching ``x -> alpha - epsilon*x`` (mod ``modulus``).

    >>> p = InducedPermutation(modulus=4, alpha=1, epsilon=1)
    >>> p.mapping()
    (4, 3, 2, 1)
    >>> p.orbits()
    ((1, 4), (2, 3))
    """

    modulus: int
    alpha: int
    epsilon: int

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError("modulus must be >= 1")
        if self.epsilon not in (1, -1):
            raise ValueError("epsilon must be +1 or -1")
        if not 0 <= self.alpha < self.modulus:
            raise ValueError("alpha must be reduced to 0..modulus-1")

    def apply(self, x):
        y = (self.alpha - self.epsilon * x) % self.modulus
        return y if y else self.modulus

    def mapping(self):
        return tuple(self.apply(x) for x in range(1, self.modulus + 1))

    def is_identity(self):
        return all(self.apply(x) == x for x in range(1, self.modulus + 1))

    def fixed_points(self):
        return tuple(x for x in range(1, self.modulus + 1) if self.apply(x) == x)

    def is_involution(self):
        return all(self.apply(self.apply(x)) == x for x in range(1, self.modulus + 1))

    def inverse(self):
        """The permutation induced after reversing the family orientation."""
        if self.epsilon == 1:
            return self
        return InducedPermutation(self.modulus, (-self.alpha) % self.modulus, -1)

    def orbits(self):
        return orbit_count(self).orbits


@dataclass(frozen=True)
class OrbitDecomposition:
    orbits: tuple
    count: int


def induced_permutation(family, n) -> InducedPermutation:
    """The permutation induced by a :class:`ParallelFamily` on labels 1..n.

    Requires ``family.size >= n``; smaller families only induce a partial
    matching and raise :class:`FamilyTooSmall`.  The affine form is
    validated against every member, which also checks that all size-n
    subfamilies agree.
    """
    if family.size < n:
        raise FamilyTooSmall(
            f"family of size {family.size} cannot induce a permutation mod {n}"
        )
    eps = family.sign
    pairs = list(zip(family.label_seq_a, family.label_seq_b))
    x0, y0 = pairs[0]
    alpha = (y0 + eps * x0) % n
    perm = InducedPermutation(n, alpha, eps)
    for x, y in pairs:
        if perm.apply(x) != y:
            raise ValueError(
                f"family label sequences are not an affine matching mod {n}"
            )
    return perm


def orbit_count(p: InducedPermutation) -> OrbitDecomposition:
    """Orbit decomposition by direct cycle extraction, cross-checked against
    the closed forms: ``gcd(n, alpha)`` orbits for a translation
    (``epsilon = -1``) and ``n/2`` orbits for a fixed-point-free involution
    on even ``n``.

    >>> orbit_count(InducedPermutation(6, 4, -1)).count
    2
    """
    n = p.modulus
    seen = [False] * (n + 1)
    orbits = []
    for x0 in range(1, n + 1):
        if seen[x0]:
            continue
        orbit = []
        x = x0
        while not seen[x]:
            seen[x] = True
            orbit.append(x)
            x = p.apply(x)
        orbits.append(tuple(orbit))
    count = len(orbits)
    if p.epsilon == -1:
        expected = math.gcd(n, p.alpha)
        if count != expected:
            raise InvariantViolation(
                f"orbit formula gcd({n},{p.alpha})={expected} != extracted {count}"
            )
    elif not p.fixed_points() and n % 2 == 0:
        if count != n // 2:
            raise InvariantViolation(
                f"involution orbit formula {n}//2 != extracted {count}"
            )
    return OrbitDecomposition(orbits=tuple(orbits), count=count)


@dataclass(frozen=True)
class OrbitComponent:
    vertices: tuple
    edges: tuple


@dataclass(frozen=True)
class OrbitSubgraph:
    """The subgraph generated in the partner graph by a family's edges.

    Vertices are partner labels; each member edge of the family joins the
    labels at its two ends.  The connected components are the edge orbits;
    when the family has at least ``n`` members their label sets coincide with
    the orbits of the induced permutation.
    """

    components: tuple

    @property
    def count(self):
        return len(self.components)

    def is_disjoint_two_cycles(self):
        return all(
            len(c.vertices) == 2 and len(c.edges) == 2 for c in self.components
        )


def edge_orbit_subgraph(family, n) -> OrbitSubgraph:
    """Edge-orbit components of a family in its partner graph (by labels)."""
    edges = list(zip(family.label_seq_a, family.label_seq_b))
    adj = {}
    for x, y in edges:
        adj.setdefault(x, set()).add(y)
        adj.setdefault(y, set()).add(x)
    seen = set()
    comps = []
    for start in sorted(adj):
        if start in seen:
            continue
        stack = [start]
        verts = set()
        while stack:
            v = stack.pop()
            if v in verts:
                continue
            verts.add(v)
            stack.extend(adj[v] - verts)
        seen |= verts
        comp_edges = tuple(
            (x, y) for x, y in edges if x in verts
        )
        comps.append(OrbitComponent(vertices=tuple(sorted(verts)), edges=comp_edges))
    if family.size >= n:
        perm = induced_permutation(family, n)
        orbit_sets = {frozenset(o) for o in orbit_count(perm).orbits}
        comp_sets = {frozenset(c.vertices) for c in comps}
        if orbit_sets != comp_sets:
            raise InvariantViolation("edge orbits disagree with permutation orbits")
    return OrbitSubgraph(components=tuple(comps))
