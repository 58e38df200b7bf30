"""Induced permutations and orbit decompositions."""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toruscert.embedded import reduce_graph
from toruscert.errors import FamilyTooSmall
from toruscert.perms import (
    InducedPermutation,
    induced_permutation,
    orbit_count,
)
from tests.test_embedded import triple_loop_graph, two_vertex_graph


def inverse(p):
    """The permutation induced after reversing the family orientation."""
    if p.epsilon == 1:
        return p
    return InducedPermutation(p.modulus, (-p.alpha) % p.modulus, -1)


def edge_components(family):
    """Components of the subgraph a family's edges span among partner labels.

    Each member edge joins the labels at its two ends; returns a tuple of
    ``(vertices, edges)`` pairs, vertices sorted, in order of least vertex.
    """
    edges = tuple(zip(family.label_seq_a, family.label_seq_b))
    parts = {}
    for x, y in edges:
        merged = parts.get(x, frozenset([x])) | parts.get(y, frozenset([y]))
        parts.update(dict.fromkeys(merged, merged))
    return tuple(
        (tuple(sorted(c)), tuple(e for e in edges if e[0] in c))
        for c in sorted(set(parts.values()), key=min)
    )


def brute_orbits(p):
    """Independent cycle extraction used as the oracle."""
    n = p.modulus
    seen = set()
    orbits = []
    for x in range(1, n + 1):
        if x in seen:
            continue
        orbit = []
        y = x
        while y not in seen:
            seen.add(y)
            orbit.append(y)
            y = p.apply(y)
        orbits.append(tuple(orbit))
    return orbits


def test_triple_loop_families_induce_one_less_x():
    # all three loop families of the one-vertex form induce x -> 1 - x
    for t in (3, 4, 5, 6):
        red = reduce_graph(triple_loop_graph(t))
        perms = {induced_permutation(f, t).mapping() for f in red.families}
        expected = tuple((1 - x) % t or t for x in range(1, t + 1))
        assert perms == {expected}


def test_negative_zero_shift_is_identity_and_flagged():
    p = InducedPermutation(modulus=5, alpha=0, epsilon=-1)
    assert p.is_identity()
    assert p.fixed_points() == (1, 2, 3, 4, 5)


def test_involution_example_n4():
    p = InducedPermutation(4, 1, 1)
    assert p.mapping() == (4, 3, 2, 1)
    assert orbit_count(p).orbits == ((1, 4), (2, 3))


def test_translation_orbit_counts():
    assert orbit_count(InducedPermutation(6, 1, -1)).count == 1
    assert orbit_count(InducedPermutation(6, 4, -1)).count == 2


def test_orbit_formulas_match_brute_force_everywhere():
    for n in range(1, 25):
        for alpha in range(n):
            for eps in (1, -1):
                p = InducedPermutation(n, alpha, eps)
                dec = orbit_count(p)
                assert dec.count == len(brute_orbits(p))
                if eps == -1:
                    assert dec.count == math.gcd(n, alpha)
                elif not p.fixed_points() and n % 2 == 0:
                    assert dec.count == n // 2


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 24), alpha=st.integers(0, 23))
def test_positive_families_are_involutions(n, alpha):
    p = InducedPermutation(n, alpha % n, 1)
    assert all(p.apply(p.apply(x)) == x for x in range(1, n + 1))


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 24), alpha=st.integers(0, 23))
def test_reversal_inverts(n, alpha):
    p = InducedPermutation(n, alpha % n, -1)
    q = inverse(p)
    for x in range(1, n + 1):
        assert q.apply(p.apply(x)) == x


@settings(max_examples=40, deadline=None)
@given(t=st.sampled_from([4, 6, 8]), alpha=st.integers(0, 7))
def test_positive_family_pairs_opposite_label_parity(t, alpha):
    # with alternating partner parities, a fixed-point-free involution pairs
    # labels of opposite parity classes
    alpha = alpha % t
    p = InducedPermutation(t, alpha, 1)
    if alpha % 2 == 1:
        assert not p.fixed_points()
        for x in range(1, t + 1):
            assert (p.apply(x) - x) % 2 == 1
    else:
        assert p.fixed_points()


def test_induced_permutation_from_families():
    t = 4
    red = reduce_graph(two_vertex_graph(t))
    for fam in red.families:
        p = induced_permutation(fam, t)
        assert p.epsilon == fam.sign
        for x, y in zip(fam.label_seq_a, fam.label_seq_b):
            assert p.apply(x) == y


def test_family_too_small():
    t = 4
    red = reduce_graph(triple_loop_graph(t))
    fam = red.families[0]
    with pytest.raises(FamilyTooSmall):
        induced_permutation(fam, t + 1)


def test_orbit_subgraph_two_cycles():
    # the edge components of a full-size family in its partner graph are the
    # orbits of its induced permutation; a positive family of even size t
    # with no fixed point makes t/2 disjoint 2-cycles
    t = 6
    two_cycles = 0
    for g in (triple_loop_graph(t, offsets=(1,)), two_vertex_graph(t, (1, -1))):
        for fam in reduce_graph(g).families:
            comps = edge_components(fam)
            p = induced_permutation(fam, t)
            orbits = orbit_count(p).orbits
            assert {frozenset(v) for v, _ in comps} == {
                frozenset(o) for o in orbits
            }
            if fam.sign == 1 and not p.fixed_points():
                assert sorted(map(len, orbits)) == [2] * (t // 2)
                assert all(len(v) == 2 and len(e) == 2 for v, e in comps)
                two_cycles += 1
    assert two_cycles


def test_orbit_subgraph_single_cycle_and_single_edge():
    class Translation:
        # a negative family of size 6 matching x -> x + 1, one 6-cycle
        size = 6
        sign = -1
        label_seq_a = (1, 2, 3, 4, 5, 6)
        label_seq_b = (2, 3, 4, 5, 6, 1)

    p = induced_permutation(Translation(), 6)
    assert orbit_count(p).count == 1
    assert len(edge_components(Translation())) == 1

    class Fake:
        size = 1
        sign = 1
        label_seq_a = (2,)
        label_seq_b = (5,)

    assert edge_components(Fake()) == (((2, 5), ((2, 5),)),)
