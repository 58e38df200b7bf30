"""The pruning predicate library."""
import pytest

from toruscert.constraints import (
    check_jn1,
    check_no_double_parallel,
    check_parity_rule,
    detect_s_cycles,
    check_reduced_torus_degrees,
    negative_size_bound,
    polarization_consequences,
    positive_size_bound,
)
from toruscert.embedded import build_graph, reduce_graph
from toruscert.errors import NotCellular, WrongDelta
from tests.test_embedded import triple_loop_graph
from tests.test_fatgraph import from_vertex_cycles


def test_parity_rule_basic():
    assert check_parity_rule(1, -1)
    assert check_parity_rule(-1, 1)
    assert not check_parity_rule(1, 1)
    # loop edges are positive on an orientable side, so a pairing claiming
    # positive on both sides must be rejected
    v = check_parity_rule(1, 1)
    assert v.witness == {"sign_in_s": 1, "sign_in_t": 1}


def test_no_double_parallel():
    assert check_no_double_parallel([(0, 0)])
    assert check_no_double_parallel([(0, 0), (0, 1), (1, 0)])
    v = check_no_double_parallel([(0, 0), (0, 0)])
    assert not v
    assert v.witness["edges"] == (0, 1)


def test_double_parallel_reproduces_the_positive_cap():
    # a hypothetical positive family of size t+1: the extra member lies in
    # the annulus between two orbit 2-cycles, parallel in the partner to the
    # first member, so the pairing repeats (family 0, partner family 0)
    t = 4
    pairing = [(0, k) for k in range(t)] + [(0, 0)]
    v = check_no_double_parallel(pairing)
    assert not v
    assert v.witness["edges"] == (0, t)


def test_positive_size_bound_examples():
    rule = positive_size_bound(4)
    assert rule.bound == 4
    assert rule.check(4, alpha=1)
    assert not rule.check(5)
    assert not positive_size_bound(5).check(5)
    # at the cap an even shift means fixed points
    assert not rule.check(4, alpha=2)
    # partner structure clause
    assert not rule.check(4, alpha=1, partner_positive_nonloop_degrees=[3, 3, 3, 3])
    assert rule.check(4, alpha=1, partner_positive_nonloop_degrees=[3, 2, 3, 3])


def test_negative_size_bound_examples():
    rule = negative_size_bound(2)
    assert rule.bound == 3
    assert rule.check(3)
    assert not rule.check(4)
    routed = negative_size_bound(2, allow_exceptional=True).check(4)
    assert not routed
    assert routed.witness["exceptional_route"]
    assert routed.witness["admissible_distances"] == [4, 2, 1]
    # at an admissible exceptional distance the routed check passes
    assert negative_size_bound(2, allow_exceptional=True).check(4, delta=2)
    assert not negative_size_bound(2, allow_exceptional=True).check(4, delta=6)
    assert negative_size_bound(1).check(2)


def test_size_bounds_monotone_in_t():
    for t in range(3, 10):
        assert positive_size_bound(t).bound <= positive_size_bound(t + 1).bound
    for t in range(1, 10):
        assert negative_size_bound(t).bound <= negative_size_bound(t + 1).bound


def test_polarization_consequences():
    assert not polarization_consequences(6, 7, 4)  # gcd 2: two orbits
    assert polarization_consequences(6, 7, 1)
    assert polarization_consequences(1, 2, 0)  # single label, vacuous
    assert not polarization_consequences(4, 5, 1, partner_polarized=False)
    assert not polarization_consequences(4, 5, 1, face_sizes=[4, 3, 4])
    assert polarization_consequences(4, 5, 1, face_sizes=[4, 4, 6])
    with pytest.raises(ValueError):
        polarization_consequences(4, 3, 1)


@pytest.mark.parametrize("t", [0, -2])
def test_polarization_consequences_rejects_bad_partner_count(t):
    with pytest.raises(ValueError, match="partner count"):
        polarization_consequences(t, 1, 0)


def test_detect_s_cycles_consecutive_labels():
    # positive loop family of size t: members j, j+1 swap exactly when the
    # involution pairs them, giving bigons of type {j, j+1}
    t = 4
    g = triple_loop_graph(t, offsets=(1,))
    found = detect_s_cycles(g)
    assert found, "expected at least one S-cycle face"
    for _, (a, b) in found:
        assert (b - a) % t == 1


def test_no_s_cycle_for_gap_two_labels():
    # with an even shift the involution pairs {j, j+2}: no S-cycle type
    t = 6
    g = triple_loop_graph(t, offsets=(0,))
    for _, (a, b) in detect_s_cycles(g):
        assert (b - a) % t == 1


def test_three_s_cycles_in_size_four_family_over_two_labels():
    base = from_vertex_cycles(
        [["a", "b", "c", "a", "d", "e"], ["b", "c", "f", "d", "e", "f"]]
    )
    expanded, _ = base.expand_edges(4)
    deg = 24
    specs = []
    for a, b in expanded.edge_darts():
        va, vb = expanded.vertex_of(a), expanded.vertex_of(b)
        sa, sb = a - va * deg, b - vb * deg
        specs.append(((va, sa, sa % 2 + 1), (vb, sb, sb % 2 + 1)))
    g = build_graph([1, 1], specs, delta=12, n_opposite=2)
    red = reduce_graph(g)
    assert all(f.size == 4 for f in red.families)
    _, members = g.fat.amalgamate_parallel()
    family_of = {e: i for i, mem in members.items() for e in mem}
    edge_of = g.fat.edge_index_of_dart()
    per_family = {i: 0 for i in members}
    for fi, pair in detect_s_cycles(g):
        assert pair in ((1, 2), (2, 1))
        face = g.fat.faces()[fi]
        fams = {family_of[edge_of[d]] for d in face}
        assert len(fams) == 1
        per_family[fams.pop()] += 1
    # every positive size-4 family over 2 labels cobounds three S-cycles
    assert per_family and all(v == 3 for v in per_family.values())


def test_jn1_examples():
    order = ["x1", "x2", "x3", "x4", "x5", "x6"]
    assert check_jn1(order, order)
    assert check_jn1(order, list(reversed(order)))
    assert check_jn1(order, order[2:] + order[:2])
    scrambled = ["x1", "x3", "x2", "x4", "x5", "x6"]
    assert not check_jn1(order, scrambled)
    with pytest.raises(WrongDelta):
        check_jn1(order[:5], order[:5], delta=5)


def test_degree_face_dichotomy_on_small_graphs():
    tri = from_vertex_cycles([["a", "b", "c", "a", "b", "c"]])
    assert check_reduced_torus_degrees(tri)
    square = from_vertex_cycles([["a", "b", "a", "b"]])
    assert check_reduced_torus_degrees(square)
    sphere = from_vertex_cycles([["a", "a"]])
    with pytest.raises(NotCellular):
        check_reduced_torus_degrees(sphere)
