"""Case certification: emptiness, counting bounds, determinism, honesty."""
import dataclasses
import itertools
import json
import re
from collections import Counter
from typing import NamedTuple
from unittest import mock

import pytest

from toruscert import certifier
from toruscert.certifier import (
    CaseParams,
    Frame,
    certify_case,
    derive_delta_bound,
    describe,
    distance_forcing,
    make_config,
    sign_patterns,
)
from toruscert.embedded import expand_decorated, reduce_graph
from toruscert.enumeration import enumerate_reduced_torus_graphs
from toruscert.errors import InvariantViolation, ScaleLimit
from toruscert.fatgraph import FatGraph
from toruscert.params import NEUTRAL, POLARIZED
from toruscert.perms import InducedPermutation, induced_permutation


EMPTY_CASES = [(3, 3), (4, 4), (2, 4), (2, 6), (1, 3)]


@pytest.mark.parametrize("s,t", EMPTY_CASES)
def test_acceptance_cases_are_empty(s, t):
    cert = certify_case(CaseParams(s, t, 6))
    assert cert.mode == "enumeration"
    assert cert.survivors == 0
    assert cert.constraint_log


def test_two_boundary_branches_all_eliminate():
    for t in (4, 6):
        cert = certify_case(CaseParams(2, t, 6))
        log = {e["name"]: e for e in cert.constraint_log}
        for branch in (
            "connector-equals-loop-permutation",
            "connector-identity",
            "connector-generic-negative-size",
            "connector-generic-klein-regeneration",
        ):
            assert log[branch]["eliminated"] >= 1, branch


def test_one_boundary_case_cites_negative_size():
    cert = certify_case(CaseParams(1, 3, 6))
    log = {e["name"]: e for e in cert.constraint_log}
    assert log["negative-size-bound"]["eliminated"] >= 1


def test_whole_desk_grid_is_empty():
    for s in range(1, 5):
        for t in range(1, 7):
            if max(s, t) <= 2:
                continue
            cert = certify_case(CaseParams(s, t, 6))
            assert cert.survivors == 0, (s, t)


def test_roles_are_symmetric():
    swapped = certify_case(CaseParams(4, 2, 6))
    assert swapped.survivors == 0
    assert any("exchanged" in n for n in swapped.notes)


def test_stated_polarities_are_subsumed_by_enumeration():
    cert = certify_case(CaseParams(3, 3, 6, POLARIZED, None))
    assert cert.survivors == 0
    assert any("parity assignment" in n for n in cert.notes)


def certify_truncated(params, limit):
    """``certify_case(params)`` with the chain cut to its first ``limit`` rules."""
    real_build_chain = certifier.build_chain
    with mock.patch.object(certifier, "build_chain", lambda s: real_build_chain(s)[:limit]):
        return certify_case(params, workers=1)


def iter_configs(cls, t):
    """All decorated configurations of one graph class, gauge fixed, one at a
    time in enumeration order: the per-configuration reference of
    ``_enumerate_case``, which decides them in batches.

    The first vertex's parity and offset are pinned (+1 and 0): a global
    parity flip combined with a label reflection, and a global label shift,
    act freely on configurations without changing any sign or permutation
    structure.
    """
    graph = cls.graph()
    s = graph.num_vertices
    for rest_par in itertools.product((1, -1), repeat=s - 1):
        frame = Frame(graph, cls.key, (1,) + rest_par, t)
        for rest_off in itertools.product(range(t), repeat=s - 1):
            yield (frame, (0,) + rest_off)


def reference_payload(cert, chain):
    """The payload of ``cert`` with its rule counts, survivors and samples
    found again by running ``chain`` on one configuration at a time, first
    match wins; the params, notes and forcing entry are the certificate's."""
    payload = cert.payload()
    p = payload["params"]
    s, t = (p["s"], p["t"]) if p["t"] >= 3 else (p["t"], p["s"])
    eliminated = Counter()
    survivors = []
    for cls in enumerate_reduced_torus_graphs(s, degrees=(6,) * s):
        for config in iter_configs(cls, t):
            for rule in chain:
                if rule.fn(config):
                    eliminated[rule.name] += 1
                    break
            else:
                survivors.append(config)
    log = payload["constraint_log"][:1]
    applied = len(survivors) + sum(eliminated.values())
    for rule in chain:
        log.append({
            "name": rule.name, "anchor": rule.anchor,
            "applied": applied, "eliminated": eliminated[rule.name],
        })
        applied -= eliminated[rule.name]
    return dict(
        payload, constraint_log=log, survivors=len(survivors),
        survivor_samples=[describe(c) for c in survivors[:5]],
    )


def family_perm(family, t):
    """The permutation of one family of :func:`describe`, built from the
    shift it records: labels match by ``y = shift - sign * x`` (mod t), 0-based."""
    sign = family["sign"]
    return InducedPermutation(t, (family["shift"] + sign + 1) % t, sign)


def test_two_boundary_loop_permutations_are_conjugate():
    # the second loop's permutation is the connector conjugate of the first,
    # and equality with one loop forces equality with the other
    for t in (4, 6):
        cls, = enumerate_reduced_torus_graphs(2, degrees=(6, 6))
        graph = cls.graph()
        for parities in itertools.product((1,), (1, -1)):
            frame = Frame(graph, cls.key, parities, t)
            for offsets in itertools.product((0,), range(t)):
                families = describe(make_config(frame, offsets))["families"]
                loops = [f for f in families if f["ends"][0] == f["ends"][1]]
                conns = [f for f in families if f["ends"][0] != f["ends"][1]]
                assert len(loops) == 2 and len(conns) == 4
                assert len({(f["sign"], f["shift"]) for f in conns}) == 1
                sigma = family_perm(conns[0], t)
                s1, s2 = (family_perm(f, t) for f in loops)
                conj = tuple(
                    sigma.apply(s1.apply(sigma.inverse().apply(x)))
                    for x in range(1, t + 1)
                )
                assert conj == s2.mapping()
                assert (sigma.mapping() == s1.mapping()) == (
                    sigma.mapping() == s2.mapping()
                )


def test_distances_above_six_are_empty_by_forcing():
    for delta in (7, 8):
        cert = certify_case(CaseParams(3, 3, delta))
        assert cert.survivors == 0
        assert cert.constraint_log[0]["name"] == "distance-degree-size-forcing"
        assert cert.constraint_log[0]["eliminated"] == 1


def test_scale_limit_and_bad_modes():
    with pytest.raises(ScaleLimit):
        certify_case(CaseParams(9, 9, 6))
    with pytest.raises(ValueError):
        certify_case(CaseParams(3, 3, 5))


def test_counting_bounds():
    assert derive_delta_bound(CaseParams(2, 2, 6, POLARIZED, None)).delta_bound == 6
    assert derive_delta_bound(CaseParams(2, 2, 6, NEUTRAL, NEUTRAL)).delta_bound == 8
    assert derive_delta_bound(CaseParams(1, 2, 6)).delta_bound == 8
    assert derive_delta_bound(CaseParams(2, 1, 6)).delta_bound == 8
    # a single circle on both sides is impossible outright
    assert derive_delta_bound(CaseParams(1, 1, 6)).delta_bound == 0
    # unresolved polarities take the worst consistent case
    assert derive_delta_bound(CaseParams(2, 2, 6)).delta_bound == 8


def test_counting_mode_via_certify_auto():
    cert = certify_case(CaseParams(2, 2, 6, POLARIZED, None))
    assert cert.mode == "counting"
    assert cert.delta_bound == 6
    assert cert.survivors is None


def test_distance_forcing():
    forcing = distance_forcing(3, 6)
    assert forcing.applicable
    assert (forcing.delta, forcing.reduced_degree, forcing.family_size) == (6, 6, 3)
    contra = distance_forcing(3, 6, negative_family_size=4)
    assert contra.contradiction["lhs"] == 18
    assert contra.contradiction["rhs"] == 16
    assert not distance_forcing(2, 6).applicable
    # the forcing pins the distance, so a larger one is a contradiction
    assert distance_forcing(3, 7).contradiction["forced_delta"] == 6


def test_constraint_chain_is_monotone():
    # adding a rule never increases the survivor count
    base = None
    for limit in range(1, 12):
        cert = certify_truncated(CaseParams(4, 4, 6), limit)
        if base is not None:
            assert cert.survivors <= base
        base = cert.survivors
    assert base == 0


def test_truncated_chain_reports_survivors_honestly():
    cert = certify_truncated(CaseParams(4, 4, 6), 2)
    assert cert.survivors > 0
    assert cert.survivor_samples
    sample = cert.survivor_samples[0]
    assert {"graph", "parities", "offsets", "families"} <= set(sample)


DEFAULT_BATCH = certifier._BATCH
DESK_GRID = [(s, t) for s in range(1, 5) for t in range(1, 7) if max(s, t) > 2]


@pytest.mark.parametrize("s,t", DESK_GRID + [(s, 64) for s in (1, 2, 3)])
def test_batches_match_the_per_configuration_loop(monkeypatch, s, t):
    # each cut of the chain, from no rule to all of them, against the
    # reference; batches of 1 and 7 put survivors and eliminations on both
    # sides of a batch boundary
    monkeypatch.setenv("TORUSCERT_MAX_T", "64")
    params = CaseParams(s, t, 6)
    full = certifier.build_chain(s if t >= 3 else t)
    survivors = []
    for limit in range(len(full) + 1):
        want = reference_payload(certify_truncated(params, limit), full[:limit])
        survivors.append(want["survivors"])
        for batch in (1, 7, DEFAULT_BATCH):
            monkeypatch.setattr(certifier, "_BATCH", batch)
            assert certify_truncated(params, limit).payload() == want, (limit, batch)
    # with no rule every configuration survives, and the full chain leaves none
    assert survivors[0] > 0 and survivors[-1] == 0


@pytest.mark.parametrize("s,t", [(1, 3), (2, 4), (3, 4)])
def test_applied_counts_match_calls(monkeypatch, s, t):
    # every configuration is built once, and every rule runs once for each
    # configuration it is recorded as applied to: no verdict is broadcast
    calls = Counter()
    real_make_config, real_build_chain = certifier.make_config, certifier.build_chain

    def counted_make_config(*args):
        calls["make_config"] += 1
        return real_make_config(*args)

    def counted(name, fn):
        def rule_fn(config):
            calls[name] += 1
            return fn(config)

        return rule_fn

    def counted_build_chain(s):
        return [
            dataclasses.replace(rule, fn=counted(rule.name, rule.fn))
            for rule in real_build_chain(s)
        ]

    monkeypatch.setattr(certifier, "make_config", counted_make_config)
    monkeypatch.setattr(certifier, "build_chain", counted_build_chain)
    chain = certify_case(CaseParams(s, t, 6)).constraint_log[1:]
    assert chain[0]["applied"] > 0
    assert calls.pop("make_config") == chain[0]["applied"]
    assert dict(calls) == {e["name"]: e["applied"] for e in chain if e["applied"]}


def test_certificates_are_deterministic_across_runs():
    # a case searches one degree sequence, which never forks, so worker
    # counts are compared on the general sweep (test_enumeration)
    blobs = {certify_case(CaseParams(2, 4, 6)).to_json() for _ in range(2)}
    assert len(blobs) == 1


def test_certificate_json_schema():
    cert = certify_case(CaseParams(2, 4, 6))
    obj = json.loads(cert.to_json())
    assert obj["engine"]["name"] == "toruscert"
    assert obj["params"] == {
        "s": 2,
        "t": 4,
        "delta": 6,
        "s_polarity": None,
        "t_polarity": None,
    }
    assert obj["mode"] == "enumeration"
    assert obj["survivors"] == 0
    assert {"name", "anchor", "applied", "eliminated"} <= set(obj["constraint_log"][0])
    assert obj["elapsed_ms"] is None
    timed = json.loads(cert.to_json(timing=True))
    assert timed["elapsed_ms"] is not None


def test_decorated_model_matches_member_level_graphs():
    # the closed-form family permutations agree with those induced by the
    # label sequences of the expanded member-level graph
    for s, t in [(1, 3), (1, 4), (2, 4), (3, 3)]:
        for cls in enumerate_reduced_torus_graphs(s, degrees=(6,) * s):
            g = cls.graph()
            for parities in itertools.product((1, -1), repeat=s):
                if parities[0] != 1:
                    continue
                frame = Frame(g, cls.key, parities, t)
                for offsets in itertools.product(range(t), repeat=s):
                    if offsets[0] != 0:
                        continue
                    families = describe(make_config(frame, offsets))["families"]
                    red = reduce_graph(expand_decorated(g, t, parities, offsets))
                    assert red.graph.canonical_key() == cls.key
                    assert len(red.families) == len(families)
                    for fam, cf in zip(red.families, families):
                        assert fam.size == t
                        assert fam.sign == cf["sign"]
                        got = induced_permutation(fam, t)
                        want = family_perm(cf, t)
                        assert got.mapping() in (
                            want.mapping(),
                            want.inverse().mapping(),
                        )


def test_enumeration_survivors_never_exceed_counting_bounds():
    # the enumeration regime certifies emptiness everywhere it applies, so no
    # enumerated survivor can ever exceed a counting bound; make the overlap
    # explicit by checking both modes' outputs side by side
    for s, t in EMPTY_CASES:
        cert = certify_case(CaseParams(s, t, 6))
        assert cert.survivors == 0
    for s, t in [(1, 2), (2, 2)]:
        cert = derive_delta_bound(CaseParams(s, t, 6))
        assert cert.delta_bound <= 8


def _perfect_matchings(rest):
    if not rest:
        yield ()
        return
    a = rest[0]
    for b in rest[1:]:
        for sub in _perfect_matchings([x for x in rest if x not in (a, b)]):
            yield ((a, b),) + sub


def reference_views(config, cls):
    """The offset-free views of one configuration, read from its reference
    families and, for the sign patterns, from the rotation system of its
    class, as ``(types, patterns, loops, loop_counts, pair_cover,
    exact_pair_cover)``."""
    families = eager_make_config(*config).families
    parities = config[0].parities
    s = len(parities)
    pos, neg, loop_counts = [0] * s, [0] * s, [0] * s
    joins = Counter()
    for f in families:
        tally = pos if f.sign == 1 else neg
        if f.is_loop:
            tally[f.u] += 2
            loop_counts[f.u] += 1
        else:
            tally[f.u] += 1
            tally[f.v] += 1
            joins[frozenset((f.u, f.v))] += 1
    # dart d lies on the edge numbered by the rank of its lower dart
    matching = cls.matching
    lower = [d for d, e in enumerate(matching) if d < e]
    edge_of = [lower.index(min(d, e)) for d, e in enumerate(matching)]
    patterns = []
    start = 0
    for deg in cls.degrees:
        seq = [families[edge_of[d]].sign for d in range(start, start + deg)]
        patterns.append(min(
            tuple(base[i:] + base[:i]) for base in (seq, seq[::-1]) for i in range(deg)
        ))
        start += deg

    def cover(ok):
        # the least perfect matching into opposite-parity pairs passing ok
        if s % 2:
            return None
        found = [
            pairs for pairs in _perfect_matchings(list(range(s)))
            if all(parities[a] != parities[b] and ok(joins[frozenset((a, b))])
                   for a, b in pairs)
        ]
        return min(found, default=None)

    return (
        tuple(zip(pos, neg)),
        tuple(patterns),
        {f.u for f in families if f.is_loop},
        tuple(loop_counts),
        cover(lambda c: c >= 2),
        cover(lambda c: c == 2),
    )


def _assert_frames_agree(classes, t):
    # every stored view equals the reference read from the configuration's
    # families, and every family the configuration describes equals its
    # closed form
    for cls in classes:
        s = len(cls.degrees)
        ends = cls.graph().edge_ends()
        seen = 0
        for config in iter_configs(cls, t):
            seen += 1
            frame, o = config
            assert (
                frame.types, sign_patterns(frame), frame.loops, frame.loop_counts,
                frame.pair_cover, frame.exact_pair_cover,
            ) == reference_views(config, cls)
            families = describe(config)["families"]
            signs = [f["sign"] for f in families]
            assert frame.all_positive == all(x == 1 for x in signs)
            assert frame.mixed_types == (len(set(frame.types)) > 1)
            assert frame.mixed_patterns == (len(set(sign_patterns(frame))) > 1)
            p = frame.parities
            assert frame.positive == tuple(
                (u, v, -p[v]) for i, (u, v) in enumerate(ends) if signs[i] == 1
            )
            assert frame.positive_links == tuple(
                (u, v) for i, (u, v) in enumerate(ends) if signs[i] == 1 and u != v
            )
            assert frame.negative == tuple(
                (u, v, -p[v]) for i, (u, v) in enumerate(ends) if signs[i] == -1
            )
            want = [
                {
                    "edge": i,
                    "ends": [u, v],
                    "sign": p[u] * p[v],
                    "shift": (o[v] - p[v] + p[u] * p[v] * o[u]) % t,
                }
                for i, (u, v) in enumerate(ends)
            ]
            assert families == want
        assert seen == 2 ** (s - 1) * t ** (s - 1)


@pytest.mark.parametrize("s,t", [(1, 3), (2, 4), (3, 4), (4, 4)])
def test_frames_agree_with_views_and_closed_form(s, t):
    # at s = 2 the two pair covers differ, as four edges join the two vertices
    _assert_frames_agree(enumerate_reduced_torus_graphs(s, degrees=(6,) * s), t)


def test_frames_agree_on_sparse_graphs():
    # at degree 6 and s = 4, two distinct vertices are joined by two edges or
    # none, so the pair cover reads the same at "at least one"; every graph
    # with four vertices and five edges joins some pair by one edge
    _assert_frames_agree(enumerate_reduced_torus_graphs(4, max_edges=5), 3)


def test_positive_identity_closed_form():
    # the identity test of connector-identity against brute force
    for t in range(1, 9):
        for shift in range(-t, 2 * t):
            for sign in (1, -1):
                brute = all((shift - sign * x) % t == x for x in range(t))
                assert certifier.induces_identity(sign, shift, t) == brute, (t, shift, sign)


@pytest.mark.parametrize("break_edges", [
    lambda edges: edges[:-1],
    lambda edges: edges[1:] + ((0, 1) + edges[0][2:],),
], ids=["one-loop-two-vertex-standard-form", "five-connectors-two-vertex-standard-form"])
def test_two_vertex_rules_check_the_standard_form(break_edges):
    # the chain's first rule reads the loop count off the frame's edges and
    # refuses a frame that breaks the form; the later rules rely on it
    rule = certifier.build_chain(2)[0]
    classes = enumerate_reduced_torus_graphs(2, degrees=(6, 6))
    config = next(iter_configs(classes[0], 4))
    assert rule.fn(config) is False  # the frame as built passes
    frame = config[0]
    frame.edges = break_edges(frame.edges)
    with pytest.raises(InvariantViolation, match="two-vertex standard form expected"):
        rule.fn(config)


@pytest.mark.parametrize("matching,message", [
    ((2, 6, 0, 7, 9, 10, 1, 3, 11, 4, 5, 8), "one antipodal loop at each vertex expected"),
    ((3, 6, 7, 0, 9, 11, 1, 2, 10, 4, 8, 5), "one antipodal loop at each vertex expected"),
    ((1, 0, 3, 2, 6, 7, 4, 5, 9, 8, 11, 10), "two-vertex standard form expected"),
], ids=["vertex-0-loop-off-antipode", "vertex-1-loop-off-antipode", "two-loops-at-a-vertex"])
def test_two_vertex_standard_form_checks_the_graph(matching, message):
    # the catalog's one (6,6) class has darts 0, 3 and 8, 11 joined by
    # loops; the rule passes it and refuses a graph with another form
    rule = certifier.build_chain(2)[0]
    assert rule.name == "two-vertex-standard-form"
    cls, = enumerate_reduced_torus_graphs(2, degrees=(6, 6))
    assert cls.matching == (3, 6, 7, 0, 9, 10, 1, 2, 11, 4, 5, 8)
    for config in iter_configs(cls, 4):
        assert rule.fn(config) is False
    graph = FatGraph((6, 6), matching)
    for parities in ((1, 1), (1, -1)):
        config = make_config(Frame(graph, b"", parities, 4), (0, 1))
        with pytest.raises(InvariantViolation, match=re.escape(message)):
            rule.fn(config)


@pytest.mark.parametrize("s,t", [(1, 3), (2, 4), (3, 3), (4, 4)])
def test_empty_catalog_is_an_invariant_violation(monkeypatch, s, t):
    # with no class no rule runs, so the certificate would assert emptiness
    # with every rule applied 0 times
    monkeypatch.setattr(certifier, "enumerate_reduced_torus_graphs", lambda *a, **k: ())
    with pytest.raises(InvariantViolation, match=f"no degree-6 torus graph with {s} vertices"):
        certify_case(CaseParams(s, t, 6))


def test_one_vertex_rule_checks_the_form():
    classes = enumerate_reduced_torus_graphs(1, degrees=(6,))
    rule, = certifier.build_chain(1)
    config = next(iter_configs(classes[0], 3))
    assert rule.fn(config) is True
    frame = config[0]
    frame.edges = frame.edges[:2]
    with pytest.raises(InvariantViolation, match="one-vertex form expected"):
        rule.fn(config)


# -- decoration on demand against the eager reference ------------------------


class Family(NamedTuple):
    """One reduced edge of a configuration with its shift: member labels
    match by ``y = shift - sign * x`` (mod t).  ``index`` shadows
    ``tuple.index``."""

    index: int
    u: int
    v: int
    sign: int
    shift: int
    is_loop: bool


class EagerConfig(NamedTuple):
    """The configuration record with every family looked up when it is made,
    as :func:`eager_make_config` builds it."""

    frame: Frame
    offsets: tuple
    families: tuple

    def describe(self):
        frame = self.frame
        return {
            "graph": frame.graph_key.hex(),
            "parities": list(frame.parities),
            "offsets": list(self.offsets),
            "families": [
                {"edge": f.index, "ends": [f.u, f.v], "sign": f.sign, "shift": f.shift}
                for f in self.families
            ],
        }


def eager_make_config(frame, offsets):
    # the families from the graph's edge ends and the parities alone
    t, p, o = frame.t, frame.parities, offsets
    families = tuple(
        Family(i, u, v, p[u] * p[v], (o[v] - p[v] + p[u] * p[v] * o[u]) % t, u == v)
        for i, (u, v) in enumerate(frame.graph.edge_ends())
    )
    return EagerConfig(frame, tuple(offsets), families)


def _has_fixed_point(f, t):
    # by brute force: some member label x with x = shift - sign * x (mod t)
    return any((f.shift - f.sign * x) % t == x for x in range(t))


def eager_positive_fixed_point(config):
    # the rule read from the families
    t = config.frame.t
    return any(f.sign == 1 and _has_fixed_point(f, t) for f in config.families)


def eager_partner_has_loops(config):
    return any(f.sign == -1 and _has_fixed_point(f, config.frame.t) for f in config.families)


def _is_identity(f, t):
    # by brute force: every member label x with x = shift - sign * x (mod t)
    return all((f.shift - f.sign * x) % t == x for x in range(t))


def _perm_of(f, config):
    t = config.frame.t
    return tuple((f.shift - f.sign * x) % t for x in range(t))


def _eager_connector_split(config):
    loops = [f for f in config.families if f.is_loop]
    conns = [f for f in config.families if not f.is_loop]
    if len(loops) != 2 or len(conns) != 4:
        raise InvariantViolation("two-vertex standard form expected")
    if len({(f.sign, f.shift) for f in conns}) != 1:
        raise InvariantViolation("connecting families must induce one permutation")
    return loops, conns[0]


def eager_connector_equals_loop(config):
    loops, conn = _eager_connector_split(config)
    return conn.sign == 1 and any(_perm_of(conn, config) == _perm_of(lp, config) for lp in loops)


def eager_connector_identity(config):
    _, conn = _eager_connector_split(config)
    return _is_identity(conn, config.frame.t)


def eager_connector_generic_positive(config):
    _, conn = _eager_connector_split(config)
    return conn.sign == 1


def eager_connector_generic_klein(config):
    _, conn = _eager_connector_split(config)
    return conn.sign == -1


def eager_one_vertex_neg_size(config):
    families = config.families
    loops = [f for f in families if f.is_loop]
    if len(loops) != 3 or len(families) != 3:
        raise InvariantViolation("one-vertex form expected")
    if len({_perm_of(f, config) for f in loops}) != 1:
        raise InvariantViolation("the three loop families must induce one permutation")
    return True


# the reference of every rule that reads shifts, or whose form check on
# the frame stands for a check on the shifts, read from the families
EAGER_RULES = {
    certifier._r_positive_fixed_point: eager_positive_fixed_point,
    certifier._r_connector_equals_loop: eager_connector_equals_loop,
    certifier._r_connector_identity: eager_connector_identity,
    certifier._r_connector_generic_positive: eager_connector_generic_positive,
    certifier._r_connector_generic_klein: eager_connector_generic_klein,
    certifier._r_one_vertex_neg_size: eager_one_vertex_neg_size,
}


def _outcome(fn, config):
    try:
        return fn(config)
    except InvariantViolation as exc:
        return ("raises", str(exc))


EAGER_CASES = [(s, t) for s in (1, 2, 3) for t in (3, 4, 5, 6)] + [(4, 4), (4, 5)]


@pytest.mark.parametrize("s,t", EAGER_CASES)
def test_decoration_on_demand_matches_eager_reference(monkeypatch, s, t):
    # every rule is run on every configuration, not only on those the chain
    # passes to it, and returns exactly True or False, the same verdict it
    # returns on the eager record, where the fixed points, the partner loops
    # and the permutations the small chains compare are found by brute force
    # over the families; odd t is included, as the inline rule 2 branches on
    # t % 2
    classes = enumerate_reduced_torus_graphs(s, degrees=(6,) * s)
    chain = certifier.build_chain(s)
    configs = [c for cls in classes for c in iter_configs(cls, t)]
    eager = [eager_make_config(*c) for c in configs]
    got = [[_outcome(rule.fn, c) for rule in chain] for c in configs]
    assert all(verdict is True or verdict is False for row in got for verdict in row)
    for config, ref in zip(configs, eager):
        assert describe(config) == ref.describe()
    monkeypatch.setattr(certifier, "partner_has_loops", eager_partner_has_loops)
    want = [
        [_outcome(EAGER_RULES.get(rule.fn, rule.fn), c) for rule in chain]
        for c in eager
    ]
    assert got == want


@pytest.mark.parametrize("s,t", [(1, 3), (2, 4), (3, 4), (3, 5), (4, 4)])
def test_frame_rules_ignore_offsets(s, t):
    # a frame rule gives one verdict per frame: the one it gives with no
    # offsets at all, at every offset vector
    classes = enumerate_reduced_torus_graphs(s, degrees=(6,) * s)
    chain = certifier.build_chain(s)
    assert {rule.stage for rule in chain} <= {"frame", "offsets"}
    rules = [rule for rule in chain if rule.stage == "frame"]
    for cls in classes:
        for frame, group in itertools.groupby(iter_configs(cls, t), lambda c: c[0]):
            group = list(group)
            assert len(group) == t ** (s - 1)
            for rule in rules:
                verdict = rule.fn(make_config(frame, None))
                assert all(rule.fn(c) == verdict for c in group), rule.name
