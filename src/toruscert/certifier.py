"""Exhaustive case certification.

A certificate is a function of its case ``(s, t, delta)`` alone.  Cases
with ``s, t <= 2`` are settled in counting mode, by degree-capacity
inequalities.  Every other case is settled in enumeration mode, on the side
whose partner count is at least 3: the distance forcing there pins
``delta = 6``, degree 6 at every vertex and full-size families, so the
engine enumerates every candidate configuration, which is a canonical
cellular reduced torus graph with degree 6 everywhere, a parity class per
vertex and a label offset per vertex.  The label structure of the full graph
is an arithmetic progression around each vertex, so a configuration
determines the induced permutation of every family in closed form.  The
rule chain is chosen by ``s`` alone (one vertex, two vertices, or more), and
its rules read only the configuration.  Each rule is a predicate: it returns
``True`` when it eliminates the configuration and ``False`` when it passes it
on, and the certificate records per-rule application and elimination counts.
The one- and two-vertex chains check their standard form once, in their
first rule, and their later rules rely on the chain order.  An empty
catalog, or a frame outside its standard form, is an engine fault and raises
:class:`InvariantViolation` instead.

Decoration is staged by what the offsets leave unchanged.  A :class:`Frame`
is built once per class and parity vector, before the offsets vary.  It
holds its graph, every edge's ends, sign and the offset-free part of its
shift, and the derived views the rules read (vertex types, whether the sign
patterns differ, loops, opposite-parity pair covers), which are computed
from those edges alone.  A configuration is the plain pair ``(frame,
offsets)`` that :func:`make_config` returns, and :func:`describe` reports
one as a survivor sample.  Each rule declares whether it reads the
``frame`` alone or the ``offsets`` too, and the offset rules compute from
the frame's edges only the shifts they read.

The configurations of a frame are decided in batches of at most
``_BATCH``, in enumeration order: each rule in chain order keeps the part
of the batch it does not eliminate, so first match wins, survivors keep
their order, and each rule still runs once for every configuration it is
applied to.  No verdict is shared between configurations.

Every rule's ``anchor`` is the one-line mathematical justification recorded
in the certificate, making the trust boundary of axiom-backed rules
explicit.
"""
from __future__ import annotations

import functools
import itertools
import json
import time
from dataclasses import dataclass, field

from toruscert._version import ENGINE_NAME, ENGINE_VERSION
from toruscert.enumeration import enumerate_reduced_torus_graphs
from toruscert.errors import InvariantViolation, ScaleLimit
from toruscert.fatgraph import FatGraph
from toruscert.params import NEUTRAL, POLARIZED, CaseParams, max_s, max_t


# ---------------------------------------------------------------------------
# decorated configurations


def edge_shift(edge, offsets, t):
    """The shift of edge ``(u, v, sign, c)`` at ``offsets``:
    ``o_v + c + sign * o_u`` (mod t).

    The edge's family matches member labels by ``y = shift - sign * x``
    (mod t) in 0-based form.  The shift depends only on the endpoint offsets
    and parities because every family has full size, so all label blocks
    start at multiples of t.
    """
    u, v, sign, c = edge
    return (offsets[v] + c + sign * offsets[u]) % t


def induces_identity(sign, shift, t):
    """Whether ``x -> shift - sign * x`` (mod t) is the identity."""
    if sign == -1:
        return shift % t == 0
    # x -> shift - x fixes 0 only if t divides shift, and then fixes 1
    # only if t divides 2
    return t <= 2 and shift % t == 0


def describe(config):
    """The survivor sample of ``config``: its graph, parities, offsets and
    every edge's ends, sign and shift."""
    frame, offsets = config
    return {
        "graph": frame.graph_key.hex(),
        "parities": list(frame.parities),
        "offsets": list(offsets),
        "families": [
            {
                "edge": i,
                "ends": [edge[0], edge[1]],
                "sign": edge[2],
                "shift": edge_shift(edge, offsets, frame.t),
            }
            for i, edge in enumerate(frame.edges)
        ],
    }


class Frame:
    """What every configuration of one class and parity vector shares.

    ``edges`` holds each edge of ``graph`` as ``(u, v, sign, c)``, where
    ``c = -p_v`` is the offset-free part of its shift (:func:`edge_shift`);
    it is the one record of an edge.  ``positive`` and ``negative`` hold
    ``(u, v, c)`` for each edge of that sign, for the rules that test every
    shift of one sign, and ``positive_links`` holds ``(u, v)`` for each
    positive edge that is not a loop, the edges whose shift parity rule 2
    reads at even ``t``.
    The views read only the graph and the ends and signs of the edges, which
    no offset changes, so they are computed here once, on the frame itself.
    """

    __slots__ = (
        "graph", "graph_key", "parities", "t", "edges",
        "all_positive", "positive", "positive_links", "negative", "types",
        "mixed_types", "mixed_patterns", "loops", "loop_counts",
        "pair_cover", "exact_pair_cover",
    )

    def __init__(self, graph: FatGraph, key: bytes, parities, t):
        self.graph = graph
        self.graph_key = key
        self.parities = parities = tuple(parities)
        self.t = t
        edges = []
        for u, v in graph.edge_ends():
            sign = parities[u] * parities[v]
            edges.append((u, v, sign, -parities[v]))
        self.edges = edges = tuple(edges)
        self.positive = tuple((u, v, c) for u, v, sign, c in edges if sign == 1)
        self.positive_links = tuple((u, v) for u, v, _ in self.positive if u != v)
        self.negative = tuple((u, v, c) for u, v, sign, c in edges if sign == -1)
        self.all_positive = not self.negative
        self.types = vertex_types(self)
        self.mixed_types = len(set(self.types)) > 1
        self.mixed_patterns = len(set(sign_patterns(self))) > 1
        self.loops = frozenset(loop_vertices(self))
        self.loop_counts = tuple(loops_per_vertex(self))
        self.pair_cover = opposite_pair_cover(self)
        self.exact_pair_cover = opposite_pair_cover(self, exact=True)


def make_config(frame: Frame, offsets: tuple):
    """The configuration of ``frame`` at ``offsets``: the pair
    ``(frame, offsets)``; nothing is computed."""
    return (frame, offsets)


# derived views ---------------------------------------------------------------
# Each offset-free view takes a frame and reads only its graph, parities and
# edges; Frame computes them once per parity vector.  partner_has_loops reads
# the shifts, so it takes a configuration.


def vertex_types(frame: Frame):
    """Per-vertex counts of positive and negative local reduced edges; a loop
    counts at both of its ends."""
    s = len(frame.parities)
    pos = [0] * s
    neg = [0] * s
    for u, v, sign, _ in frame.edges:
        tally = pos if sign == 1 else neg
        tally[u] += 1
        tally[v] += 1
    return tuple(zip(pos, neg))


@functools.lru_cache(maxsize=None)  # sign cycles: 2 ** degree of them at most
def _canonical_cycle(seq):
    cands = []
    n = len(seq)
    for base in (tuple(seq), tuple(reversed(seq))):
        cands.extend(base[i:] + base[:i] for i in range(n))
    return min(cands)


def sign_patterns(frame: Frame):
    """Canonical cyclic sign pattern of the reduced local edges per vertex."""
    graph, edges = frame.graph, frame.edges
    edge_of = graph.edge_index_of_dart()
    out = []
    base = 0
    for deg in graph.degrees:
        signs = tuple(edges[i][2] for i in edge_of[base:base + deg])
        out.append(_canonical_cycle(signs))
        base += deg
    return tuple(out)


def loop_vertices(frame: Frame):
    return {u for u, v, _, _ in frame.edges if u == v}


def loops_per_vertex(frame: Frame):
    counts = [0] * len(frame.parities)
    for u, v, _, _ in frame.edges:
        if u == v:
            counts[u] += 1
    return counts


def partner_has_loops(config):
    """A partner loop is an arc with equal labels at both ends, i.e. a fixed
    point of some family's matching; positive families are already fixed
    point free when this is queried.  A negative family's shift is
    ``o_v + c - o_u``, and it has a fixed point exactly when that is 0 mod t."""
    frame, offsets = config
    t = frame.t
    return any((offsets[v] + c - offsets[u]) % t == 0 for u, v, c in frame.negative)


def opposite_pair_cover(frame: Frame, exact=False):
    """A perfect matching of the vertices into opposite-parity pairs joined
    by at least (or exactly) two non-loop edges, if one exists."""
    parities = frame.parities
    s = len(parities)
    if s % 2:
        return None
    edge_count = {}
    for u, v, _, _ in frame.edges:
        if u != v:
            key = (min(u, v), max(u, v))
            edge_count[key] = edge_count.get(key, 0) + 1

    def ok(a, b):
        if parities[a] == parities[b]:
            return False
        c = edge_count.get((min(a, b), max(a, b)), 0)
        return c == 2 if exact else c >= 2

    def match(rest):
        if not rest:
            return ()
        a = rest[0]
        for b in rest[1:]:
            if ok(a, b):
                sub = match(tuple(x for x in rest if x not in (a, b)))
                if sub is not None:
                    return ((a, b),) + sub
        return None

    return match(tuple(range(s)))


# ---------------------------------------------------------------------------
# rules


@dataclass(frozen=True)
class Rule:
    """One pruning rule.  ``fn(config)`` returns whether the rule eliminates
    the configuration: exactly ``True`` or ``False``.  ``stage`` is what
    ``fn`` reads: ``"frame"`` (the class and parities only, so its verdict
    is the same at every offset vector of a frame) or ``"offsets"`` (the
    shifts as well)."""

    name: str
    anchor: str
    stage: str
    fn: object


def _r_all_positive(config):
    return config[0].all_positive


def _r_positive_fixed_point(config):
    # a positive family's shift is o_u + o_v + c, and x -> shift - x fixes
    # some x when 2x = shift (mod t): always at odd t, and at even t exactly
    # when the shift is even.  c = -p_v is odd, so at even t a positive loop
    # (shift 2 o_u + c) never has one, and a positive link has one exactly
    # when o_u and o_v differ in parity
    frame, offsets = config
    if frame.t % 2:
        return bool(frame.positive)
    for u, v in frame.positive_links:
        if (offsets[u] ^ offsets[v]) & 1:
            return True
    return False


def _r_type_uniformity(config):
    return config[0].mixed_types


def _r_pattern_uniformity(config):
    return config[0].mixed_patterns


def _r_loop_propagation(config):
    frame = config[0]
    return 0 < len(frame.loops) < len(frame.parities)


def _r_two_cycle_cover(config):
    # the all-positive rule handles an all-positive frame; an odd vertex
    # count has no pair cover
    frame = config[0]
    return not frame.all_positive and frame.pair_cover is None


def _r_positive_structure_no_loops(config):
    frame = config[0]
    return not frame.loops and frame.types[0][0] >= 3


def _r_partner_positive_structure(config):
    p, n = config[0].types[0]
    if p == 0:
        return False  # all-negative configurations cannot be built at all
    # a looped partner is forced into the loop-plus-two-cycle form, and a
    # loopless one needs a vertex with at most two positive edges
    if partner_has_loops(config):
        return (n, p) not in ((4, 2), (2, 4))
    return n >= 3


def _r_loop_cover_form(config):
    frame = config[0]
    if not frame.loops:
        return False
    return any(c != 1 for c in frame.loop_counts) or frame.exact_pair_cover is None


def _r_endgame(config):
    # split (4,2) in the loop-plus-two-cycle chain, or split (2,4) facing a
    # looped partner
    frame = config[0]
    p, n = frame.types[0]
    if (p, n) == (4, 2):
        return bool(frame.loops)
    return (p, n) == (2, 4) and partner_has_loops(config)


# rule 2 of the generic chain, and the second rule of the two-vertex chain
_POSITIVE_INVOLUTION = Rule(
    "positive-involution-fixed-point-free",
    "a fixed point of the involution induced by a positive family would be a"
    " loop at a partner vertex that is negative there, impossible on an"
    " orientable surface; at full size this also forces an even partner count",
    "offsets",
    _r_positive_fixed_point,
)

_GENERIC_RULES = [
    Rule(
        "all-positive-excluded",
        "if every family were positive every partner edge would be negative, and"
        " a triangulated partner graph cannot have a triangle face with an odd"
        " number of negative sides",
        "frame",
        _r_all_positive,
    ),
    _POSITIVE_INVOLUTION,
    Rule(
        "type-uniformity",
        "with every family at full size, the arcs sharing one endpoint label"
        " around a vertex represent its reduced edges one-to-one, so the sign"
        " split (p, n) propagates across both graphs to every vertex",
        "frame",
        _r_type_uniformity,
    ),
    Rule(
        "sign-pattern-uniformity",
        "at distance six the jumping number is one: the six shared arcs of two"
        " vertices appear in the same cyclic order around both up to reflection,"
        " so all vertices carry one cyclic sign pattern",
        "frame",
        _r_pattern_uniformity,
    ),
    Rule(
        "loop-propagation",
        "a loop family gives some negative partner family a fixed label, hence"
        " the identity translation, whose members are loops at every vertex here",
        "frame",
        _r_loop_propagation,
    ),
    Rule(
        "negative-two-cycle-cover",
        "some family here is negative, so a full-size positive partner family"
        " exists; its edge orbits are disjoint essential 2-cycles pairing"
        " opposite-parity vertices by two non-parallel edges each, so such a"
        " pairing must exist and the vertex count is even",
        "frame",
        _r_two_cycle_cover,
    ),
    Rule(
        "positive-structure-no-loops",
        "when a positive partner family has full size, some vertex here keeps at"
        " most two incident positive non-loop reduced edges",
        "frame",
        _r_positive_structure_no_loops,
    ),
    Rule(
        "partner-positive-structure",
        "the partner graph has a loop exactly when some negative family here"
        " induces the identity; a loopless partner needs a vertex with at most"
        " two positive edges, and a looped one is forced into the"
        " loop-plus-two-cycle form with sign split (4,2) or (2,4)",
        "offsets",
        _r_partner_positive_structure,
    ),
    Rule(
        "loop-cover-form",
        "a degree-six graph with a loop at every vertex whose remaining"
        " structure is generated by partner orbits is the loop-plus-two-cycle"
        " chain: one loop per vertex and an opposite-parity pairing by exactly"
        " two edges",
        "frame",
        _r_loop_cover_form,
    ),
    Rule(
        "degree-count-endgame",
        "in the loop-plus-two-cycle chain the two negative edges at a 2-cycle"
        " vertex that leave the cycle sit on one side and the two positive ones"
        " on the other, leaving the opposite cycle vertex with reduced degree at"
        " most four instead of six",
        "offsets",
        _r_endgame,
    ),
]


# -- two-boundary chain -------------------------------------------------------
# The later rules rely on two-vertex-standard-form.  FatGraph.edge_ends puts
# the lower vertex first, so the four connectors are one edge (0, 1, p0 * p1,
# -p1), and the loops are positive, so frame.all_positive gives its sign.


def _r_two_vertex_form(config):
    # the degree-6 catalog at s = 2 is this one class, so a frame that
    # breaks the form is an engine fault, not an elimination
    frame = config[0]
    edges = frame.edges
    if len(edges) != 6 or sum(u == v for u, v, _, _ in edges) != 2:
        raise InvariantViolation("two-vertex standard form expected")
    # with two loops and four connectors on darts 0..5 (vertex 0) and 6..11
    # (vertex 1), each vertex has one loop; its ends are antipodal when one
    # of the vertex's first three darts is matched three darts on
    m = frame.graph.matching
    if 3 not in (m[0] - 0, m[1] - 1, m[2] - 2) or 3 not in (m[6] - 6, m[7] - 7, m[8] - 8):
        raise InvariantViolation("one antipodal loop at each vertex expected")
    return False


def _r_connector_equals_loop(config):
    frame, offsets = config
    if not frame.all_positive:
        return False
    t = frame.t
    conn = next(e for e in frame.edges if e[0] != e[1])
    shift = edge_shift(conn, offsets, t)
    return any(e[0] == e[1] and edge_shift(e, offsets, t) == shift for e in frame.edges)


def _r_connector_identity(config):
    frame, offsets = config
    conn = next(e for e in frame.edges if e[0] != e[1])
    return induces_identity(conn[2], edge_shift(conn, offsets, frame.t), frame.t)


def _r_connector_generic_positive(config):
    return config[0].all_positive


def _r_connector_generic_klein(config):
    return not config[0].all_positive


_TWO_VERTEX_RULES = [
    Rule(
        "two-vertex-standard-form",
        "a two-vertex reduced graph with degree six and full-size families has"
        " one loop at each vertex with antipodal ends and four connecting"
        " families",
        "frame",
        _r_two_vertex_form,
    ),
    _POSITIVE_INVOLUTION,
    Rule(
        "connector-equals-loop-permutation",
        "if the connecting permutation equals a loop permutation, the partner"
        " graph is generated by that loop's orbits and every partner family is"
        " negative of size six, exceeding the negative bound of three",
        "offsets",
        _r_connector_equals_loop,
    ),
    Rule(
        "connector-identity",
        "an identity connecting permutation makes the partner subgraph a union"
        " of loop-plus-2-cycle components, violating the jumping-number-one"
        " distribution of shared arcs",
        "offsets",
        _r_connector_identity,
    ),
    Rule(
        "connector-generic-negative-size",
        "a generic involutive connector makes both sides polarized here, so the"
        " size-four partner families it stacks are negative, exceeding the"
        " negative bound of three (the exceptional manifolds allow distances"
        " 4, 2, 1 only)",
        "frame",
        _r_connector_generic_positive,
    ),
    Rule(
        "connector-generic-klein-regeneration",
        "a generic translation connector forces neutral sides and size-four"
        " positive partner families; their three S-cycle faces regenerate the"
        " surface from a once-punctured Klein bottle whose full-size negative"
        " families induce the identity, contradicting genericity",
        "frame",
        _r_connector_generic_klein,
    ),
]


# -- one-boundary chain -------------------------------------------------------


def _r_one_vertex_neg_size(config):
    # the three loops of a one-vertex graph are one edge (0, 0, 1, -p0), so
    # they induce one permutation at every offset vector
    if len(config[0].edges) != 3:
        raise InvariantViolation("one-vertex form expected")
    return True


_ONE_VERTEX_RULES = [
    Rule(
        "negative-size-bound",
        "the three loop families of the one-vertex form induce one common"
        " involution, so the partner graph's families are negative of size"
        " three, one more than the bound; only the exceptional manifolds with"
        " distances 4, 2, 1 admit that",
        "frame",
        _r_one_vertex_neg_size,
    ),
]


def build_chain(s):
    if s == 1:
        return list(_ONE_VERTEX_RULES)
    if s == 2:
        return list(_TWO_VERTEX_RULES)
    return list(_GENERIC_RULES)


# ---------------------------------------------------------------------------
# distance forcing (the entry precondition of every enumeration case)


DISTANCE_FORCING_ANCHOR = (
    "at distance >= 6 with at least three partner circles, a negative family of"
    " size t+1 forces even-sided faces and a vertex of reduced degree at most"
    " four, giving 6t <= 4t + 4, impossible for t >= 3; so every family size is"
    " at most t, degree counting forces reduced degree exactly six, every size"
    " exactly t, and distance exactly six"
)


@dataclass(frozen=True)
class DistanceForcing:
    """Conclusions forced by the distance at the start of every enumeration."""

    applicable: bool
    delta: int | None = None
    reduced_degree: int | None = None
    family_size: int | None = None
    contradiction: dict | None = None


def distance_forcing(t, delta, negative_family_size=None):
    """Replay the degree-counting forcing for partner count ``t``.

    For ``t >= 3`` and ``delta >= 6`` the conclusions are distance exactly 6,
    reduced degree exactly 6 and every family of size exactly ``t``.  Passing
    a hypothetical ``negative_family_size > t`` returns the counting
    contradiction instead, and a distance above 6 the forced distance.
    """
    if t < 3 or delta < 6:
        return DistanceForcing(applicable=False)
    if negative_family_size is not None and negative_family_size > t:
        # a vertex with p positive and n negative reduced edges, p + n <= 4
        return DistanceForcing(
            applicable=True,
            contradiction={
                "inequality": f"6*{t} <= 4*{t} + 4",
                "lhs": 6 * t,
                "rhs": 4 * t + 4,
                "conclusion": "t <= 2, contradiction",
            },
        )
    if delta > 6:
        return DistanceForcing(
            applicable=True,
            contradiction={
                "delta": delta,
                "forced_delta": 6,
                "conclusion": "distance above six is incompatible with the forcing",
            },
        )
    return DistanceForcing(
        applicable=True, delta=6, reduced_degree=6, family_size=t
    )


# ---------------------------------------------------------------------------
# certificates


@dataclass
class CaseCertificate:
    params: CaseParams
    mode: str
    survivors: int | None
    delta_bound: int | None
    constraint_log: list
    elapsed_ms: float | None = None
    notes: list = field(default_factory=list)
    survivor_samples: list = field(default_factory=list)

    def payload(self):
        """The deterministic content (timing excluded)."""
        return {
            "engine": {"name": ENGINE_NAME, "version": ENGINE_VERSION},
            "params": {
                "s": self.params.s,
                "t": self.params.t,
                "delta": self.params.delta,
                "s_polarity": self.params.s_polarity,
                "t_polarity": self.params.t_polarity,
            },
            "mode": self.mode,
            "survivors": self.survivors,
            "delta_bound": self.delta_bound,
            "constraint_log": self.constraint_log,
            "notes": self.notes,
            "survivor_samples": self.survivor_samples,
        }

    def to_json(self, timing=False):
        obj = self.payload()
        obj["elapsed_ms"] = round(self.elapsed_ms, 3) if timing and self.elapsed_ms else None
        return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _log_entry(name, anchor, applied, eliminated):
    return {
        "name": name,
        "anchor": anchor,
        "applied": applied,
        "eliminated": eliminated,
    }


def case_mode(params: CaseParams):
    """The mode that settles a case: ``"counting"`` when both boundary
    counts are at most 2, else ``"enumeration"``."""
    return "counting" if max(params.s, params.t) <= 2 else "enumeration"


def certify_case(params: CaseParams, *, workers=1):
    """Certify one case in the mode :func:`case_mode` gives it, and time it:
    by :func:`derive_delta_bound` in counting mode (both counts at most 2),
    else by :func:`_enumerate_case`."""
    start = time.perf_counter()
    if case_mode(params) == "counting":
        cert = derive_delta_bound(params)
    else:
        cert = _enumerate_case(params, workers)
    cert.elapsed_ms = (time.perf_counter() - start) * 1000
    return cert


# the configurations of one frame that _enumerate_case holds at a time, so
# its memory is bounded whatever the caps allow
_BATCH = 4096


def _enumerate_case(params: CaseParams, workers):
    """Enumeration mode needs ``delta >= 6`` and runs on the side whose
    partner count is at least 3, exchanging the sides when that is the first
    one; it reports the number of surviving configurations (zero asserts
    emptiness).  Raises :class:`ScaleLimit` beyond the desk-scale caps and
    :class:`InvariantViolation` when the degree-6 catalog is empty.
    ``workers`` goes to the enumeration, which has the one sequence
    ``(6,) * s`` to search, so it searches it in this process and forks no
    child whatever its value.
    """
    if params.delta < 6:
        raise ValueError("enumeration mode certifies the distance >= 6 regime")
    s, t = params.s, params.t
    notes = []
    if t < 3:
        s, t = t, s
        notes.append("sides exchanged: the roles of the two surfaces are symmetric")
    if s > max_s() or t > max_t():
        raise ScaleLimit(
            f"case (s={s}, t={t}) exceeds caps ({max_s()}, {max_t()})"
        )

    if params.s_polarity or params.t_polarity:
        notes.append(
            "enumeration covers every parity assignment; the stated polarities"
            " select a subcase of this certificate"
        )
    # the forcing pins the distance to exactly six, so a higher distance
    # admits no configuration at all
    contradiction = distance_forcing(t, params.delta).contradiction
    log = [_log_entry(
        "distance-degree-size-forcing", DISTANCE_FORCING_ANCHOR, 1, 1 if contradiction else 0
    )]
    if contradiction:
        return CaseCertificate(
            params=params, mode="enumeration", survivors=0, delta_bound=None,
            constraint_log=log, notes=notes + [contradiction["conclusion"]],
        )

    classes = enumerate_reduced_torus_graphs(s, degrees=(6,) * s, workers=workers)
    if not classes:
        # every s has a degree-6 torus triangulation; an empty catalog
        # would certify emptiness without running a single rule
        raise InvariantViolation(f"no degree-6 torus graph with {s} vertices")
    chain = build_chain(s)
    # the functions are taken from the chain as built, so a wrapped rule is
    # the one that runs; every configuration is eliminated by one rule or
    # survives, so the applied counts follow by conservation
    fns = [rule.fn for rule in chain]
    eliminated = [0] * len(fns)
    survivors = 0
    samples = []
    # the gauge is fixed: the first vertex's parity is +1 and its offset 0,
    # since a global parity flip with a label reflection, and a global label
    # shift, act freely on configurations without changing any sign or
    # permutation structure
    for cls in classes:
        graph = cls.graph()
        for rest_par in itertools.product((1, -1), repeat=s - 1):
            frame = Frame(graph, cls.key, (1,) + rest_par, t)
            offsets = itertools.product((0,), *[range(t)] * (s - 1))
            # repeat comes first, so map stops without drawing an offset
            # that would fall between two batches
            while batch := list(map(make_config, itertools.repeat(frame, _BATCH), offsets)):
                for k, fn in enumerate(fns):
                    left = list(itertools.filterfalse(fn, batch))
                    eliminated[k] += len(batch) - len(left)
                    batch = left
                    if not batch:
                        break
                survivors += len(batch)
                samples += map(describe, batch[:5 - len(samples)])
    applied = survivors + sum(eliminated)
    for rule, gone in zip(chain, eliminated):
        log.append(_log_entry(rule.name, rule.anchor, applied, gone))
        applied -= gone
    return CaseCertificate(
        params=params,
        mode="enumeration",
        survivors=survivors,
        delta_bound=None,
        constraint_log=log,
        notes=notes,
        survivor_samples=samples,
    )


# ---------------------------------------------------------------------------
# counting mode


_POLARIZED_COUNT_ANCHOR = (
    "a polarized side makes every partner edge negative: the partner graph is"
    " loopless with even-sided faces, so Euler counting caps it at four reduced"
    " edges, each of size at most one more than the polarized count; the vertex"
    " degree inequality bounds the distance"
)
_NEUTRAL_COUNT_ANCHOR = (
    "with both sides neutral, a vertex carries at most two positive local edges"
    " of size at most twice the partner count and at most four negative ones of"
    " size at most the partner count (a larger negative family would polarize"
    " the partner)"
)
_PARITY_IMPOSSIBLE_ANCHOR = (
    "two polarized sides are incompatible: a polarized side makes every partner"
    " edge negative, which needs both parity classes on the partner"
)


def derive_delta_bound(params: CaseParams):
    """Counting-mode certificate for ``s, t <= 2``.

    Resolves the polarities (a single boundary circle is necessarily
    polarized; two polarized sides are incompatible), computes the degree
    capacity inequality for each consistent assignment and returns the
    largest admissible distance.  :func:`certify_case` times it.
    """
    s, t = params.s, params.t
    if max(s, t) > 2:
        raise ValueError("counting mode applies to s, t <= 2")

    def options(count, stated):
        if count == 1:
            if stated == NEUTRAL:
                raise ValueError("a single boundary circle cannot be neutral")
            return [POLARIZED]
        return [stated] if stated else [POLARIZED, NEUTRAL]

    assignments = [
        (ps, pt)
        for ps in options(s, params.s_polarity)
        for pt in options(t, params.t_polarity)
    ]
    log = []
    bounds = []
    for ps, pt in assignments:
        if ps == POLARIZED and pt == POLARIZED:
            log.append(_log_entry("parity-rule", _PARITY_IMPOSSIBLE_ANCHOR, 1, 1))
            bounds.append(0)
            continue
        if POLARIZED in (ps, pt):
            # count on the partner side: delta * n <= 4 * (n + 1), where n
            # is the polarized side's count
            n = s if ps == POLARIZED else t
            bound = (4 * (n + 1)) // n
            log.append(
                _log_entry(
                    "polarized-side-count",
                    _POLARIZED_COUNT_ANCHOR
                    + f"; here {n}*distance <= 4*{n + 1}",
                    1,
                    0,
                )
            )
            bounds.append(bound)
        else:
            # both neutral: only possible with two circles on each side
            bound = (2 * (2 * t) + 4 * t) // t
            log.append(
                _log_entry(
                    "neutral-neutral-count",
                    _NEUTRAL_COUNT_ANCHOR
                    + f"; here {s}*distance <= 2*{2 * t} + 4*{t}",
                    1,
                    0,
                )
            )
            bounds.append(bound)
    return CaseCertificate(
        params=params,
        mode="counting",
        survivors=None,
        delta_bound=max(bounds),
        constraint_log=log,
    )
