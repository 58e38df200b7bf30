"""The three benchmark workloads: their operations and the checks on them.

Importing this module imports toruscert, which is part of the timed set-up.
Each workload is a fixed, exhaustive list of operations (no sampling, hence
no seed); one round runs every operation once.  ``check`` verifies the first
round against :mod:`oracles` and requires later rounds to repeat it exactly;
``cross_check`` compares the traced call counts with the certificates.
"""
import json
from collections import Counter

import toruscert
from toruscert import constraints, enumeration
from toruscert.params import NEUTRAL, POLARIZED

import oracles

WIDE_T_MAX = 128
# counting-mode cases and the distance bounds the paper gives for them
COUNTING_CASES = [
    ((2, 2, POLARIZED, None), 6),
    ((2, 2, NEUTRAL, NEUTRAL), 8),
    ((1, 2, None, None), 8),
]
GORDON_MAX_DELTA = 8


class CertifyWorkload:
    """``certify_case`` + ``to_json`` over a fixed list of cases; ``env``
    holds the environment the cases need."""

    def __init__(self, cases, env=None):
        self.ops = [toruscert.CaseParams(*case) for case in cases]
        self.env = env or {}

    def run(self, params):
        return toruscert.certify_case(params, workers=1).to_json()

    def check(self, rounds):
        problems = _repeats(rounds)
        bounds = []
        for blob in rounds[0]:
            cert = json.loads(blob)
            p = cert["params"]
            case = f"({p['s']},{p['t']},{p['s_polarity']},{p['t_polarity']})"
            if cert["mode"] == "counting":
                want = oracles.counting_bound(p["s"], p["t"], p["s_polarity"], p["t_polarity"])
                bounds.append(cert["delta_bound"])
                if cert["delta_bound"] != want or want > GORDON_MAX_DELTA:
                    problems.append(f"{case}: bound {cert['delta_bound']}, inequalities give {want}")
                continue
            problems += [f"{case}: {x}" for x in _enumeration_problems(cert)]
        counted = [bound for _, bound in COUNTING_CASES]
        if bounds and bounds != counted:
            problems.append(f"counting bounds {bounds}, expected {counted}")
        return problems

    def cross_check(self, rounds, calls):
        """Traced ``make_config`` and rule calls against the certificates'
        ``applied`` counts."""
        applied = Counter()
        first = 0
        for blob in (b for r in rounds for b in r):
            cert = json.loads(blob)
            chain = cert["constraint_log"][1:]
            if cert["mode"] == "enumeration" and chain:
                first += chain[0]["applied"]
                for entry in chain:
                    applied[entry["name"]] += entry["applied"]
        problems = []
        if "certifier.make_config" in calls and calls["certifier.make_config"] != first:
            problems.append(
                f"make_config calls {calls['certifier.make_config']} != first rule applied {first}")
        if "rules" in calls:
            traced = {k[len("rule."):]: v for k, v in calls.items() if k.startswith("rule.")}
            applied = {k: v for k, v in applied.items() if v}
            if traced != applied:
                problems.append(f"rule calls {traced} != rule applied {applied}")
        return problems


def _enumeration_problems(cert):
    p = cert["params"]
    log = cert["constraint_log"]
    problems = []
    if cert["survivors"] != 0:
        problems.append(f"{cert['survivors']} survivors")
    if not log or log[0]["applied"] != 1 or log[0]["eliminated"] != 0:
        problems.append("distance forcing entry missing or eliminating")
    chain = log[1:]
    if not chain:
        return problems + ["empty rule chain"]
    want = oracles.expected_configurations(p["s"], p["t"])
    if chain[0]["applied"] != want:
        problems.append(f"first rule applied {chain[0]['applied']}, lattice oracle gives {want}")
    for prev, nxt in zip(chain, chain[1:]):
        if nxt["applied"] != prev["applied"] - prev["eliminated"]:
            problems.append(f"{nxt['name']} applied {nxt['applied']} is not conserved")
    if cert["survivors"] != chain[-1]["applied"] - chain[-1]["eliminated"]:
        problems.append("survivors are not the last rule's remainder")
    return problems


class SweepWorkload:
    """``enumerate_reduced_torus_graphs`` + ``check_reduced_torus_degrees``
    for each vertex count: the degree-face criterion at a lower edge cap."""

    env = {}  # no environment needed
    MAX_EDGES = 7
    # (vertex count, edge cap) of the brute-force comparison
    BRUTE_FORCE = [(1, MAX_EDGES), (2, MAX_EDGES), (3, 5)]

    def __init__(self, workers):
        self.workers = workers
        self.ops = [1, 2, 3]

    def run(self, nv):
        classes = enumeration.enumerate_reduced_torus_graphs(
            nv, max_edges=self.MAX_EDGES, workers=self.workers)
        verdicts = [constraints.check_reduced_torus_degrees(c.graph()) for c in classes]
        return (
            tuple((c.degrees, c.matching, c.key) for c in classes),
            tuple(v.satisfied for v in verdicts),
        )

    def check(self, rounds):
        problems = _repeats(rounds)
        graphs = []
        for nv, (classes, verdicts) in zip(self.ops, rounds[0]):
            for (degrees, matching, key), verdict in zip(classes, verdicts):
                name = f"nv={nv} {key.hex()}"
                problems += [f"{name}: {x}" for x in oracles.torus_class_facts(degrees, matching)]
                if not oracles.degree_face_dichotomy_holds(degrees, matching):
                    problems.append(f"{name}: degree-face dichotomy fails")
                if not verdict:
                    problems.append(f"{name}: check_reduced_torus_degrees rejects it")
                graphs.append((degrees, matching))
        for i, j in oracles.isomorphic_pairs(graphs):
            problems.append(f"classes {i} and {j} are isomorphic")
        for nv, cap in self.BRUTE_FORCE:
            classes, _ = rounds[0][self.ops.index(nv)]
            got = {c for c in classes if len(c[1]) // 2 <= cap}
            want = {
                (c.degrees, c.matching, c.key)
                for c in enumeration.brute_force_torus_classes(nv, max_edges=cap)
            }
            if got != want:
                problems.append(
                    f"nv={nv}, <= {cap} edges: {len(got)} classes, brute force {len(want)}")
        return problems

    def cross_check(self, rounds, calls):
        problems = []
        classes = sum(len(c) for r in rounds for c, _ in r)
        name = "constraints.check_reduced_torus_degrees"
        if name in calls and calls[name] != classes:
            problems.append(f"{name} calls {calls[name]} != classes {classes}")
        if "enumeration.reduced_classes" in calls and calls["enumeration.reduced_classes"] != classes:
            problems.append(f"reduced classes {calls['enumeration.reduced_classes']} != {classes}")
        return problems


def _repeats(rounds):
    return [f"round {i} differs from round 0" for i, r in enumerate(rounds) if r != rounds[0]]


def make(name, nproc):
    """The workload called ``name``; ``nproc`` caps the worker count."""
    if name == "certify-s4":
        return CertifyWorkload([(4, 4, 6), (4, 6, 6)])
    if name == "certify-wide-t":
        return CertifyWorkload(
            [(s, t, 6) for s in (1, 2, 3) for t in (64, 96, WIDE_T_MAX)]
            + [(s, t, 6, ps, pt) for (s, t, ps, pt), _ in COUNTING_CASES],
            env={"TORUSCERT_MAX_T": str(WIDE_T_MAX)})
    if name == "sweep-general":
        return SweepWorkload(workers=min(2, nproc))
    raise KeyError(name)

