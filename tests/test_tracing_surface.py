"""The names the span tracer in ``perfbench/spans.py`` wraps.

The tracer replaces these module attributes and methods from outside and
silently skips a name it cannot find, which drops that layer's metrics from
a traced run.  The list is kept here by hand, so that a rename fails Tier-1
instead.
"""
import importlib

import pytest

from toruscert import certifier, enumeration
from toruscert.params import NEUTRAL, CaseParams

TRACED = [
    ("toruscert.certifier", "make_config"),
    ("toruscert.certifier", "vertex_types"),
    ("toruscert.certifier", "sign_patterns"),
    ("toruscert.certifier", "loop_vertices"),
    ("toruscert.certifier", "loops_per_vertex"),
    ("toruscert.certifier", "opposite_pair_cover"),
    ("toruscert.certifier", "partner_has_loops"),
    ("toruscert.certifier", "build_chain"),
    ("toruscert.certifier", "certify_case"),
    ("toruscert.certifier", "CaseCertificate.to_json"),
    ("toruscert.fatgraph", "FatGraph.parallel_edge_pairs"),
    ("toruscert.fatgraph", "FatGraph.trivial_loops"),
    ("toruscert.enumeration", "_search"),
    ("toruscert.enumeration", "enumerate_reduced_torus_graphs"),
    ("toruscert.kernel", "search_matchings"),
    ("toruscert.kernel", "canonical_code"),
    ("toruscert.constraints", "check_reduced_torus_degrees"),
]


@pytest.mark.parametrize("module,attr", TRACED, ids=[f"{m}:{a}" for m, a in TRACED])
def test_traced_name_exists(module, attr):
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


def test_certify_prints_nothing(capfd):
    # a traced run reads its result from the last line of standard output;
    # capfd captures the descriptor itself, so forked children are heard too
    for params in [
        CaseParams(3, 4, 6),
        CaseParams(4, 4, 6),
        CaseParams(1, 3, 6),
        CaseParams(2, 4, 6),
        CaseParams(2, 2, 6, NEUTRAL, NEUTRAL),
        CaseParams(1, 2, 6),
    ]:
        certifier.certify_case(params).to_json()
    assert enumeration.enumerate_reduced_torus_graphs(3, max_edges=6, workers=2)
    captured = capfd.readouterr()
    assert captured.out == ""
