"""Acceptance gate: every criterion at its stated tolerance, one line each.

Criteria (all exact, no tolerances):

1. emptiness certificates: (3,3), (4,4), (2,4), (2,6), (1,3) at distance 6
   report zero survivors, with the two-boundary branch eliminations and the
   one-boundary negative-size elimination visible in the logs;
2. counting bounds: (2,2) polarized -> 6, (2,2) neutral -> 8, (1,2) -> 8;
3. the punctured Klein bottle classification over gluing parameters 0..100
   hits exactly 1, 2, 4 with (q, distance) = (1,4), (1,2), (2,1);
4. closed-form orbit counts match brute-force cycle extraction for all
   moduli up to 24;
5. the degree/face dichotomy holds on every reduced cellular torus graph
   with at most 3 vertices and 12 edges;
6. face and Euler invariants hold on 10,000 randomized rotation systems;
7. the gluing matrix has determinant -1 and reverses intersection signs for
   all coefficients up to 10;
8. the sweep of three-vertex graphs to 7 edges gives identical classes at
   worker counts 1, 2, 8.

The suite runs once per module, and its report must match
``tests/golden/verify_report.json`` byte for byte.  A change that alters a
criterion's details on purpose regenerates that file with
``PYTHONPATH=src python -m toruscert.cli verify-all --json
tests/golden/verify_report.json`` and says why in its notes.
"""

from pathlib import Path

import pytest

from toruscert import verify

GOLDEN = Path(__file__).parent / "golden" / "verify_report.json"


@pytest.fixture(scope="module")
def results():
    """Every criterion, run once by the same ``run_all`` that ``verify-all`` uses."""
    return {r.name: r for r in verify.run_all()}


def _run(results, name):
    result = results[name]
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] {result.name} ({result.elapsed_s:.2f}s) {result.details}")
    assert result.passed, f"{result.name}: {result.details}"


def test_criterion_1_emptiness_certificates(results):
    _run(results, "emptiness-certificates")


def test_criterion_2_counting_bounds(results):
    _run(results, "counting-bounds")


def test_criterion_3_klein_classification(results):
    _run(results, "klein-slope-classification")


def test_criterion_4_orbit_oracle(results):
    _run(results, "orbit-count-oracle")


def test_criterion_5_degree_face_dichotomy(results):
    _run(results, "reduced-torus-degree-face-dichotomy")


def test_criterion_6_euler_invariants(results):
    _run(results, "euler-face-invariants")


def test_criterion_7_gluing_algebra(results):
    _run(results, "gluing-algebra")


def test_criterion_8_worker_determinism(results):
    _run(results, "worker-determinism")


def test_report_matches_golden(results):
    assert verify.report_json(results.values()).encode() == GOLDEN.read_bytes()
