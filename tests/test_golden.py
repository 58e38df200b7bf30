"""Certificate payloads must stay byte-identical to the committed goldens.

The files under ``tests/golden/`` hold ``certify_case(...).to_json()`` with
one worker for the cases below: enumeration at distance 6 (all three rule
chains), the counting-mode cases, and a truncated chain whose survivors put
``Config.describe()`` samples in the payload.  A change that alters a
payload on purpose regenerates them with
``PYTHONPATH=src python -m tests.test_golden`` and says why in its notes.
"""
from pathlib import Path

import pytest

from toruscert.certifier import certify_case
from toruscert.params import NEUTRAL, POLARIZED, CaseParams

GOLDEN = Path(__file__).parent / "golden"
CASES = [(3, 3), (3, 4), (3, 5), (3, 6), (4, 4), (4, 6), (1, 3), (2, 4), (2, 6)]
COUNTING_CASES = [(2, 2, POLARIZED, None), (2, 2, NEUTRAL, NEUTRAL), (1, 2, None, None)]
# (s, t, rule_limit)
TRUNCATED_CASES = [(3, 4, 2)]


def golden_path(s, t):
    return GOLDEN / f"certify_s{s}_t{t}_d6.json"


def counting_path(s, t, s_pol, t_pol):
    return GOLDEN / f"count_s{s}_t{t}_d6_{s_pol or 'none'}_{t_pol or 'none'}.json"


def truncated_path(s, t, limit):
    return GOLDEN / f"certify_s{s}_t{t}_d6_limit{limit}.json"


def payload(s, t):
    return certify_case(CaseParams(s, t, 6), workers=1).to_json()


def counting_payload(s, t, s_pol, t_pol):
    return certify_case(CaseParams(s, t, 6, s_pol, t_pol), workers=1).to_json()


def truncated_payload(s, t, limit):
    return certify_case(CaseParams(s, t, 6), workers=1, rule_limit=limit).to_json()


@pytest.mark.parametrize("s,t", CASES)
def test_payload_matches_golden(s, t):
    assert payload(s, t).encode() == golden_path(s, t).read_bytes()


@pytest.mark.parametrize("case", COUNTING_CASES)
def test_counting_payload_matches_golden(case):
    assert counting_payload(*case).encode() == counting_path(*case).read_bytes()


@pytest.mark.parametrize("case", TRUNCATED_CASES)
def test_truncated_payload_matches_golden(case):
    assert truncated_payload(*case).encode() == truncated_path(*case).read_bytes()


if __name__ == "__main__":
    for s, t in CASES:
        golden_path(s, t).write_bytes(payload(s, t).encode())
    for case in COUNTING_CASES:
        counting_path(*case).write_bytes(counting_payload(*case).encode())
    for case in TRUNCATED_CASES:
        truncated_path(*case).write_bytes(truncated_payload(*case).encode())
