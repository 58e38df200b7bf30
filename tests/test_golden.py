"""Certificate payloads must stay byte-identical to the committed goldens.

The files under ``tests/golden/`` hold ``certify_case(...).to_json()`` for
the enumeration cases below at distance 6 with one worker.  A change that
alters a payload on purpose regenerates them with
``PYTHONPATH=src python -m tests.test_golden`` and says why in its notes.
"""
from pathlib import Path

import pytest

from toruscert.certifier import certify_case
from toruscert.params import CaseParams

GOLDEN = Path(__file__).parent / "golden"
CASES = [(3, 3), (3, 4), (3, 5), (3, 6), (4, 4), (4, 6)]


def golden_path(s, t):
    return GOLDEN / f"certify_s{s}_t{t}_d6.json"


def payload(s, t):
    return certify_case(CaseParams(s, t, 6), workers=1).to_json()


@pytest.mark.parametrize("s,t", CASES)
def test_payload_matches_golden(s, t):
    assert payload(s, t).encode() == golden_path(s, t).read_bytes()


if __name__ == "__main__":
    for s, t in CASES:
        golden_path(s, t).write_bytes(payload(s, t).encode())
