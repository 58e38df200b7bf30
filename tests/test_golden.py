"""Certificate payloads must stay byte-identical to the committed goldens.

The files under ``tests/golden/`` hold ``certify_case(...).to_json()`` with
one worker for the cases below: enumeration at distance 6 (all three rule
chains), the counting-mode cases, and a truncated chain whose survivors put
``describe(config)`` samples in the payload.  A change that alters a
payload on purpose regenerates them with
``PYTHONPATH=src python -m tests.test_golden`` and says why in its notes.

``kernel_classes.json`` holds the raw output of the search kernel,
``search_matchings(degrees)`` as canonical key (hex) to least matching, for
every degree sequence of the degree-face criterion, the kernel test shapes
and ``(6,) * 4``; the same command regenerates it.

``kernel_nv4.json`` condenses the raw output for every four-vertex degree
sequence up to eight edges: per sequence, the class count and the SHA-256
of its ``kernel_text`` block.  It was generated from the kernel that walked
every relabelling again from dart 0, so it checks the resumable walk against
its predecessor; the same command regenerates it.
"""
import hashlib
import json
from pathlib import Path

import pytest

from tests.test_certifier import certify_truncated
from tests.test_kernel import SHAPES
from toruscert import kernel
from toruscert.certifier import certify_case
from toruscert.enumeration import degree_sequences
from toruscert.params import NEUTRAL, POLARIZED, CaseParams

GOLDEN = Path(__file__).parent / "golden"
CASES = [(3, 3), (3, 4), (3, 5), (3, 6), (4, 4), (4, 6), (1, 3), (2, 4), (2, 6)]
# (s, t, s_polarity, t_polarity); (2, 1) is the one whose polarized side is t
COUNTING_CASES = [
    (2, 2, POLARIZED, None), (2, 2, NEUTRAL, NEUTRAL), (1, 2, None, None), (2, 1, None, None),
]
# (s, t, number of chain rules kept)
TRUNCATED_CASES = [(3, 4, 2)]
KERNEL_GOLDEN = GOLDEN / "kernel_classes.json"
NV4_GOLDEN = GOLDEN / "kernel_nv4.json"
NV4_MAX_EDGES = 8


def kernel_cases():
    """Degree sequences of the kernel golden, sorted."""
    seqs = {
        seq
        for nv in (1, 2, 3)
        for ne in range(nv + 1, 3 * nv + 1)
        for seq in degree_sequences(nv, ne)
    }
    seqs.update(degrees for degrees, _ in SHAPES)
    seqs.add((6,) * 4)
    return sorted(seqs)


def nv4_cases():
    """The four-vertex degree sequences of up to ``NV4_MAX_EDGES`` edges, sorted."""
    return sorted(
        seq for ne in range(5, NV4_MAX_EDGES + 1) for seq in degree_sequences(4, ne)
    )


def seq_name(seq):
    return ",".join(map(str, seq))


def kernel_text(results):
    """``{degrees: {key hex: matching}}`` as JSON, one class per line."""
    lines = []
    for seq in sorted(results):
        found = results[seq]
        rows = [f'  "{key.hex()}": {json.dumps(list(found[key]))}' for key in sorted(found)]
        body = "{\n" + ",\n".join(rows) + "\n }" if rows else "{}"
        lines.append(f' "{seq_name(seq)}": {body}')
    return "{\n" + ",\n".join(lines) + "\n}\n"


def nv4_digest(seq, found):
    """``[class count, SHA-256 of the kernel_text block]`` of one sequence."""
    return [len(found), hashlib.sha256(kernel_text({seq: found}).encode()).hexdigest()]


def nv4_text():
    """``{degrees: [count, digest]}`` as JSON, one sequence per line."""
    rows = [
        f' "{seq_name(seq)}": {json.dumps(nv4_digest(seq, kernel.search_matchings(seq)))}'
        for seq in nv4_cases()
    ]
    return "{\n" + ",\n".join(rows) + "\n}\n"


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
    return certify_truncated(CaseParams(s, t, 6), limit).to_json()


@pytest.mark.parametrize("s,t", CASES)
def test_payload_matches_golden(s, t):
    assert payload(s, t).encode() == golden_path(s, t).read_bytes()


@pytest.mark.parametrize("case", COUNTING_CASES)
def test_counting_payload_matches_golden(case):
    assert counting_payload(*case).encode() == counting_path(*case).read_bytes()


@pytest.mark.parametrize("case", TRUNCATED_CASES)
def test_truncated_payload_matches_golden(case):
    assert truncated_payload(*case).encode() == truncated_path(*case).read_bytes()


def test_kernel_matches_golden():
    want = json.loads(KERNEL_GOLDEN.read_text())
    assert set(want) == {seq_name(seq) for seq in kernel_cases()}
    for seq in kernel_cases():
        got = kernel.search_matchings(seq)
        assert {key.hex(): list(m) for key, m in got.items()} == want[seq_name(seq)], seq


def test_kernel_matches_nv4_golden():
    # 81 sequences, 5,977 raw classes
    want = json.loads(NV4_GOLDEN.read_text())
    assert list(want) == [seq_name(seq) for seq in nv4_cases()]
    for seq in nv4_cases():
        assert nv4_digest(seq, kernel.search_matchings(seq)) == want[seq_name(seq)], seq


if __name__ == "__main__":
    NV4_GOLDEN.write_text(nv4_text())
    KERNEL_GOLDEN.write_text(
        kernel_text({seq: kernel.search_matchings(seq) for seq in kernel_cases()})
    )
    for s, t in CASES:
        golden_path(s, t).write_bytes(payload(s, t).encode())
    for case in COUNTING_CASES:
        counting_path(*case).write_bytes(counting_payload(*case).encode())
    for case in TRUNCATED_CASES:
        truncated_path(*case).write_bytes(truncated_payload(*case).encode())
