"""CLI surface: dispatch, exit codes, file ingestion, JSON emission."""
import json

import pytest
from click.testing import CliRunner

from toruscert import certifier, fileformat
from toruscert import verify as verify_mod
from toruscert.cli import cli, main
from tests.test_embedded import triple_loop_graph


@pytest.fixture
def runner():
    return CliRunner()


def test_certify_writes_certificate(tmp_path, runner):
    out = tmp_path / "cert.json"
    res = runner.invoke(
        cli, ["certify", "--s", "1", "--t", "3", "--delta", "6", "--json", str(out)]
    )
    assert res.exit_code == 0, res.output
    assert "survivors: 0" in res.output
    obj = json.loads(out.read_text())
    assert obj["survivors"] == 0
    assert obj["params"]["s"] == 1 and obj["params"]["t"] == 3


def test_certify_counting_mode(runner):
    res = runner.invoke(
        cli,
        ["certify", "--s", "2", "--t", "2", "--delta", "6", "--s-polarity", "polarized"],
    )
    assert res.exit_code == 0
    assert "distance bound: 6" in res.output


def test_exit_codes_scale_limit_and_usage():
    assert main(["certify", "--s", "9", "--t", "9", "--delta", "6"]) == 2
    assert main(["certify", "--s", "1"]) == 64
    assert main(["nonsense"]) == 64
    assert main(["certify", "--s", "2", "--t", "2", "--delta", "6", "--mode", "enumerate"]) == 64


def test_broken_invariant_exits_3(monkeypatch, capsys):
    # with no classes the two-vertex standard form cannot be found
    monkeypatch.setattr(certifier, "enumerate_reduced_torus_graphs", lambda *a, **k: ())
    assert main(["certify", "--s", "2", "--t", "4", "--delta", "6"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal invariant violated:") and err.count("\n") == 1


def test_certify_mode_only_checks_the_case(tmp_path):
    # the case fixes its mode: naming another one is a usage error, and
    # naming its own changes nothing
    assert main(["certify", "--s", "3", "--t", "3", "--delta", "6", "--mode", "count"]) == 64
    for s, t, mode in [("3", "3", "enumerate"), ("2", "2", "count"), ("3", "3", "auto"),
                       ("2", "2", "auto")]:
        argv = ["certify", "--s", s, "--t", t, "--delta", "6", "--json"]
        plain, named = tmp_path / "plain.json", tmp_path / "named.json"
        assert main(argv + [str(plain)]) == 0
        assert main(argv + [str(named), "--mode", mode]) == 0
        assert named.read_bytes() == plain.read_bytes()


@pytest.mark.parametrize("argv", [
    ["certify", "--s", "1", "--t", "3", "--delta", "6"],
    ["verify-all"],
], ids=["certify", "verify-all"])
def test_unwritable_json_path_is_a_usage_error(tmp_path, monkeypatch, capsys, argv):
    # the work is done before the write fails, so verify-all runs one
    # criterion here
    monkeypatch.setattr(verify_mod, "run_all", lambda **kwargs: [verify_mod.criterion_gluing()])
    path = tmp_path / "missing" / "out.json"
    assert main(argv + ["--json", str(path)]) == 64
    err = capsys.readouterr().err
    assert err.startswith("file error:") and err.count("\n") == 1
    assert str(path) in err


@pytest.mark.parametrize("value", ["0", "-1", "abc"])
@pytest.mark.parametrize("name", ["TORUSCERT_MAX_S", "TORUSCERT_MAX_T"])
def test_malformed_caps_are_usage_errors(monkeypatch, capsys, name, value):
    monkeypatch.setenv(name, value)
    assert main(["certify", "--s", "3", "--t", "3", "--delta", "6"]) == 64
    assert f"{name} must be a positive integer, got {value!r}" in capsys.readouterr().err


def test_raised_t_cap_is_honoured(monkeypatch):
    assert main(["certify", "--s", "1", "--t", "8", "--delta", "6"]) == 2
    monkeypatch.setenv("TORUSCERT_MAX_T", "128")
    assert main(["certify", "--s", "1", "--t", "8", "--delta", "6"]) == 0


def test_lemma_parity_exit_codes():
    assert main(["lemma", "parity", "--sign-s", "1", "--sign-t", "-1"]) == 0
    assert main(["lemma", "parity", "--sign-s", "1", "--sign-t", "1"]) == 1
    # a sign is +1 or -1; anything else is a usage error, not a verdict
    assert main(["lemma", "parity", "--sign-s", "0", "--sign-t", "0"]) == 64
    assert main(["lemma", "parity", "--sign-s", "5", "--sign-t", "-5"]) == 64
    assert main(["lemma", "parity", "--sign-s", "1", "--sign-t", "0"]) == 64


def test_lemma_no_double_parallel_exit_codes():
    assert main(["lemma", "no-double-parallel", "--pairs", "0:1 0:2 1:1"]) == 0
    assert main(["lemma", "no-double-parallel", "--pairs", "0:1 0:1"]) == 1


def test_certify_has_no_workers_option():
    # certify searches one degree sequence, which never forks a child
    assert main(["certify", "--s", "3", "--t", "3", "--delta", "6", "--workers", "2"]) == 64


def test_lemma_sizes(runner):
    res = runner.invoke(cli, ["lemma", "pos-size", "--t", "4", "--size", "5"])
    assert res.exit_code == 1
    res = runner.invoke(
        cli, ["lemma", "neg-size", "--t", "2", "--size", "4", "--exceptional"]
    )
    assert res.exit_code == 1
    assert "exceptional_route" in res.output
    res = runner.invoke(cli, ["lemma", "neg-size", "--t", "2", "--size", "3"])
    assert res.exit_code == 0


def test_lemma_distance_forcing_refuses_a_distance_above_six(runner):
    res = runner.invoke(cli, ["lemma", "distance-forcing", "--t", "3", "--delta", "6"])
    assert res.exit_code == 0
    assert "forced: distance=6 reduced degree=6 family size=3" in res.output
    # certify eliminates every distance above six by this forcing
    res = runner.invoke(cli, ["lemma", "distance-forcing", "--t", "3", "--delta", "7"])
    assert res.exit_code == 1
    assert res.output.startswith("contradiction:")


@pytest.mark.parametrize(
    "argv",
    [
        ["pos-size", "--t", "4", "--size", "-2"],
        ["pos-size", "--t", "-4", "--size", "2"],
        ["neg-size", "--t", "4", "--size", "-2"],
        ["neg-size", "--t", "4", "--size", "0"],
        ["neg-size", "--t", "4", "--size", "2", "--delta", "-1"],
        ["distance-forcing", "--t", "5", "--delta", "6", "--negative-size", "-3"],
        ["distance-forcing", "--t", "-4", "--delta", "6"],
        ["distance-forcing", "--t", "5", "--delta", "-1"],
    ],
)
def test_lemma_rejects_values_below_one(argv):
    # each of these used to print a verdict and exit 0
    assert main(["lemma", *argv]) == 64


def test_lemma_with_graph_file(tmp_path, runner):
    path = tmp_path / "g.txt"
    fileformat.dump(triple_loop_graph(4, offsets=(1,)), path)
    res = runner.invoke(cli, ["lemma", "degree-face", "--input", str(path), "--reduce"])
    assert res.exit_code == 0, res.output
    res = runner.invoke(cli, ["lemma", "s-cycles", "--input", str(path)])
    assert res.exit_code == 0
    assert "type {" in res.output


@pytest.mark.parametrize("command", ["degree-face", "s-cycles"])
@pytest.mark.parametrize(
    "text",
    [
        "v0 + : e0 e1 e0 e1\ne0 + (0,0,0)-(0,2,1)\ne1 + (0,1,2)-(0,3,2)\n",
        "v0 + :\n",
        "v0 + : e0 ex e0 e1\ne0 + (0,0,1)-(0,2,1)\ne1 + (0,1,2)-(0,3,2)\n",
        "v0 + : e0 e e0 e1\ne0 + (0,0,1)-(0,2,1)\ne1 + (0,1,2)-(0,3,2)\n",
    ],
    ids=["label-0", "no-edges", "edge-reference-ex", "edge-reference-e"],
)
def test_lemma_rejects_malformed_graph_file(tmp_path, capsys, command, text):
    # a content fault in a graph file is a rejected graph, not a usage error
    path = tmp_path / "g.txt"
    path.write_text(text)
    assert main(["lemma", command, "--input", str(path)]) == 1
    assert capsys.readouterr().err.startswith("graph rejected:")


def test_perm_command(runner):
    res = runner.invoke(cli, ["perm", "--n", "6", "--alpha", "0", "--epsilon", "-1"])
    assert res.exit_code == 0
    assert "identity permutation" in res.output
    res = runner.invoke(cli, ["perm", "--n", "4", "--alpha", "1", "--epsilon", "1"])
    assert res.exit_code == 0
    assert "(1, 4)" in res.output and "(2, 3)" in res.output


@pytest.mark.parametrize("n", ["0", "-3"])
def test_perm_rejects_bad_modulus(n):
    assert main(["perm", "--n", n, "--alpha", "1", "--epsilon", "1"]) == 64


def test_lemma_polarization_rejects_bad_partner_count(capsys):
    argv = ["lemma", "polarization", "--t", "0", "--size", "1", "--alpha", "0"]
    assert main(argv) == 64
    assert "partner count must be >= 1" in capsys.readouterr().err


def test_klein_command(runner):
    res = runner.invoke(cli, ["klein", "--m", "2"])
    assert res.exit_code == 0
    assert "q=1" in res.output and "distance=2" in res.output
    res = runner.invoke(cli, ["klein", "--scan", "6"])
    assert res.exit_code == 0
    assert "m=3: none" in res.output
    assert main(["klein"]) == 64
    # a negative scan bound used to print nothing and exit 0
    assert main(["klein", "--scan", "-1"]) == 64


def test_verify_all_fails_on_a_broken_klein_scan(tmp_path, monkeypatch):
    # an engine that loses the m = 4 solution must make the suite fail, and
    # through the Klein criterion alone; the three slow criteria are stubbed
    # out here, since tests/test_acceptance.py runs them for real
    for name in ("criterion_emptiness", "criterion_degree_face", "criterion_determinism"):
        stub = verify_mod.CriterionResult(name, True, "stub", 0.0)
        monkeypatch.setattr(verify_mod, name, lambda stub=stub, **kwargs: stub)
    report = tmp_path / "report.json"
    assert main(["verify-all", "--json", str(report)]) == 0
    assert json.loads(report.read_text())["all_passed"]
    scan = verify_mod.scan_klein_slopes
    monkeypatch.setattr(
        verify_mod, "scan_klein_slopes", lambda limit: [(m, s) for m, s in scan(limit) if m != 4]
    )
    assert main(["verify-all", "--json", str(report)]) == 1
    failed = [c["name"] for c in json.loads(report.read_text())["criteria"] if not c["passed"]]
    assert failed == ["klein-slope-classification"]


def test_verify_all_rejects_zero_workers_before_any_work(monkeypatch):
    def run_all(**kwargs):
        raise AssertionError("verify-all started work")

    monkeypatch.setattr(verify_mod, "run_all", run_all)
    assert main(["verify-all", "--workers", "0"]) == 64
