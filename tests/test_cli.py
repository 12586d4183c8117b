import csv
import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from tcsm import cli, spectral
from tcsm.cli import main


def run_cli(*argv):
    """Invoke the CLI in-process, capturing stdout and the exit code."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def assert_usage_error(*argv):
    """Exit code 2, nothing on stdout and one JSON error line on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    assert code == 2
    assert out.getvalue() == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert list(error) == ["error"]
    return error["error"]


def test_params_basic():
    code, out = run_cli("params", "--n", "8", "--r", "3", "--beta", "1")
    data = json.loads(out)
    assert code == 0
    assert data["E0_reduced"] == 56.0
    assert data["k"] == 2
    assert data["regime"] == "truncated"
    assert data["triple_count_formula"] == data["triple_count_enumerated"] == 24


def test_params_full_regime():
    code, out = run_cli("params", "--n", "7", "--r", "3")
    data = json.loads(out)
    assert code == 0
    assert data["regime"] == "full"
    assert data["k"] is None
    assert data["triple_count_formula"] == 0
    assert data["triple_count_enumerated"] == 0
    assert data["pair_count"] == 21
    # even N: each antipodal pair counted once
    _, out = run_cli("params", "--n", "8", "--r", "4")
    assert json.loads(out)["pair_count"] == 28


def test_params_conflict_row_flagged():
    code, out = run_cli("params", "--n", "9", "--r", "3", "--beta", "1")
    data = json.loads(out)
    assert code == 1
    assert data["E0_reduced"] == 57.0
    assert data["table1_conflict"] is True
    assert any(v["verdict"] == "conflict" for v in data["verdicts"])


def test_params_usage_error():
    code, _ = run_cli("params", "--n", "2", "--r", "1")
    assert code == 2


def test_table1_rows_and_exit_code():
    code, out = run_cli("table1", "--samples", "300")
    data = json.loads(out)
    # the (9,3) row is a known conflict, so the command reports failure
    assert code == 1
    by_key = {(row["N"], row["r"]): row for row in data["rows"]}
    for key, value in [((6, 2), 20), ((7, 2), 21), ((8, 2), 24), ((8, 3), 56), ((9, 2), 27)]:
        assert by_key[key]["verdict"] == "match"
        assert by_key[key]["formula"] == value
    conflict = by_key[(9, 3)]
    assert conflict["verdict"] == "conflict"
    assert conflict["oracle_confirms_formula"] is True
    assert abs(conflict["oracle_energy_reduced"] - 57.0) < 1e-6


def test_verify_ground_pass():
    code, out = run_cli("verify-ground", "--n", "6", "--r", "2", "--samples", "300")
    data = json.loads(out)
    assert code == 0
    assert data["verdict"] == "Pass"
    assert abs(data["energy_mean"] - 5.0) < 1e-8  # 20 * pi^2/L^2 at L = 2*pi
    # schema 4: one rounding multiple in place of tol and imag_ratio
    assert data["schema_version"] == "4"
    assert "tol" not in data and "imag_ratio" not in data
    assert 0.0 <= data["rounding_multiple"] <= 64.0


@pytest.mark.parametrize("n, r", [(6, 2), (9, 4)])
def test_verify_ground_is_verify_excited_ground(n, r):
    common = ("--n", str(n), "--r", str(r), "--samples", "200", "--seed", "3")
    code_g, out_g = run_cli("verify-ground", *common)
    code_e, out_e = run_cli("verify-excited", "--state", "ground", *common)
    ground, excited = json.loads(out_g), json.loads(out_e)
    assert (ground.pop("command"), excited.pop("command")) == ("verify-ground", "verify-excited")
    assert (code_g, ground) == (code_e, excited)


def test_verify_excited_states():
    for state, reduced in [("e1", 5.0), ("en", 6.0), ("nondeg", 10.0)]:
        code, out = run_cli(
            "verify-excited", "--n", "6", "--r", "2", "--state", state, "--samples", "300"
        )
        data = json.loads(out)
        assert code == 0, data
        assert data["reduced_mean"] == pytest.approx(reduced, rel=1e-8)


def test_verify_excited_boosted():
    code, out = run_cli(
        "verify-excited", "--n", "6", "--r", "2", "--state", "e1", "--q", "1",
        "--samples", "300",
    )
    data = json.loads(out)
    assert code == 0
    assert data["reduced_mean"] == pytest.approx(13.0, rel=1e-8)


def test_verify_excited_near_node():
    # one sample lies at |phi|/scale = 3.9e-9; it must be dropped as a node
    # hit: the rounding bound covers its error, so the state would still
    # pass, but kept it moves the mean by 6e-12 of the level
    code, out = run_cli(
        "verify-excited", "--n", "9", "--r", "3", "--state", "combo", "--samples", "5000",
        "--seed", "1119",
    )
    data = json.loads(out)
    assert code == 0, data
    assert data["verdict"] == "Pass"
    assert data["node_rejections"] >= 1
    assert data["samples"] + data["node_rejections"] == 5000
    assert data["reduced_mean"] == pytest.approx(23.0, rel=1e-12)


@pytest.mark.parametrize(
    "argv",
    [
        ("params", "--n", "abc", "--r", "2"),
        ("params", "--n", "6"),
        ("params", "--n", "6", "--r", "2", "--bogus"),
        ("no-such-command",),
        (),
    ],
)
def test_unparsable_command_line_rejected(argv):
    assert "tcsm" in assert_usage_error(*argv)


def test_help_and_version_exit_zero():
    for argv in (["--version"], ["--help"], ["params", "--help"]):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            assert main(argv) == 0
        assert out.getvalue() and err.getvalue() == ""


@pytest.mark.parametrize("flag", ["--length", "--beta"])
def test_nonfinite_parameter_rejected(flag):
    assert_usage_error("verify-ground", "--n", "6", "--r", "2", flag, "inf")


@pytest.mark.parametrize("argv", [
    ["params", "--n", "6", "--r", "2", "--beta", "1e200"],
    ["verify-ground", "--n", "6", "--r", "2", "--beta", "1e200"],
    ["spectrum", "--n", "6", "--r", "2", "--degree", "2", "--beta", "1e308"],
    ["verify-ground", "--n", "6", "--r", "2", "--length", "1e-310"],
    ["params", "--n", "6", "--r", "2", "--beta", "1e150", "--length", "1e-150"],
    ["verify-ground", "--n", "6", "--r", "2", "--beta", "1e150", "--length", "1e-150"],
    # G (pi/L)^2 finite, the ground energy 20 G (pi/L)^2 not
    ["params", "--n", "6", "--r", "2", "--beta", "1e150", "--length", "1e-3"],
    ["verify-ground", "--n", "6", "--r", "2", "--beta", "1e150", "--length", "1e-3",
     "--samples", "50"],
    # the ground energy finite, the local energy not
    ["verify-ground", "--n", "6", "--r", "2", "--beta", "1e150", "--length", "1e-2",
     "--samples", "50"],
    # every local energy finite, their spread not
    ["verify-excited", "--n", "6", "--r", "2", "--state", "e1", "--beta", "1e150",
     "--length", "1e-1", "--samples", "50"],
    # the exact ground coefficient N (r (r + 1) / 2 + ...) exceeds a float
    ["params", "--n", str(10**309), "--r", "1"],
    # the boost's 2 q d + N q^2 exceeds a float
    *(["verify-excited", "--n", "6", "--r", "2", "--state", "e1", "--q", str(q), "--samples", "50"]
      for q in (10**154, -10**154, 10**400)),
])
def test_overflowing_parameter_rejected(argv):
    assert "overflow" in assert_usage_error(*argv)


@pytest.mark.parametrize("argv", [
    ["params", "--n", "6", "--r", "2"],
    ["verify-ground", "--n", "6", "--r", "2"],
    ["verify-excited", "--n", "6", "--r", "2", "--state", "e1"],
    ["spectrum", "--n", "6", "--r", "2", "--degree", "2"],
])
@pytest.mark.parametrize("length", ["3e154", "1e165"])
def test_underflowing_length_rejected(argv, length):
    # (pi/L)^2 is subnormal from L = 2.1e154 and 0 at 1e165, where params
    # printed E0_physical 0.0 and the oracle divided by a zero unit
    assert "underflows" in assert_usage_error(*argv, "--length", length)


@pytest.mark.parametrize("argv", [
    ["verify-ground", "--n", "6", "--r", "2"],
    ["verify-excited", "--n", "6", "--r", "2", "--state", "e1"],
    ["table1"],
])
def test_negative_seed_rejected(argv):
    assert "seed" in assert_usage_error(*argv, "--samples", "50", "--seed", "-1")


def test_zero_samples_rejected():
    message = assert_usage_error("verify-ground", "--n", "6", "--r", "2", "--samples", "0")
    assert "samples" in message


def test_verify_ground_at_n_1000():
    # the separation floor is capped at 1/(2N), so the oracle runs at any N
    code, out = run_cli("verify-ground", "--n", "1000", "--r", "4", "--samples", "100")
    assert code == 0
    assert json.loads(out)["verdict"] == "Pass"


def test_unallocatable_sample_count_rejected():
    # 1e13 samples at N = 6 need 437 TiB, beyond any address space, so the
    # allocation fails at once; never test a size that could fit in memory
    message = assert_usage_error("verify-ground", "--n", "6", "--r", "2",
                                 "--samples", "10000000000000")
    assert "allocate" in message


def test_spectrum_degree_zero_rejected():
    assert_usage_error("spectrum", "--n", "6", "--r", "2", "--degree", "0")


# the spectrum is exact, so no tolerance decides it: spectrum has no --tol
# flag, and any value, the old default 1e-10 included, is an unknown argument
@pytest.mark.parametrize("tol", ["inf", "nan", "-1", "1e-4", "1e-10"])
def test_bad_spectrum_tol_rejected(tol):
    message = assert_usage_error("spectrum", "--n", "6", "--r", "2", "--degree", "4",
                                 "--tol", tol)
    assert "unrecognized arguments: --tol" in message


def test_oracle_policy_flags_rejected():
    # the oracle's tolerance and separation floor are fixed by the code
    for command in (["verify-ground", "--n", "6", "--r", "2"],
                    ["verify-excited", "--n", "6", "--r", "2", "--state", "e1"],
                    ["table1"]):
        for flag, value in (("--tol", "1e-8"), ("--min-sep-frac", "1e-3")):
            message = assert_usage_error(*command, "--samples", "50", flag, value)
            assert f"unrecognized arguments: {flag} {value}" in message, (command, flag)


def test_spectrum_command():
    code, out = run_cli("spectrum", "--n", "6", "--r", "2", "--degree", "1")
    data = json.loads(out)
    assert code == 0
    assert data["eigenvalues"][0]["value"] == pytest.approx(5.0)
    assert data["matched_levels"]["e1"] == pytest.approx(5.0)


@pytest.mark.parametrize("n, r, degree", [(3, 1, 3000), (6, 2, 10**29)])
def test_spectrum_past_the_dimension_limit_rejected(n, r, degree):
    # 750,000 and about 10^141 partitions: counted up to the limit, not built
    message = assert_usage_error("spectrum", "--n", str(n), "--r", str(r), "--degree", str(degree))
    assert "dim_symmetric" in message and str(spectral.SPECTRUM_MAX_DIM) in message


def test_spectrum_dimension_limit_is_inclusive(monkeypatch):
    # (6, 2, 4) has the 5 partitions 4, 31, 22, 211, 1111
    monkeypatch.setattr(spectral, "SPECTRUM_MAX_DIM", 5)
    code, out = run_cli("spectrum", "--n", "6", "--r", "2", "--degree", "4")
    assert code == 0 and json.loads(out)["dim_symmetric"] == 5
    monkeypatch.setattr(spectral, "SPECTRUM_MAX_DIM", 4)
    assert "above 4" in assert_usage_error("spectrum", "--n", "6", "--r", "2", "--degree", "4")


@pytest.mark.parametrize("n, r, degree, count", [(16, 3, 16, 18_784_170),
                                                 (20, 10, 20, 3_446_167_860)])
def test_spectrum_past_the_walk_limit_rejected(n, r, degree, count):
    # 231 and 627 partitions, under the dimension limit; the necklaces are
    # counted in closed form, not walked, so the command exits 2 at once
    message = assert_usage_error("spectrum", "--n", str(n), "--r", str(r), "--degree", str(degree))
    assert f"{count} necklaces" in message and str(spectral.SPECTRUM_MAX_STEPS) in message


def test_spectrum_walk_limit_is_inclusive(monkeypatch):
    # (6, 2, 4) has 22 necklaces, each walked over N + 12 drift pairs
    monkeypatch.setattr(spectral, "SPECTRUM_MAX_STEPS", 22 * 18)
    code, out = run_cli("spectrum", "--n", "6", "--r", "2", "--degree", "4")
    assert code == 0 and json.loads(out)["dim_cyclic"] == 22
    monkeypatch.setattr(spectral, "SPECTRUM_MAX_STEPS", 22 * 18 - 1)
    message = assert_usage_error("spectrum", "--n", "6", "--r", "2", "--degree", "4")
    assert "22 necklaces" in message and "above 395" in message


def test_count_triples():
    code, out = run_cli("params", "--n", "12", "--r", "2")
    data = json.loads(out)
    assert code == 0
    assert data["triple_count_formula"] == data["triple_count_enumerated"] == 36
    assert {"name": "triple_count", "verdict": "Pass"} in data["verdicts"]


def test_count_triples_command_is_gone():
    message = assert_usage_error("count-triples", "--n", "12", "--r", "2")
    assert "count-triples" in message


def test_params_triple_count_mismatch_fails(monkeypatch):
    monkeypatch.setattr(cli, "triple_count_formula", lambda params: -1)
    code, out = run_cli("params", "--n", "12", "--r", "2")
    assert code == 1
    assert {"name": "triple_count", "verdict": "Fail"} in json.loads(out)["verdicts"]


def test_params_counts_at_large_n():
    # read off the distance rules: neither list is built
    code, out = run_cli("params", "--n", "100000", "--r", "50")
    data = json.loads(out)
    assert code == 0
    assert data["pair_count"] == 5_000_000
    assert data["triple_count_formula"] == data["triple_count_enumerated"] == 127_500_000
    # one range of end offsets per s, so r in the thousands costs O(r)
    code, out = run_cli("params", "--n", "100000", "--r", "3000")
    data = json.loads(out)
    assert code == 0
    assert data["pair_count"] == 300_000_000
    assert data["triple_count_formula"] == data["triple_count_enumerated"] == 450_150_000_000


def test_calls_share_no_parsed_state():
    # main reuses one parser, so a flag given once must not carry over
    _, boosted = run_cli("verify-excited", "--n", "6", "--r", "2", "--state", "e1", "--q", "1",
                         "--samples", "50")
    _, plain = run_cli("verify-excited", "--n", "6", "--r", "2", "--state", "e1", "--samples", "50")
    assert json.loads(boosted)["verdicts"][0]["name"] != json.loads(plain)["verdicts"][0]["name"]


def test_deterministic_output():
    _, out1 = run_cli("verify-ground", "--n", "6", "--r", "2", "--samples", "200", "--seed", "7")
    _, out2 = run_cli("verify-ground", "--n", "6", "--r", "2", "--samples", "200", "--seed", "7")
    assert out1 == out2


def test_csv_projection():
    code, out = run_cli("table1", "--samples", "200", "--output", "csv")
    lines = out.strip().splitlines()
    assert lines[0].startswith("N,")
    assert len(lines) == 7  # header + six rows


# at degree 4 no level is certified: the table is empty, not a key/value dump
@pytest.mark.parametrize("degree, rows", [(4, []), (6, ["1,6.0", "1,16.0"])])
def test_spectrum_csv_layout_is_fixed(degree, rows):
    code, out = run_cli(
        "spectrum", "--n", "6", "--r", "2", "--degree", str(degree), "--output", "csv"
    )
    assert code == 0
    assert out.splitlines() == ["multiplicity,value"] + rows


def test_params_csv_is_key_value_pairs():
    code, out = run_cli("params", "--n", "8", "--r", "3", "--output", "csv")
    assert code == 0
    header, *lines = out.splitlines()
    assert header == "key,value"
    pairs = {k: json.loads(v) for k, v in csv.reader(lines)}
    _, doc = run_cli("params", "--n", "8", "--r", "3")
    want = json.loads(doc)
    del want["verdicts"]
    assert pairs == want


def test_out_path(tmp_path):
    target = tmp_path / "report.json"
    code, out = run_cli(
        "params", "--n", "6", "--r", "2", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["E0_reduced"] == 20.0


@pytest.mark.parametrize("where", ["directory", "missing parent"])
def test_unwritable_out_path_rejected(tmp_path, where):
    target = tmp_path if where == "directory" else tmp_path / "missing" / "report.json"
    message = assert_usage_error("spectrum", "--n", "6", "--r", "2", "--degree", "3",
                                 "--out", str(target))
    assert str(target) in message


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "tcsm.cli", "params", "--n", "6", "--r", "2"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["E0_reduced"] == 20.0


def test_exact_commands_never_import_numpy():
    # each handler imports its own route: `params` and `spectrum` run on
    # `model`, `polyalg` and `spectral` alone, and only the oracle loads
    # numpy; no record of theirs needs `dataclasses` (and `inspect` with it)
    code = """
import contextlib, io, sys
from tcsm.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["params", "--n", "6", "--r", "2"]) == 0
    assert main(["spectrum", "--n", "7", "--r", "2", "--degree", "6"]) == 0
assert "numpy" not in sys.modules, "params or spectrum loaded numpy"
assert "dataclasses" not in sys.modules, "params or spectrum loaded dataclasses"
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["verify-ground", "--n", "6", "--r", "2", "--samples", "50"]) == 0
assert "numpy" in sys.modules, "verify-ground ran without numpy"
"""
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
