import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import rmtkernels
from rmtkernels import cli
from rmtkernels.cauchy import CauchyConvergenceError
from rmtkernels.cli import EXIT_BROKEN_PIPE, EXIT_OK, EXIT_TOLERANCE, EXIT_USAGE, main
from rmtkernels.orthopoly import PotentialSpec, WeightSpec, build_recurrence
from rmtkernels.universality import ScaleCancellationError


def test_specfun_selftest_passes(capsys):
    assert main(["specfun-selftest"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS" in out


def test_malformed_potential_is_usage_error(capsys):
    assert main(["equilibrium", "--potential", "0,0,abc"]) == EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_missing_required_flag_is_usage_error(capsys):
    assert main(["recurrence", "--alpha", "0.0"]) == EXIT_USAGE
    _assert_one_error_line(capsys.readouterr().err)


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["no-such-command"]) == EXIT_USAGE
    _assert_one_error_line(capsys.readouterr().err)


# each subcommand's long flags, and whether each is required
_SURFACE = {
    "recurrence": {("alpha", True), ("potential", True), ("n", True), ("max-degree", True),
                   ("out", False)},
    "cauchy": {("table", True), ("j", True), ("z", True)},
    "kernel": {("family", True), ("table", True), ("m", False), ("zeta", True), ("eta", True)},
    "limit-kernel": {("kernel", True), ("alpha", True), ("zeta", True), ("eta", True)},
    "equilibrium": {("potential", True), ("report", False)},
    "universality": {("case", True), ("alpha", True), ("potential", True), ("m", False),
                     ("n", False), ("out", False)},
    "ratio-check": {("alpha", True), ("potential", True), ("zeta", False), ("n", False)},
    "oracle": {("check", True), ("n", True), ("alpha", True), ("potential", True),
               ("points", False)},
    "parametrix": {("alpha", True), ("zeta", True), ("sector", True)},
    "parametrix-jump-test": set(),
    "specfun-selftest": set(),
}


def test_parser_surface(capsys):
    # the usage lines of --help: the subcommands, then each one's flags, a
    # flag in brackets being optional
    assert main(["--help"]) == EXIT_OK
    commands = re.search(r"\{([\w,-]+)\}", capsys.readouterr().out)[1]
    assert sorted(commands.split(",")) == sorted(_SURFACE)
    for command, flags in _SURFACE.items():
        assert main([command, "--help"]) == EXIT_OK
        usage = capsys.readouterr().out.split("\n\n")[0]
        found = {(name, not bracket) for bracket, name in re.findall(r"(\[?)--([\w-]+)", usage)}
        assert found == flags, command


def test_equilibrium_report(tmp_path, capsys):
    rep = tmp_path / "eq.json"
    assert main(["equilibrium", "--potential", "0,0,2",
                 "--report", str(rep)]) == EXIT_OK
    doc = json.loads(rep.read_text())
    assert doc["b0"] == pytest.approx(-1.0, abs=1e-10)
    assert doc["a1"] == pytest.approx(1.0, abs=1e-10)
    assert doc["psi0"] == pytest.approx(2.0 / math.pi, rel=1e-10)
    assert "PASS" in capsys.readouterr().out


def test_recurrence_table_roundtrip(tmp_path, capsys):
    table = tmp_path / "table.json"
    assert main(["recurrence", "--alpha", "0.3", "--potential", "0,0,2",
                 "--n", "6", "--max-degree", "12", "--out", str(table)]) == EXIT_OK
    doc = json.loads(table.read_text())
    assert doc["n"] == 6 and len(doc["b"]) == 13
    capsys.readouterr()

    assert main(["cauchy", "--table", str(table), "--j", "3",
                 "--z", "0.4,0.3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "h_3" in out and "log_scale" in out

    assert main(["kernel", "--family", "II", "--table", str(table),
                 "--zeta", "0.3,0.2", "--eta=-0.4,0"]) == EXIT_OK
    assert "W_II" in capsys.readouterr().out


def test_recurrence_to_stdout(capsys):
    # without --out the table goes to stdout as JSON, then the residual line
    argv = ["recurrence", "--alpha", "0.3", "--potential", "0,0,2", "--n", "6",
            "--max-degree", "12"]
    outs = []
    for _ in range(2):
        assert main(argv) == EXIT_OK
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    body, last = outs[0].rstrip("\n").rsplit("\n", 1)
    doc = json.loads(body)
    t = build_recurrence(WeightSpec(0.3, 6, PotentialSpec((0.0, 0.0, 2.0))), 12)
    assert doc == json.loads(json.dumps(cli._table_to_json(t)))
    assert last == f"orthogonality residual: {cli._fmt(doc['orthogonality_residual'])}"


def test_limit_kernel_output_precision(capsys):
    assert main(["limit-kernel", "--kernel", "I", "--alpha", "0.0",
                 "--zeta", "0.7", "--eta", "0.2,0"]) == EXIT_USAGE  # bad zeta format
    capsys.readouterr()
    assert main(["limit-kernel", "--kernel", "I", "--alpha", "0.0",
                 "--zeta", "0.7,0", "--eta", "0.2,0"]) == EXIT_OK
    out = capsys.readouterr().out
    want = math.sin(math.pi * 0.5) / (math.pi * 0.5)
    assert format(want, ".17g")[:12] in out


def test_oracle_heine_check(capsys):
    assert main(["oracle", "--check", "heine", "--n", "2", "--alpha", "0.0",
                 "--potential", "0,0,1", "--points", "0.7,0"]) == EXIT_OK
    assert "PASS" in capsys.readouterr().out


def test_oracle_inverse_requires_n3(capsys):
    assert main(["oracle", "--check", "inverse", "--n", "2", "--alpha", "0.0",
                 "--potential", "0,0,1"]) == EXIT_USAGE
    assert "n 3" in capsys.readouterr().err


def test_oracle_inverse_at_another_n_fails_before_any_work(monkeypatch, capsys):
    # the size is checked first: no density, no table, and a weight whose
    # table fails its check (alpha 200) does not turn exit 1 into exit 2
    def no_work(*args):
        raise AssertionError("make_joint_density ran")

    monkeypatch.setattr(cli, "make_joint_density", no_work)
    for alpha in ("0.0", "200"):
        assert main(["oracle", "--check", "inverse", "--n", "2", "--alpha", alpha,
                     "--potential", "0,0,1"]) == EXIT_USAGE
        _assert_one_error_line(capsys.readouterr().err)


@pytest.mark.parametrize("potential", ["0,0,2", "0,0,0,0,1"])
@pytest.mark.parametrize("alpha", ["0", "0.3"])
@pytest.mark.parametrize("check,n", [("product", 2), ("product", 3), ("ratio", 2),
                                     ("ratio", 3), ("inverse", 3)])
def test_oracle_kernel_checks(check, n, alpha, potential, capsys):
    # the quadrature oracle against kernel_grids' family I at m = 1
    # (product), family II at m = 0 (ratio) and family III at m = -1
    # (inverse); all agree to a few ulps, far inside the checks' tolerances
    assert main(["oracle", "--check", check, "--n", str(n), "--alpha", alpha,
                 "--potential", potential]) == EXIT_OK
    out = capsys.readouterr().out
    match = re.fullmatch(rf"{check}: .*, rel err = (\S+) -> PASS\n", out)
    assert match and float(match[1]) < 1e-13, out


def test_limit_kernel_zero_imaginary_part_sign(capsys):
    # -0.7 - 0i is -0.7 + 0i on the J-type slot of kernel I: one value
    out = []
    for zeta in ("--zeta=-0.7,-0", "--zeta=-0.7,0"):
        assert main(["limit-kernel", "--kernel", "I", "--alpha", "0.3", zeta,
                     "--eta", "0.4,0"]) == EXIT_OK
        out.append(capsys.readouterr().out.rsplit("=", 1)[1])
    assert out[0] == out[1]


def _assert_one_error_line(err):
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in err


@pytest.fixture
def table_file(tmp_path, capsys):
    table = tmp_path / "table.json"
    assert main(["recurrence", "--alpha", "0.3", "--potential", "0,0,2",
                 "--n", "6", "--max-degree", "12", "--out", str(table)]) == EXIT_OK
    capsys.readouterr()
    return str(table)


@pytest.mark.parametrize("argv", [
    ["cauchy", "--table", "{table}", "--j", "20", "--z", "0.4,0.3"],
    ["kernel", "--family", "I", "--table", "{table}", "--m", "9",
     "--zeta", "0.3,0", "--eta", "0.2,0"],
    ["cauchy", "--table", "{table}", "--j", "3", "--z", "0.3,0"],
    ["kernel", "--family", "II", "--table", "{table}",
     "--zeta", "0.3,0.2", "--eta", "0.3,0.2"],
    ["recurrence", "--alpha", "-1", "--potential", "0,0,2", "--n", "4",
     "--max-degree", "6"],
    ["limit-kernel", "--kernel", "II+", "--alpha", "0.3",
     "--zeta", "0.5,-0.1", "--eta", "0.2,0"],
    ["limit-kernel", "--kernel", "II+", "--alpha", "0.3",
     "--zeta", "0.3,0.2", "--eta", "0.3,0.2"],
    ["limit-kernel", "--kernel", "I", "--alpha", "0.3", "--zeta", "1e-7,0", "--eta=-1e-7,0"],
    ["parametrix", "--alpha", "0.3", "--zeta", "0,0", "--sector", "1"],
    ["ratio-check", "--alpha", "0", "--potential", "0,0,2", "--zeta", "0.5,0"],
    ["recurrence", "--alpha", "inf", "--potential", "0,0,2", "--n", "4", "--max-degree", "6"],
    ["recurrence", "--alpha", "nan", "--potential", "0,0,2", "--n", "4", "--max-degree", "6"],
    ["recurrence", "--alpha", "0", "--potential", "0,0,1e-300", "--n", "1",
     "--max-degree", "2"],
    ["limit-kernel", "--kernel", "I", "--alpha", "1e6", "--zeta", "0.7,0", "--eta", "0.2,0"],
    ["limit-kernel", "--kernel", "III+", "--alpha", "200",
     "--zeta", "0.7,0.1", "--eta", "0.2,0.3"],
    ["universality", "--case", "T1", "--alpha", "1e6", "--potential", "0,0,2"],
    ["recurrence", "--alpha", "512", "--potential", "0,0,2", "--n", "8", "--max-degree", "10"],
    ["parametrix", "--alpha", "-3", "--zeta", "0.9,0.2", "--sector", "1"],
    ["parametrix", "--alpha", "-0.5", "--zeta", "0.2,0.9", "--sector", "2"],
    ["limit-kernel", "--kernel", "I", "--alpha", "-3", "--zeta", "0.7,0", "--eta", "0.2,0"],
    ["limit-kernel", "--kernel", "III+", "--alpha", "-0.5",
     "--zeta", "0.7,0.1", "--eta", "0.2,0.3"],
    ["cauchy", "--table", "{table}", "--j", "10", "--z", "0.83,-2.2e-309"],
], ids=["cauchy-degree", "kernel-degree", "cauchy-real-z", "kernel-II-diagonal",
        "recurrence-alpha", "limit-kernel-half-plane", "limit-kernel-II-pole",
        "limit-kernel-I-confluent-at-0", "parametrix-origin",
        "ratio-check-real-zeta", "recurrence-infinite-alpha", "recurrence-nan-alpha",
        "recurrence-flat-potential", "limit-kernel-overflow", "limit-kernel-III+-overflow",
        "universality-limit-overflow", "recurrence-jacobi-mass-overflow",
        "parametrix-alpha-minus-3", "parametrix-alpha-minus-half", "limit-kernel-alpha-minus-3",
        "limit-kernel-alpha-minus-half", "cauchy-subnormal-z"])
def test_domain_error_is_usage_error(argv, table_file, capsys):
    argv = [a.replace("{table}", table_file) for a in argv]
    assert main(argv) == EXIT_USAGE
    _assert_one_error_line(capsys.readouterr().err)


@pytest.mark.parametrize("argv", [
    ["cauchy", "--table", "{tmp}/missing.json", "--j", "3", "--z", "0.4,0.3"],
    ["kernel", "--family", "I", "--table", "{tmp}", "--zeta", "0.3,0", "--eta", "0.2,0"],
    ["cauchy", "--table", "{tmp}/malformed.json", "--j", "3", "--z", "0.4,0.3"],
    ["cauchy", "--table", "{tmp}/no_coeffs.json", "--j", "3", "--z", "0.4,0.3"],
    ["cauchy", "--table", "{tmp}/fractional_degree.json", "--j", "3", "--z", "0.4,0.3"],
    ["universality", "--case", "T1", "--alpha", "0.3", "--potential", "0,0,2",
     "--n", "16,8"],
    ["universality", "--case", "T1", "--alpha", "0.3", "--potential", "0,0,2", "--n", "8"],
    ["universality", "--case", "T1", "--alpha", "0.3", "--potential", "0,0,2", "--n", "8,x"],
    ["recurrence", "--alpha", "0", "--potential", "0,0,2", "--n", "4",
     "--max-degree", "-1"],
    ["cauchy", "--table", "{table}", "--j", "3", "--z", "nan,0.3"],
    ["cauchy", "--table", "{table}", "--j", "3", "--z", "inf,0.3"],
    ["kernel", "--family", "I", "--table", "{table}", "--zeta", "nan,0", "--eta", "0.2,0"],
    ["ratio-check", "--alpha", "0", "--potential", "0,0,2", "--zeta", "nan,0.5"],
    ["ratio-check", "--alpha", "0.3", "--potential", "0,0,2", "--n", "8,8"],
    ["ratio-check", "--alpha", "0.3", "--potential", "0,0,2", "--n", "16,8"],
    ["oracle", "--check", "heine", "--n", "2", "--alpha", "0", "--potential", "0,0,1",
     "--points", "nan,0"],
    ["recurrence", "--alpha", "0", "--potential", "0,0,nan", "--n", "4", "--max-degree", "6"],
    ["equilibrium", "--potential", "0,0,nan"],
], ids=["table-missing", "table-directory", "table-malformed", "table-missing-key",
        "table-fractional-degree", "universality-decreasing-n", "universality-one-n",
        "universality-malformed-n", "recurrence-negative-degree", "cauchy-nan-z",
        "cauchy-infinite-z", "kernel-nan-zeta", "ratio-check-nan-zeta", "ratio-check-repeated-n",
        "ratio-check-decreasing-n", "oracle-nan-point",
        "recurrence-nan-potential", "equilibrium-nan-potential"])
def test_bad_input_is_usage_error(argv, table_file, tmp_path, capsys):
    (tmp_path / "malformed.json").write_text("{")
    (tmp_path / "no_coeffs.json").write_text(json.dumps({"alpha": 0.3, "n": 6}))
    (tmp_path / "fractional_degree.json").write_text(json.dumps(
        {"alpha": 0.3, "n": 6, "coeffs": [0, 0, 2], "max_degree": 6.5,
         "a": [], "b": [], "log_norm_sq": []}))
    argv = [a.replace("{tmp}", str(tmp_path)).replace("{table}", table_file) for a in argv]
    assert main(argv) == EXIT_USAGE
    _assert_one_error_line(capsys.readouterr().err)


@pytest.mark.parametrize("family, zeta", [("II", "0.3,1e200"), ("III", "0.3,1e300")])
def test_kernel_far_out_is_not_zero(family, zeta, table_file, capsys):
    assert main(["kernel", "--family", family, "--table", table_file,
                 "--zeta", zeta, "--eta", "0.2,0.5"]) == EXIT_OK
    out = capsys.readouterr().out
    mantissa = re.search(r"mantissa = (\S+) ([+-]) (\S+)i", out)
    assert abs(complex(float(mantissa[1]), float(mantissa[3]))) > 1e-60, out


def test_tampered_table_rejected(table_file, capsys):
    with open(table_file) as fh:
        doc = json.load(fh)
    doc["b"][5] *= 1.001
    with open(table_file, "w") as fh:
        json.dump(doc, fh)
    assert main(["cauchy", "--table", table_file, "--j", "3",
                 "--z", "0.4,0.3"]) == EXIT_USAGE
    assert "stored b" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["a", "b", "log_norm_sq"])
def test_table_with_a_nan_entry_rejected(key, table_file, capsys):
    # a nan entry compares false with the tolerance, and fails it like a wrong one
    with open(table_file) as fh:
        doc = json.load(fh)
    doc[key][5] = math.nan
    with open(table_file, "w") as fh:
        json.dump(doc, fh)
    assert main(["cauchy", "--table", table_file, "--j", "3",
                 "--z", "0.4,0.3"]) == EXIT_USAGE
    err = capsys.readouterr().err
    _assert_one_error_line(err)
    assert f"stored {key}" in err


def test_oracle_beyond_cap_is_tolerance_error(capsys):
    assert main(["oracle", "--check", "heine", "--n", "4", "--alpha", "0",
                 "--potential", "0,0,1"]) == EXIT_TOLERANCE
    _assert_one_error_line(capsys.readouterr().err)


def test_oracle_mean_beyond_the_doubles_is_tolerance_error(capsys):
    # <det(x - M)> at x = 1e300 leaves the doubles: one error line, not an OverflowError
    assert main(["oracle", "--check", "heine", "--n", "2", "--alpha", "0",
                 "--potential", "0,0,2", "--points", "1e300,1e-300"]) == EXIT_TOLERANCE
    _assert_one_error_line(capsys.readouterr().err)


@pytest.mark.parametrize("m", [-2, -1, 0, 1, 2])
def test_kernel_at_an_overflowing_confluent_pair_is_tolerance_error(m, tmp_path, capsys):
    # family III at zeta = eta = 1e-200 (1 + i) takes h'_j at the midpoint,
    # whose terms u (u - r) leave the doubles: one error line, no warning
    table = tmp_path / "table.json"
    assert main(["recurrence", "--alpha", "0", "--potential", "0,0,2", "--n", "8",
                 "--max-degree", "12", "--out", str(table)]) == EXIT_OK
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["kernel", "--family", "III", "--table", str(table), "--m", str(m),
                     "--zeta", "1e-200,1e-200", "--eta", "1e-200,1e-200"]) == EXIT_TOLERANCE
    assert not caught, [str(w.message) for w in caught]
    _assert_one_error_line(capsys.readouterr().err)


def test_cauchy_convergence_failure_is_tolerance_error(tmp_path, capsys,
                                                       monkeypatch):
    table = tmp_path / "table.json"
    assert main(["recurrence", "--alpha", "0.3", "--potential", "0,0,2",
                 "--n", "4", "--max-degree", "6", "--out", str(table)]) == EXIT_OK
    capsys.readouterr()

    def no_convergence(t, j, z):
        raise CauchyConvergenceError("refinement did not converge")

    monkeypatch.setattr(cli, "cauchy_transform", no_convergence)
    assert main(["cauchy", "--table", str(table), "--j", "3",
                 "--z", "0.4,0.3"]) == EXIT_TOLERANCE
    _assert_one_error_line(capsys.readouterr().err)


def test_parametrix_jump_subcommand(capsys):
    assert main(["parametrix-jump-test"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("alpha =") == 3 and "PASS" in out


def test_parametrix_matrix_print(capsys):
    assert main(["parametrix", "--alpha", "0.3", "--zeta", "0.9,0.2",
                 "--sector", "1"]) == EXIT_OK
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 2


@pytest.mark.parametrize("argv", [
    ["parametrix", "--alpha", "200", "--zeta", "0.5,0.1", "--sector", "1"],
    ["parametrix", "--alpha", "-0.49", "--zeta", "1e300,1e-300", "--sector", "1"],
], ids=["matrix-overflow", "phase-underflow"])
def test_parametrix_out_of_range_is_usage_error(argv, capsys):
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    _assert_one_error_line(captured.err)
    assert "nan" not in captured.out


def test_ratio_check_subcommand(capsys):
    assert main(["ratio-check", "--alpha", "0.0", "--potential", "0,0,2",
                 "--zeta", "0.5,0.5", "--n", "4,8"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS" in out and "n = 8" in out


def test_universality_shift_beyond_eight(capsys):
    # the tables are built to degree n + m, so a kernel shift m = 9 has its degrees
    assert main(["universality", "--case", "T1", "--alpha", "0.3", "--potential", "0,0,2",
                 "--m", "9"]) == EXIT_OK
    assert '"m": 9' in capsys.readouterr().out


def test_universality_csv_reproducible(tmp_path, capsys):
    args = ["universality", "--case", "T1", "--alpha", "0.0",
            "--potential", "0,0,2", "--n", "4,8"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == EXIT_OK
    summary = [l for l in capsys.readouterr().out.splitlines() if '"slope"' in l]
    assert summary
    assert main(args + ["--out", str(out2)]) == EXIT_OK
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header.startswith("n,zeta_re,zeta_im")


@pytest.mark.parametrize("argv", [
    ["recurrence", "--alpha", "0.3", "--potential", "0,0,2", "--n", "6", "--max-degree", "12",
     "--out"],
    ["equilibrium", "--potential", "0,0,2", "--report"],
    ["universality", "--case", "T1", "--alpha", "0.0", "--potential", "0,0,2", "--n", "4,8",
     "--out"],
], ids=["recurrence", "equilibrium", "universality"])
def test_unwritable_output_is_usage_error(argv, tmp_path, capsys):
    # a missing directory and a directory: one error line naming the path, exit 1
    for path in (tmp_path / "missing" / "x.csv", tmp_path):
        assert main(argv + [str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == []


def test_universality_out_is_checked_before_the_study(tmp_path, monkeypatch, capsys):
    # an unwritable --out fails before the study runs; a writable one is
    # neither created nor truncated before the study's records are written
    def study(case):
        raise ScaleCancellationError("the study ran")

    monkeypatch.setattr(cli, "convergence_study", study)
    argv = ["universality", "--case", "T1", "--alpha", "0.0", "--potential", "0,0,2",
            "--n", "4,8", "--out"]
    for path in (tmp_path / "missing" / "x.csv", tmp_path, tmp_path / "kept.csv" / "x.csv"):
        (tmp_path / "kept.csv").write_text("old\n")
        assert main(argv + [str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1
    for path in (tmp_path / "kept.csv", tmp_path / "new.csv"):
        assert main(argv + [str(path)]) == EXIT_TOLERANCE
        assert "the study ran" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["kept.csv"]
    assert (tmp_path / "kept.csv").read_text() == "old\n"


def test_config_file_preloads_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 0.0, "potential": "0,0,2",
                               "zeta": "0.5,0.5", "n": "4,8"}))
    assert main(["--config", str(cfg), "ratio-check"]) == EXIT_OK
    capsys.readouterr()
    # explicit flag wins over the config value
    assert main(["--config", str(cfg), "ratio-check", "--zeta", "0.5,-0.5"]) == EXIT_OK
    capsys.readouterr()
    # so it does in the --flag=value form, for the flag and for --config
    for argv in (["--config", str(cfg)], [f"--config={cfg}"]):
        assert main(argv + ["ratio-check", "--n=8"]) == EXIT_OK
        assert re.findall(r"^n = (\d+)", capsys.readouterr().out, re.M) == ["8"]
        assert main(argv + ["ratio-check", "--n=8,x"]) == EXIT_USAGE
        _assert_one_error_line(capsys.readouterr().err)
    # the --config=file form reads the file: its zeta on the real axis fails
    cfg.write_text(json.dumps({"alpha": 0.0, "potential": "0,0,2", "zeta": "0.5,0"}))
    assert main([f"--config={cfg}", "ratio-check"]) == EXIT_USAGE
    _assert_one_error_line(capsys.readouterr().err)


@pytest.mark.parametrize("content", [None, "[1, 2]"], ids=["missing-file", "json-list"])
def test_unreadable_config_is_usage_error(content, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    if content is not None:
        cfg.write_text(content)
    assert main(["--config", str(cfg), "specfun-selftest"]) == EXIT_USAGE
    _assert_one_error_line(capsys.readouterr().err)


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    # seed and grid were flags that did nothing; they are unknown keys now,
    # and so is help, which no config value could drive
    for key in ("nonsense", "seed", "grid", "help"):
        cfg.write_text(json.dumps({key: 1}))
        assert main(["--config", str(cfg), "specfun-selftest"]) == EXIT_USAGE
        assert "unknown config key" in capsys.readouterr().err


def test_config_loses_to_an_abbreviated_flag(tmp_path, capsys):
    cfg, out = tmp_path / "cfg.json", tmp_path / "t.json"
    cfg.write_text(json.dumps({"max-degree": 12}))
    assert main(["--config", str(cfg), "recurrence", "--alpha", "0", "--potential", "0,0,2",
                 "--n", "4", "--max", "6", "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["max_degree"] == 6
    capsys.readouterr()
    # --c after the subcommand abbreviates --check, not --config
    cfg.write_text(json.dumps({"alpha": 0.0}))
    assert main(["--config", str(cfg), "oracle", "--c", "heine", "--n", "2",
                 "--potential", "0,0,2"]) == EXIT_OK


def test_abbreviated_config_is_read(tmp_path, capsys):
    # the file's zeta on the real axis fails, as it does under --config
    cfg = tmp_path / "cfg2.json"
    cfg.write_text(json.dumps({"zeta": "0.5,0.0"}))
    assert main(["--conf", str(cfg), "ratio-check", "--alpha", "0",
                 "--potential", "0,0,2"]) == EXIT_USAGE
    _assert_one_error_line(capsys.readouterr().err)


def test_config_keys_of_other_subcommands(tmp_path, capsys):
    # a key that only another subcommand takes does nothing here; a value
    # outside its flag's choices is rejected like the flag itself
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "I"}))
    assert main(["--config", str(cfg), "specfun-selftest"]) == EXIT_OK
    capsys.readouterr()
    cfg.write_text(json.dumps({"family": "IV"}))
    assert main(["--config", str(cfg), "kernel"]) == EXIT_USAGE
    _assert_one_error_line(capsys.readouterr().err)


# -- standing argv sweep: random flags over every subcommand, sizes n <= 64 --

def _mostly(valid, odd):
    """Values of ``valid``, and one time in eight one of the ``odd`` strings."""
    return st.tuples(st.integers(0, 7), valid, st.sampled_from(odd)).map(
        lambda t: t[2] if t[0] == 0 else t[1])


_ALPHAS = _mostly(st.floats(-0.49, 6.0).map(repr),
                  ["-3", "-0.5", "70", "200", "1e6", "nan", "inf", "x", ""])
_ODD_POINTS = ["0,0", "1e300,1e-300", "1e-300,0", "0.3,1e300", "nan,0.5", "0.5,inf", "0.5", "a,b",
               "0.83,-2.2e-309", "1e-200,1e-200"]
_POINTS = _mostly(st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0).filter(bool)).map(
    lambda p: f"{p[0]!r},{p[1]!r}"), _ODD_POINTS)
# r e^{i theta} in the first quadrant, |zeta| from 1e-3 to 1e3: inside one sector or the other
_QUADRANT_POINTS = _mostly(st.tuples(st.floats(-3.0, 3.0), st.floats(1e-3, 1.57)).map(
    lambda p: f"{10 ** p[0] * math.cos(p[1])!r},{10 ** p[0] * math.sin(p[1])!r}"), _ODD_POINTS)
_POTENTIALS = _mostly(st.sampled_from(["0,0,2", "0,0,1", "1,0,2", "0,0,0,0,1", "0,0,1,0,1"]),
                      ["0,1", "0,0,-1", "0,0,1e-300", "0,0,nan", "0,0,x"])
_SIZES = _mostly(st.integers(1, 64).map(str), ["0", "-1", "1.5", "x"])
_SIZE_LISTS = _mostly(
    st.lists(st.sampled_from([4, 8, 16, 32, 64]), min_size=2, max_size=3, unique=True).map(
        lambda ns: ",".join(map(str, sorted(ns)))),
    ["", "8", "16,8", "8,8", "0,8", "8,x", "4,8,128"])


def _command(name, **flags):
    """argv of subcommand ``name`` with ``--flag=value`` for each named strategy
    (``_`` in a flag's name is ``-``)."""
    return st.tuples(*flags.values()).map(lambda values: [name] + [
        f"--{flag.replace('_', '-')}={v}" for flag, v in zip(flags, values)])


_ARGV = st.one_of(
    _command("recurrence", alpha=_ALPHAS, potential=_POTENTIALS, n=_SIZES, max_degree=_SIZES),
    _command("cauchy", table=st.just("{table}"),
             j=_mostly(st.integers(0, 12).map(str), ["13", "-1"]), z=_POINTS),
    _command("kernel", family=_mostly(st.sampled_from(["I", "II", "III"]), ["IV"]),
             table=st.just("{table}"), m=st.integers(-3, 8).map(str), zeta=_POINTS, eta=_POINTS),
    _command("limit-kernel", kernel=st.sampled_from(["I", "II+", "II-", "III+", "III+-", "III-"]),
             alpha=_ALPHAS, zeta=_POINTS, eta=_POINTS),
    _command("equilibrium", potential=_POTENTIALS),
    _command("universality", case=st.sampled_from(["T1", "T2a", "T2b", "T3a", "T3b", "T3c"]),
             alpha=_ALPHAS, potential=_POTENTIALS, m=st.integers(-3, 9).map(str), n=_SIZE_LISTS),
    _command("ratio-check", alpha=_ALPHAS, potential=_POTENTIALS, zeta=_POINTS, n=_SIZE_LISTS),
    _command("oracle", check=st.sampled_from(["heine", "product", "ratio", "inverse"]),
             n=_mostly(st.integers(1, 3).map(str), ["0", "4"]), alpha=_ALPHAS,
             potential=_POTENTIALS, points=st.lists(_POINTS, max_size=2).map(";".join)),
    _command("parametrix", alpha=_ALPHAS, zeta=_QUADRANT_POINTS,
             sector=_mostly(st.sampled_from(["1", "2"]), ["3"])),
    _command("parametrix-jump-test"),
    _command("specfun-selftest"),
)


@pytest.fixture(scope="module")
def sweep_table(tmp_path_factory):
    table = tmp_path_factory.mktemp("sweep") / "table.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["recurrence", "--alpha", "0.3", "--potential", "0,0,2", "--n", "6",
                     "--max-degree", "12", "--out", str(table)]) == EXIT_OK
    return str(table)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(argv=_ARGV, drop=st.integers(0, 40))
# the two warning classes of subnormal and tiny points, in the sweep itself
@example(argv=["cauchy", "--table={table}", "--j=3", "--z=0.83,-2.2e-309"], drop=0)
@example(argv=["kernel", "--family=III", "--table={table}", "--m=0", "--zeta=1e-200,1e-200",
               "--eta=1e-200,1e-200"], drop=0)
def test_random_argv_keeps_the_exit_code_contract(sweep_table, argv, drop):
    # any argv ends in an exit code of the contract, at most one line on
    # stderr, no warning, and no nan in what a successful command prints;
    # ``drop`` now and then removes one flag.  A numpy warning would print a
    # line of its own on stderr outside pytest, which captures it instead
    argv = [a.replace("{table}", sweep_table) for a in argv]
    if 0 < drop < len(argv):
        del argv[drop]
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err, \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert not caught, (argv, [str(w.message) for w in caught])
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_TOLERANCE, EXIT_BROKEN_PIPE), (argv, err.getvalue())
    assert len(err.getvalue().splitlines()) <= 1, (argv, err.getvalue())
    assert code != EXIT_OK or "nan" not in out.getvalue().lower(), (argv, out.getvalue())


def _fresh_env():
    """The environment for a fresh interpreter that imports this rmtkernels."""
    src = str(Path(rmtkernels.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def _scipy_modules_after(code):
    """The scipy modules loaded once ``code`` has run in a fresh interpreter."""
    code += "\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    out = subprocess.run([sys.executable, "-c", code], env=_fresh_env(), capture_output=True,
                         text=True, check=True)
    return out.stdout.strip().splitlines()[-1]


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_closed_output_pipe_exits_quietly(buffered):
    # a reader that closes early (`rmtkernels equilibrium | head -1`) ends the
    # command with EXIT_BROKEN_PIPE and nothing on stderr, not a traceback:
    # unbuffered, print fails; buffered, the flush after the command does
    env = {k: v for k, v in _fresh_env().items() if k != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        out = subprocess.run(
            [sys.executable, "-m", "rmtkernels.cli", "equilibrium", "--potential", "0,0,2"],
            env=env, stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write_end)
    assert (out.returncode, out.stderr) == (EXIT_BROKEN_PIPE, "")


def test_cold_start_does_not_import_scipy():
    # the CLI's cold start, a table build, the oracle and a refined Cauchy
    # transform need numpy only, and none of them loads numpy's lazily
    # imported polynomial package either (the equilibrium measure does)
    assert _scipy_modules_after(
        "import sys, rmtkernels\n"
        "from rmtkernels import cli, oracle\n"
        "from rmtkernels.cauchy import cauchy_transform\n"
        "from rmtkernels.orthopoly import PotentialSpec, WeightSpec, build_recurrence\n"
        "cli.build_parser()\n"
        "assert 'numpy.polynomial' not in sys.modules\n"
        "t = build_recurrence(WeightSpec(0.3, 4, PotentialSpec((0, 0, 2))), 8)\n"
        "w = WeightSpec(0.3, 2, PotentialSpec((0, 0, 2)))\n"
        "oracle.average_char_poly(oracle.make_joint_density(w), 0.7)\n"
        "cauchy_transform(t, 4, 0.3 + 1e-3j)\n"
        "assert 'numpy.polynomial' not in sys.modules\n"
    ) == "[]"


def test_equilibrium_command_does_not_import_scipy():
    # the equilibrium measure is closed form: solving and checking it needs numpy only
    assert _scipy_modules_after(
        "import sys\n"
        "from rmtkernels import cli\n"
        "assert cli.main(['equilibrium', '--potential', '0,0,2']) == 0\n"
    ) == "[]"
