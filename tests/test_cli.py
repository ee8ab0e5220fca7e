import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import rmtkernels
from rmtkernels import cli
from rmtkernels.cauchy import CauchyConvergenceError
from rmtkernels.cli import EXIT_BROKEN_PIPE, EXIT_OK, EXIT_TOLERANCE, EXIT_USAGE, main


def test_specfun_selftest_passes(capsys):
    assert main(["specfun-selftest"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS" in out


def test_malformed_potential_is_usage_error(capsys):
    assert main(["equilibrium", "--potential", "0,0,abc"]) == EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_missing_required_flag_is_usage_error():
    assert main(["recurrence", "--alpha", "0.0"]) == EXIT_USAGE


def test_unknown_subcommand_is_usage_error():
    assert main(["no-such-command"]) == EXIT_USAGE


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


@pytest.mark.parametrize("potential", ["0,0,2", "0,0,0,0,1"])
@pytest.mark.parametrize("alpha", ["0", "0.3"])
@pytest.mark.parametrize("check,n", [("product", 2), ("product", 3), ("ratio", 2),
                                     ("ratio", 3), ("inverse", 3)])
def test_oracle_kernel_checks(check, n, alpha, potential, capsys):
    # the quadrature oracle against kernel_grid's family I at m = 1
    # (product), family II at m = 0 (ratio) and family III at m = -1
    # (inverse); all agree to a few ulps, far inside the checks' tolerances
    assert main(["oracle", "--check", check, "--n", str(n), "--alpha", alpha,
                 "--potential", potential]) == EXIT_OK
    out = capsys.readouterr().out
    match = re.fullmatch(rf"{check}: .*, rel err = (\S+) -> PASS\n", out)
    assert match and float(match[1]) < 1e-13, out


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
    ["parametrix", "--alpha", "0.3", "--zeta", "0,0", "--sector", "1"],
    ["ratio-check", "--alpha", "0", "--potential", "0,0,2", "--zeta", "0.5,0"],
], ids=["cauchy-degree", "kernel-degree", "cauchy-real-z", "kernel-II-diagonal",
        "recurrence-alpha", "limit-kernel-half-plane", "parametrix-origin",
        "ratio-check-real-zeta"])
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
], ids=["table-missing", "table-directory", "table-malformed", "table-missing-key",
        "table-fractional-degree", "universality-decreasing-n", "universality-one-n",
        "universality-malformed-n", "recurrence-negative-degree"])
def test_bad_input_is_usage_error(argv, tmp_path, capsys):
    (tmp_path / "malformed.json").write_text("{")
    (tmp_path / "no_coeffs.json").write_text(json.dumps({"alpha": 0.3, "n": 6}))
    (tmp_path / "fractional_degree.json").write_text(json.dumps(
        {"alpha": 0.3, "n": 6, "coeffs": [0, 0, 2], "max_degree": 6.5,
         "a": [], "b": [], "log_norm_sq": []}))
    assert main([a.replace("{tmp}", str(tmp_path)) for a in argv]) == EXIT_USAGE
    _assert_one_error_line(capsys.readouterr().err)


def test_tampered_table_rejected(table_file, capsys):
    with open(table_file) as fh:
        doc = json.load(fh)
    doc["b"][5] *= 1.001
    with open(table_file, "w") as fh:
        json.dump(doc, fh)
    assert main(["cauchy", "--table", table_file, "--j", "3",
                 "--z", "0.4,0.3"]) == EXIT_USAGE
    assert "stored b" in capsys.readouterr().err


def test_oracle_beyond_cap_is_tolerance_error(capsys):
    assert main(["oracle", "--check", "heine", "--n", "4", "--alpha", "0",
                 "--potential", "0,0,1"]) == EXIT_TOLERANCE
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


def test_ratio_check_subcommand(capsys):
    assert main(["ratio-check", "--alpha", "0.0", "--potential", "0,0,2",
                 "--zeta", "0.5,0.5", "--n", "4,8"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS" in out and "n = 8" in out


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


def test_config_file_preloads_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 0.0, "potential": "0,0,2",
                               "zeta": "0.5,0.5", "n": "4,8"}))
    assert main(["--config", str(cfg), "ratio-check"]) == EXIT_OK
    capsys.readouterr()
    # explicit flag wins over the config value
    assert main(["--config", str(cfg), "ratio-check", "--zeta", "0.5,-0.5"]) == EXIT_OK
    capsys.readouterr()


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    # seed and grid were flags that did nothing; they are unknown keys now
    for key in ("nonsense", "seed", "grid"):
        cfg.write_text(json.dumps({key: 1}))
        assert main(["--config", str(cfg), "specfun-selftest"]) == EXIT_USAGE
        assert "unknown config key" in capsys.readouterr().err


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
    # the CLI's cold start and a table build need numpy only, and the cold
    # start does not load numpy's lazily imported polynomial package either
    assert _scipy_modules_after(
        "import sys, rmtkernels\n"
        "from rmtkernels import cli\n"
        "from rmtkernels.orthopoly import PotentialSpec, WeightSpec, build_recurrence\n"
        "cli.build_parser()\n"
        "assert 'numpy.polynomial' not in sys.modules\n"
        "build_recurrence(WeightSpec(0.3, 4, PotentialSpec((0, 0, 2))), 8)\n"
    ) == "[]"


def test_equilibrium_command_does_not_import_scipy():
    # the equilibrium measure is closed form: solving and checking it needs numpy only
    assert _scipy_modules_after(
        "import sys\n"
        "from rmtkernels import cli\n"
        "assert cli.main(['equilibrium', '--potential', '0,0,2']) == 0\n"
    ) == "[]"
