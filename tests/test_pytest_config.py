"""The repository's pytest configuration reports a failing property test and
runs on, rather than ending the run in INTERNALERROR."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


def test_failing_property_test_reports_its_example(tmp_path):
    # hypothesis's failure reporter imports libcst where it is installed, and
    # that import warns; the config's filters must let the report through
    (tmp_path / "test_probe.py").write_text(PROBE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_probe.py"],
        capture_output=True, text=True, cwd=tmp_path, timeout=300)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "Falsifying example: test_fails(" in out, out
    assert "1 failed, 1 passed" in out and "INTERNALERROR" not in out, out
