"""Tests of the test setup itself."""

import os
import subprocess
import sys
from pathlib import Path

_REPO = Path(__file__).resolve().parents[1]

_FALSIFIED = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@given(st.integers())
@settings(database=None)
def test_falsified(x):
    assert x < 5
'''


def test_failing_property_reports_its_example(tmp_path):
    # Under the repo's pytest config (filterwarnings = ["error"]) and its
    # conftest, a falsified @given test fails with its example printed and
    # the run carries on to its summary.
    (tmp_path / "test_falsified.py").write_text(_FALSIFIED)
    pythonpath = os.pathsep.join([str(_REPO / "src"), str(_REPO / "tests")])
    env = dict(os.environ, PYTHONPATH=pythonpath)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(_REPO / "pyproject.toml"), "-p", "conftest",
         "-p", "no:cacheprovider", "-q", str(tmp_path / "test_falsified.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
