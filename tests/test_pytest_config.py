"""The repository's pytest configuration still reports a failing Hypothesis property.

``filterwarnings = ["error"]`` turns every warning into an error, including a
DeprecationWarning that a library may raise while Hypothesis reports a failure.
Such an error must not end the run with INTERNALERROR before the falsifying
example is shown and the remaining tests have run.
"""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY_THEN_PLAIN_TEST = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(x):
    assert x < 10


def test_runs_after():
    pass
'''


def test_failing_property_is_reported_and_later_tests_run(tmp_path):
    (tmp_path / "test_probe.py").write_text(FAILING_PROPERTY_THEN_PLAIN_TEST, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(CONFIG), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-v", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert "Falsifying example: test_property_fails(" in out
    assert "test_probe.py::test_runs_after PASSED" in out
    assert "1 failed, 1 passed" in out
    assert run.returncode == 1
