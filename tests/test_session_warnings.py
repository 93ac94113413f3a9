"""The suite's warning setup: a failing property test is reported like any
other failure, and a deprecation warning from machina's own code still fails
its test.

Runs pytest in a child process on a small test file, with this suite's
configuration (``filterwarnings = ["error"]``) and its ``conftest.py``.
"""

import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent

CASES = '''
import warnings

from hypothesis import given, strategies as st

import machina.values


@given(st.integers())
def test_failing_property(n):
    assert n < 0


def test_failing_plain():
    assert False


def test_machina_deprecation():
    warnings.warn_explicit(
        "old", DeprecationWarning, machina.values.__file__, 1, module="machina.values"
    )


def test_passing():
    pass
'''


def test_a_failing_property_test_does_not_end_the_session(tmp_path):
    (tmp_path / "test_cases.py").write_text(CASES)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(TESTS)]))
    command = [
        sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "conftest",
        "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_cases.py",
    ]
    proc = subprocess.run(
        command, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert "3 failed, 1 passed" in out
    assert "FAILED test_cases.py::test_machina_deprecation - DeprecationWarning: old" in out
