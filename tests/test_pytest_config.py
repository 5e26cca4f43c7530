"""The pytest settings of ``pyproject.toml`` report a failing test as a failure."""

import shutil
import subprocess
import sys
from pathlib import Path

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers(0, 10))
def test_below_five(x):
    assert x < 5
'''


def test_failing_hypothesis_test_exits_1_not_internal_error(tmp_path):
    # Reporting a falsifying example imports libcst, and with it the
    # deprecated mypy_extensions.TypedDict; filterwarnings = ["error"] turned
    # that warning into an INTERNALERROR with exit code 3
    shutil.copy(Path(__file__).parents[1] / "pyproject.toml", tmp_path)
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_fails.py").write_text(FAILING)
    out = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                         cwd=tmp_path, capture_output=True, text=True)
    assert out.returncode == 1, out.stdout + out.stderr
    assert "INTERNALERROR" not in out.stdout + out.stderr
    assert "1 failed" in out.stdout
