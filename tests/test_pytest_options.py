"""The repository's pytest options, run in a subprocess on a throwaway test file."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

PROBE = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


def test_a_failing_given_test_does_not_end_the_session(tmp_path):
    # hypothesis reports a failing @given test through libcst, which warns
    # through mypy_extensions; under filterwarnings = ["error"] that warning
    # became an INTERNALERROR that ended the session before later tests ran
    (tmp_path / "test_probe.py").write_text(PROBE, encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout
    assert result.returncode == 1
