"""Smoke test: the experiment scripts run to completion."""

import pathlib
import subprocess
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("name", ["structure_survey.py", "operator_experiments.py"])
def test_script_exits_zero(name):
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / name)], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
