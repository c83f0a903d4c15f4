"""Smoke test: the experiment scripts run to completion."""

import pathlib
import subprocess
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def _run(name):
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / name)], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.parametrize("name", ["structure_survey.py", "operator_experiments.py"])
def test_script_exits_zero(name):
    _run(name)


def test_survey_decides_involutivity_of_the_decomposable_rows():
    lines = _run("structure_survey.py").splitlines()
    rows = [line.split() for line in lines[2:lines.index("")]]
    # columns end with: poisson, algebraic, nambu, rank@0, involutive*
    decided = [(row[-3], row[-1]) for row in rows if row[-1] != "-"]
    assert decided == [("True", "True"), ("True", "True"), ("True", "False")]
    assert all(row[-3] == "False" for row in rows if row[-1] == "-")
