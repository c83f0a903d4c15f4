"""The benchmark harness still runs against the package, checked in process.

``perfbench/test_bench.py`` runs the harness in subprocesses and is not
collected with these tests.  Here the tracer must find and patch every name
it reads (``grassmann.sharp_profile`` and the methods of its ``_METHODS``)
and put each one back, and the first round of every workload declared in
``BENCHMARK.json`` must run and pass its independent cross-checks.
"""

import json
import pathlib

import pytest

import npk.grassmann
from npk.polynomial import Polynomial
from perfbench import tracer, workloads

ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_tracer_patches_and_restores_every_attribute():
    t = tracer.Tracer()
    t.install()
    try:
        patched = list(t._patches)
        assert len(patched) > 20
        assert all(vars(owner)[attr] is not orig for owner, attr, orig in patched)
    finally:
        t.uninstall()
    assert all(vars(owner)[attr] is orig for owner, attr, orig in patched)


@pytest.mark.parametrize("owner, attr", [(npk.grassmann, "sharp_profile"), (Polynomial, "derivative")])
def test_tracer_refuses_a_missing_name(owner, attr, monkeypatch):
    monkeypatch.delattr(owner, attr)
    t = tracer.Tracer()
    try:
        with pytest.raises((KeyError, ValueError)):
            t.install()
    finally:
        t.uninstall()


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_first_round_runs_and_cross_checks(workload, tmp_path):
    ops = workloads.build_pool(workload, 7, 0.01, tmp_path, 1)[0]
    assert ops
    for op in ops:
        code, output = workloads.run_op(op)
        assert workloads.cross_check(op, code, output, True) is None, (op.kind, op.family, output)
