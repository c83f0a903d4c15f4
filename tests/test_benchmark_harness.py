"""The benchmark harness still runs against the package, checked in process.

``perfbench/test_bench.py`` runs the harness in subprocesses and is not
collected with these tests.  Here the tracer must find and patch every name
it reads (``grassmann.sharp_profile`` and the methods of its ``_METHODS``)
and put each one back, and the first round of every workload declared in
``BENCHMARK.json`` must run, pass its independent cross-checks and give
the pinned outputs.
"""

import json
import pathlib

import pytest

import npk.grassmann
from npk.polynomial import Polynomial
from perfbench import tracer, workloads
from perfbench.run import digest

ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# op count and sha256 of the (exit code, output) pairs of each workload's
# first round at seed 7, hashed as the harness hashes its answers
FIRST_ROUND_DIGESTS = {
    "check-small": (15, "5604d1b0ee720bcb413bcb59669c572cab94d16b53e91202af915777dd4c9ce0"),
    "check-wide": (11, "6c4a1b1d95c5930e17247f2b0fcd25e7295118b0a16a3af706f71660c1a625b5"),
    "jacobi": (11, "5202596fbec337afdf5e0dc0e03c64df2390dc542463fc2b62820e87b01bc543"),
    "algebra": (15, "3b17092ce5ad33660b8e27de44ff670b48d1685d01c0ac22e29f86a1b2584358"),
}


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
    outputs = []
    for op in ops:
        code, output = workloads.run_op(op)
        assert workloads.cross_check(op, code, output, True) is None, (op.kind, op.family, output)
        outputs.append((code, output))
    assert (len(ops), digest(outputs)) == FIRST_ROUND_DIGESTS[workload]
