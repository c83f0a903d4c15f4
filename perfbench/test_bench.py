"""Self-test of the benchmark at a tiny op count.

    python3 -m pytest perfbench/test_bench.py -q

For each workload it runs one untraced and one traced run with
``--seconds 1`` (the trace op set is still run in full) and checks that
every metric named in BENCHMARK.json is reported with its unit, that no op
failed, and that tracing changes no answer (the digests agree).
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(workload: str, trace: int) -> tuple[dict, str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    lines = done.stdout.strip().splitlines()
    digest = next(re.search(r"digest sha256 ([0-9a-f]{64})", line).group(1)
                  for line in lines if line.startswith("digest"))
    return json.loads(lines[-1]), digest


@pytest.mark.parametrize("workload", WORKLOADS)
def test_metrics_failures_and_digest(workload):
    e2e, e2e_digest = run(workload, 0)
    traced, traced_digest = run(workload, 1)
    for result, declared in ((e2e, BENCH["end_to_end"]), (traced, BENCH["per_layer"])):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in declared}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert e2e_digest == traced_digest


def test_refuses_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for name in ("run.py", "workloads.py", "tracer.py"):
        (tmp_path / "perfbench" / name).write_bytes((HERE / name).read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
