#!/usr/bin/env python3
"""npk benchmark: verdict throughput and latency, per-layer self times.

Run from the repository root:

    python3 perfbench/run.py --workload check-small --seed 1 --seconds 10 --trace 0

One client runs the workload's ops in a closed loop (the next op starts
when the previous one returns) for ``--seconds`` seconds, in whole rounds.
Every op is checked afterwards by an independent route.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs the workload's fixed
trace op set untraced, then traced (in this process and again in a fresh
one), and reports per-layer self times and exact counts.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md for the metric definitions and predictions.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7
SETUP_REFERENCE = 30  # reference iterations a set-up probe runs after it is ready
# Reference-loop iterations per second on the host the committed numbers were
# taken on (2 vCPU x86-64 VM at 2.1 GHz, CPython 3.11); see Speed below.
REF_NOMINAL = 600.0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: a fresh child process that only sets up, or only runs the traced op set
    p.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    p.add_argument("--count-probe", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# helpers

def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks."""
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo, hi = math.floor(pos), math.ceil(pos)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def digest(outputs: list[tuple[int, str]]) -> str:
    h = hashlib.sha256()
    for code, text in outputs:
        h.update(f"{code}\n{len(text)}\n{text}".encode())
    return h.hexdigest()


def _reference_iteration() -> Fraction:
    # fixed pure-Python work in npk's own idiom: Fraction arithmetic and
    # small-tuple dict updates; it never touches npk
    total, acc = Fraction(0), {}
    for i in range(1, 400):
        total += Fraction(i % 7 + 1, i)
        key = (i % 13, i % 5)
        acc[key] = acc.get(key, 0) + i
    return total


class Speed:
    """Host speed relative to nominal, from a reference loop run between ops.

    The shared host's speed drifts by tens of percent within seconds, and
    differs between cores.  The reference loop runs, untimed, after each op
    for about ``SHARE`` of the time the ops took, so it samples the host
    throughout the run.  A time is scaled by the factor measured around it
    so that it reads as on a host running the reference at ``REF_NOMINAL``:
    a host twice as fast halves raw times and doubles the factor.  The raw
    values are printed next to the scaled ones.
    """

    SHARE = 0.05
    WINDOW = 8  # reference iterations on each side of an op for its local factor

    def __init__(self):
        self.ends: list[float] = []   # perf_counter at the end of each iteration
        self.spent: list[float] = []  # seconds each iteration took
        self.seconds = 0.0

    def sample(self, iterations: int = 1) -> None:
        for _ in range(iterations):
            start = time.perf_counter()
            _reference_iteration()
            end = time.perf_counter()
            self.ends.append(end)
            self.spent.append(end - start)
            self.seconds += end - start

    def keep_up(self, busy_seconds: float) -> None:
        """Sample until the reference has run for ``SHARE`` of ``busy_seconds``."""
        while self.seconds < self.SHARE * busy_seconds:
            self.sample()

    def factor(self) -> float:
        return len(self.spent) / self.seconds / REF_NOMINAL

    def factor_at(self, when: float) -> float:
        """Factor from the ``WINDOW`` reference iterations before and after ``when``."""
        i = bisect.bisect(self.ends, when)
        window = self.spent[max(0, i - self.WINDOW): i + self.WINDOW]
        return len(window) / sum(window) / REF_NOMINAL


def run_dir(workload: str, seed: int, tag: str) -> Path:
    return ROOT / ".bench_out" / f"{workload}-{seed}-{tag}-{os.getpid()}"


def execute(op, workloads):
    try:
        return workloads.run_op(op)
    except (Exception, SystemExit) as exc:  # an op that raises counts as failed
        return -1, f"{type(exc).__name__}: {exc}"


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Seconds from starting a fresh process to its first op being ready.

    Returns raw times and times scaled by each probe's own host speed,
    which it measures right after it is ready (the probe may run on another
    core than this process, and cores differ in speed from moment to moment).
    """
    raw, scaled = [], []
    for i in range(SETUP_PROBES):
        outdir = run_dir(args.workload, args.seed, f"setup{i}")
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe", str(outdir)]
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            ready = time.perf_counter()
            rest = child.stdout.read()
            code = child.wait()
        shutil.rmtree(outdir, ignore_errors=True)
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe failed with exit code {code}")
        raw.append(ready - start)
        scaled.append((ready - start) * float(rest))
    return raw, scaled


# ---------------------------------------------------------------------------
# per-layer metrics from one traced pass

MODULES = ("linalg", "grassmann", "poisson", "fields", "polynomial", "exterior", "compat", "specio")


def layer_metrics(summary, counts: Counter, n_ops: int, speed_factor: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics; self times are scaled to the nominal host like the end-to-end ones."""
    self_ns, calls, derived = summary

    def ms(*names):
        return sum(self_ns.get(n, 0) for n in names) / 1e6 / n_ops * speed_factor

    def module_ms(mod):
        return ms(*[n for n in self_ns if n.startswith(mod + ".")])

    def ratio(a, b):
        return a / b if b else 0.0

    rref_calls = calls.get("linalg.rref", 0)
    sharp_calls = calls.get("grassmann.sharp_profile", 0)
    defect_calls = calls.get("fields.jacobi_defect", 0)
    out = {
        "linalg.rref_ms_per_op": (ms("linalg.rref"), "ms"),
        "linalg.rref.calls": (rref_calls, "count"),
        "linalg.rref.entries": (counts["linalg.rref.entries"], "count"),
        "linalg.rref.pivots": (counts["linalg.rref.pivots"], "count"),
        "linalg.rref.useful_ratio": (ratio(counts["linalg.rref.pivots"], counts["linalg.rref.rows_in"]), "ratio"),
        "linalg.rref_per_sharp_profile": (ratio(derived.get("linalg.rref.under_sharp_profile", 0), sharp_calls), "ratio"),
        "grassmann.sharp_profile_ms_per_op": (ms("grassmann.sharp_profile"), "ms"),
        "grassmann.sharp_profile.calls": (sharp_calls, "count"),
        "grassmann.sharp_profile.rows": (counts["grassmann.sharp_profile.rows"], "count"),
        "grassmann.contractions_decomposable_ms_per_op": (ms("grassmann.contractions_decomposable"), "ms"),
        "grassmann.factorize_ms_per_op": (ms("grassmann.factorize"), "ms"),
        "grassmann.is_decomposable_ms_per_op": (ms("grassmann.is_decomposable"), "ms"),
        "grassmann.irreducibility_check_ms_per_op": (ms("grassmann.irreducibility_check"), "ms"),
        "poisson.classify_ms_per_op": (ms("poisson.classify"), "ms"),
        "poisson.algebraic_condition_ms_per_op": (ms("poisson.algebraic_condition"), "ms"),
        "poisson.differential_condition_ms_per_op": (ms("poisson.differential_condition"), "ms"),
        "poisson.pointwise_decomposable_ms_per_op": (ms("poisson.pointwise_decomposable"), "ms"),
        "poisson.is_nambu_algebraic_ms_per_op": (ms("poisson.is_nambu_algebraic"), "ms"),
        "poisson.sample_points.count": (counts["poisson.sample_points.count"], "count"),
        "fields.jacobi_identity_holds_ms_per_op": (ms("fields.jacobi_identity_holds"), "ms"),
        "fields.jacobi_defect.calls": (defect_calls, "count"),
        "fields.jacobi_defect_ms_per_op": (ms("fields.jacobi_defect"), "ms"),
        "fields.jacobi_defect.nonzero_ratio": (ratio(counts["fields.jacobi_defect.nonzero"], defect_calls), "ratio"),
        "fields.differential_defect_ms_per_op": (ms("fields.differential_defect"), "ms"),
        "fields.component.calls": (calls.get("fields.component", 0), "count"),
        "polynomial.mul.calls": (calls.get("polynomial.mul", 0), "count"),
        "polynomial.mul.term_products": (counts["polynomial.mul.term_products"], "count"),
        "polynomial.add.calls": (calls.get("polynomial.add", 0), "count"),
        "polynomial.derivative.calls": (calls.get("polynomial.derivative", 0), "count"),
        "polynomial.evaluate.calls": (calls.get("polynomial.evaluate", 0), "count"),
        "exterior.wedge_terms.calls": (calls.get("exterior.wedge_terms", 0), "count"),
        "exterior.wedge_terms.term_pairs": (counts["exterior.wedge_terms.term_pairs"], "count"),
        "exterior.wedge_terms_ms_per_op": (ms("exterior.wedge_terms"), "ms"),
        "exterior.contract_terms.calls": (sum(calls.get(f"exterior.{k}", 0) for k in (
            "contract_terms", "contract_basis_terms", "contract_blade_terms")), "count"),
        "compat.is_compatible_ms_per_op": (ms("compat.is_compatible"), "ms"),
        "compat.delta_ms_per_op": (ms("compat.delta"), "ms"),
        "specio.parse_ms_per_op": (ms("specio.parse_spec", "specio.parse_spec_text", "specio.parse_spec_data"), "ms"),
        "cli.self_ms_per_op": (ms("cli.main"), "ms"),
    }
    for mod in MODULES:
        out[f"{mod}.ms_per_op"] = (module_ms(mod), "ms")
    return out


def op_pass(ops, workloads, tracer=None):
    """Run a fixed op list, traced or not; returns outputs, op seconds, host speed factor."""
    speed = Speed()
    speed.sample()
    outputs, elapsed = [], 0.0
    for i, op in enumerate(ops):
        start = time.perf_counter()
        outputs.append(tracer.run_op(i, execute, op, workloads) if tracer else execute(op, workloads))
        elapsed += time.perf_counter() - start
        speed.keep_up(elapsed)
    return outputs, elapsed, speed.factor()


def traced_pass(ops, workloads):
    import tracer as tracer_mod
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        outputs, elapsed, factor = op_pass(ops, workloads, tracer)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer.summary(), tracer.counts, len(ops), factor)
    return outputs, elapsed * factor, metrics


# ---------------------------------------------------------------------------
# the run modes

def build_pool(workloads, args, outdir: Path):
    rounds = workloads.WORKLOADS[args.workload]["trace_rounds"] if args.trace else 1
    return workloads.build_pool(args.workload, args.seed, args.seconds, outdir, rounds)


def regime(workloads, spec, ops, outputs) -> dict:
    mix = Counter(f"{op.kind}/{op.family}/m{op.m}n{op.n}" for op in ops)
    props = {}
    for op in ops:
        d = workloads.describe(op)
        key = f"m{d['m']}n{d['n']}"
        cur = props.setdefault(key, {"m": d["m"], "n": d["n"], "C(m,n-1)": d["c_m_n1"],
                                     "blades": [d["blades"], d["blades"]], "max_degree": 0})
        cur["blades"] = [min(cur["blades"][0], d["blades"]), max(cur["blades"][1], d["blades"])]
        cur["max_degree"] = max(cur["max_degree"], d["max_degree"])
    split = Counter()
    for op, (code, text) in zip(ops, outputs):
        if op.kind in ("check", "jacobi") and code in (0, 1):
            split["poisson" if code == 0 else "non_poisson"] += 1
    return {"why": spec["why"], "ops": len(ops), "mix": dict(sorted(mix.items())),
            "inputs": props, "verdict_split": dict(split)}


def check_all(workloads, spec, ops, outputs) -> list[str]:
    failures = []
    for i, (op, (code, text)) in enumerate(zip(ops, outputs)):
        try:
            reason = workloads.cross_check(op, code, text, spec.get("oracle", False))
        except Exception as exc:  # a malformed answer is a failed op, not a crash
            reason = f"cross-check raised {type(exc).__name__}: {exc}"
        if reason:
            failures.append(f"op {i} ({op.kind}/{op.family} m={op.m} n={op.n}): {reason}")
    return failures


def emit(correct, attempted, failed, metrics: dict[str, tuple[float, str]]) -> None:
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))


def run_untraced(args, workloads, pool, spec, speed: Speed):
    """Closed loop in whole rounds; only the ops themselves are timed.

    Returns per op: (end time, wall seconds, CPU seconds).
    """
    ops, outputs, timings = [], [], []
    elapsed = 0.0
    speed.sample()
    for rounds, rnd in enumerate(pool, 1):
        workloads.write_specs(rnd)
        for op in rnd:
            start, cpu_start = time.perf_counter(), time.process_time()
            result = execute(op, workloads)
            end, cpu_end = time.perf_counter(), time.process_time()
            elapsed += end - start
            timings.append((end, end - start, cpu_end - cpu_start))
            ops.append(op)
            outputs.append(result)
            speed.keep_up(elapsed)
        if rounds >= spec["trace_rounds"] and elapsed >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return ops, outputs, timings, peak_rss_mb


def main_e2e(args, workloads, pool, spec, setup_raw, setup_scaled):
    speed = Speed()
    ops, outputs, timings, rss = run_untraced(args, workloads, pool, spec, speed)
    failures = check_all(workloads, spec, ops, outputs)
    n = len(ops)
    factors = [speed.factor_at(end) for end, _, _ in timings]
    lat = [wall * f * 1000.0 for (_, wall, _), f in zip(timings, factors)]
    elapsed = sum(wall for _, wall, _ in timings)
    cpu = sum(c for _, _, c in timings)
    q = spec["tail_percentile"]
    tail = percentile(lat, q)
    beyond = sum(1 for x in lat if x > tail)
    prefix = spec["trace_rounds"] * len(spec["round"])
    print(f"workload {args.workload}  seed {args.seed}  closed loop, 1 client, {n} ops in {elapsed:.2f} s")
    print("regime " + json.dumps(regime(workloads, spec, ops, outputs), sort_keys=True))
    print(f"digest sha256 {digest(outputs[:prefix])} over the first {prefix} ops (the trace op set)")
    print(f"latency tail is p{q:g}: {beyond} of {n} ops lie beyond it"
          + ("" if beyond >= 10 else " (fewer than ten: read it as unresolved)"))
    print(f"failed_ops_ratio {len(failures) / n:.6g} ({len(failures)} of {n})")
    for line in failures[:20]:
        print("FAILED " + line)
    raw_lat = [wall * 1000.0 for _, wall, _ in timings]
    print(f"host speed factor {speed.factor():.4f} over the loop (1 = nominal); raw: {n / elapsed:.6g} ops/s, "
          f"{cpu * 1000.0 / n:.6g} cpu ms/op, p50 {statistics.median(raw_lat):.6g} ms, "
          f"tail {percentile(raw_lat, q):.6g} ms, set-up {statistics.median(setup_raw):.6g} s")
    metrics = {
        "ops_per_s": (n * 1000.0 / sum(lat), "1/s"),
        "cpu_ms_per_op": (sum(c * f for (_, _, c), f in zip(timings, factors)) * 1000.0 / n, "ms"),
        "latency_p50_ms": (statistics.median(lat), "ms"),
        "latency_tail_ms": (tail, "ms"),
        "setup_s": (statistics.median(setup_scaled), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    emit(not failures, n, len(failures), metrics)


def main_trace(args, workloads, pool, spec):
    ops = [op for rnd in pool[: spec["trace_rounds"]] for op in rnd]
    plain, untraced_s, factor = op_pass(ops, workloads)
    untraced_s *= factor
    failures = check_all(workloads, spec, ops, plain)
    traced, traced_s, metrics = traced_pass(ops, workloads)
    problems = list(failures)
    if digest(traced) != digest(plain):
        problems.append("traced outputs differ from untraced outputs")
    probe = count_probe_child(args)
    counts = {k: v for k, (v, u) in metrics.items() if u == "count"}
    if probe["digest"] != digest(plain):
        problems.append("a fresh traced process gave a different digest")
    if probe["counts"] != counts:
        diff = sorted(k for k in counts if probe["counts"].get(k) != counts[k])
        problems.append(f"counts did not repeat in a fresh process: {diff}")
    print(f"workload {args.workload}  seed {args.seed}  trace op set: {len(ops)} ops "
          f"({spec['trace_rounds']} rounds)")
    print(f"digest sha256 {digest(plain)} untraced, {digest(traced)} traced")
    print("waiting time: none to report; no npk layer queues or retries work, so it is absent, not zero")
    for line in problems[:20]:
        print("FAILED " + line)
    metrics["tracing.untraced_ops_per_s"] = (len(ops) / untraced_s, "1/s")
    metrics["tracing.traced_ops_per_s"] = (len(ops) / traced_s, "1/s")
    metrics["tracing.ops_per_s_ratio"] = (untraced_s / traced_s, "ratio")
    emit(not problems, len(ops), len(failures), metrics)


def count_probe_child(args) -> dict:
    outdir = run_dir(args.workload, args.seed, "counts")
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--trace", "1", "--count-probe", str(outdir)]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, check=True)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "npk" / "__init__.py").is_file():
        print(f"error: npk sources not found at {ROOT / 'src' / 'npk'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads as wl  # imports npk: part of set-up in a fresh process
    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = wl.WORKLOADS[args.workload]
    if args.setup_probe:
        build_pool(wl, args, Path(args.setup_probe))
        print("ready", flush=True)
        speed = Speed()  # this process's own host speed, right after its set-up
        speed.sample(SETUP_REFERENCE)
        print(speed.factor())
        return 0
    if args.count_probe:
        pool = build_pool(wl, args, Path(args.count_probe))
        ops = [op for rnd in pool[: spec["trace_rounds"]] for op in rnd]
        outputs, _, metrics = traced_pass(ops, wl)
        counts = {k: v for k, (v, u) in metrics.items() if u == "count"}
        print(json.dumps({"digest": digest(outputs), "counts": counts}))
        return 0
    setup_raw, setup_scaled = ([], []) if args.trace else measure_setup(args)
    outdir = run_dir(args.workload, args.seed, "main")
    pool = build_pool(wl, args, outdir)
    try:
        if args.trace:
            main_trace(args, wl, pool, spec)
        else:
            main_e2e(args, wl, pool, spec, setup_raw, setup_scaled)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
