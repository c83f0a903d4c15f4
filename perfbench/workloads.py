"""Seeded inputs, ops and independent cross-checks for the four workloads.

Inputs are built here with the benchmark's own small exterior-algebra code,
never with npk's constructors, so a change to npk cannot change what the
benchmark feeds it.  Each workload is a fixed *round* of strata (op kind,
input family, m, n); every round draws fresh inputs from one seeded
``random.Random``, so no input repeats within a run and the op mix of
every whole round is the same.
"""

from __future__ import annotations

import io
import json
import math
import random
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import npk
import npk.cli
import npk.grassmann


@dataclass(frozen=True)
class Stratum:
    kind: str    # CLI command, or "contractions" / "irreducibility" library calls
    family: str  # generator family, see generate()
    m: int
    n: int
    size: int = 0  # blade count, two-support vectors, blocks or shared indices, by family


@dataclass
class Op:
    kind: str
    family: str
    m: int
    n: int
    terms: dict           # blade -> Fraction (constant) or {exps: Fraction}
    truth: dict           # what the generator knows by construction
    path: str = ""        # spec file for CLI ops
    text: str = ""        # its contents until written
    obj: object = None    # npk.Multivector for library ops
    field_obj: object = field(default=None, repr=False)


S = Stratum

WORKLOADS = {
    "check-small": dict(
        why="rank sampling and the Nambu routes on small dense polynomial fields; the Jacobi oracle is never called",
        ops_per_s_cap=120.0,
        trace_rounds=2,
        oracle=True,  # check verdicts are cross-checked by the Jacobi oracle
        tail_percentile=95.0,
        round=[
            S("check", "random", 5, 3, 2), S("check", "random", 5, 3, 4),
            S("check", "lin_dec", 5, 3, 1), S("check", "share_one", 5, 3),
            S("check", "random", 6, 4, 3), S("check", "random", 6, 4, 6),
            S("check", "lin_dec", 7, 4, 0), S("check", "share_one", 7, 4),
            S("nambu", "random", 5, 3, 3), S("nambu", "lin_dec", 5, 3, 2),
            S("nambu", "random", 6, 4, 4), S("nambu", "lin_dec", 6, 4, 1),
            S("nambu", "random", 7, 4, 2), S("nambu", "lin_dec", 7, 4, 1),
            S("check", "lin_dec", 6, 4, 1),
        ],
    ),
    "check-wide": dict(
        why="wide sparse structures whose blade count is tiny next to C(m, n-1): the working set, not the coefficients, sets the cost",
        ops_per_s_cap=12.0,
        trace_rounds=1,
        fixed_layout=True,
        tail_percentile=75.0,
        round=[
            S("check", "semi_coord", 10, 5), S("check", "semi_tri", 10, 5),
            S("check", "block", 8, 4, 2), S("check", "block", 12, 4, 3),
            S("check", "one_blade", 10, 4), S("check", "one_blade", 11, 4),
            S("check", "one_blade", 10, 5), S("check", "lin_dec", 10, 4, 2),
            S("check", "two_blade", 9, 5), S("check", "two_blade", 8, 3),
            S("check", "two_blade", 10, 3),
        ],
    ),
    "jacobi": dict(
        why="the generalized Jacobi oracle: bracket and determinant work in fields and Polynomial traffic, never linalg",
        ops_per_s_cap=50.0,
        trace_rounds=1,
        fixed_layout=True,
        tail_percentile=90.0,
        round=[
            S("jacobi", "lin_dec", 5, 3, 1), S("jacobi", "lin_dec", 5, 3, 1),
            S("jacobi", "lin_dec", 5, 3, 1),
            S("jacobi", "random", 6, 4, 3), S("jacobi", "random", 6, 4, 5),
            S("jacobi", "lin_dec", 7, 4, 1), S("jacobi", "lin_dec", 7, 4, 1),
            S("jacobi", "share_one", 5, 3), S("jacobi", "share_one", 5, 3),
            S("jacobi", "share_one", 7, 4), S("jacobi", "share_one", 7, 4),
        ],
    ),
    "algebra": dict(
        why="constant tensors: exterior and polynomial kernels in many covector indeterminates, the only compat traffic",
        ops_per_s_cap=90.0,
        trace_rounds=2,
        fixed_layout=True,
        tail_percentile=95.0,
        round=[
            S("rank", "dec", 6, 3, 1), S("rank", "rnd", 8, 4, 3),
            S("factorize", "dec", 7, 3, 2), S("factorize", "dec", 8, 5, 1),
            S("factorize", "rnd", 7, 4, 3),
            S("contractions", "dec", 6, 3, 2), S("contractions", "dec", 7, 4, 1),
            S("contractions", "dec", 8, 5, 1), S("contractions", "two_blade", 8, 5, 2),
            S("irreducibility", "reducible", 7, 3), S("irreducibility", "rnd", 8, 4, 3),
            S("irreducibility", "dec", 5, 3, 1), S("irreducibility", "rnd", 7, 3, 3),
            S("sigma-delta", "dec", 6, 3, 1), S("sigma-delta", "rnd", 8, 4, 3),
        ],
    ),
}

LIBRARY_KINDS = ("contractions", "irreducibility")


# ---------------------------------------------------------------------------
# the benchmark's own exterior algebra (sparse dicts blade -> coefficient)

def wedge_vector(terms: dict, vec: dict) -> dict:
    """``terms ^ vec`` for a grade-1 ``vec``; sign from moving the index left."""
    out: dict = {}
    for blade, coef in terms.items():
        for idx, c in vec.items():
            if idx in blade:
                continue
            sign = -1 if sum(1 for b in blade if b > idx) % 2 else 1
            key = tuple(sorted(blade + (idx,)))
            out[key] = out.get(key, 0) + sign * coef * c
    return {k: v for k, v in out.items() if v}


def wedge_all(vectors: list[dict]) -> dict:
    acc = {(): Fraction(1)}
    for vec in vectors:
        acc = wedge_vector(acc, vec)
    return acc


def _coef(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)), rng.randint(1, 3))


def _unit(m: int, u: int) -> tuple[int, ...]:
    return tuple(1 if i == u - 1 else 0 for i in range(m))


def _linear(rng: random.Random, m: int, u: int) -> dict:
    """``a*x_u + b`` with ``a, b != 0``."""
    return {_unit(m, u): _coef(rng), (0,) * m: _coef(rng)}


def _random_linear(rng: random.Random, m: int) -> dict:
    poly: dict = {}
    for _ in range(rng.randint(1, 2)):
        exps = (0,) * m if rng.random() < 0.3 else _unit(m, rng.randint(1, m))
        poly[exps] = poly.get(exps, 0) + _coef(rng)
    return {e: c for e, c in poly.items() if c} or {(0,) * m: Fraction(1)}


def _times(poly: dict, c: Fraction) -> dict:
    return {e: v * c for e, v in poly.items()}


def eval_poly(poly: dict, point) -> Fraction:
    total = Fraction(0)
    for exps, coef in poly.items():
        val = coef
        for x, e in zip(point, exps):
            if e:
                val *= x ** e
        total += val
    return total


def _sparse_decomposable(rng, axes: list[int], n: int) -> dict:
    """Wedge of n vectors on the lead axes ``axes[:n]``; the rest of ``axes``
    become second entries of the first vectors, so the result has exactly
    ``2 ** (len(axes) - n)`` blades."""
    vectors = [{lead: _coef(rng)} for lead in axes[:n]]
    for vec, extra in zip(vectors, axes[n:]):
        vec[extra] = _coef(rng)
    return wedge_all(vectors)


def _bidiagonal_frame(rng, axes: list[int], every: int) -> list[dict]:
    """Vectors ``c e_{axes[i]}``, plus ``d e_{axes[i+1]}`` when ``every`` divides i:
    triangular, hence independent."""
    frame = []
    for i, lead in enumerate(axes):
        vec = {lead: _coef(rng)}
        if every and i % every == 0 and i + 1 < len(axes):
            vec[axes[i + 1]] = _coef(rng)
        frame.append(vec)
    return frame


def _semidecomposable(v: list[dict], w: list[dict], h: int) -> dict:
    """Sum over h-subsets A of shuffle-signed ``v_A ^ w_(complement)``."""
    n = len(w)
    out: dict = {}
    for subset in combinations(range(n), h):
        rest = [j for j in range(n) if j not in subset]
        sign = -1 if sum(1 for a in subset for b in rest if b < a) % 2 else 1
        for key, val in wedge_all([v[i] for i in subset] + [w[j] for j in rest]).items():
            out[key] = out.get(key, 0) + sign * val
    return {k: c for k, c in out.items() if c}


# ---------------------------------------------------------------------------
# families: each returns (terms, truth).  ``pick(k)`` draws k distinct axes:
# at random, or 1..k for strata with a fixed layout, whose inputs then differ
# only in their coefficients (check-wide: the cost of its early-exit scans
# depends on where the structure sits, and a fixed layout keeps it steady).

def gen_random(rng, pick, m, n, size, poly):
    blades = rng.sample(list(combinations(range(1, m + 1), n)), size)
    if poly:
        return {b: _random_linear(rng, m) for b in blades}, {}
    return {b: _coef(rng) for b in blades}, {}


def gen_lin_dec(rng, pick, m, n, size, poly):
    axes = pick(n + size)
    base = _sparse_decomposable(rng, axes, n)
    if not poly:
        return base, {"decomposable": True, "rank": n}
    f = _linear(rng, m, u=axes[0])  # linear in the first lead coordinate
    terms = {b: _times(f, c) for b, c in base.items()}
    truth = {"is_poisson": True, "algebraic_holds": True, "differential_holds": True,
             "decomposable": True, "rank": n, "rank_factor": f}
    return terms, truth


def gen_share_one(rng, pick, m, n, poly, shared):
    """Two blades sharing ``shared`` indices (``0 < shared < n - 1``): not decomposable."""
    idx = pick(2 * n - shared)
    common, rest = idx[:shared], idx[shared:]
    first = tuple(sorted(common + rest[: n - shared]))
    second = tuple(sorted(common + rest[n - shared:]))
    if poly:
        # the coefficient of the first blade depends on a shared coordinate
        terms = {first: _linear(rng, m, u=common[0]), second: {(0,) * m: _coef(rng)}}
        return terms, {"is_poisson": False, "decomposable": False}
    terms = {first: _coef(rng), second: _coef(rng)}
    return terms, {"is_poisson": False, "algebraic_holds": False, "differential_holds": True,
                   "decomposable": False, "rank": 2 * n - shared}


def gen_semi(rng, pick, m, n, triangular):
    frame = _bidiagonal_frame(rng, pick(2 * n), 3 if triangular else 0)
    terms = _semidecomposable(frame[:n], frame[n:], 1)
    return terms, {"is_poisson": True, "algebraic_holds": True, "differential_holds": True,
                   "decomposable": False, "rank": 2 * n}


def gen_block(rng, pick, m, n, s):
    axes = pick(n * s)
    blocks = [tuple(sorted(axes[i * n:(i + 1) * n])) for i in range(s)]
    owner = {a: i for i, blk in enumerate(blocks) for a in blk}
    a = min(owner)
    b = min(x for x in owner if owner[x] != owner[a])
    terms = {blk: _coef(rng) for blk in blocks}
    return terms, {"is_poisson": True, "algebraic_holds": False, "witness": [a, b],
                   "differential_holds": True, "decomposable": False, "rank": n * s}


def gen_one_blade(rng, pick, m, n):
    axes = pick(m)
    f = _linear(rng, m, u=axes[-1])
    return {tuple(sorted(axes[:n])): f}, {
        "is_poisson": True, "algebraic_holds": True, "differential_holds": True,
        "decomposable": True, "rank": n, "rank_factor": f}


def gen_reducible(rng, pick, m, n):
    axes = pick(2 * n)
    terms = wedge_all(_bidiagonal_frame(rng, axes[:n], 2))
    for key, val in wedge_all(_bidiagonal_frame(rng, axes[n:], 2)).items():
        terms[key] = terms.get(key, 0) + val
    return terms, {"reducible": True, "rank": 2 * n}


def generate(st: Stratum, rng: random.Random, fixed_layout: bool = False) -> Op:
    def pick(k):
        return list(range(1, k + 1)) if fixed_layout else rng.sample(range(1, st.m + 1), k)

    poly = st.kind in ("check", "nambu", "jacobi")
    fam = st.family
    if fam in ("random", "rnd"):
        terms, truth = gen_random(rng, pick, st.m, st.n, st.size, poly)
    elif fam in ("lin_dec", "dec"):
        terms, truth = gen_lin_dec(rng, pick, st.m, st.n, st.size, poly)
    elif fam in ("share_one", "two_blade"):
        terms, truth = gen_share_one(rng, pick, st.m, st.n, fam == "share_one", st.size or 1)
    elif fam in ("semi_coord", "semi_tri"):
        terms, truth = gen_semi(rng, pick, st.m, st.n, fam == "semi_tri")
    elif fam == "block":
        terms, truth = gen_block(rng, pick, st.m, st.n, st.size)
    elif fam == "one_blade":
        terms, truth = gen_one_blade(rng, pick, st.m, st.n)
    elif fam == "reducible":
        terms, truth = gen_reducible(rng, pick, st.m, st.n)
    else:
        raise ValueError(f"unknown family {fam!r}")
    return Op(st.kind, fam, st.m, st.n, terms, truth)


def spec_json(op: Op) -> str:
    rows = []
    constant = not isinstance(next(iter(op.terms.values())), dict)
    for blade in sorted(op.terms):
        value = op.terms[blade]
        if constant:
            rows.append({"indices": list(blade), "value": str(value)})
        else:
            rows.append({"indices": list(blade), "value": [
                {"coef": str(c), "exps": list(e)} for e, c in sorted(value.items())
            ]})
    kind = "constant" if constant else "polynomial"
    return json.dumps({"m": op.m, "n": op.n, "kind": kind, "terms": rows}, sort_keys=True)


def build_pool(workload: str, seed: int, seconds: float, outdir: Path, written: int) -> list[list[Op]]:
    """Rounds of ops for one run: enough for ``seconds`` at the workload's rate cap.

    Every input is generated here; the spec files of the first ``written``
    rounds are written now and the rest by :func:`write_specs` just before
    their round runs.
    """
    spec = WORKLOADS[workload]
    per_round = len(spec["round"])
    rounds = max(spec["trace_rounds"], math.ceil(seconds * spec["ops_per_s_cap"] / per_round))
    rng = random.Random(f"{workload}:{seed}")
    outdir.mkdir(parents=True, exist_ok=True)
    pool = []
    for r in range(rounds):
        ops = []
        for i, st in enumerate(spec["round"]):
            op = generate(st, rng, spec.get("fixed_layout", False))
            if st.kind in LIBRARY_KINDS:
                op.obj = _multivector(op)
            else:
                op.path = str(outdir / f"r{r:04d}_{i:02d}.json")
                op.text = spec_json(op)
            ops.append(op)
        pool.append(ops)
    for ops in pool[:written]:
        write_specs(ops)
    return pool


def write_specs(ops: list[Op]) -> None:
    for op in ops:
        if op.text:
            Path(op.path).write_text(op.text, encoding="utf-8")
            op.text = ""


def _multivector(op: Op):
    return npk.Multivector(op.m, op.n, op.terms)


def as_field(op: Op):
    """The op's input as an npk field, for the cross-checks."""
    if op.field_obj is None:
        comps = {}
        for blade, value in op.terms.items():
            if isinstance(value, dict):
                comps[blade] = npk.Polynomial(op.m, value)
            else:
                comps[blade] = npk.Polynomial.constant(value, op.m)
        op.field_obj = npk.MultivectorField(op.m, op.n, comps)
    return op.field_obj


# ---------------------------------------------------------------------------
# running one op

def run_op(op: Op) -> tuple[int, str]:
    """Execute one user request; returns (exit code, canonical output).

    npk functions are looked up at call time, so a traced run sees the
    wrappers the tracer installed.
    """
    if op.kind == "contractions":
        result = [npk.grassmann.contractions_decomposable(op.obj, k) for k in range(1, op.n - 1)]
        return 0, json.dumps(result)
    if op.kind == "irreducibility":
        verdict = npk.grassmann.irreducibility_check(op.obj)
        witness = None if verdict.witness is None else [str(c) for c in verdict.witness.components]
        return 0, json.dumps({"kind": verdict.kind.value, "witness": witness}, sort_keys=True)
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = npk.cli.main([op.kind, op.path, "--json"])
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# independent cross-checks (outside the timed region)

def _point(entry) -> tuple[Fraction, ...]:
    return tuple(Fraction(c) for c in entry["point"])


def _expected_rank(truth: dict, point) -> int:
    f = truth.get("rank_factor")
    if f is not None and eval_poly(f, point) == 0:
        return 0
    return truth["rank"]


def _check_truth(report: dict, truth: dict) -> str | None:
    pairs = [("is_poisson", "is_poisson"), ("algebraic_holds", ("algebraic_condition", "holds")),
             ("differential_holds", "differential_condition"),
             ("decomposable", "pointwise_decomposable"), ("decomposable", "nambu_algebraic")]
    for key, path in pairs:
        if key not in truth:
            continue
        got = report[path[0]][path[1]] if isinstance(path, tuple) else report[path]
        if got != truth[key]:
            return f"{path} is {got}, construction says {truth[key]}"
    if "witness" in truth and report["algebraic_condition"]["witness"] != truth["witness"]:
        return f"algebraic witness {report['algebraic_condition']['witness']} != {truth['witness']}"
    if "rank" in truth:
        for entry in report["rank_at_samples"]:
            want = _expected_rank(truth, _point(entry))
            if entry["rank"] != want:
                return f"rank {entry['rank']} at {entry['point']}, construction says {want}"
    return None


def _sample_points(op: Op, count: int = 3):
    rng = random.Random(f"points:{sorted(op.terms.items(), key=str)}")
    return [tuple(Fraction(rng.randint(-97, 97), rng.randint(1, 13)) for _ in range(op.m))
            for _ in range(count)]


def cross_check(op: Op, code: int, output: str, oracle: bool) -> str | None:
    """Return a reason when the op's answer disagrees with an independent route."""
    if code not in (0, 1):
        return f"exit code {code}"
    if op.kind in LIBRARY_KINDS:
        result = json.loads(output)
        p = op.obj
        if op.kind == "contractions":
            want = npk.is_decomposable(p)
            if any(r != want for r in result) or op.truth.get("decomposable", want) != want:
                return f"contraction profile {result} vs is_decomposable {want}"
            return None
        rank = npk.sharp_profile(p).rank
        kind = result["kind"]
        if (kind == "certified_by_rank") != (rank < 2 * op.n):
            return f"irreducibility {kind} at rank {rank}"
        if op.truth.get("reducible") and kind != "reducibility_witness":
            return f"reducible input got {kind}"
        if kind == "reducibility_witness":
            alpha = npk.Covector(op.m, tuple(Fraction(c) for c in result["witness"]))
            contracted = p.contract(alpha)
            if contracted.is_zero() or npk.sharp_profile(contracted).rank > rank - op.n:
                return "reducibility witness does not drop the rank by n"
        return None

    report = json.loads(output)
    if op.kind == "check":
        verdict = report["is_poisson"]
        if code != (0 if verdict else 1):
            return f"exit code {code} for is_poisson={verdict}"
        if report["parity"] != ("even" if op.n % 2 == 0 else "odd"):
            return "wrong parity"
        if oracle and npk.jacobi_identity_holds(as_field(op)) != verdict:
            return f"check says is_poisson={verdict}, the Jacobi oracle disagrees"
        return _check_truth(report, op.truth)
    if op.kind == "jacobi":
        verdict = report["jacobi_identity_holds"]
        if code != (0 if verdict else 1):
            return f"exit code {code} for jacobi={verdict}"
        if npk.classify(as_field(op)).is_poisson != verdict:
            return f"jacobi says {verdict}, classify disagrees"
        if "is_poisson" in op.truth and op.truth["is_poisson"] != verdict:
            return f"jacobi says {verdict}, construction says {op.truth['is_poisson']}"
        return None
    if op.kind == "nambu":
        verdict = report["nambu_algebraic"]
        if code != (0 if verdict else 1):
            return f"exit code {code} for nambu={verdict}"
        field = as_field(op)
        ranks = [npk.sharp_profile(field.evaluate(pt)).rank for pt in _sample_points(op)]
        if verdict != all(r <= op.n for r in ranks):
            return f"nambu says {verdict}, ranks at random points are {ranks}"
        if op.truth.get("decomposable") and not verdict:
            return "constructed decomposable, nambu says no"
        return None
    if op.kind == "rank":
        entries = report["rank_at_samples"]
        if len(entries) != 1 + op.m + 8 or code != 0:
            return "wrong number of samples or exit code"
        for entry in entries:
            if entry["rank"] + entry["annihilator_dim"] != op.m:
                return "rank + annihilator dimension != m"
            if "rank" in op.truth and entry["rank"] != op.truth["rank"]:
                return f"rank {entry['rank']}, construction says {op.truth['rank']}"
        return None
    if op.kind == "factorize":
        p = _multivector(op)
        decomposable = npk.sharp_profile(p).rank == op.n
        if (code == 0) != decomposable or (op.truth.get("decomposable") and code != 0):
            return f"factorize exit {code}, rank route says decomposable={decomposable}"
        if code == 1:
            return None if report.get("error") == "not decomposable" else "unexpected error"
        factors = [{u + 1: Fraction(c) for u, c in enumerate(f) if Fraction(c)} for f in report["factors"]]
        if wedge_all(factors) != {b: Fraction(c) for b, c in op.terms.items()}:
            return "factors do not wedge back to the input"
        return None
    if op.kind == "sigma-delta":
        ok = (report["structure_compatible"] and report.get("operator_annihilates_structure")
              and report.get("gradient_action_matches"))
        if code != 0 or not ok:
            return f"sigma-delta on a known Poisson structure: exit {code}, {report}"
        return None
    return f"unknown op kind {op.kind}"


def describe(op: Op) -> dict:
    """Cost-setting input properties of one op."""
    degree = 0
    for value in op.terms.values():
        if isinstance(value, dict):
            degree = max(degree, max(sum(e) for e in value))
    return {"m": op.m, "n": op.n, "blades": len(op.terms), "max_degree": degree,
            "c_m_n1": math.comb(op.m, op.n - 1)}
