"""Batch front end: parse tensor spec files, run checks, emit reports.

Exit codes separate mathematical outcomes from operational problems:
0 means the check passed or the property holds, 1 means it fails
mathematically, 2 means the invocation or input was unusable, 3 means the
program failed on an accepted input (an internal consistency check or any
other exception, reported in one ``internal error:`` line).  JSON
output is canonical and, for a fixed seed, byte-identical across runs;
wall-clock timing appears only in the human-readable form.  A plain
argv (a command, its spec, ``--json`` and the command's own flags, each
with an ASCII integer) is read in one pass without argparse; any other
argv goes to the full argparse parser, the one source of help, usage and
error text.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import sys
import time
from types import SimpleNamespace

from .compat import IncompatibleFieldError, delta, gradient_contraction
from .fields import MultivectorField, jacobi_identity_holds
from .grassmann import NotDecomposableError, factorize
from .poisson import classify, default_sample_points, pointwise_decomposable, sample_ranks
from .polynomial import MAX_EXPONENT, Polynomial
from .specio import SpecError, canonical_json, parse_spec, to_field


def _emit(report: dict, as_json: bool, elapsed: float) -> None:
    if as_json:
        print(canonical_json(report))
        return
    for key, value in report.items():
        if key == "rank_at_samples":
            print("rank_at_samples:")
            for entry in value:
                rest = ", ".join(f"{k} {v}" for k, v in entry.items() if k != "point")
                print(f"  point ({', '.join(entry['point'])}) -> {rest}")
        elif key == "suites":
            for suite in value:
                status = "PASS" if suite["passed"] else "FAIL"
                print(f"{status}  {suite['name']}  ({suite['cases']} cases)")
                for failure in suite["failures"]:
                    print(f"      {failure}")
        else:
            print(f"{key}: {value}")
    print(f"completed in {elapsed:.2f}s")


def _points(field: MultivectorField, args):
    """The default sample points, once the field's largest exponent is at most ``MAX_EXPONENT``."""
    points = default_sample_points(field.dim, args.seed, extra=args.samples)
    if (bound := max((p.bound for p in field.terms.values()), default=0)) > MAX_EXPONENT:
        bits = bound * max(max(d, *map(abs, a)).bit_length() for a, d in points.forms)
        raise SpecError(f"exponent {bound} exceeds {MAX_EXPONENT}: a sample value would take about {bits} bits")
    return points


def _cmd_check(field: MultivectorField, args) -> tuple[dict, int]:
    points = _points(field, args)
    verdict = classify(field, points)
    report = {
        "command": "check",
        "seed": args.seed,
        "parity": verdict.parity,
        "is_poisson": verdict.is_poisson,
        "algebraic_condition": {
            "holds": verdict.algebraic_holds,
            "witness": list(verdict.algebraic_witness) if verdict.algebraic_witness else None,
        },
        "differential_condition": verdict.differential_holds,
        "pointwise_decomposable": verdict.pointwise_decomposable,
        "nambu_algebraic": verdict.nambu_algebraic,
        "rank_at_samples": [
            {"point": strs, "rank": r} for strs, (_, r) in zip(points.strs, verdict.rank_at_samples)
        ],
    }
    return report, 0 if verdict.is_poisson else 1


def _cmd_rank(field: MultivectorField, args) -> tuple[dict, int]:
    # the annihilator has one basis covector per free column: m - rank of them
    points = _points(field, args)
    entries = [
        {"point": strs, "rank": rank, "annihilator_dim": field.dim - rank}
        for strs, (_, rank) in zip(points.strs, sample_ranks(field, points))
    ]
    return {"command": "rank", "seed": args.seed, "rank_at_samples": entries}, 0


def _cmd_factorize(field: MultivectorField, args) -> tuple[dict, int]:
    if not field.is_constant():
        raise SpecError("factorize requires a constant tensor spec")
    value = field.evaluate([0] * field.dim)
    try:
        factorization = factorize(value)
    except NotDecomposableError:
        return {"command": "factorize", "error": "not decomposable"}, 1
    except ValueError as exc:
        return {"command": "factorize", "error": str(exc)}, 1
    try:
        factors = [[str(c) for c in f.vector_components()] for f in factorization.factors]
    except ValueError:  # str() of an int past the interpreter's digit limit
        raise SpecError("a factor coefficient is longer than the interpreter's digit limit") from None
    return {"command": "factorize", "factors": factors}, 0


def _cmd_nambu(field: MultivectorField, args) -> tuple[dict, int]:
    verdict = pointwise_decomposable(field)
    return {"command": "nambu", "nambu_algebraic": verdict}, 0 if verdict else 1


def _cmd_jacobi(field: MultivectorField, args) -> tuple[dict, int]:
    verdict = jacobi_identity_holds(field)
    return {"command": "jacobi", "jacobi_identity_holds": verdict}, 0 if verdict else 1


def _cmd_sigma_delta(field: MultivectorField, args) -> tuple[dict, int]:
    report: dict = {"command": "sigma-delta", "seed": args.seed}
    try:
        image = delta(field, field)
    except IncompatibleFieldError as refusal:
        report.update(structure_compatible=False, witness=list(refusal.witness))
        return report, 1
    annihilates = image.is_zero()
    report.update(structure_compatible=True, witness=None, operator_annihilates_structure=annihilates)
    f = Polynomial.variable(1, field.dim)
    lifted = delta(field, MultivectorField(field.dim, 0, {(): f}))
    report["gradient_action_matches"] = lifted == gradient_contraction(field, f)
    with contextlib.suppress(IncompatibleFieldError):
        report["operator_square_on_x1"] = repr(delta(field, lifted))
    return report, 0 if annihilates else 1


def _cmd_suite(field: None, args) -> tuple[dict, int]:
    from . import suites  # only this command reads the suites and their oracles
    results = suites.run_all(args.seed)
    passed = all(r.passed for r in results)
    report = {"command": "suite", "seed": args.seed, "passed": passed, "suites": list(map(dataclasses.asdict, results))}
    return report, 0 if passed else 1


_SEED = {"type": int, "default": 0, "help": "seed for sample points"}
_SAMPLES = {"type": int, "default": 8, "help": "extra random sample points, at least 0"}
_JSON = {"action": "store_true", "help": "canonical JSON output"}

# name: handler, help line, least grade of the spec (n >= 2 where a bracket is
# tested; None: the command reads no spec), options beyond spec and --json
_COMMANDS = {
    "check": (_cmd_check, "full Poisson classification", 2, {"--seed": _SEED, "--samples": _SAMPLES}),
    "rank": (_cmd_rank, "rank of the sharp map at sample points", 0, {"--seed": _SEED, "--samples": _SAMPLES}),
    "factorize": (_cmd_factorize, "factor a constant decomposable tensor", 0, {}),
    "nambu": (_cmd_nambu, "algebraic Nambu condition", 2, {}),
    "jacobi": (_cmd_jacobi, "generalized Jacobi identity", 2, {}),
    "sigma-delta": (_cmd_sigma_delta, "compatibility family and the induced operator", 2, {"--seed": _SEED}),
    # the suite's options carry no help text
    "suite": (_cmd_suite, "run all seeded property suites", None,
              {"--seed": {"type": int, "default": 0}, "--json": {"action": "store_true"}}),
}


# once per process: a parser is reference cycles that only the cyclic GC frees
@functools.cache
def build_parser():
    import argparse  # loaded only where an argv is not plain (_plain_args)
    parser = argparse.ArgumentParser(
        prog="npk",
        description="Exact checks for n-ary Poisson structures given as tensor spec files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, least_grade, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if least_grade is not None:
            p.add_argument("spec", help="path to a tensor spec JSON file")
        # a command's --seed comes before --json, the rest after it
        for flag, kwargs in ({"--seed": None, "--json": _JSON} | options).items():
            if kwargs is not None:
                p.add_argument(flag, **kwargs)
    return parser


def _plain_args(argv) -> SimpleNamespace | None:
    """``build_parser().parse_args(argv)`` for a plain argv, else None.

    Plain: a command, then in any order at most one spec not starting with
    ``-`` (where the command takes one), ``--json``, and the command's own
    flags, each followed by an ASCII numeral of at most 18 digits with at
    most one leading ``-``.  Help, ``--``, abbreviations, ``--seed=3``,
    other numerals and a missing or repeated spec are left to the parser.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, _, least_grade, options = _COMMANDS[argv[0]]
    args = {"command": argv[0], "json": False} | {flag[2:]: kw.get("default", False) for flag, kw in options.items()}
    wanted = least_grade is not None  # a spec is still to come
    rest = iter(argv[1:])
    for arg in rest:
        if arg == "--json":
            args["json"] = True
        elif arg in options:
            value = next(rest, "")
            digits = value.removeprefix("-")
            if not (digits.isascii() and digits.isdigit() and len(digits) <= 18):
                return None
            args[arg[2:]] = int(value)
        elif wanted and arg[:1] != "-":
            args["spec"], wanted = arg, False
        else:
            return None
    return None if wanted else SimpleNamespace(**args)


def _load(args, least_grade: int) -> MultivectorField:
    """The spec's field, once the spec and the options are known to be usable."""
    field = to_field(parse_spec(args.spec))
    if field.grade < least_grade:
        raise SpecError(f"classification needs grade at least {least_grade}")
    if getattr(args, "samples", 0) < 0:
        raise ValueError(f"--samples must be at least 0, got {args.samples}")
    return field


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _plain_args(argv) or build_parser().parse_args(argv)
    handler, _, least_grade, _ = _COMMANDS[args.command]
    start = time.monotonic()
    try:
        field = None if least_grade is None else _load(args, least_grade)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        report, code = handler(field, args)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # the input was accepted: any other failure is the program's
        print(f"internal error: {' '.join(str(exc).split())} ({type(exc).__name__})", file=sys.stderr)
        return 3
    _emit(report, args.json, time.monotonic() - start)
    return code


if __name__ == "__main__":
    sys.exit(main())
