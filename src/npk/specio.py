"""Parsing and serialization of tensor spec files.

The on-disk format is a small JSON schema with exact rationals as strings
(never binary floats):

    {
      "m": 5, "n": 3, "kind": "constant",
      "terms": [{"indices": [1, 2, 3], "value": "3/2"}]
    }

Polynomial tensors use ``"kind": "polynomial"`` with each value a list of
monomials ``{"coef": "1", "exps": [0, 1, 0, 0, 0]}``.  Parsing is strict:
unknown and repeated fields are rejected, indices must be strictly
increasing, and all numbers arrive as rational strings or integers.
Serialization is canonical, so equal specs serialize byte-identically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .fields import MultivectorField
from .polynomial import Polynomial


class SpecError(ValueError):
    """Malformed tensor spec file."""


@dataclass(frozen=True)
class Monomial:
    coef: str
    exps: tuple[int, ...]


@dataclass(frozen=True)
class Term:
    indices: tuple[int, ...]
    value: str | tuple[Monomial, ...]


@dataclass(frozen=True)
class TensorSpec:
    m: int
    n: int
    kind: str
    terms: tuple[Term, ...]


def _is_int(x) -> bool:
    # JSON true/false decode to bool, a subclass of int; they are not numbers
    return isinstance(x, int) and not isinstance(x, bool)


def _fraction(text, where: str) -> Fraction:
    if _is_int(text):
        return Fraction(text)
    if not isinstance(text, str):
        raise SpecError(f"{where}: rational values must be strings or integers, got {type(text).__name__}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecError(f"{where}: bad rational {text!r} ({exc})") from None


def _check_keys(obj: dict, allowed: set[str], where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise SpecError(f"{where}: unknown fields {sorted(unknown)}")
    missing = allowed - set(obj)
    if missing:
        raise SpecError(f"{where}: missing fields {sorted(missing)}")


def parse_spec_data(obj) -> TensorSpec:
    """Validate and canonicalize an already-decoded JSON object."""
    if not isinstance(obj, dict):
        raise SpecError("top level must be a JSON object")
    _check_keys(obj, {"m", "n", "kind", "terms"}, "top level")
    m, n, kind, terms = obj["m"], obj["n"], obj["kind"], obj["terms"]
    if not _is_int(m) or m < 1:
        raise SpecError("m must be a positive integer")
    if not _is_int(n) or n < 1:
        raise SpecError("n must be a positive integer")
    if n > m:
        raise SpecError(f"n must not exceed m: no grade-{n} blades exist in dimension {m}")
    if kind not in ("constant", "polynomial"):
        raise SpecError(f"kind must be 'constant' or 'polynomial', got {kind!r}")
    if not isinstance(terms, list):
        raise SpecError("terms must be a list")

    constant_acc: dict[tuple[int, ...], Fraction] = {}
    poly_acc: dict[tuple[int, ...], dict[tuple[int, ...], Fraction]] = {}
    for pos, term in enumerate(terms):
        where = f"terms[{pos}]"
        if not isinstance(term, dict):
            raise SpecError(f"{where}: must be an object")
        _check_keys(term, {"indices", "value"}, where)
        indices = term["indices"]
        if (
            not isinstance(indices, list)
            or len(indices) != n
            or any(not _is_int(i) for i in indices)
        ):
            raise SpecError(f"{where}: indices must be a list of {n} integers")
        if any(b <= a for a, b in zip(indices, indices[1:])) or indices[0] < 1 or indices[-1] > m:
            raise SpecError(f"{where}: indices must be strictly increasing within 1..{m}")
        blade = tuple(indices)
        value = term["value"]
        if kind == "constant":
            coef = _fraction(value, where)
            total = constant_acc.get(blade, Fraction(0)) + coef
            if total:
                constant_acc[blade] = total
            else:
                constant_acc.pop(blade, None)
        else:
            if not isinstance(value, list):
                raise SpecError(f"{where}: polynomial values must be monomial lists")
            acc = poly_acc.setdefault(blade, {})
            for mpos, mono in enumerate(value):
                mwhere = f"{where}.value[{mpos}]"
                if not isinstance(mono, dict):
                    raise SpecError(f"{mwhere}: must be an object")
                _check_keys(mono, {"coef", "exps"}, mwhere)
                exps = mono["exps"]
                if (
                    not isinstance(exps, list)
                    or len(exps) != m
                    or any(not _is_int(e) or e < 0 for e in exps)
                ):
                    raise SpecError(f"{mwhere}: exps must be a list of {m} nonnegative integers")
                coef = _fraction(mono["coef"], mwhere)
                key = tuple(exps)
                total = acc.get(key, Fraction(0)) + coef
                if total:
                    acc[key] = total
                else:
                    acc.pop(key, None)
            if not acc:
                poly_acc.pop(blade, None)

    canonical: list[Term] = []
    if kind == "constant":
        for blade in sorted(constant_acc):
            canonical.append(Term(blade, str(constant_acc[blade])))
    else:
        for blade in sorted(poly_acc):
            monos = tuple(
                Monomial(str(coef), exps) for exps, coef in sorted(poly_acc[blade].items())
            )
            canonical.append(Term(blade, monos))
    return TensorSpec(m, n, kind, tuple(canonical))


def _unique_fields(pairs: list) -> dict:
    # json.loads would keep the last of two equal keys without a word
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise SpecError(f"duplicate field {key!r}")
        obj[key] = value
    return obj


def parse_spec_text(text: str) -> TensorSpec:
    try:
        obj = json.loads(text, object_pairs_hook=_unique_fields)
    except json.JSONDecodeError as exc:
        raise SpecError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    return parse_spec_data(obj)


def parse_spec(path) -> TensorSpec:
    return parse_spec_text(Path(path).read_text(encoding="utf-8"))


def serialize(spec: TensorSpec) -> str:
    """Canonical JSON text; parsing it reproduces the spec exactly."""
    terms = []
    for term in spec.terms:
        if isinstance(term.value, str):
            value = term.value
        else:
            value = [{"coef": mono.coef, "exps": list(mono.exps)} for mono in term.value]
        terms.append({"indices": list(term.indices), "value": value})
    obj = {"m": spec.m, "n": spec.n, "kind": spec.kind, "terms": terms}
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def to_field(spec: TensorSpec) -> MultivectorField:
    comps = {}
    for term in spec.terms:
        if isinstance(term.value, str):
            comps[term.indices] = Polynomial.constant(Fraction(term.value), spec.m)
        else:
            comps[term.indices] = Polynomial(
                spec.m, {mono.exps: Fraction(mono.coef) for mono in term.value}
            )
    return MultivectorField(spec.m, spec.n, comps)


def from_field(field: MultivectorField, kind: str | None = None) -> TensorSpec:
    """Canonical spec for a field; kind defaults to the tightest choice."""
    if kind is None:
        kind = "constant" if field.is_constant() else "polynomial"
    if kind not in ("constant", "polynomial"):
        raise ValueError(f"kind must be 'constant' or 'polynomial', got {kind!r}")
    if field.grade > field.dim:
        raise ValueError("a spec needs n <= m; the field's grade exceeds its dimension")
    terms: list[Term] = []
    for blade in sorted(field.terms):
        poly = field.terms[blade]
        if kind == "constant":
            if not poly.is_constant():
                raise ValueError("field has non-constant components; use kind='polynomial'")
            terms.append(Term(blade, str(poly.constant_value())))
        else:
            monos = tuple(Monomial(str(c), e) for e, c in poly.monomials())
            terms.append(Term(blade, monos))
    return TensorSpec(field.dim, field.grade, kind, tuple(terms))
