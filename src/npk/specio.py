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
increasing, and all numbers arrive as rational strings or integers.  It
validates the spec and builds its :class:`~npk.fields.MultivectorField`
in one pass, reading each coefficient once; repeated blades and monomials
merge by addition and a blade that cancels disappears.  The validated
components are packed straight into polynomials and the field is
assembled without validating them again.  A :class:`TensorSpec` is
``m``, ``n``, ``kind`` and that field.  Serialization renders the field
canonically (blades sorted, monomials as
:meth:`~npk.polynomial.Polynomial.monomials` orders them), so equal specs
serialize byte-identically.
:func:`canonical_json` is the one JSON writer of the package: the text of
``json.dumps(obj, indent=2, sort_keys=True)``, built without the standard
library's pure-Python indent path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _quote

from .exterior import _add_term
from .fields import MultivectorField
from .polynomial import Polynomial, _packed


class SpecError(ValueError):
    """Malformed tensor spec file."""


@dataclass(frozen=True)
class TensorSpec:
    m: int
    n: int
    kind: str
    field: MultivectorField


def _is_int(x) -> bool:
    # JSON true/false decode to bool, a subclass of int; they are not numbers
    return isinstance(x, int) and not isinstance(x, bool)


def _ints(xs: list) -> bool:
    # a nonempty list of exact ints, at C speed: a bool is not an int here
    return {*map(type, xs)} == {int}


def _rational(text) -> int | Fraction:
    if _is_int(text):
        return text
    if not isinstance(text, str):
        raise SpecError(f"rational values must be strings or integers, got {type(text).__name__}")
    num, slash, den = text.partition("/")
    try:  # an int, or [-]digits/digits in ASCII, is read without Fraction's parser
        if not slash:
            return int(text)
        if text.isascii() and num.removeprefix("-").isdigit() and den.isdigit():
            return Fraction(int(num), int(den))
    except (ValueError, ZeroDivisionError):
        pass
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecError(f"bad rational {text!r} ({exc})") from None


def _check_keys(obj: dict, allowed: set[str], where: str = "") -> None:
    if obj.keys() == allowed:
        return
    unknown = set(obj) - allowed
    if unknown:
        raise SpecError(f"{where}unknown fields {sorted(unknown)}")
    raise SpecError(f"{where}missing fields {sorted(allowed - set(obj))}")


def parse_spec_data(obj) -> TensorSpec:
    """Validate an already-decoded JSON object and build its field."""
    if not isinstance(obj, dict):
        raise SpecError("top level must be a JSON object")
    _check_keys(obj, {"m", "n", "kind", "terms"}, "top level: ")
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

    # blade -> rational (constant) or blade -> {exponent tuple: rational};
    # a refusal inside terms names its place, built only when it is raised
    acc: dict = {}
    mpos = None  # the monomial being read, None outside a monomial list
    try:
        for pos, term in enumerate(terms):
            if not isinstance(term, dict):
                raise SpecError("must be an object")
            _check_keys(term, {"indices", "value"})
            indices = term["indices"]
            if not isinstance(indices, list) or len(indices) != n or not _ints(indices):
                raise SpecError(f"indices must be a list of {n} integers")
            if indices != sorted(set(indices)) or indices[0] < 1 or indices[-1] > m:
                raise SpecError(f"indices must be strictly increasing within 1..{m}")
            blade = tuple(indices)
            value = term["value"]
            if kind == "constant":
                _add_term(acc, blade, _rational(value))
                continue
            if not isinstance(value, list):
                raise SpecError("polynomial values must be monomial lists")
            monos = acc.setdefault(blade, {})
            for mpos, mono in enumerate(value):
                if not isinstance(mono, dict):
                    raise SpecError("must be an object")
                _check_keys(mono, {"coef", "exps"})
                exps = mono["exps"]
                if not isinstance(exps, list) or len(exps) != m or not _ints(exps) or min(exps) < 0:
                    raise SpecError(f"exps must be a list of {m} nonnegative integers")
                _add_term(monos, tuple(exps), _rational(mono["coef"]))
            mpos = None
            if not monos:
                del acc[blade]
    except SpecError as exc:
        where = f"terms[{pos}]" if mpos is None else f"terms[{pos}].value[{mpos}]"
        raise SpecError(f"{where}: {exc}") from None

    # every blade, exponent tuple and coefficient is valid and nonzero by now
    if kind == "constant":
        comps = {blade: Polynomial._raw(m, {0: c.numerator}, c.denominator) for blade, c in acc.items()}
    else:
        comps = {blade: Polynomial._raw(m, *_packed(monos)) for blade, monos in acc.items()}
    return TensorSpec(m, n, kind, MultivectorField._raw(m, n, comps))


def _unique_fields(pairs: list) -> dict:
    # json.loads would keep the last of two equal keys without a word
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()  # the first key met a second time
        key = next(key for key, _ in pairs if key in seen or seen.add(key))
        raise SpecError(f"duplicate field {key!r}")
    return obj


def parse_spec_text(text: str) -> TensorSpec:
    try:
        obj = json.loads(text, object_pairs_hook=_unique_fields)
    except json.JSONDecodeError as exc:
        raise SpecError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise SpecError("JSON nested deeper than the decoder's recursion limit") from None
    return parse_spec_data(obj)


def parse_spec(path) -> TensorSpec:
    with open(path, encoding="utf-8") as f:
        return parse_spec_text(f.read())


def serialize(spec: TensorSpec) -> str:
    """Canonical JSON text; parsing it reproduces the spec exactly."""
    terms = []
    for blade in sorted(spec.field.terms):
        poly = spec.field.terms[blade]
        if spec.kind == "constant":
            value = str(poly.constant_value())
        else:
            value = [{"coef": str(c), "exps": list(e)} for e, c in poly.monomials()]
        terms.append({"indices": list(blade), "value": value})
    obj = {"m": spec.m, "n": spec.n, "kind": spec.kind, "terms": terms}
    return canonical_json(obj) + "\n"


def canonical_json(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte.

    Dicts (with string keys), lists, tuples, strings, ints, bools and None
    are written here; any other leaf goes to ``json.dumps``.  The text of a
    tuple of strings at one indentation is kept in a 256-entry memo.
    """
    return _canonical(obj, "")


def _canonical(obj, pad: str) -> str:
    # obj's text, its nested lines indented two spaces below pad
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = pad + "  "
        items = [f"{_quote(key)}: {_canonical(obj[key], inner)}" for key in sorted(obj)]
        brackets = "{}"
    elif isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if {*map(type, obj)} == {str}:
            # quoted at C speed; a tuple cannot change, so a point's text is written once per process
            return _strings(obj, pad) if type(obj) is tuple else _strings.__wrapped__(obj, pad)
        inner = pad + "  "
        items = [_canonical(x, inner) for x in obj]
        brackets = "[]"
    else:
        return json.dumps(obj)
    sep = ",\n" + inner
    return f"{brackets[0]}\n{inner}{sep.join(items)}\n{pad}{brackets[1]}"


@lru_cache(maxsize=256)
def _strings(strs, pad: str) -> str:
    sep = ",\n" + pad + "  "
    return f"[{sep[1:]}{sep.join(map(_quote, strs))}\n{pad}]"


def to_field(spec: TensorSpec) -> MultivectorField:
    return spec.field


def from_field(field: MultivectorField, kind: str | None = None) -> TensorSpec:
    """The spec of a field; kind defaults to the tightest choice."""
    if kind is None:
        kind = "constant" if field.is_constant() else "polynomial"
    if kind not in ("constant", "polynomial"):
        raise ValueError(f"kind must be 'constant' or 'polynomial', got {kind!r}")
    if field.grade > field.dim:
        raise ValueError("a spec needs n <= m; the field's grade exceeds its dimension")
    if kind == "constant" and not field.is_constant():
        raise ValueError("field has non-constant components; use kind='polynomial'")
    return TensorSpec(field.dim, field.grade, kind, field)
