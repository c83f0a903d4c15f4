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
validates the spec and builds its :class:`~npk.fields.MultivectorField` in
one pass; repeated blades and monomials merge by addition and a blade that
cancels disappears.  The text is decoded once, by a plain ``json.loads``,
and a repeated field is found by counting: every string of an accepted spec
is a fixed key, a ``kind`` or a rational, none holding a ``:``, so
``text.count(":")`` is the number of key/value pairs in the text, 4 + 2 per
term + 2 per monomial unless a field repeats (the decoder keeps its last
value).  A refused spec, or one whose count is off, is decoded again
through a hook that refuses a repeated field as each object closes, so
every refusal, and its precedence, is that route's.  A coefficient is an
unreduced ``(num, den)`` pair of ints, read without ``Fraction`` when it is
an int or ``[-]digits/digits``, and merged by cross-multiplication.  An
exponent list is keyed by ``bytes(exps)``, which checks 0..255 in C, and
packed at width 8 by ``int.from_bytes``; a wider exponent keys by its
tuple.  A :class:`TensorSpec` is ``m``, ``n``, ``kind`` and the field.
Serialization renders the field canonically (blades sorted, monomials as
:meth:`~npk.polynomial.Polynomial.monomials` orders them), so equal specs
serialize byte-identically.
:func:`canonical_json` is the one JSON writer of the package: the text of
``json.dumps(obj, indent=2, sort_keys=True)``, built without the standard
library's pure-Python indent path.  A report's table of sample points is
written once per default sample-point set, whose ``strs`` are the same
tuples on every call; later reports fill in only the ranks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter

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


def _ratio(text) -> tuple[int, int]:
    """``(num, den)`` of a rational value, ``den > 0``, equal to ``Fraction(text)`` but not reduced."""
    if not isinstance(text, str):
        if _is_int(text):
            return text, 1
        raise SpecError(f"rational values must be strings or integers, got {type(text).__name__}")
    num, slash, den = text.partition("/")
    try:  # an int, or [-]digits/digits in ASCII, is read without Fraction's parser
        if not slash:
            return int(text), 1
        if text.isascii() and num.removeprefix("-").isdigit() and den.isdigit() and (d := int(den)):
            return int(num), d
    except ValueError:
        pass
    try:
        return Fraction(text).as_integer_ratio()
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecError(f"bad rational {text!r} ({exc})") from None


def _merge(acc: dict, key, num: int, den: int) -> None:
    # acc[key] += num/den over (num, den) pairs; a sum that reaches 0 is deleted at once
    n, d = acc.get(key, (0, 1))
    if n := n * den + num * d:
        acc[key] = n, d * den
    else:
        acc.pop(key, None)


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

    # blade -> (num, den) (constant) or blade -> {exponent key: (num, den)};
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
                _merge(acc, blade, *_ratio(value))
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
                try:  # bytes() checks e < 256 in C; a wider exponent keys by its tuple
                    key = bytes(exps)
                except ValueError:
                    key = tuple(exps)
                _merge(monos, key, *_ratio(mono["coef"]))
            mpos = None
            if not monos:
                del acc[blade]
    except SpecError as exc:
        where = f"terms[{pos}]" if mpos is None else f"terms[{pos}].value[{mpos}]"
        raise SpecError(f"{where}: {exc}") from None

    # every blade, exponent key and coefficient is valid and nonzero by now
    if kind == "constant":
        comps = {blade: Polynomial._raw(m, {0: num}, den) for blade, (num, den) in acc.items()}
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
    """The spec of JSON text: one plain decode, unless it is refused (see the module docstring)."""
    try:
        spec = parse_spec_data(obj := json.loads(text))
        terms = obj["terms"]
        monos = sum(map(len, map(itemgetter("value"), terms))) if spec.kind == "polynomial" else 0
        if text.count(":") == 4 + 2 * len(terms) + 2 * monos:  # no field repeats
            return spec
    except (ValueError, RecursionError):
        pass
    # refused, or a field repeats: the hook route gives the refusal its precedence
    try:
        obj = json.loads(text, object_pairs_hook=_unique_fields)
    except json.JSONDecodeError as exc:
        raise SpecError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise SpecError("JSON nested deeper than the decoder's recursion limit") from None
    return parse_spec_data(obj)


def parse_spec(path) -> TensorSpec:
    with open(path, "rb") as f:
        text = f.read().decode("utf-8")
    # newlines as text mode translates them: JSON error lines and columns count by them
    return parse_spec_text(text.replace("\r\n", "\n").replace("\r", "\n"))


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
    are written here; any other leaf goes to ``json.dumps``.  A record list
    (dicts of one set of plain ``str`` keys, each column all exact ints or
    all tuples of plain ``str``) is kept cut at its int cells, by its layout
    and the ``id`` of each tuple, in a 64-entry memo.  An entry holds its
    tuples, so those ids name the same objects, and they cannot change.
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
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        return _block([f"{_quote(key)}: {_canonical(obj[key], inner)}" for key in sorted(obj)], pad, "{}")
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if type(obj[0]) is dict and (text := _records(obj, pad)) is not None:
            return text
        if {*map(type, obj)} == {str}:  # quoted at C speed
            return _block(map(_quote, obj), pad, "[]")
        return _block([_canonical(x, inner) for x in obj], pad, "[]")
    return json.dumps(obj)


def _block(items, pad: str, brackets: str) -> str:
    # one item a line, two spaces below pad, between the brackets
    sep = ",\n" + pad + "  "
    return f"{brackets[0]}{sep[1:]}{sep.join(items)}\n{pad}{brackets[1]}"


# record-list texts (see canonical_json); the oldest entry goes first
_TABLES: dict = {}
_TABLES_MAX = 64


def _records(rows, pad: str) -> str | None:
    # a record list's text (see canonical_json), None for any other list
    first = rows[0]  # its cells give most other lists away at once
    if {*map(type, first.values())} - {int, tuple} or {*map(type, first)} != {str}:
        return None
    if {*map(type, rows)} != {dict} or {*map(len, rows)} != {len(first)}:
        return None
    try:  # rows as long as the first that all hold its keys have its key set
        columns = {key: [row[key] for row in rows] for key in sorted(first)}
    except KeyError:
        return None
    ints = [key for key, column in columns.items() if {*map(type, column)} == {int}]
    cells = [cell for key, column in columns.items() if key not in ints for cell in column]
    memo_key = (pad, len(rows), tuple(columns), tuple(ints), *map(id, cells))
    entry = _TABLES.get(memo_key)
    if entry is None:  # checked once: a later key with these ids has these very objects
        if any(type(cell) is not tuple or {*map(type, cell)} - {str} for cell in cells):
            return None
        # "\0" marks an int cell: no quoted string or layout character is one
        text = _block([_block([f"{_quote(key)}: " + ("\0" if key in ints else _canonical(row[key], pad + "    "))
                               for key in columns], pad + "  ", "{}") for row in rows], pad, "[]")
        pieces = [None] * (2 * len(rows) * len(ints) + 1)
        pieces[::2] = text.split("\0")
        if len(_TABLES) >= _TABLES_MAX:
            del _TABLES[next(iter(_TABLES))]
        entry = _TABLES[memo_key] = (pieces, cells)
    # the int cells in text order: row by row, each row's keys sorted
    values = columns[ints[0]] if len(ints) == 1 else [row[key] for row in rows for key in ints]
    pieces = entry[0].copy()
    pieces[1::2] = map(int.__repr__, values)
    return "".join(pieces)


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
