import contextlib
import hashlib
import io
import json
import os
import pathlib
import random
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import npk
import npk.grassmann
import npk.oracles
import npk.suites
from npk.cli import main
from npk.fields import MultivectorField
from npk.poisson import classify, default_sample_points
from npk.polynomial import Polynomial
from npk.specio import (
    SpecError,
    _ratio,
    canonical_json,
    from_field,
    parse_spec,
    parse_spec_data,
    parse_spec_text,
    serialize,
    to_field,
)
from npk.suites import random_constant_field, random_linear_field
from oracles import parse_spec_by_pairs_hook
from test_spec_mutations import mutate

SPECS = pathlib.Path(__file__).resolve().parents[1] / "specs"

CONSTANT_SPEC = """
{"m": 5, "n": 3, "kind": "constant",
 "terms": [{"indices": [1, 2, 3], "value": "1"}]}
"""


# ---------------------------------------------------------------------------
# parsing

def test_parse_constant_blade():
    spec = parse_spec_text(CONSTANT_SPEC)
    field = to_field(spec)
    assert field == MultivectorField(5, 3, {(1, 2, 3): 1})


def test_parse_exact_rational():
    text = CONSTANT_SPEC.replace('"1"', '"3/2"')
    field = to_field(parse_spec_text(text))
    assert field.terms[(1, 2, 3)] == Fraction(3, 2)


_GRAMMAR = "not an integer or integer/integer in ASCII digits"
_DIGIT_LIMIT = "rational longer than the interpreter's digit limit"
_LIMIT = "1" * 4300  # the most digits int() reads by default

# each rational text with its (num, den), unreduced, or its refusal's exact text:
# -?[0-9]+ or -?[0-9]+/[0-9]+ in ASCII, the denominator nonzero, and nothing else
RATIONAL_TEXTS = {
    "7": (7, 1), "-3": (-3, 1), "007": (7, 1), "-0": (0, 1),
    "3/4": (3, 4), "-3/4": (-3, 4), "-12/8": (-12, 8), "03/04": (3, 4), "-0/5": (0, 5), "0/1": (0, 1),
    _LIMIT: (int(_LIMIT), 1), f"-{_LIMIT}/{_LIMIT}": (-int(_LIMIT), int(_LIMIT)),
    "3/0": "bad rational '3/0' (zero denominator)", "-0/00": "bad rational '-0/00' (zero denominator)",
    _LIMIT + "1": _DIGIT_LIMIT, f"1/{_LIMIT}1": _DIGIT_LIMIT, f"-{_LIMIT}1/0": _DIGIT_LIMIT,
    **{text: f"bad rational {text!r} ({_GRAMMAR})" for text in (
        "0.5", "1e2", "1e3", "1e5000", "1e1000000", "1e100000000", "3.5/2", "1e3/4", "inf", "nan", "x", "",
        " 3/4", "3/ 4", " -3 ", "7\n", "+4", "+3/4", "3/-4", "--3", "-", "/4", "3/", "3/4/5",
        "1_000", "1_0/3", "\u0663/4", "\u00b2/4", "\uff17",
    )},
}


def test_rational_texts_follow_one_grammar():
    # the loader's reader, the pairs-hook oracle's and a whole spec agree on every text
    for text, want in RATIONAL_TEXTS.items():
        spec = CONSTANT_SPEC.replace('"1"', json.dumps(text))
        outcome = _load_outcome(parse_spec_text, spec)
        assert outcome == _load_outcome(parse_spec_by_pairs_hook, spec), text
        if isinstance(want, str):
            with pytest.raises(SpecError) as refusal:
                _ratio(text)
            assert str(refusal.value) == want, text
            assert outcome == ("SpecError", f"terms[0]: {want}"), text
        else:
            num, den = _ratio(text)
            assert (type(num), type(den), (num, den)) == (int, int, want), text
            assert to_field(parse_spec_text(spec)).terms.get((1, 2, 3), 0) == Fraction(num, den), text


def _read_as_fraction_or_refused(text):
    # a text of the grammar reads to the value Fraction gives it; any other
    # text Fraction reads (padded, signed, underscored, decimal, exponent) is refused
    want = RATIONAL_TEXTS[text]
    if isinstance(want, str):
        with pytest.raises(SpecError) as refusal:
            _ratio(text)
        assert str(refusal.value) == want, text
        return
    num, den = _ratio(text)
    assert (type(num), type(den), den > 0, Fraction(num, den)) == (int, int, True, Fraction(text)), text
    field = to_field(parse_spec_text(CONSTANT_SPEC.replace('"1"', json.dumps(text))))
    assert field.terms.get((1, 2, 3), 0) == Fraction(text), text


def test_parse_integer_strings_as_fraction_reads_them():
    for text in ("7", " -3 ", "+4", "1_000", "-12/8", "1e2", "0.5", "007"):
        _read_as_fraction_or_refused(text)


def test_parse_fraction_strings_as_fraction_reads_them():
    corpus = ("3/4", "-3/4", "+3/4", " 3/4", "3/ 4", "3/-4", "1_0/3", "03/04", "-0/5", "3/0", "٣/4", "²/4", "3.5/2", "1e3")
    for text in corpus:
        _read_as_fraction_or_refused(text)


def test_parse_integer_values_read_as_their_strings():
    # JSON integers take their own path through the parser, for constants
    # and for monomial coefficients alike
    for value in (7, -3, 0, 10**30):
        as_int = to_field(parse_spec_text(CONSTANT_SPEC.replace('"1"', json.dumps(value))))
        assert as_int == to_field(parse_spec_text(CONSTANT_SPEC.replace('"1"', json.dumps(str(value))))), value
        monomials = [
            {"m": 2, "n": 2, "kind": "polynomial", "terms": [{"indices": [1, 2], "value": [{"coef": c, "exps": [1, 0]}]}]}
            for c in (value, str(value))
        ]
        assert parse_spec_data(monomials[0]).field == parse_spec_data(monomials[1]).field, value


def test_parse_rejects_unsorted_indices():
    text = CONSTANT_SPEC.replace("[1, 2, 3]", "[2, 1, 3]")
    with pytest.raises(SpecError, match="strictly increasing"):
        parse_spec_text(text)


def test_parse_rejects_bad_rational():
    text = CONSTANT_SPEC.replace('"1"', '"1/0"')
    with pytest.raises(SpecError, match="bad rational"):
        parse_spec_text(text)
    text = CONSTANT_SPEC.replace('"1"', "0.25")
    with pytest.raises(SpecError, match="rational values"):
        parse_spec_text(text)


# each spec is valid if a JSON true is read as the integer 1
BOOLEAN_PROBES = {
    "m": {"m": True, "n": 1, "kind": "constant", "terms": [{"indices": [1], "value": "1"}]},
    "n": {"m": 3, "n": True, "kind": "constant", "terms": [{"indices": [1], "value": "1"}]},
    "indices": {"m": 3, "n": 3, "kind": "constant", "terms": [{"indices": [True, 2, 3], "value": "1"}]},
    "exps": {
        "m": 3,
        "n": 3,
        "kind": "polynomial",
        "terms": [{"indices": [1, 2, 3], "value": [{"coef": "1", "exps": [True, 0, 0]}]}],
    },
    "value": {"m": 3, "n": 3, "kind": "constant", "terms": [{"indices": [1, 2, 3], "value": True}]},
}


@pytest.mark.parametrize("probe", sorted(BOOLEAN_PROBES))
def test_json_booleans_are_not_integers(probe, tmp_path, capsys):
    obj = BOOLEAN_PROBES[probe]
    with pytest.raises(SpecError):
        parse_spec_data(obj)
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["check", str(path)]) == 2


GRADE_ABOVE_DIMENSION = {"m": 3, "n": 5, "kind": "constant", "terms": []}


@pytest.mark.parametrize("command", ["check", "rank", "factorize", "nambu", "jacobi", "sigma-delta"])
def test_grade_above_dimension_is_rejected(command, tmp_path, capsys):
    with pytest.raises(SpecError, match="must not exceed m"):
        parse_spec_data(GRADE_ABOVE_DIMENSION)
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(GRADE_ABOVE_DIMENSION), encoding="utf-8")
    assert main([command, str(path)]) == 2


def test_grade_above_dimension_is_not_serialized():
    # such a spec would not parse back
    with pytest.raises(ValueError):
        from_field(MultivectorField(3, 5))


def test_parse_rejects_unknown_fields():
    text = '{"m": 3, "n": 2, "kind": "constant", "terms": [], "extra": 1}'
    with pytest.raises(SpecError, match="unknown fields"):
        parse_spec_text(text)


@pytest.mark.parametrize("text, key", [
    ('{"m": 5, "m": 3, "n": 3, "kind": "constant", "terms": []}', "m"),
    ('{"m": 3, "n": 2, "kind": "constant", "terms": [{"indices": [1, 2], "value": "1", "value": "2"}]}', "value"),
    ('{"m": 2, "n": 1, "kind": "polynomial", "terms": [{"indices": [1], "value": '
     '[{"coef": "1", "exps": [1, 0], "exps": [0, 1]}]}]}', "exps"),
    # an object that closes before an integer past the digit limit is read is refused first
    pytest.param('{"m": 2, "n": 1, "kind": "constant", "terms": [{"indices": [1], "value": "1", "value": "2"}, 1%s]}'
                 % ("0" * 5000), "value", id="before-a-long-integer"),
])
def test_parse_rejects_duplicate_fields(text, key, tmp_path, capsys):
    with pytest.raises(SpecError, match=f"duplicate field '{key}'"):
        parse_spec_text(text)
    path = tmp_path / "dup.json"
    path.write_text(text, encoding="utf-8")
    assert main(["rank", str(path)]) == 2
    assert f"duplicate field '{key}'" in capsys.readouterr().err


def test_parse_reports_json_position():
    with pytest.raises(SpecError, match="line"):
        parse_spec_text("{not json}")


def test_parse_polynomial_kind():
    text = json.dumps(
        {
            "m": 3,
            "n": 2,
            "kind": "polynomial",
            "terms": [
                {
                    "indices": [1, 2],
                    "value": [
                        {"coef": "1/2", "exps": [1, 0, 0]},
                        {"coef": "-2", "exps": [0, 0, 0]},
                    ],
                }
            ],
        }
    )
    field = to_field(parse_spec_text(text))
    expected = Polynomial(3, {(1, 0, 0): Fraction(1, 2), (0, 0, 0): Fraction(-2)})
    assert field == MultivectorField(3, 2, {(1, 2): expected})


def test_duplicate_blades_merge():
    text = json.dumps(
        {
            "m": 3,
            "n": 2,
            "kind": "constant",
            "terms": [
                {"indices": [1, 2], "value": "1"},
                {"indices": [1, 2], "value": "-1"},
            ],
        }
    )
    spec = parse_spec_text(text)
    assert to_field(spec).is_zero()
    assert '"terms": []' in serialize(spec)


def _polynomial_spec(*terms) -> str:
    entries = [
        {"indices": list(indices), "value": [{"coef": c, "exps": list(e)} for c, e in monos]}
        for indices, monos in terms
    ]
    return json.dumps({"m": 3, "n": 2, "kind": "polynomial", "terms": entries})


def test_polynomial_blades_merge_across_entries():
    # one blade in two entries: the monomials add, and x1 cancels
    text = _polynomial_spec(
        ((1, 2), [("1/2", (1, 0, 0)), ("3", (0, 0, 0))]),
        ((2, 3), [("1", (0, 1, 0))]),
        ((1, 2), [("-1/2", (1, 0, 0)), ("2/3", (0, 0, 2))]),
    )
    field = to_field(parse_spec_text(text))
    want = Polynomial(3, {(0, 0, 0): 3, (0, 0, 2): Fraction(2, 3)})
    assert field == MultivectorField(3, 2, {(1, 2): want, (2, 3): Polynomial.variable(2, 3)})
    assert serialize(parse_spec_text(text)) == serialize(from_field(field))


def test_polynomial_monomials_cancel_to_an_empty_blade():
    # within one entry and across two, and a blade given with no monomials
    text = _polynomial_spec(
        ((1, 3), [("2", (0, 1, 1)), ("-2", (0, 1, 1))]),
        ((1, 2), [("1/3", (2, 0, 0))]),
        ((2, 3), []),
        ((1, 2), [("-1/3", (2, 0, 0))]),
    )
    spec = parse_spec_text(text)
    assert to_field(spec).is_zero() and to_field(spec).grade == 2
    assert '"terms": []' in serialize(spec)


def _slots(field: MultivectorField) -> tuple:
    """Every slot of a field and of its components, in blade order."""
    comps = [(b, type(p), p.num_vars, p.terms, p.den, p.bound, p.width) for b, p in field.terms.items()]
    return type(field), field.dim, field.grade, comps


def _assert_one_pass_load(spec: dict, comps: dict) -> None:
    """The loaded field has the slots of the public constructors on ``comps``."""
    m, n = spec["m"], spec["n"]
    want = MultivectorField(m, n, {b: Polynomial(m, monos) for b, monos in comps.items()})
    assert _slots(to_field(parse_spec_data(spec))) == _slots(want)


def test_one_pass_loader_bound_comes_from_the_surviving_monomials():
    # x1^300 cancels, so the fields stay one byte wide, as the constructor packs them
    spec = json.loads(_polynomial_spec(
        ((1, 2), [("5", (300, 0, 0)), ("1/2", (0, 1, 0))]),
        ((2, 3), [("1", (0, 0, 2))]),
        ((1, 2), [("-5", (300, 0, 0)), ("1/3", (0, 1, 0))]),
    ))
    comps = {(1, 2): {(0, 1, 0): Fraction(5, 6)}, (2, 3): {(0, 0, 2): 1}}
    _assert_one_pass_load(spec, comps)
    assert [(p.bound, p.width) for p in to_field(parse_spec_data(spec)).terms.values()] == [(1, 8), (2, 8)]
    # a surviving high power widens its own component only
    spec["terms"][2]["value"][0]["coef"] = "-4"
    comps[(1, 2)][(300, 0, 0)] = 1
    _assert_one_pass_load(spec, comps)
    assert [(p.bound, p.width) for p in to_field(parse_spec_data(spec)).terms.values()] == [(300, 16), (2, 8)]


def test_one_pass_loader_drops_a_blade_whose_monomials_cancel():
    spec = json.loads(_polynomial_spec(
        ((2, 3), [("2", (1, 1, 0))]),
        ((1, 3), [("7/4", (0, 2, 1)), ("1", (1, 0, 0))]),
        ((1, 2), [("1", (0, 0, 0))]),
        ((1, 3), [("-7/4", (0, 2, 1)), ("-1", (1, 0, 0))]),
    ))
    _assert_one_pass_load(spec, {(2, 3): {(1, 1, 0): 2}, (1, 2): {(0, 0, 0): 1}})


def test_one_pass_loader_packs_fractions_over_one_denominator():
    spec = json.loads(_polynomial_spec(
        ((1, 3), [("1/6", (1, 0, 0)), ("-3/4", (0, 1, 1)), ("5/9", (2, 0, 3)), ("2", (0, 0, 0))]),
        ((1, 2), [("4/10", (0, 5, 0))]),
    ))
    comps = {
        (1, 3): {(1, 0, 0): Fraction(1, 6), (0, 1, 1): Fraction(-3, 4), (2, 0, 3): Fraction(5, 9), (0, 0, 0): 2},
        (1, 2): {(0, 5, 0): Fraction(2, 5)},
    }
    _assert_one_pass_load(spec, comps)
    assert [p.den for p in to_field(parse_spec_data(spec)).terms.values()] == [36, 5]


def test_one_pass_loader_constant_spec_with_a_cancelling_blade():
    spec = {"m": 4, "n": 2, "kind": "constant", "terms": [
        {"indices": [2, 4], "value": "3/8"},
        {"indices": [1, 2], "value": "1"},
        {"indices": [3, 4], "value": -2},
        {"indices": [1, 2], "value": "-1"},
        {"indices": [2, 4], "value": "1/8"},
    ]}
    zero = (0, 0, 0, 0)
    _assert_one_pass_load(spec, {(2, 4): {zero: Fraction(1, 2)}, (3, 4): {zero: -2}})
    assert all(p.terms.keys() == {0} for p in to_field(parse_spec_data(spec)).terms.values())


def _load_outcome(load, arg) -> tuple:
    """Every slot of the loaded spec, dict orders included, or the refusal's type and text."""
    try:
        spec = load(arg)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    comps = [(b, list(p.terms.items()), p.den, p.bound, p.width) for b, p in spec.field.terms.items()]
    return spec.m, spec.n, spec.kind, spec.field.dim, spec.field.grade, comps


def _loader_corpus() -> list[str]:
    texts = [path.read_text(encoding="utf-8") for path in sorted(SPECS.glob("*.json"))]
    rng = random.Random("spec-mutations")  # the mutants of test_spec_mutations, and more
    originals = [json.loads(text) for text in texts]
    texts += [json.dumps(mutate(rng.choice(originals), rng)) for _ in range(1002)]
    top = '{"m": 3, "n": 2, "kind": "%s", "terms": [%s]}'
    mono = '{"coef": %s, "exps": %s}'
    poly = lambda *monos: top % ("polynomial", '{"indices": [1, 2], "value": [%s]}' % ", ".join(monos))
    texts += [
        # a repeated field at each level, the last value valid or not
        '{"m": 3, "m": 3, "n": 2, "kind": "constant", "terms": []}',
        '{"m": 3, "n": 2, "kind": "constant", "terms": [], "m": "3"}',
        top % ("constant", '{"indices": [1, 2], "indices": [1, 2], "value": "1"}'),
        top % ("constant", '{"indices": [1, 2], "value": "1", "value": "1/0"}'),
        poly('{"coef": "1", "exps": [1, 0, 0], "coef": "2"}'),
        poly('{"coef": "1", "exps": [1, 0, 0], "exps": [-1, 0, 0]}'),
        '{"m": 1, "m": 2} trailing',
        '[{"a": 1, "a": 2}, ' + "[" * 100000,
        "[" * 100000,
        # spacing around the colons, escaped keys, a colon inside strings
        '{"m"\t:3 ,"n" :\n2,  "kind" : "constant","terms":[{"indices" :[1,2],"value": "1/2"}]}',
        top.replace('"m"', '"\\u006d"') % ("constant", '{"indices": [1, 2], "\\u0076alue": "1"}'),
        '{"m": 3, "n": 2, "kind": "constant", "terms": [], "note": "a: b"}',
        top % ("constant", '{"indices": [1, 2], "value": "1:2"}'),
        # exponents at and beyond one byte, and a bool
        poly(mono % ('"1"', "[255, 0, 1]")),
        poly(mono % ('"1"', "[256, 0, 1]"), mono % ('"2"', "[1, 0, 0]")),
        poly(mono % ('"1"', "[65536, 0, 0]"), mono % ('"1"', "[65536, 0, 0]")),
        poly(mono % ('"1"', "[true, 0, 0]")),
        poly(mono % ('"1"', "[-1, 0, 0]")),
        # x1^300 cancels: the bound comes from the survivors
        poly(mono % ('"5"', "[300, 0, 0]"), mono % ('"1/2"', "[0, 1, 0]"), mono % ('"-5"', "[300, 0, 0]")),
        # rationals that are not in lowest terms, a signed zero, a signed denominator
        poly(mono % ('"2/4"', "[1, 0, 0]"), mono % ('"-0/5"', "[0, 1, 0]"), mono % ('"-0/5"', "[1, 0, 0]")),
        top % ("constant", '{"indices": [1, 2], "value": "2/4"}, {"indices": [1, 3], "value": "-0/5"}'),
        top % ("constant", '{"indices": [1, 2], "value": "3/-4"}'),
        '{"m": 2, "n": 1, "kind": "constant", "terms": [{"indices": [1], "value": "1%s"}]}' % ("0" * 5000),
        '{"m": 2, "n": 1, "kind": "constant", "terms": [{"indices": [1], "value": 1%s}]}' % ("0" * 5000),
        # a blade that cancels and then comes back goes to the end
        top % ("constant", ", ".join('{"indices": [%s], "value": "%s"}' % t for t in
                                     (("1, 2", "1/2"), ("2, 3", "1"), ("1, 2", "-2/4"), ("1, 3", "5"), ("1, 2", "7")))),
        top % ("polynomial", ", ".join('{"indices": [%s], "value": [%s]}' % t for t in (
            ("1, 2", mono % ('"1"', "[1, 0, 0]")), ("2, 3", mono % ('"1"', "[0, 0, 0]")),
            ("1, 2", mono % ('"-1"', "[1, 0, 0]")), ("1, 2", mono % ('"3/2"', "[0, 1, 0]") + ", " + mono % ('"1"', "[1, 0, 0]")),
        ))),
    ]
    return texts


def test_loader_matches_the_pairs_hook_route():
    mismatches = [text[:200] for text in _loader_corpus()
                  if _load_outcome(parse_spec_text, text) != _load_outcome(parse_spec_by_pairs_hook, text)]
    assert mismatches == []


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_loader_reads_line_ends_as_text_mode_does(newline, tmp_path):
    path = tmp_path / "spec.json"
    for text in (
        '{\n"m": 3,\n"n": 2, "kind": "constant",\n"terms": [{"indices": [1, 2], "value": "1"}]}\n',
        '{\n"m": 3,\n  "n": ,\n}',
        '{\n"m": 3,\n"m": 3}\n',
    ):
        path.write_bytes(text.replace("\n", newline).encode("utf-8"))
        by_text_mode = path.read_text(encoding="utf-8")
        assert _load_outcome(parse_spec, path) == _load_outcome(parse_spec_by_pairs_hook, by_text_mode)


def test_loader_decodes_once_without_a_hook_and_builds_no_fraction(monkeypatch):
    # plain rationals only: shipped specs and seeded specs like the jacobi workload's
    rng = random.Random("one-plain-decode")
    texts = [path.read_text(encoding="utf-8") for path in sorted(SPECS.glob("*.json"))]
    for _ in range(40):
        m = rng.randint(3, 6)
        field = random_linear_field(rng, m, 3, max_terms=4)
        scale = Polynomial.variable(1, m) * Fraction(rng.randint(1, 9), rng.randint(2, 9)) - Fraction(rng.randint(-9, 9), 7)
        texts.append(serialize(from_field(field * scale, "polynomial")))
    want = [_load_outcome(parse_spec_by_pairs_hook, text) for text in texts]
    decodes, fractions = [], []
    assert not hasattr(npk.specio, "Fraction")  # the reader is str tests and int()
    loads = npk.specio.json.loads
    monkeypatch.setattr(npk.specio.json, "loads", lambda *a, **kw: decodes.append(kw) or loads(*a, **kw))
    monkeypatch.setattr(npk.polynomial, "Fraction", lambda *a: fractions.append(a) or Fraction(*a))
    for text, outcome in zip(texts, want):
        decodes.clear()
        assert _load_outcome(parse_spec_text, text) == outcome
        assert decodes == [{}], text
    assert fractions == []
    assert sum("/" in text for text in texts) >= 20  # "a/b" strings are read, not just ints


# ---------------------------------------------------------------------------
# round trips

def test_round_trip_random_specs():
    rng = random.Random("round-trip")
    for i in range(20):
        if i % 2:
            field = random_linear_field(rng, 4, 2, max_terms=3)
        else:
            field = random_constant_field(rng, 5, 3, max_terms=3)
        spec = from_field(field)
        again = parse_spec_text(serialize(spec))
        assert again == spec
        assert to_field(again) == field


def test_serialize_is_canonical():
    spec = parse_spec_text(CONSTANT_SPEC)
    assert serialize(spec) == serialize(parse_spec_text(serialize(spec)))


# ---------------------------------------------------------------------------
# the canonical JSON writer

_TEXT = st.text(st.characters(codec=None, exclude_categories=()), max_size=8)  # surrogates too
# one set of tuple objects for every draw: a record list's text is kept by the
# ids of its tuples, so later draws meet the texts of earlier ones
_SHARED_TUPLES = (("0", "-1/2"), ("%d", "\x00", "%"), (), ("\u2028",), tuple(["0", "-1/2"]))


@st.composite
def _record_lists(draw):
    # dicts of one key set; each column all ints or all shared string tuples
    keys = draw(st.lists(st.sampled_from(["point", "rank", "%d", "\x00"]), min_size=1, max_size=3, unique=True))
    columns = {key: draw(st.sampled_from([st.integers(), st.sampled_from(_SHARED_TUPLES)])) for key in keys}
    return draw(st.lists(st.fixed_dictionaries(columns), min_size=1, max_size=4))


_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**80), max_value=10**80)
    | _TEXT
    | st.text(st.characters(max_codepoint=0x1F), max_size=4)  # control characters
    | st.floats()  # not a report value: it goes to json.dumps
    | _record_lists()
)
_JSON = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=24,
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_JSON)
@example({"b": [True, 1, 0, False, None], "a": {"": [], "\x00\u00e9\ud800": {}}, "c": [-(2**70), "\u2028"]})
@example([[], {}, [[]], [{"k": {}}], ()])
def test_canonical_json_matches_the_standard_indent_path(obj):
    assert canonical_json(obj) == json.dumps(obj, indent=2, sort_keys=True)


def test_canonical_json_writes_the_check_report():
    report = {"command": "check", "algebraic_condition": {"holds": False, "witness": [1, 2]}, "seed": -3,
              "rank_at_samples": [{"point": ("0", "-1/2"), "rank": 2}], "nambu_algebraic": True}
    assert canonical_json(report) == json.dumps(report, indent=2, sort_keys=True)
    assert canonical_json(report).splitlines()[:4] == ["{", '  "algebraic_condition": {', '    "holds": false,', '    "witness": [']


@pytest.mark.parametrize("command", ["check", "rank"])
def test_cli_reports_print_the_standard_writer_text(command, monkeypatch, capsys):
    # each point's text comes from the memo after its first report: every
    # report must still print json.dumps of itself, byte for byte
    reports = []
    writer = npk.cli.canonical_json

    def recorded(report):
        reports.append(report)
        return writer(report)

    monkeypatch.setattr(npk.cli, "canonical_json", recorded)
    for spec in sorted(SPECS.glob("*.json")):
        dim = to_field(parse_spec(spec)).dim
        for seed in ("0", "3"):
            for samples in ("0", "20", "0"):
                main([command, str(spec), "--json", "--seed", seed, "--samples", samples])
                out = capsys.readouterr().out
                assert out == json.dumps(reports[-1], indent=2, sort_keys=True) + "\n"
                points = default_sample_points(dim, int(seed), int(samples))
                assert [entry["point"] for entry in reports[-1]["rank_at_samples"]] == [
                    tuple(map(str, pt)) for pt in points
                ]


def test_canonical_json_writes_string_sequences_and_str_subclasses():
    class Alias(str):
        # equal to every string and hashed like "0": a memo keyed on it would answer for ("0",)
        def __eq__(self, other):
            return True

        def __hash__(self):
            return hash("0")

    tuples = [(str(i), f"-{i}/3") for i in range(296)]
    for _ in range(2):
        for t in tuples:
            for obj in (t, {"point": t}, [[t]], list(t)):
                assert canonical_json(obj) == json.dumps(obj, indent=2, sort_keys=True)
    for obj in (("0",), (Alias("7"),), ("0", Alias("7")), {"p": (Alias("7"),)}):
        assert canonical_json(obj) == json.dumps(obj, indent=2, sort_keys=True)


def test_canonical_json_table_memo_is_bounded():
    size = npk.specio._TABLES_MAX
    tables = [[{"point": (str(i), "0"), "rank": i}, {"point": (), "rank": -i}] for i in range(size + 20)]
    npk.specio._TABLES.clear()
    for _ in range(2):
        for rows in tables:
            for obj in (rows, {"rank_at_samples": rows}):
                assert canonical_json(obj) == json.dumps(obj, indent=2, sort_keys=True)
    assert len(npk.specio._TABLES) == size
    # a table already kept is filled in, not kept again
    assert canonical_json(tables[-1]) == json.dumps(tables[-1], indent=2, sort_keys=True)
    assert len(npk.specio._TABLES) == size


def test_canonical_json_table_memo_holds_its_tuples():
    # each point is freed before the next is built, which may take its id once
    # the memo lets go of it; a kept table holds its tuples, so no live key's
    # ids are given out again
    for i in range(2 * npk.specio._TABLES_MAX):
        rows = [{"point": (str(i), "0"), "rank": 1}]
        assert canonical_json(rows) == json.dumps(rows, indent=2, sort_keys=True)
        del rows


def test_canonical_json_follows_a_record_list_changed_in_place():
    class Alias(str):
        pass

    rows = [{"point": ("0", "1"), "rank": 2}, {"point": ("1/2", "-3"), "rank": 0}]
    equal = tuple(["0", "1"])
    assert equal == rows[0]["point"] and equal is not rows[0]["point"]
    box = ["1"]  # a list inside a tuple can change: such a tuple's text is never kept
    changes = [
        (rows[1], "rank", 5),
        (rows[0], "point", equal),
        (rows[1], "rank", True),
        (rows[1], "rank", 1),
        (rows[1], "point", ("0", box)),
        (box, 0, "2"),
        (rows[1], "point", (Alias("7"), "0")),
        (rows[0], "extra", 3),
        (rows[1], "other", 3),  # as many keys as the first row, not the same ones
        (rows[1], "extra", 4),
    ]
    assert canonical_json(rows) == json.dumps(rows, indent=2, sort_keys=True)
    for row, key, value in changes:
        row[key] = value
        for obj in (rows, {"rank_at_samples": rows}):
            assert canonical_json(obj) == json.dumps(obj, indent=2, sort_keys=True)


# sha256 of `serialize(parse_spec(path))` for each shipped spec, recorded
# before specs were parsed straight into fields
SERIALIZE_DIGESTS = {
    "decomposable_3vector": "0354cdda72920d598487bc43d1e52da39a879c96ca9e3257764924b715ae43ee",
    "nonpoisson_3vector": "4d033cf7f47827b9c17b95ea83b073fa26682a74c57b399d8d203cca80c98d1c",
    "quadratic_rank_drop_3vector": "d0c1b7d607368b1c79d20bf026b7bd5cbded6ec3a9c54142f90bd7d272589443",
    "scaled_decomposable_field": "96ca75bced7e985bcba0e589f8e6131c695fcb2292382bf9e195c22a07e95d68",
    "two_block_4vector": "583a061d78294d0e5938dcf860ef682f1d2ae573034ebf45d55dd54188567769",
}


def test_serialize_matches_recorded_digests():
    assert sorted(p.stem for p in SPECS.glob("*.json")) == sorted(SERIALIZE_DIGESTS)
    for name, digest in SERIALIZE_DIGESTS.items():
        spec = parse_spec(SPECS / f"{name}.json")
        assert hashlib.sha256(serialize(spec).encode()).hexdigest() == digest, name
        assert serialize(from_field(to_field(spec), spec.kind)) == serialize(spec)


def test_booleans_are_not_indices_or_exponents():
    # a bool index would serialize as `true`, which the parser refuses
    with pytest.raises(ValueError, match=r"blade \(True,\) must be strictly increasing"):
        MultivectorField(3, 1, {(True,): 1})
    with pytest.raises(ValueError, match=r"blade \(1, True\) must be strictly increasing"):
        MultivectorField(3, 2, {(1, True): 1})
    with pytest.raises(ValueError, match=r"bad exponent tuple \(True, 0\) for 2 variables"):
        Polynomial(2, {(True, 0): 1})
    with pytest.raises(ValueError, match="bad exponent tuple"):
        Polynomial(2, {(0, False): 1})
    # exact ints still pass, and the round trip holds
    field = MultivectorField(3, 1, {(1,): Polynomial(3, {(0, 2, 0): 1})})
    assert to_field(parse_spec_text(serialize(from_field(field)))) == field


# ---------------------------------------------------------------------------
# the CLI

@pytest.fixture
def spec_path(tmp_path):
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj), encoding="utf-8")
        return str(path)

    return write


BLOCK_SUM_SPEC = {
    "m": 8,
    "n": 4,
    "kind": "constant",
    "terms": [
        {"indices": [1, 2, 3, 4], "value": "1"},
        {"indices": [5, 6, 7, 8], "value": "1"},
    ],
}

MIXED_SPEC = {
    "m": 5,
    "n": 3,
    "kind": "constant",
    "terms": [
        {"indices": [1, 2, 3], "value": "1"},
        {"indices": [1, 4, 5], "value": "1"},
    ],
}


def test_cli_check_block_sum(spec_path, capsys):
    path = spec_path("block.json", BLOCK_SUM_SPEC)
    code = main(["check", path, "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["is_poisson"] is True
    assert out["algebraic_condition"]["holds"] is False
    assert out["algebraic_condition"]["witness"] == [1, 5]
    assert all(entry["rank"] == 8 for entry in out["rank_at_samples"])


def test_cli_check_mixed_fails(spec_path, capsys):
    path = spec_path("mixed.json", MIXED_SPEC)
    code = main(["check", path, "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["is_poisson"] is False


def _bivector_spec(terms):
    # terms: (i, j, [(coef, exps), ...]) on m = 3
    return {
        "m": 3,
        "n": 2,
        "kind": "polynomial",
        "terms": [
            {"indices": [i, j], "value": [{"coef": c, "exps": e} for c, e in monos]}
            for i, j, monos in terms
        ],
    }


def test_cli_check_classifies_bivectors(spec_path, capsys):
    lie_poisson = _bivector_spec([
        (1, 2, [("1", [0, 0, 1])]),
        (1, 3, [("-1", [0, 1, 0])]),
        (2, 3, [("1", [1, 0, 0])]),
    ])
    assert main(["check", spec_path("lie_poisson.json", lie_poisson), "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["parity"] == "even" and out["is_poisson"] is True
    assert out["differential_condition"] is True
    skew = _bivector_spec([(1, 2, [("1", [0, 0, 0])]), (2, 3, [("1", [0, 1, 0])])])
    assert main(["check", spec_path("skew.json", skew), "--json"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["is_poisson"] is False and out["differential_condition"] is False


def test_cli_check_refuses_grade_one(spec_path, capsys):
    spec = {"m": 3, "n": 1, "kind": "constant", "terms": [{"indices": [1], "value": "1"}]}
    assert main(["check", spec_path("vector.json", spec)]) == 2
    assert "needs grade at least 2" in capsys.readouterr().err


GRADE_ONE_SPEC = {"m": 3, "n": 1, "kind": "constant", "terms": [{"indices": [1], "value": "1"}]}


@pytest.mark.parametrize("command", ["check", "nambu", "jacobi", "sigma-delta"])
def test_cli_bracket_commands_refuse_grade_one(command, spec_path, capsys):
    # a grade-1 field has no n-ary bracket to test: unusable input, not a verdict
    assert main([command, spec_path("vector.json", GRADE_ONE_SPEC)]) == 2
    assert "error: classification needs grade at least 2" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["rank", "factorize"])
def test_cli_grade_one_stays_valid_for_point_commands(command, spec_path, capsys):
    assert main([command, spec_path("vector.json", GRADE_ONE_SPEC), "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    if command == "rank":
        assert all(entry["rank"] == 1 for entry in out["rank_at_samples"])
    else:
        assert out["factors"] == [["1", "0", "0"]]


def test_cli_factorize_rejects_mixed(spec_path, capsys):
    path = spec_path("mixed.json", MIXED_SPEC)
    code = main(["factorize", path, "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["error"] == "not decomposable"


def test_cli_factorize_blade(spec_path, capsys):
    path = spec_path(
        "blade.json",
        {"m": 5, "n": 3, "kind": "constant", "terms": [{"indices": [1, 2, 3], "value": "2"}]},
    )
    code = main(["factorize", path, "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert len(out["factors"]) == 3


def test_cli_factorize_refuses_the_zero_tensor(spec_path, capsys):
    for terms in ([], [{"indices": [1, 2], "value": "0"}]):
        path = spec_path("zero.json", {"m": 4, "n": 2, "kind": "constant", "terms": terms})
        assert main(["factorize", path, "--json"]) == 1
        assert json.loads(capsys.readouterr().out) == {"command": "factorize", "error": "zero tensor"}


def test_cli_jacobi_and_nambu(spec_path, capsys):
    path = spec_path("mixed.json", MIXED_SPEC)
    assert main(["jacobi", path, "--json"]) == 1
    capsys.readouterr()
    assert main(["nambu", path, "--json"]) == 1
    capsys.readouterr()
    blade = spec_path(
        "blade.json",
        {"m": 5, "n": 3, "kind": "constant", "terms": [{"indices": [1, 2, 3], "value": "1"}]},
    )
    assert main(["jacobi", blade, "--json"]) == 0
    capsys.readouterr()
    assert main(["nambu", blade, "--json"]) == 0


def test_cli_nambu_decides_bivectors(spec_path, capsys):
    # at n = 2 the Nambu condition is decomposability of the bivector
    single = {"m": 4, "n": 2, "kind": "constant", "terms": [{"indices": [1, 2], "value": "1"}]}
    assert main(["nambu", spec_path("e12.json", single), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["nambu_algebraic"] is True
    symplectic = {"m": 4, "n": 2, "kind": "constant", "terms": [
        {"indices": [1, 2], "value": "1"}, {"indices": [3, 4], "value": "1"}]}
    assert main(["nambu", spec_path("e12_e34.json", symplectic), "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["nambu_algebraic"] is False


def test_cli_sigma_delta(spec_path, capsys):
    blade = spec_path(
        "blade.json",
        {"m": 5, "n": 3, "kind": "constant", "terms": [{"indices": [1, 2, 3], "value": "1"}]},
    )
    code = main(["sigma-delta", blade, "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["structure_compatible"] is True
    assert out["operator_annihilates_structure"] is True
    assert out["gradient_action_matches"] is True


def test_cli_sigma_delta_incompatible_structure(spec_path, capsys):
    path = spec_path("mixed.json", MIXED_SPEC)
    code = main(["sigma-delta", path, "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["structure_compatible"] is False
    assert out["witness"] == [1, 1]


def test_cli_rank_reports_samples(spec_path, capsys):
    path = spec_path("block.json", BLOCK_SUM_SPEC)
    code = main(["rank", path, "--json", "--samples", "3"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert len(out["rank_at_samples"]) == 1 + 8 + 3
    assert all(entry["rank"] == 8 for entry in out["rank_at_samples"])
    assert all(entry["annihilator_dim"] == 0 for entry in out["rank_at_samples"])


def test_cli_rank_annihilator_matches_sharp_profile(spec_path, capsys):
    # `npk rank` reports annihilator_dim as m - rank; sharp_profile derives
    # the annihilator itself, from its own elimination.  Every shipped spec
    # must still parse under the duplicate-field check
    rng = random.Random("rank-annihilator")
    fields = [to_field(parse_spec(path)) for path in sorted(SPECS.glob("*.json"))]
    for _ in range(16):
        m = rng.randint(1, 6)
        n = rng.randint(1, m)
        make = random_linear_field if rng.random() < 0.5 else random_constant_field
        fields.append(make(rng, m, n, max_terms=4))
    fields.append(MultivectorField(4, 2))
    for i, f in enumerate(fields):
        path = spec_path(f"field{i}.json", json.loads(serialize(from_field(f))))
        seed = rng.randint(0, 99)
        assert main(["rank", path, "--json", "--seed", str(seed)]) == 0
        entries = json.loads(capsys.readouterr().out)["rank_at_samples"]
        points = default_sample_points(f.dim, seed)
        assert [entry["point"] for entry in entries] == [[str(c) for c in pt] for pt in points]
        for entry, pt in zip(entries, points):
            profile = npk.grassmann.sharp_profile(f.evaluate(pt))
            assert (entry["rank"], entry["annihilator_dim"]) == (profile.rank, profile.annihilator.dim)


@pytest.mark.parametrize("samples, extra", [(["--samples", "0"], 0), ([], 8), (["--samples", "3"], 3)])
def test_cli_check_samples(samples, extra, capsys):
    # two_block_4vector has m = 8: the origin, 8 unit points, then the extras
    assert main(["check", str(SPECS / "two_block_4vector.json"), "--json", *samples]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["rank_at_samples"]) == 1 + 8 + extra


@pytest.mark.parametrize("command", ["check", "rank"])
def test_cli_point_strings_are_built_once_per_process(command, capsys):
    # the points and strings of one (dim, seed, samples) serve every later op, in a bounded cache
    cache = npk.poisson._sample_points
    assert cache.cache_info().maxsize == 16
    cache.cache_clear()
    runs = []
    for spec in ("two_block_4vector", "decomposable_3vector", "two_block_4vector"):
        main([command, str(SPECS / f"{spec}.json"), "--json", "--seed", "4"])
        runs.append(json.loads(capsys.readouterr().out)["rank_at_samples"])
    assert (cache.cache_info().misses, cache.cache_info().hits) == (2, 1)
    assert runs[0] == runs[2]
    for spec, entries in zip(("two_block_4vector", "decomposable_3vector"), runs):
        points = default_sample_points(to_field(parse_spec(SPECS / f"{spec}.json")).dim, 4)
        assert [entry["point"] for entry in entries] == [[str(c) for c in pt] for pt in points]


@pytest.mark.parametrize("command", ["check", "rank"])
def test_cli_negative_samples_is_usage_error(command, capsys):
    assert main([command, str(SPECS / "two_block_4vector.json"), "--samples", "-2"]) == 2
    assert "error: --samples must be at least 0" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "rank"])
def test_cli_refuses_an_exponent_too_large_to_evaluate(command, tmp_path, capsys):
    # D**(2**40) cannot be built: refused up front with the size of the values;
    # 20000 builds one power of D per degree that occurs, not 20001 of them
    spec = json.loads((SPECS / "scaled_decomposable_field.json").read_text())
    path = tmp_path / "power.json"
    for exponent, code in ((2**40, 2), (20000, 0)):
        spec["terms"][0]["value"][1]["exps"][0] = exponent
        path.write_text(json.dumps(spec), encoding="utf-8")
        start = time.perf_counter()
        assert main([command, str(path), "--json"]) == code
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert ("exponent 1099511627776 exceeds 65536" in err) == (code == 2)
        assert ("a sample value would take about 5497558138880 bits" in err) == (code == 2)


@pytest.mark.parametrize("command", ["factorize", "nambu", "jacobi", "sigma-delta", "suite"])
def test_cli_samples_only_where_read(command, capsys):
    argv = [command] + ([] if command == "suite" else [str(SPECS / "two_block_4vector.json")])
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, "--samples", "3"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize("command", ["factorize", "nambu", "jacobi"])
def test_cli_seed_only_where_read(command, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([command, str(SPECS / "two_block_4vector.json"), "--seed", "1"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "rank", "sigma-delta"])
def test_cli_seed_accepted_where_read(command, capsys):
    code = main([command, str(SPECS / "two_block_4vector.json"), "--seed", "1", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code in (0, 1)
    assert out["seed"] == 1


def test_cli_human_output(spec_path, capsys):
    path = spec_path("block.json", BLOCK_SUM_SPEC)
    code = main(["check", path])
    text = capsys.readouterr().out
    assert code == 0
    assert "is_poisson: True" in text
    assert "completed in" in text


@pytest.mark.parametrize("spec", ["two_block_4vector", "quadratic_rank_drop_3vector"])
def test_cli_human_rank_prints_every_entry_key(spec, capsys):
    path = str(SPECS / f"{spec}.json")
    assert main(["rank", path, "--json", "--samples", "3"]) == 0
    entries = json.loads(capsys.readouterr().out)["rank_at_samples"]
    assert main(["rank", path, "--samples", "3"]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("  point")]
    assert lines == [
        f"  point ({', '.join(entry['point'])}) -> rank {entry['rank']}, annihilator_dim {entry['annihilator_dim']}"
        for entry in entries
    ]
    # a check line names the rank only
    assert main(["check", path, "--samples", "3"]) in (0, 1)
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("  point")]
    assert lines == [f"  point ({', '.join(entry['point'])}) -> rank {entry['rank']}" for entry in entries]


def test_cli_missing_file_is_operational_error(capsys):
    assert main(["check", "/nonexistent/spec.json"]) == 2


def test_cli_malformed_spec_is_operational_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{", encoding="utf-8")
    assert main(["check", str(path)]) == 2


_MONO = {"coef": "1", "exps": [1, 0, 0]}


def _one_blade_spec(monomials: list) -> dict:
    # the monomial objects as given, unchecked, on the blade (1, 2) of m = 3
    return {"m": 3, "n": 2, "kind": "polynomial", "terms": [{"indices": [1, 2], "value": monomials}]}


MALFORMED_SPECS = {
    "top-level-list": ([1, 2, 3], "top level must be a JSON object"),
    "missing-field": ({"m": 5, "n": 3, "kind": "constant"}, "top level: missing fields ['terms']"),
    "bad-kind": ({"m": 5, "n": 3, "kind": "sparse", "terms": []}, "kind must be 'constant' or 'polynomial', got 'sparse'"),
    "terms-object": ({"m": 5, "n": 3, "kind": "constant", "terms": {}}, "terms must be a list"),
    "term-number": ({"m": 5, "n": 3, "kind": "constant", "terms": [1]}, "terms[0]: must be an object"),
    "polynomial-string": (
        {"m": 3, "n": 2, "kind": "polynomial", "terms": [{"indices": [1, 2], "value": "1"}]},
        "terms[0]: polynomial values must be monomial lists",
    ),
    "monomial-number": (
        {"m": 3, "n": 2, "kind": "polynomial", "terms": [{"indices": [1, 2], "value": [1]}]},
        "terms[0].value[0]: must be an object",
    ),
    "monomial-unknown-field": (
        _one_blade_spec([_MONO, {"coef": "1", "exps": [0, 1, 0], "deg": 1}]),
        "terms[0].value[1]: unknown fields ['deg']",
    ),
    "monomial-missing-field": (
        _one_blade_spec([_MONO, {"coef": "2"}]), "terms[0].value[1]: missing fields ['exps']",
    ),
    "monomial-short-exps": (
        _one_blade_spec([_MONO, {"coef": "1", "exps": [0, 1]}]),
        "terms[0].value[1]: exps must be a list of 3 nonnegative integers",
    ),
    "monomial-negative-exps": (
        _one_blade_spec([{"coef": "1", "exps": [0, -1, 0]}]),
        "terms[0].value[0]: exps must be a list of 3 nonnegative integers",
    ),
    "monomial-bad-rational": (
        _one_blade_spec([_MONO, {"coef": "1/0", "exps": [0, 1, 0]}]),
        "terms[0].value[1]: bad rational '1/0' (zero denominator)",
    ),
    "monomial-bool-coef": (
        _one_blade_spec([_MONO, {"coef": True, "exps": [0, 1, 0]}]),
        "terms[0].value[1]: rational values must be strings or integers, got bool",
    ),
    "constant-bad-rational": (
        {"m": 3, "n": 2, "kind": "constant", "terms": [{"indices": [1, 2], "value": "x"}]},
        "terms[0]: bad rational 'x' (not an integer or integer/integer in ASCII digits)",
    ),
    # a term's own refusal after a monomial list names the term, not a monomial
    "term-after-monomials": (
        {"m": 3, "n": 2, "kind": "polynomial", "terms": [
            {"indices": [1, 2], "value": [_MONO]}, {"indices": [2, 1], "value": []}]},
        "terms[1]: indices must be strictly increasing within 1..3",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_SPECS))
def test_cli_malformed_spec_error_lines(case, spec_path, capsys):
    obj, message = MALFORMED_SPECS[case]
    assert main(["check", spec_path(f"{case}.json", obj)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


_LONG = "1" + "0" * 5000  # past the interpreter's default limit of 4300 digits
LONG_INTEGER_SPECS = {
    "m": '{"m": %s, "n": 1, "kind": "constant", "terms": []}' % _LONG,
    "index": '{"m": 2, "n": 1, "kind": "constant", "terms": [{"indices": [%s], "value": "1"}]}' % _LONG,
    "exponent": '{"m": 1, "n": 1, "kind": "polynomial", "terms": [{"indices": [1], "value": '
                '[{"coef": "1", "exps": [%s]}]}]}' % _LONG,
    "value": '{"m": 2, "n": 1, "kind": "constant", "terms": [{"indices": [1], "value": %s}]}' % _LONG,
}


@pytest.mark.parametrize("case", sorted(LONG_INTEGER_SPECS))
def test_an_integer_past_the_digit_limit_is_a_spec_error(case, tmp_path, capsys):
    path = tmp_path / f"{case}.json"
    path.write_text(LONG_INTEGER_SPECS[case], encoding="utf-8")
    with pytest.raises(SpecError, match="^integer longer than the interpreter's digit limit$"):
        parse_spec(path)
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr() == ("", "error: integer longer than the interpreter's digit limit\n")


# the same digits as rational strings: refused under their place, without the text
LONG_RATIONAL_SPECS = {
    "value": ('{"m": 2, "n": 1, "kind": "constant", "terms": [{"indices": [1], "value": "%s"}]}' % _LONG, "terms[0]"),
    "denominator": ('{"m": 2, "n": 1, "kind": "constant", "terms": [{"indices": [1], "value": "1/%s"}]}' % _LONG,
                    "terms[0]"),
    "coef": ('{"m": 1, "n": 1, "kind": "polynomial", "terms": [{"indices": [1], "value": '
             '[{"coef": "-%s", "exps": [1]}]}]}' % _LONG, "terms[0].value[0]"),
}


@pytest.mark.parametrize("case", sorted(LONG_RATIONAL_SPECS))
def test_a_rational_past_the_digit_limit_is_a_spec_error(case, tmp_path, capsys):
    text, where = LONG_RATIONAL_SPECS[case]
    path = tmp_path / f"{case}.json"
    path.write_text(text, encoding="utf-8")
    message = f"{where}: rational longer than the interpreter's digit limit"
    with pytest.raises(SpecError) as info:
        parse_spec(path)
    assert str(info.value) == message
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_a_factor_past_the_digit_limit_is_a_spec_error(tmp_path, capsys):
    # two accepted values of one blade merge to a 6,001-digit denominator, which
    # only factorize writes: refused in one line, not a program fault
    values = ["1/1" + "0" * 2999 + "1", "1/1" + "0" * 2999 + "3"]
    path = tmp_path / "long-factor.json"
    path.write_text(json.dumps({"m": 3, "n": 2, "kind": "constant",
                                "terms": [{"indices": [1, 2], "value": v} for v in values]}), encoding="utf-8")
    codes = {}
    for command in ("check", "rank", "factorize", "nambu", "jacobi", "sigma-delta"):
        codes[command] = main([command, str(path), "--json"])
        out, err = capsys.readouterr()
        if command == "factorize":
            assert (out, err) == ("", "error: a factor coefficient is longer than the interpreter's digit limit\n")
    assert codes == {"check": 0, "rank": 0, "factorize": 2, "nambu": 0, "jacobi": 0, "sigma-delta": 0}


def test_bytes_that_are_not_utf8_are_a_spec_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"m": 3, "n": 2, "kind": "\xff"}')
    with pytest.raises(SpecError, match="^not UTF-8: invalid start byte at byte 26$"):
        parse_spec(path)
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr() == ("", "error: not UTF-8: invalid start byte at byte 26\n")


@pytest.mark.parametrize("opener", ["[", '{"m": '])
@pytest.mark.parametrize("command", ["check", "rank", "factorize", "nambu", "jacobi", "sigma-delta"])
def test_cli_deeply_nested_spec_is_operational_error(opener, command, tmp_path, capsys):
    # deeper than the JSON decoder's recursion limit: one error line, exit 2
    path = tmp_path / "deep.json"
    path.write_text(opener * 200_000, encoding="utf-8")
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: JSON nested deeper than the decoder's recursion limit\n"


def test_cli_internal_failure_exits_three(monkeypatch, capsys):
    # a factorization that does not wedge back is a program fault, not a verdict;
    # the one wedge factorize makes is its round-trip check
    original = npk.grassmann.Factorization.wedge
    calls = []

    def doubled(self):
        calls.append(self)
        return original(self) * 2

    monkeypatch.setattr(npk.grassmann.Factorization, "wedge", doubled)
    assert main(["factorize", str(SPECS / "decomposable_3vector.json")]) == 3
    assert "internal error: factorization round-trip failed" in capsys.readouterr().err
    assert len(calls) == 1


# a library function each command calls once the spec is accepted
LIBRARY_CALLS = {
    "check": (npk.cli, "classify"),
    "rank": (npk.cli, "sample_ranks"),
    "factorize": (MultivectorField, "evaluate"),
    "nambu": (npk.cli, "pointwise_decomposable"),
    "jacobi": (npk.cli, "jacobi_identity_holds"),
    "sigma-delta": (npk.cli, "delta"),
    "suite": (npk.suites, "run_all"),
}


@pytest.mark.parametrize("command", sorted(LIBRARY_CALLS))
def test_cli_library_value_error_exits_three(command, monkeypatch, capsys):
    # a ValueError raised after the input was accepted is a program fault,
    # not an unusable input: exit 3, one line, no traceback
    def broken(*args, **kwargs):
        raise ValueError("broken\ninvariant")

    owner, name = LIBRARY_CALLS[command]
    monkeypatch.setattr(owner, name, broken)
    argv = [command] + ([] if command == "suite" else [str(SPECS / "decomposable_3vector.json")])
    assert main([*argv, "--json"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal error: broken invariant (ValueError)\n"


SPEC_VERDICTS = {  # name: (is_poisson, nambu_algebraic)
    "decomposable_3vector": (True, True),
    "nonpoisson_3vector": (False, False),
    "scaled_decomposable_field": (True, True),
    "two_block_4vector": (True, False),
}


def test_nambu_and_classify_are_independent_of_the_oracles(monkeypatch, capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("a command consulted the Nambu oracle")

    # swapping the code object catches callers that imported the name directly
    for name in ("nambu_component_route", "nambu_polarized_route", "is_nambu_algebraic"):
        monkeypatch.setattr(getattr(npk.oracles, name), "__code__", forbidden.__code__)
    for name, (poisson, nambu) in SPEC_VERDICTS.items():
        path = str(SPECS / f"{name}.json")
        assert main(["nambu", path, "--json"]) == (0 if nambu else 1)
        assert json.loads(capsys.readouterr().out)["nambu_algebraic"] is nambu
        verdict = classify(to_field(parse_spec(path)))
        assert (verdict.is_poisson, verdict.nambu_algebraic) == (poisson, nambu)


def test_cli_import_leaves_the_suites_unloaded():
    # only `npk suite` reads the suites, and through them the oracles
    env = {**os.environ, "PYTHONPATH": str(SPECS.parent / "src")}
    code = "import sys, npk.cli; print(sorted({'npk.suites', 'npk.oracles'} & set(sys.modules)))"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert (run.returncode, run.stdout, run.stderr) == (0, "[]\n", "")


def test_cli_unknown_command_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


def _outcome(argv, capsys):
    # exit code, stdout and stderr of one run; the human form's timing line masked
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, re.sub(r"completed in \d+\.\d+s", "completed in ...", out), err


def test_cli_reads_a_plain_argv_without_argparse():
    # a plain argv never builds the full parser, so argparse and gettext stay unloaded
    env = {**os.environ, "PYTHONPATH": str(SPECS.parent / "src")}
    spec = str(SPECS / "decomposable_3vector.json")
    code = ("import contextlib, io, sys, npk.cli\n"
            f"with contextlib.redirect_stdout(io.StringIO()): npk.cli.main(['check', {spec!r}, '--json'])\n"
            "print(sorted({'argparse', 'gettext'} & set(sys.modules)))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert (run.returncode, run.stdout, run.stderr) == (0, "[]\n", "")


# values argparse's int() reads but _plain_args leaves to it, next to plain ones
_NUMERALS = ["3", "-3", "007", "-0", "+3", "3_0", "٣", "²", " 3", "1" * 19]
# tokens at the edge of a plain argv: abbreviations, `=` forms and other spellings
_BOUNDARY_TOKENS = ["-", "--", "-h", "--help", "--json", "--js", "--seed", "--se", "--seed=3", "--samples", "--bogus",
                    "--3", "1.5", "", "x", *_NUMERALS]


def _route_corpus() -> list[list[str]]:
    # SPEC stands for specs/decomposable_3vector.json
    corpus = [[], ["-h"], ["--help"], ["-"], ["--"], ["frobnicate"], ["frobnicate", "SPEC"], ["-h", "check"],
              ["--", "check", "SPEC"], ["check"], ["check", "--json"], ["check", "-"], ["check", "SPEC", "-"],
              ["check", "--", "SPEC", "--json"], ["check", "SPEC", "--", "--json"],
              ["check", "SPEC", "--js"], ["check", "SPEC", "--s", "3"], ["rank", "SPEC", "--se", "3", "--js"],
              ["check", "SPEC", "--seed", "x"], ["rank", "SPEC", "--samples", "1.5"],
              ["check", "SPEC", "--samples", "-2"], ["check", "SPEC", "--bogus"], ["jacobi", "SPEC", "SPEC", "--json"],
              ["check", "SPEC", "extra"], ["jacobi", "SPEC", "--samples", "2"], ["nambu", "-", "--json"],
              ["check", "SPEC", "SPEC"], ["rank", "rank", "--json"], ["check", "SPEC", "--seed"],
              ["check", "--json", "SPEC", "--samples", "0", "--seed", "-1", "--seed", "2"]]
    corpus += [["rank", "SPEC", "--seed", value, "--json"] for value in _NUMERALS]
    for command, (_, _, least_grade, _) in npk.cli._COMMANDS.items():
        argv = [command] + ([] if least_grade is None else ["SPEC"])
        corpus += [[command, "-h"], [*argv, "--help"], [*argv, "--json"], argv, [*argv, "--seed", "3"],
                   [*argv, "--seed=3", "--json"], [*argv, "--samples", "2", "--json"], [*argv, "--json", "--json"]]
    return corpus


@pytest.mark.parametrize("argv", _route_corpus(), ids=lambda argv: " ".join(argv) or "(no arguments)")
def test_cli_dispatch_matches_the_full_parser(argv, monkeypatch, capsys):
    # main reads a plain argv itself; with that route shut, every argv goes
    # through build_parser().parse_args
    argv = [str(SPECS / "decomposable_3vector.json") if arg == "SPEC" else arg for arg in argv]
    direct = _outcome(argv, capsys)
    monkeypatch.setattr(npk.cli, "_plain_args", lambda argv: None)
    assert _outcome(argv, capsys) == direct


def test_cli_parses_a_usable_argv_once(monkeypatch, capsys):
    # the full parser is for help, errors and other spellings only
    def refused():
        raise AssertionError("the full parser was built")

    monkeypatch.setattr(npk.cli, "build_parser", refused)
    spec = str(SPECS / "decomposable_3vector.json")
    for command in npk.cli._COMMANDS:
        argv = [command] + ([] if command == "suite" else [spec])
        assert main([*argv, "--json"]) in (0, 1)
        assert json.loads(capsys.readouterr().out)["command"] == command
    # flags in any order, negative and zero-padded values, the last repeat wins
    assert main(["rank", "--seed", "-3", "--json", spec, "--samples", "007", "--seed", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["seed"], len(report["rank_at_samples"])) == (2, len(default_sample_points(5, 2, extra=7)))


@st.composite
def _near_plain_argv(draw):
    # a command, then mostly one spec, --json and the command's own flags with plain values, in any order
    command = draw(st.sampled_from(list(npk.cli._COMMANDS)))
    _, _, least_grade, options = npk.cli._COMMANDS[command]
    flags = [flag for flag in options if flag != "--json"]
    value = st.sampled_from(_NUMERALS[:4]) | st.sampled_from(_NUMERALS)
    part = st.just(("--json",)) | st.tuples(st.sampled_from(flags or ["--seed"]), value)
    specs = draw(st.sampled_from([0, 0, 0, 1] if least_grade is None else [1, 1, 1, 0, 2]))
    parts = [("SPEC",)] * specs + draw(st.lists(part if flags else st.just(("--json",)) | part, max_size=3))
    return [command, *(token for part in draw(st.permutations(parts)) for token in part)]


_ARGV_TOKENS = [*npk.cli._COMMANDS, "SPEC", *_BOUNDARY_TOKENS]


@settings(max_examples=800, deadline=None, derandomize=True, database=None)
@given(_near_plain_argv() | st.lists(st.sampled_from(_ARGV_TOKENS), max_size=6)
       | st.builds(lambda command, rest: [command, *rest], st.sampled_from(list(npk.cli._COMMANDS)),
                   st.lists(st.sampled_from(_ARGV_TOKENS), max_size=6)))
@example(["rank", "SPEC", "--seed", "1" * 5000])  # above int()'s digit limit: only the parser's error
def test_plain_args_equal_the_full_parser(argv):
    # a plain reading is the full parser's reading; where that parser exits, there is none
    plain = npk.cli._plain_args(argv)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            full = vars(npk.cli.build_parser().parse_args(argv))
        except SystemExit:
            full = None
    assert plain is None or vars(plain) == full
    if full is None:
        assert plain is None


def test_cli_reads_sys_argv_when_run_as_a_module(monkeypatch, capsys):
    # `python -m npk.cli`: main(None) reads sys.argv[1:]; one width wraps both usages
    monkeypatch.setenv("COLUMNS", "80")
    argv = ["check", str(SPECS / "decomposable_3vector.json"), "--json"]
    env = {**os.environ, "PYTHONPATH": str(SPECS.parent / "src")}
    run = subprocess.run([sys.executable, "-m", "npk.cli", *argv], capture_output=True, text=True, env=env, timeout=120)
    assert (run.returncode, run.stdout) == (main(argv), capsys.readouterr().out)
    bare = subprocess.run([sys.executable, "-m", "npk.cli"], capture_output=True, text=True, env=env, timeout=120)
    assert bare.returncode == 2
    assert bare.stdout == "" and bare.stderr == _outcome([], capsys)[2]
    assert bare.stderr.startswith("usage: npk [-h] {check,rank,")


# sha256 of `npk suite --seed S --json` stdout, and exit code plus sha256 of
# `npk COMMAND SPEC --json` stdout for each spec file; any change to the
# canonical output of a command is a change of these values
SUITE_DIGESTS = {
    0: "cfb18f40e78dca932a5ada7b2e5eb460d4e705711409062c2b32c916fa04da67",
    42: "5c2b5c5dd01a58d2538a3ede58808ff18f6289814c6b369575b33f39a012b9af",
}
SPEC_DIGESTS = {
    "decomposable_3vector": {
        "check": (0, "04c2e3138131f3e5edffc5caed23e6445b1521532cf4e9522fb186a3954e8c57"),
        "rank": (0, "eac7dcba99ebfba79ae29550f75aef2a4dabb92dd93c8418d803859f6d05bc11"),
        "factorize": (0, "2c4dadf9fddd9db5f5eb30cf0530689deeb84b770525a5f7ea192892f40395b4"),
        "nambu": (0, "483aafd701dbf29fbc53c6ac67b1a8ef8bfff540dd4fffbca69be6fa5f936ddd"),
        "jacobi": (0, "babc70892eeb34c924574be86b257c757f719093d9efd7ce6964409c4e2b043c"),
        "sigma-delta": (0, "929f8bfbc4b5782cf399d9085a080f575e52ad452bb7f40f8f526a95db149fa6"),
    },
    "nonpoisson_3vector": {
        "check": (1, "447e9bd13af3054a78c6b25c369bdd75a22802dc7606fc95465f288311d26db5"),
        "rank": (0, "d4a1cc4c197244cbc41dd04a9f2233f50d092f900901a5b0ae0480a4f66372b6"),
        "factorize": (1, "3da9206bcbbf530660022d269545e3b47db1b7325f3698f72054f7cc2afad507"),
        "nambu": (1, "d33a81112b54e0eeeb7dd5fa2e326513943b92dcaef089c99ba2ae020fa53e71"),
        "jacobi": (1, "544383b0d5980b0cbaf3fb631291fdc33e496e9e92222eb320aa760b7b3f3dab"),
        "sigma-delta": (1, "7d29b278da5ea4e10c9d5bf03207389911e3eb8b2a8b7d24f9bd6d518f0cc73c"),
    },
    "quadratic_rank_drop_3vector": {
        "check": (1, "a67e1cd5c4a514c76aab33b1b0552b0988f49b3e91c0e46551cc587ac4e98945"),
        "rank": (0, "e5715c211b96918d77c5ae90360a4304cacf91e35f4f194b08ed264311385a29"),
        "factorize": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "nambu": (1, "d33a81112b54e0eeeb7dd5fa2e326513943b92dcaef089c99ba2ae020fa53e71"),
        "jacobi": (1, "544383b0d5980b0cbaf3fb631291fdc33e496e9e92222eb320aa760b7b3f3dab"),
        "sigma-delta": (1, "7d29b278da5ea4e10c9d5bf03207389911e3eb8b2a8b7d24f9bd6d518f0cc73c"),
    },
    "scaled_decomposable_field": {
        "check": (0, "04c2e3138131f3e5edffc5caed23e6445b1521532cf4e9522fb186a3954e8c57"),
        "rank": (0, "eac7dcba99ebfba79ae29550f75aef2a4dabb92dd93c8418d803859f6d05bc11"),
        "factorize": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "nambu": (0, "483aafd701dbf29fbc53c6ac67b1a8ef8bfff540dd4fffbca69be6fa5f936ddd"),
        "jacobi": (0, "babc70892eeb34c924574be86b257c757f719093d9efd7ce6964409c4e2b043c"),
        "sigma-delta": (0, "929f8bfbc4b5782cf399d9085a080f575e52ad452bb7f40f8f526a95db149fa6"),
    },
    "two_block_4vector": {
        "check": (0, "03ac08e5e0712d4bbd165f3c7de201d6e64a069dda2b8af9c5d15a41be710a67"),
        "rank": (0, "4ec6a6cfaa73a96f2b08a391736c9a049220ed03395e3a846fdf0d06d016b7e8"),
        "factorize": (1, "3da9206bcbbf530660022d269545e3b47db1b7325f3698f72054f7cc2afad507"),
        "nambu": (1, "d33a81112b54e0eeeb7dd5fa2e326513943b92dcaef089c99ba2ae020fa53e71"),
        "jacobi": (0, "babc70892eeb34c924574be86b257c757f719093d9efd7ce6964409c4e2b043c"),
        "sigma-delta": (0, "2e1f766f3721c56168746e467d43d8bf176705e88d45a4e3529738d3a21aff60"),
    },
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_cli_suite_deterministic(capsys):
    assert main(["suite", "--seed", "42", "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["suite", "--seed", "42", "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert _sha256(first) == SUITE_DIGESTS[42]
    report = json.loads(first)
    assert report["passed"] is True
    assert len(report["suites"]) == 8


def test_cli_outputs_match_recorded_digests(capsys):
    # seed 42 is pinned by test_cli_suite_deterministic
    assert main(["suite", "--seed", "0", "--json"]) == 0
    assert _sha256(capsys.readouterr().out) == SUITE_DIGESTS[0]
    assert sorted(p.stem for p in SPECS.glob("*.json")) == sorted(SPEC_DIGESTS)
    for name, expected in SPEC_DIGESTS.items():
        for command, (code, digest) in expected.items():
            assert main([command, str(SPECS / f"{name}.json"), "--json"]) == code, (command, name)
            assert _sha256(capsys.readouterr().out) == digest, (command, name)


def test_public_names_resolve():
    for name in npk.__all__:
        assert hasattr(npk, name), name
