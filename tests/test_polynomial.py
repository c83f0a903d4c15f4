"""The packed-exponent polynomial against the tuple/Fraction reference class.

Every operation is compared with :class:`oracles.TuplePolynomial` through
the public views (``monomials()``, ``repr``, ``evaluate``), and every result
is checked for the canonical form.  Exponents include values around the
8-bit field boundary and far beyond it, so repacking to a wider field is
exercised alongside the common narrow case.
"""

import random
from fractions import Fraction
from functools import reduce
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from npk.polynomial import Polynomial, _integer_point, integer_evaluator
from npk.specio import from_field, parse_spec_text, serialize, to_field
from oracles import TuplePolynomial

NV = 3

_exponent = st.one_of(st.integers(0, 3), st.sampled_from([254, 255, 256, 70000]))
_narrow_exponent = st.integers(0, 3)
_coef = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
_point = st.tuples(*[st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))] * NV)


def _terms(exponent=_exponent):
    return st.dictionaries(st.tuples(*[exponent] * NV), _coef, max_size=5)


def _pair(terms: dict):
    return Polynomial(NV, terms), TuplePolynomial(NV, terms)


def _assert_canonical(p: Polynomial) -> None:
    assert p.den >= 1
    assert all(p.terms.values())
    assert gcd(p.den, *p.terms.values()) == 1
    if not p.terms:
        assert p.den == 1
    assert p.bound < 1 << p.width
    assert all(max(e, default=0) <= p.bound for e, _ in p.monomials())


def _assert_same(p: Polynomial, ref: TuplePolynomial) -> None:
    _assert_canonical(p)
    assert list(p.monomials()) == list(ref.monomials())
    assert repr(p) == repr(ref)
    assert bool(p) == bool(ref)
    assert p.degree() == ref.degree()
    assert p.is_constant() == ref.is_constant()
    assert p.constant_value() == ref.constant_value()


@settings(max_examples=150, deadline=None)
@given(_terms(), _terms())
def test_ring_operations_match_reference(a, b):
    p, pr = _pair(a)
    q, qr = _pair(b)
    _assert_same(p, pr)
    _assert_same(p + q, pr + qr)
    _assert_same(p - q, pr - qr)
    _assert_same(-p, -pr)
    _assert_same(p * q, pr * qr)


@settings(max_examples=100, deadline=None)
@given(_terms(_narrow_exponent), _terms(_narrow_exponent), _terms(_narrow_exponent))
def test_ring_laws_on_narrow_fields(a, b, c):
    (p, pr), (q, qr), (r, rr) = _pair(a), _pair(b), _pair(c)
    _assert_same(p * (q + r), pr * (qr + rr))
    assert p * (q + r) == p * q + p * r
    assert (p * q) * r == p * (q * r)


@settings(max_examples=100, deadline=None)
@given(_terms(), st.one_of(st.integers(-5, 5), _coef))
def test_scalar_operations_match_reference(a, c):
    p, pr = _pair(a)
    _assert_same(p * c, pr * c)
    _assert_same(c * p, c * pr)
    _assert_same(p + c, pr + c)
    _assert_same(c - p, c - pr)


@settings(max_examples=100, deadline=None)
@given(_terms(), st.integers(1, NV))
def test_derivative_matches_reference(a, u):
    p, pr = _pair(a)
    _assert_same(p.derivative(u), pr.derivative(u))


@settings(max_examples=100, deadline=None)
@given(_terms(_narrow_exponent), _point)
def test_evaluate_matches_reference(a, point):
    p, pr = _pair(a)
    value = p.evaluate(point)
    assert isinstance(value, Fraction)
    assert value == pr.evaluate(point)


def _seeded_family(rng: random.Random, num_vars: int) -> list[dict]:
    """Term maps of degree 0..4 with mixed denominators, and the zero map."""
    family = [{}]
    for degree in range(5):
        terms = {}
        for j in range(rng.randint(1, 4)):
            exps = [0] * num_vars
            for _ in range(degree if j == 0 else rng.randint(0, degree)):
                exps[rng.randrange(num_vars)] += 1
            terms[tuple(exps)] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.choice([1, 2, 3, 4, 7, 12]))
        family.append(terms)
    return family


def _seeded_point(rng: random.Random, num_vars: int) -> list:
    """Plain ints, zeros, negatives and Fractions with mixed denominators."""
    return [
        rng.choice([0, rng.randint(-4, 4), Fraction(rng.randint(-9, 9), rng.randint(1, 11))])
        for _ in range(num_vars)
    ]


def test_integer_evaluator_matches_reference():
    rng = random.Random("integer-evaluator")
    for _ in range(60):
        num_vars = rng.randint(1, 5)
        family = _seeded_family(rng, num_vars)
        polys = [Polynomial(num_vars, t) for t in family]
        refs = [TuplePolynomial(num_vars, t) for t in family]
        assert polys[0].terms == {}  # the zero polynomial, always 0
        assert [p.degree() for p in polys] == [0, 0, 1, 2, 3, 4]
        scale_l, deg = lcm(*(p.den for p in polys)), 4
        values = integer_evaluator(polys, num_vars)
        for _ in range(6):
            point = _seeded_point(rng, num_vars)
            nums, d = _integer_point(point, num_vars)
            assert d == lcm(*(Fraction(c).denominator for c in point))
            assert [Fraction(a, d) for a in nums] == point and all(type(a) is int for a in nums)
            ints, scale = values(nums, d)
            assert scale == scale_l * d**deg
            assert all(type(s) is int for s in ints)
            assert [Fraction(s, scale) for s in ints] == [r.evaluate(point) for r in refs]
            assert ints[0] == 0
            for p, r in zip(polys, refs):
                assert p.evaluate(point) == r.evaluate(point)
    # no components: nothing to evaluate, but the point is still checked
    assert integer_evaluator([], 3)(*_integer_point([1, Fraction(1, 2), 0], 3)) == ([], 1)
    with pytest.raises(ValueError, match="point must have 3 coordinates"):
        _integer_point([1, 2], 3)


@pytest.mark.parametrize("bad", [0.1, True, False, 1.0, "1", None])
def test_evaluate_refuses_non_exact_coordinates(bad):
    x = Polynomial(2, {(1, 0): 1, (0, 1): Fraction(1, 3)})
    for p in (x, Polynomial.constant(5, 2), Polynomial.zero(2)):
        with pytest.raises(TypeError, match="coordinates must be ints or Fractions"):
            p.evaluate([Fraction(1, 2), bad])
        with pytest.raises(TypeError, match="coordinates must be ints or Fractions"):
            p.evaluate([bad, 1])
    with pytest.raises(TypeError):
        x.evaluate([0.1, True])
    assert x.evaluate([Fraction(1, 2), 3]) == Fraction(3, 2)


@settings(max_examples=100, deadline=None)
@given(_terms(), _terms())
def test_equality_matches_reference(a, b):
    (p, pr), (q, qr) = _pair(a), _pair(b)
    assert (p == q) == (pr == qr)
    assert p == Polynomial(NV, a)


@settings(max_examples=100, deadline=None)
@given(_terms(_narrow_exponent), st.sampled_from([256, 70000]))
def test_equality_does_not_depend_on_width(a, high):
    p = Polynomial(NV, a)
    wide = Polynomial(NV, {(high, 0, 0): 1})
    q = p + wide - wide
    assert q.width > p.width
    assert q == p and p == q
    assert list(q.monomials()) == list(p.monomials())
    assert (q + Polynomial.variable(2, NV)) != p


@settings(max_examples=100, deadline=None)
@given(st.lists(_coef, min_size=1, max_size=6), st.tuples(*[_exponent] * NV))
def test_mixed_denominators_cancel_to_canonical_zero(coefs, exps):
    # the pieces have different denominators and sum to zero exactly
    coefs = coefs + [-sum(coefs)]
    pieces = [Polynomial(NV, {exps: c}) for c in coefs]
    total = reduce(lambda x, y: x + y, pieces)
    assert not total and total.terms == {} and total.den == 1
    assert total == 0 and repr(total) == "0"
    product = Polynomial(NV, {exps: coefs[0]}) * Fraction(1, 6) - Polynomial(NV, {exps: coefs[0] / 6})
    assert product.terms == {} and product.den == 1


def test_shared_denominator_content_is_divided_out():
    half = Polynomial(2, {(1, 0): Fraction(1, 2), (0, 1): Fraction(3, 2)})
    assert (half.terms, half.den) == ({1: 1, 256: 3}, 2)
    doubled = half * 2
    assert (doubled.terms, doubled.den) == ({1: 1, 256: 3}, 1)
    third = Polynomial(2, {(2, 0): Fraction(1, 2)}).derivative(1)
    assert list(third.monomials()) == [((1, 0), Fraction(1))] and third.den == 1


# ---------------------------------------------------------------------------
# sums of products in one accumulation

_products = st.lists(st.tuples(st.sampled_from([1, -1, 2, -3]), _terms(), _terms()), min_size=1, max_size=4)


def _naive_sum_of_products(products):
    return reduce(lambda x, y: x + y, (a * b * s for s, a, b in products))


@settings(max_examples=100, deadline=None)
@given(_products)
def test_sum_of_products_matches_naive_sum_and_reference(triples):
    products = [(s, Polynomial(NV, a), Polynomial(NV, b)) for s, a, b in triples]
    got = Polynomial.sum_of_products(NV, products)
    assert got == _naive_sum_of_products(products)
    _assert_same(got, _naive_sum_of_products([(s, TuplePolynomial(NV, a), TuplePolynomial(NV, b)) for s, a, b in triples]))


@settings(max_examples=60, deadline=None)
@given(_products)
def test_sum_of_products_cancels_to_canonical_zero(triples):
    # each product appears again with the opposite sign and its halves moved between the factors
    products = [(s, Polynomial(NV, a), Polynomial(NV, b)) for s, a, b in triples]
    products += [(-s, a * Fraction(1, 2), b * 2) for s, a, b in products]
    zero = Polynomial.sum_of_products(NV, products)
    assert not zero and zero.terms == {} and zero.den == 1 and zero == 0


def test_sum_of_products_one_pair_and_widths():
    x1, x2 = Polynomial.variable(1, 2), Polynomial.variable(2, 2)
    top = Polynomial(2, {(255, 0): Fraction(1, 3), (0, 1): Fraction(-1, 2)})
    for a, b in ((top, x1), (x1, top), (top, top), (top, Polynomial(2, {(70000, 2): Fraction(5, 7)}))):
        got = Polynomial.sum_of_products(2, [(1, a, b)])
        _assert_canonical(got)
        assert got == a * b and list(got.monomials()) == list((a * b).monomials())
        assert Polynomial.sum_of_products(2, [(-1, a, b)]) == -(a * b)
    assert list(Polynomial.sum_of_products(2, [(1, top, x1)]).monomials())[-1] == ((256, 0), Fraction(1, 3))
    assert Polynomial.sum_of_products(2, [(1, x1, x2), (1, top * 3, Polynomial.zero(2))]) == x1 * x2
    assert Polynomial.sum_of_products(2, []) == 0
    with pytest.raises(ValueError, match="variable counts"):
        Polynomial.sum_of_products(2, [(1, x1, Polynomial.variable(1, 3))])


# ---------------------------------------------------------------------------
# field widths

def test_product_past_the_field_boundary_does_not_wrap():
    x1, x2 = Polynomial.variable(1, 2), Polynomial.variable(2, 2)
    top = Polynomial(2, {(255, 0): 1})
    assert top.width == 8
    product = top * x1
    assert list(product.monomials()) == [((256, 0), Fraction(1))]
    assert product.width > 8
    assert product != x2 and product.derivative(2) == 0
    assert product.derivative(1) == 256 * top
    mixed = Polynomial(2, {(255, 7): 3}) * (x1 * x2)
    assert list(mixed.monomials()) == [((256, 8), Fraction(3))]


def test_huge_exponent_through_spec_parser():
    text = (
        '{"m": 2, "n": 1, "kind": "polynomial", "terms": [{"indices": [1], "value": '
        '[{"coef": "1/3", "exps": [1000000, 0]}, {"coef": "-2", "exps": [0, 5]}]}]}'
    )
    field = to_field(parse_spec_text(text))
    p = field.component((1,))
    assert list(p.monomials()) == [((0, 5), Fraction(-2)), ((1000000, 0), Fraction(1, 3))]
    x1, x2 = Polynomial.variable(1, 2), Polynomial.variable(2, 2)
    assert list((p * x1).monomials()) == [((1, 5), Fraction(-2)), ((1000001, 0), Fraction(1, 3))]
    assert list((p * x2).monomials()) == [((0, 6), Fraction(-2)), ((1000000, 1), Fraction(1, 3))]
    assert list(p.derivative(1).monomials()) == [((999999, 0), Fraction(1000000, 3))]
    assert list(p.derivative(2).monomials()) == [((0, 4), Fraction(-10))]
    assert p.variables() == [1, 2] and p.degree() == 1000000
    assert serialize(from_field(field)) == serialize(parse_spec_text(text))


@pytest.mark.parametrize("exps", [(0, 0, 0), (0, 2, 0), (0, 0, 300), (1, 0, 1)])
def test_variables_reads_the_occurring_fields(exps):
    p = Polynomial(NV, {exps: 1, (0, 0, 0): 1})
    assert p.variables() == [u for u, e in enumerate(exps, 1) if e]
    assert p.variables() == [u for u in range(1, NV + 1) if p.derivative(u)]
