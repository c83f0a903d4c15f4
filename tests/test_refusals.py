"""Every refusal of the package, one row each: the call, the exception and its message."""

import re
from fractions import Fraction

import pytest

from npk.compat import delta, gradient_contraction
from npk.exterior import Covector, Multivector, blade_contractions
from npk.fields import (
    MultivectorField,
    contracted_derivative,
    coordinate_vector_field,
    differential_defect,
    nary_bracket,
    schouten,
)
from npk.grassmann import contraction_subspace_report, contractions_decomposable, sharp_profile
from npk.poisson import block_sum, build_semidecomposable, classify, coordinate_semidecomposable, sample_ranks
from npk.polynomial import Polynomial
from npk.specio import from_field

VECTOR = Multivector(3, 1, {(1,): 1})
BIVECTOR = Multivector(3, 2, {(1, 2): 1})
SCALAR = Multivector(3, 0, {(): 1})
SCALAR_FIELD = MultivectorField(3, 0, {(): 1})
X1 = Polynomial.variable(1, 3)
Y1 = Polynomial.variable(1, 2)
FRAME = [coordinate_vector_field(8, u) for u in range(1, 6)]
HUGE = Polynomial(3, {(2**17, 0, 0): 1})  # x1^(2**17): at 1/3 a value of 3**(2**17)

_REFUSALS = {
    # polynomials
    "polynomial-negative-vars": (lambda: Polynomial(-1), ValueError, "num_vars must be nonnegative"),
    "variable-out-of-range": (lambda: Polynomial.variable(3, 2), ValueError, "variable index 3 out of range 1..2"),
    "sum-var-counts": (lambda: X1 + Y1, ValueError, "operands have different variable counts"),
    "product-var-counts": (lambda: X1 * Y1, ValueError, "operands have different variable counts"),
    "product-other-type": (lambda: X1 * None, TypeError, "unsupported operand type(s) for *"),
    "evaluate-exponent": (
        lambda: HUGE.evaluate([Fraction(1, 3), 0, 0]),
        ValueError,
        "exponent 131072 exceeds 65536, the largest that evaluation takes",
    ),
    # graded containers and covectors
    "add-other-type": (lambda: VECTOR + 1, TypeError, "unsupported operand type(s) for +"),
    "sub-other-type": (lambda: VECTOR - 1, TypeError, "unsupported operand type(s) for -"),
    "mul-other-type": (lambda: VECTOR * None, TypeError, "unsupported operand type(s) for *"),
    "vector-components-grade": (BIVECTOR.vector_components, ValueError, "vector_components needs a grade-1 element"),
    "contract-spaces": (lambda: VECTOR.contract(Covector(2, (1, 0))), ValueError, "incompatible spaces"),
    "covector-length": (lambda: Covector(3, (1, 2)), ValueError, "component vector length must equal the dimension"),
    "covector-basis-range": (lambda: Covector.basis(3, 4), ValueError, "index 4 out of range 1..3"),
    "face-table-k": (
        lambda: blade_contractions({(1, 2, 3): 1}, 3),
        ValueError,
        "face tables delete one index: k must be 1 or 2, got 3",
    ),
    # fields
    "field-component-vars": (
        lambda: MultivectorField(3, 1, {(1,): Y1}),
        ValueError,
        "component variable count must equal the coordinate dimension",
    ),
    "coordinate-field-range": (lambda: coordinate_vector_field(3, 4), ValueError, "coordinate index 4 out of range 1..3"),
    "schouten-spaces": (
        lambda: schouten(coordinate_vector_field(3, 1), FRAME[0]),
        ValueError,
        "incompatible spaces",
    ),
    "bracket-argument-vars": (
        lambda: nary_bracket(coordinate_vector_field(3, 1), [Y1]),
        ValueError,
        "arguments must be polynomials in the coordinates",
    ),
    "gradient-contraction-vars": (
        lambda: gradient_contraction(coordinate_vector_field(3, 1), Y1),
        ValueError,
        "function must be a polynomial in the coordinates",
    ),
    "gradient-contraction-scalar": (lambda: gradient_contraction(SCALAR_FIELD, X1), ValueError, "cannot contract a scalar"),
    # grade-0 input: the result of a contracted derivative would have grade -1
    "contracted-derivative-grade-0": (
        lambda: contracted_derivative(SCALAR_FIELD, SCALAR_FIELD),
        ValueError,
        "contracted_derivative needs total grade at least 1",
    ),
    "contracted-derivative-spaces": (
        lambda: contracted_derivative(FRAME[0] * Polynomial.variable(1, 8), coordinate_vector_field(3, 1)),
        ValueError,
        "incompatible spaces",
    ),
    "differential-defect-grade-0": (
        lambda: differential_defect(SCALAR_FIELD),
        ValueError,
        "contracted_derivative needs total grade at least 1",
    ),
    "schouten-grade-0": (
        lambda: schouten(SCALAR_FIELD, SCALAR_FIELD),
        ValueError,
        "contracted_derivative needs total grade at least 1",
    ),
    "delta-grade-0": (
        lambda: delta(SCALAR_FIELD, SCALAR_FIELD),
        ValueError,
        "contracted_derivative needs total grade at least 1",
    ),
    "classify-exponent": (
        lambda: classify(MultivectorField(3, 2, {(1, 2): HUGE + 1})),
        ValueError,
        "exponent 131072 exceeds 65536, the largest that evaluation takes",
    ),
    "sample-ranks-grade-0": (
        lambda: sample_ranks(SCALAR_FIELD, [(0, 0, 0)]),
        ValueError,
        "sample ranks need grade at least 1",
    ),
    # constants
    "sharp-profile-grade-0": (lambda: sharp_profile(SCALAR), ValueError, "sharp profile needs grade at least 1"),
    "contractions-grade-2": (lambda: contractions_decomposable(BIVECTOR, 1), ValueError, "needs grade at least 3"),
    "subspace-report-grade-0": (
        lambda: contraction_subspace_report(SCALAR, Covector(3, (1, 0, 0))),
        ValueError,
        "needs grade at least 1",
    ),
    "subspace-report-spaces": (
        lambda: contraction_subspace_report(VECTOR, Covector(2, (1, 0))),
        ValueError,
        "incompatible spaces",
    ),
    # constructors
    "semidecomposable-v-count": (
        lambda: build_semidecomposable(FRAME[:4], FRAME, 1),
        ValueError,
        "need 5 V fields when h > 0, got 4",
    ),
    "semidecomposable-frame-grade": (
        lambda: build_semidecomposable([], [SCALAR_FIELD] * 3, 0),
        ValueError,
        "frame entries must be grade-1 fields",
    ),
    "semidecomposable-spaces": (
        lambda: build_semidecomposable([], [*FRAME[:2], coordinate_vector_field(3, 1)], 0),
        ValueError,
        "incompatible spaces",
    ),
    "coordinate-h0-dim": (lambda: coordinate_semidecomposable(2, 0, 3), ValueError, "need m >= n, got m=2, n=3"),
    "coordinate-h1-dim": (
        lambda: coordinate_semidecomposable(9, 1, 5),
        ValueError,
        "need m >= 2n for h > 0, got m=9, n=5",
    ),
    "block-sum-sizes": (lambda: block_sum(0, 1, 4), ValueError, "u and s must be positive"),
    # specs
    "from-field-kind": (
        lambda: from_field(FRAME[0], "dense"),
        ValueError,
        "kind must be 'constant' or 'polynomial', got 'dense'",
    ),
    "from-field-constant": (
        lambda: from_field(MultivectorField(3, 1, {(1,): X1}), "constant"),
        ValueError,
        "field has non-constant components; use kind='polynomial'",
    ),
}


@pytest.mark.parametrize("call, error, message", _REFUSALS.values(), ids=_REFUSALS)
def test_refusal(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


def test_equality_with_another_type_is_not_implemented():
    # so that Python falls back to identity: never equal, never an error
    assert VECTOR.__eq__(1) is NotImplemented and VECTOR != "e(1)"
    assert X1.__eq__(None) is NotImplemented and X1 != "x1"
