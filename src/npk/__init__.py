"""Exact-arithmetic toolkit for n-ary Poisson brackets.

Everything runs over the rationals with zero tolerance: exterior algebra
kernels, exact linear algebra, decomposability and factorization of
multivectors, the n-ary bracket with its generalized Jacobi identity, the
Schouten bracket, the Poisson and Nambu classification of polynomial fields,
and the compatibility operator calculus.  All values are immutable after
construction and all operations are pure functions.
"""

from .compat import Compatibility, IncompatibleFieldError, delta, gradient_contraction, is_compatible
from .exterior import Covector, Multivector
from .fields import (
    MultivectorField,
    coordinate_vector_field,
    differential_defect,
    jacobi_identity_holds,
    nary_bracket,
    schouten,
)
from .grassmann import (
    ContractionSubspaceReport,
    Factorization,
    IrreducibilityKind,
    IrreducibilityVerdict,
    NotDecomposableError,
    SharpProfile,
    contraction_profile,
    contraction_subspace_report,
    contractions_decomposable,
    factorize,
    irreducibility_check,
    is_decomposable,
    sharp_profile,
)
from .linalg import Subspace
from .poisson import (
    PoissonVerdict,
    algebraic_condition,
    block_sum,
    build_semidecomposable,
    classify,
    coordinate_semidecomposable,
    default_sample_points,
    differential_condition,
    is_involutive,
    pointwise_decomposable,
)
from .polynomial import Polynomial
from .specio import SpecError, TensorSpec, from_field, parse_spec, parse_spec_text, serialize, to_field

__version__ = "0.1.0"

__all__ = [
    "Compatibility",
    "ContractionSubspaceReport",
    "Covector",
    "Factorization",
    "IncompatibleFieldError",
    "IrreducibilityKind",
    "IrreducibilityVerdict",
    "Multivector",
    "MultivectorField",
    "NotDecomposableError",
    "PoissonVerdict",
    "Polynomial",
    "SharpProfile",
    "SpecError",
    "Subspace",
    "TensorSpec",
    "algebraic_condition",
    "block_sum",
    "build_semidecomposable",
    "classify",
    "contraction_profile",
    "contraction_subspace_report",
    "contractions_decomposable",
    "coordinate_semidecomposable",
    "coordinate_vector_field",
    "default_sample_points",
    "delta",
    "differential_condition",
    "differential_defect",
    "factorize",
    "from_field",
    "gradient_contraction",
    "irreducibility_check",
    "is_compatible",
    "is_decomposable",
    "is_involutive",
    "jacobi_identity_holds",
    "nary_bracket",
    "parse_spec",
    "parse_spec_text",
    "pointwise_decomposable",
    "schouten",
    "serialize",
    "sharp_profile",
    "to_field",
]
