"""Compatible multivector fields and the induced first-order operator.

A grade-q field U is compatible with the structure field P when
``(i(alpha) P) ^ (i(alpha) U) = 0`` for every covector alpha.  The
quantifier is quadratic in alpha, so over the rationals it is equivalent
to its polarization on basis covector pairs, which
:func:`~npk.exterior.first_failing_pair` decides from P's and U's blades.
On compatible fields a first-order operator of degree n-1 is defined; it
annihilates P itself and acts on functions as ``f -> i(df) P``.  The
operator does not square to zero in general, so no such identity is
asserted anywhere.  It shares the kernel
:func:`~npk.fields.contracted_derivative` with the differential defect:
``delta(P, U) = K(P, U) + K(U, P)`` and the defect is ``K(P, P)``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exterior import contract_terms, first_failing_pair
from .fields import MultivectorField, _gradient, contracted_derivative
from .polynomial import Polynomial


class IncompatibleFieldError(ValueError):
    """Raised when the operator is applied outside its compatible domain;
    ``witness`` is the first failing basis pair of :func:`is_compatible`."""

    def __init__(self, witness: tuple[int, int]):
        super().__init__(f"candidate field is not compatible with the structure (witness pair {witness})")
        self.witness = witness


@dataclass(frozen=True)
class Compatibility:
    holds: bool
    witness: tuple[int, int] | None = None


def is_compatible(structure: MultivectorField, candidate: MultivectorField) -> Compatibility:
    """Polarized compatibility check over basis covector pairs.

    Grade-0 candidates are compatible vacuously (their contraction is
    zero).  On failure the lexicographically first failing basis pair is
    reported.
    """
    if structure.dim != candidate.dim:
        raise ValueError("incompatible spaces")
    if candidate.grade == 0:
        return Compatibility(True, None)
    if structure.grade == 0:
        raise ValueError("cannot contract a scalar")
    witness = first_failing_pair(structure.terms, candidate.terms, True)
    return Compatibility(witness is None, witness)


def delta(structure: MultivectorField, candidate: MultivectorField) -> MultivectorField:
    """First-order operator on compatible fields, of degree n-1.

    For a grade-q candidate U returns
    ``sum_u (i(dx^u) P) ^ (d_u U) + (i(dx^u) U) ^ (d_u P)``;
    the second term vanishes for q = 0, where the result is exactly
    ``i(df) P``.  By :func:`~npk.fields.schouten`, ``delta(P, U) = (-1)^(p-1) [P, U]``
    when ``pq`` is even; for odd p and q, ``[P, U] = K(P, U) - K(U, P)``.
    Raises when the candidate is not compatible.
    """
    membership = is_compatible(structure, candidate)
    if not membership.holds:
        raise IncompatibleFieldError(membership.witness)
    return contracted_derivative(structure, candidate) + contracted_derivative(candidate, structure)


def gradient_contraction(structure: MultivectorField, function: Polynomial) -> MultivectorField:
    """``i(df) P``: P contracted by f's sparse gradient ``{u: d_u f}``.

    Independent of :func:`delta`; used to cross-check its grade-0 action.
    """
    if function.num_vars != structure.dim:
        raise ValueError("function must be a polynomial in the coordinates")
    if structure.grade == 0:
        raise ValueError("cannot contract a scalar")
    return MultivectorField(structure.dim, structure.grade - 1, contract_terms(_gradient(function), structure.terms))
