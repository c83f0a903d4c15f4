"""Multivector fields with polynomial components on coordinate space.

A grade-n field on m coordinates is the :class:`~npk.exterior.GradedTerms`
container over the polynomials in ``x1..xm``, with its storage,
``component``, ``wedge``, ``+ - * ==`` and ``repr``.  This subclass fixes
the ring (so ``*`` also takes a polynomial) and how a coefficient reads (a
sum or a negative in parentheses), and adds evaluation at a rational point
and partial derivatives.  Nothing is kept on a field: a reader that
contracts with basis forms builds its own
:func:`~npk.exterior.blade_contractions` table.

Every bracket here runs on one of two kernels.  ``K(A, B) = sum_u
i(dx^u) A ^ d_u B`` (:func:`contracted_derivative`) gives the
Schouten-Nijenhuis bracket, its sign proved once (:func:`schouten`), and
the differential defect ``K(P, P)``, the differential half of the Poisson
conditions.  :func:`~npk.exterior.contract_terms` gives the n-ary bracket
of functions: n first-slot contractions of P by the arguments' sparse
gradients ``{u: d_u f}``, each one an ``i(df)`` of
:func:`~npk.compat.gradient_contraction`.  The generalized Jacobi
identity calls no bracket: on the coordinate families its defect is
``K(P, P)``, and once that vanishes a quadratic family ``x_u x_v, x_T'``
reduces by Leibniz to its symbol, twice an entry of P's pair table with
itself (:func:`~npk.exterior.first_failing_pair`), zero at even grade
(proof in :func:`jacobi_identity_holds`).  So it decides the parity rule
with the classifier's own kernels, at a cost that follows the field's
support; the nested-bracket defect loop of the test oracles shares
neither.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .exterior import (
    Blade, GradedTerms, Multivector, blade_contractions, contract_terms, first_failing_pair, merge_blades,
)
from .polynomial import Polynomial, _integer_point, integer_evaluator


class MultivectorField(GradedTerms):
    """Sparse grade-n multivector field with polynomial components."""

    __slots__ = ()
    _factors = (int, Fraction, Polynomial)
    # defined in this class's own namespace so that it can be patched here
    component = GradedTerms.component

    @staticmethod
    def _coerce(coef, dim: int) -> Polynomial:
        if not isinstance(coef, Polynomial):
            return Polynomial.constant(coef, dim)
        if coef.num_vars != dim:
            raise ValueError("component variable count must equal the coordinate dimension")
        return coef

    @staticmethod
    def _zero(dim: int) -> Polynomial:
        return Polynomial.zero(dim)

    @staticmethod
    def _shown(coef: Polynomial) -> str:
        # a text never counts as a unit, so 1*e(1,2) keeps its 1
        text = repr(coef)
        return f"({text})" if len(coef.terms) > 1 or text.startswith("-") else text

    @classmethod
    def from_multivector(cls, value: Multivector) -> "MultivectorField":
        return cls(value.dim, value.grade, dict(value.terms))

    def is_constant(self) -> bool:
        return all(p.is_constant() for p in self.terms.values())

    # -- pointwise and componentwise operations -----------------------------

    def evaluate(self, point: Sequence) -> Multivector:
        """Exact substitution of a point of ints and Fractions, made integer once,
        every component through one :func:`~npk.polynomial.integer_evaluator` call."""
        values, scale = integer_evaluator(list(self.terms.values()), self.dim)(*_integer_point(point, self.dim))
        return Multivector(self.dim, self.grade, {b: Fraction(v, scale) for b, v in zip(self.terms, values)})

    def partial(self, u: int) -> "MultivectorField":
        """Componentwise partial derivative along coordinate ``u``."""
        if not 1 <= u <= self.dim:
            raise ValueError(f"coordinate index {u} out of range 1..{self.dim}")
        return MultivectorField(self.dim, self.grade, {b: p.derivative(u) for b, p in self.terms.items()})


def coordinate_vector_field(dim: int, u: int) -> MultivectorField:
    """The constant coordinate frame field along direction ``u``."""
    if not 1 <= u <= dim:
        raise ValueError(f"coordinate index {u} out of range 1..{dim}")
    return MultivectorField(dim, 1, {(u,): 1})


def contracted_derivative(a: MultivectorField, b: MultivectorField) -> MultivectorField:
    """``sum_u (i(dx^u) A) ^ (d_u B)``, of grade ``a.grade + b.grade - 1``.

    Only the nonconstant coefficients of B contribute.  A's face table is
    built symbolically, so that no coefficient is negated: contracting
    ``{T: k}`` (``k`` the 1-based position of the blade ``T`` of A) gives
    row ``(u,)`` the entries ``{R: +-k}``, ``(i(dx^u) A)^R = +-A^T``.  Each
    blade ``S`` of B meets, for each variable ``u`` of its coefficient,
    row ``(u,)``; the products ``sign(R, S) * (i(dx^u) A)^R * d_u B^S`` are
    grouped by the merged blade of ``R`` and ``S``, and each group is
    summed in one :meth:`~npk.polynomial.Polynomial.sum_of_products`.
    """
    if a.grade + b.grade < 1:
        raise ValueError("contracted_derivative needs total grade at least 1")
    if a.dim != b.dim:
        raise ValueError("incompatible spaces")
    live = [(s, p) for s, p in b.terms.items() if not p.is_constant()]
    coefs = list(a.terms.values())
    rows = blade_contractions({t: k for k, t in enumerate(a.terms, 1)}, 1) if live else {}
    groups: dict[Blade, list] = {}
    for s, p in live:
        for u in p.variables():
            row = rows.get((u,))
            if not row:
                continue
            d = p.derivative(u)
            for r, k in row.items():
                if merged := merge_blades(r, s):
                    sign = merged[0] if k > 0 else -merged[0]
                    groups.setdefault(merged[1], []).append((sign, coefs[abs(k) - 1], d))
    out = {key: val for key, products in groups.items() if (val := Polynomial.sum_of_products(a.dim, products))}
    return MultivectorField(a.dim, a.grade + b.grade - 1, out)


def schouten(p: MultivectorField, q: MultivectorField) -> MultivectorField:
    """The Schouten-Nijenhuis bracket ``[P, Q] = (-1)^(p-1) (K(P, Q) + (-1)^(pq) K(Q, P))``.

    ``K`` is :func:`contracted_derivative` and ``p``, ``q`` are the grades;
    ``[P, Q]`` has grade ``p + q - 1``, so two functions are refused.  The
    polynomials and the ``d_u`` generate every field under ``^``, so one
    bracket at most has ``[X, f] = X(f)``, ``[X, Y]`` the Lie bracket, graded
    antisymmetry ``[Q, P] = -(-1)^((p-1)(q-1)) [P, Q]`` and the graded
    Leibniz rule ``[P, Q ^ R] = [P, Q] ^ R + (-1)^((p-1)q) Q ^ [P, R]``.
    This one has all four:

    - ``i(dx^u) f = 0``, so ``[X, f] = K(X, f) = X(f)`` and
      ``[X, Y] = K(X, Y) - K(Y, X)``.
    - Antisymmetry, on ``K(P, Q)``: ``(-1)^(q-1+pq) = -(-1)^((p-1)(q-1)+p-1)``;
      on ``K(Q, P)``: ``(-1)^(q-1) = -(-1)^((p-1)(q-1)+p-1+pq)``.
    - Leibniz: ``d_u`` is a derivation and ``i(dx^u)`` a graded one, so
      ``K(P, Q ^ R) = K(P, Q) ^ R + (-1)^((p-1)q) Q ^ K(P, R)`` and
      ``K(Q ^ R, P) = (-1)^(pr) K(Q, P) ^ R + (-1)^q Q ^ K(R, P)``.  In
      ``(-1)^(p-1) (K(P, Q ^ R) + (-1)^(p(q+r)) K(Q ^ R, P))`` the terms
      ``. ^ R`` sum to ``[P, Q] ^ R`` and the terms ``Q ^ .`` to
      ``(-1)^((p-1)q) Q ^ [P, R]``, as ``p(q+r) + q - (p-1)q = pr + 2q``.

    So ``[P, P] = -2 K(P, P)`` at even grade and 0 at odd grade.
    """
    pq, qp = contracted_derivative(p, q), contracted_derivative(q, p)
    out = pq - qp if p.grade * q.grade % 2 else pq + qp
    return out if p.grade % 2 else -out


# ---------------------------------------------------------------------------
# the induced bracket and its obstructions

Gradient = dict[int, Polynomial]


def _gradient(f: Polynomial) -> Gradient:
    """The nonzero partial derivatives ``{u: d_u f}``, by increasing ``u``."""
    return {u: f.derivative(u) for u in f.variables()}


def _bracket(field: MultivectorField, grads: Sequence[Gradient]) -> Polynomial:
    """``i(df_n) .. i(df_1) P``: the first-slot contractions by the gradients, first row first."""
    terms = field.terms
    for grad in grads:
        terms = contract_terms(grad, terms)
    return terms.get((), Polynomial.zero(field.dim))


def _gradients(field: MultivectorField, functions: Sequence[Polynomial], count: int) -> list[Gradient]:
    if len(functions) != count:
        raise ValueError(f"expected {count} arguments, got {len(functions)}")
    for f in functions:
        if f.num_vars != field.dim:
            raise ValueError("arguments must be polynomials in the coordinates")
    return [_gradient(f) for f in functions]


def nary_bracket(field: MultivectorField, functions: Sequence[Polynomial]) -> Polynomial:
    """The bracket of n polynomial functions induced by a grade-n field.

    ``sum prod_i d_{u_i} f_i * P^{u_1..u_n}``, contracting P's first slot
    with ``df_1``, then ``df_2``, and so on, as ``(i(a) P)^R = a_u P^{u R}``;
    equivalently the sum over blades of the component times the Jacobian
    minor.  Completely antisymmetric in the arguments and a derivation in
    each.
    """
    return _bracket(field, _gradients(field, functions, field.grade))


def differential_defect(field: MultivectorField) -> MultivectorField:
    """The grade-(2n-1) obstruction sum_u (i(dx^u) P) ^ (d_u P).

    Identically zero iff the differential half of the Poisson conditions
    holds.  The self-bracket is ``[P, P] = -2 K(P, P)`` at even n and 0 at
    odd n (:func:`schouten`), so at even n this is ``[P, P] = 0``.  Above
    the top grade the defect is the canonical zero.
    """
    return contracted_derivative(field, field)


def jacobi_identity_holds(field: MultivectorField) -> bool:
    """Decide the generalized Jacobi identity for all smooth arguments.

    The defect is a second-order multi-differential operator that is
    completely antisymmetric in its arguments, so it vanishes identically
    iff it vanishes on every increasing tuple of coordinates and on every
    family whose first argument is a product of two coordinates with the
    rest an increasing coordinate tuple.  On those families it is the pair
    of polynomial identities of the parity rule, both decided exactly: the
    differential defect ``K(P, P)`` (:func:`differential_defect`) and, at
    odd grade, the unpolarized :func:`~npk.exterior.first_failing_pair`
    ``(P, P, False)`` of the algebraic condition, read here directly so
    that grade 1 is decided too.

    Write ``J(f_1, .., f_{2n-1})`` for the shuffle sum, one term
    ``sign(S, R) {{f_S}, f_R}`` per (n, n-1)-shuffle ``S | R`` of the
    argument positions, with ``sign(S, R)`` the sign of merging two
    disjoint increasing tuples (:func:`~npk.exterior.merge_blades`); the
    full permutation sum is ``n!(n-1)! J``, so ``J`` is alternating in its
    arguments.  Two facts are used for a bracket whose arguments after the
    first are coordinates.  In
    ``{g, x_{r_1}, .., x_{r_{n-1}}} = sum prod_i d_{u_i} f_i P^{u_1..u_n}``
    the factor ``d_{u_{i+1}} x_{r_i}`` is 1 at ``u_{i+1} = r_i`` and 0
    elsewhere, so ``{g, x_R} = sum_w d_w g P^{w R}``.  And
    ``P^{w R} = (i(dx^w) P)^R``: if ``w`` sits at position ``p`` of the
    blade ``B = sort(w, R)``, contracting it has sign ``(-1)^p``, and
    moving ``w`` from the front to position ``p`` gives
    ``P^{w R} = (-1)^p P^B``.

    - The coordinate family ``x_T``: ``J(x_T) = K(P, P)_T`` for every
      increasing ``(2n-1)``-tuple ``T``.  ``{x_S} = P^S``, so the shuffle
      ``S | R`` adds ``sign(S, R) sum_w d_w P^S (i(dx^w) P)^R``.  The
      coefficient on ``T`` of ``K(P, P) = sum_w (i(dx^w) P) ^ d_w P`` is
      the sum of ``sign(R, S) (i(dx^w) P)^R d_w P^S`` over the disjoint
      ``R`` and ``S`` merging to ``T``, and
      ``sign(R, S) = (-1)^(n(n-1)) sign(S, R) = sign(S, R)``.
    - The quadratic family ``x_u x_v, x_T'``.  ``J`` is a differential
      operator of order two in its first argument that kills constants, so
      Leibniz gives
      ``J(x_u x_v, x_T') = x_v J(x_u, x_T') + x_u J(x_v, x_T') + Q[u, v]``,
      ``Q`` the part in which both derivatives fall on the quad.
      ``J(x_w, x_T')`` repeats an argument or is a coordinate family's
      defect up to sign, so once those vanish the family's defect is
      ``Q[u, v]``.  Only the shuffles ``(x_u x_v, x_A) | R`` (the quad,
      first, adds no inversion) differentiate the quad twice; by Leibniz
      ``{x_u x_v, x_A} = x_v P^{u A} + x_u P^{v A}``, and the outer bracket
      ``sum_w d_w (.) P^{w R}`` meets the quad at ``w = v`` and ``w = u``,
      so ``Q[u, v] = sum sign(A, R) (P^{u A} P^{v R} + P^{v A} P^{u R})``
      over the disjoint ``(A, R)`` merging to ``T'``.  As
      ``P^{w A} = (i(dx^w) P)^A`` and ``e_A ^ e_R = sign(A, R) e_T'``,
      ``Q[u, v]`` is the coefficient on ``T'`` of
      ``(i(dx^u) P) ^ (i(dx^v) P) + (i(dx^v) P) ^ (i(dx^u) P)``.  At odd
      grade the contractions have even grade and commute, so ``Q[u, v]`` is
      twice the coefficient of ``(i(dx^u) P) ^ (i(dx^v) P)``, on and off the
      diagonal: twice the entry ``(u, v)`` of the unpolarized pair table
      that :func:`~npk.exterior.first_failing_pair` ``(P, P, False)`` sums.  At even
      grade the contractions have odd grade and anticommute: ``Q = 0``.

    The identity holds iff ``K(P, P)`` vanishes and, at odd grade, ``Q``
    vanishes at every key of the table.
    """
    n = field.grade
    if n < 1:
        raise ValueError(f"the generalized Jacobi identity needs grade >= 1, got {n}")
    if not differential_defect(field).is_zero():
        return False
    if n % 2 == 0:
        return True
    return first_failing_pair(field.terms, field.terms, False) is None
