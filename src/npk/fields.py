"""Multivector fields with polynomial components on coordinate space.

A grade-n field on m coordinates is the :class:`~npk.exterior.GradedTerms`
container with coefficients in the polynomials in ``x1..xm``: its
``terms`` map n-blades to polynomials, and storage, canonicalisation,
``component``, ``wedge`` and ``+ - * ==`` are the shared ones.  This
subclass fixes the coefficient ring (so ``*`` also takes a polynomial
factor) and adds evaluation at a rational point (an exact
:class:`~npk.exterior.Multivector`), partial derivatives and the
contraction with a covector field; contraction with basis forms reads the
field's face table ``faces(k)``, built once per field.  The module also
provides the n-ary bracket a grade-n field induces on polynomial
functions, the differential defect whose vanishing is the differential
half of the Poisson conditions (one case of :func:`contracted_derivative`,
the kernel it shares with the Lie bracket and :func:`~npk.compat.delta`),
and the generalized Jacobi identity decided exactly on a finite
generating family of arguments.

The n-ary bracket runs through one general kernel over sparse gradients
``{u: d_u f}``: the expansion ``sum prod_i d_{u_i} f_i * P^{u_1..u_n}``
over one nonzero entry per argument, skipping repeated indices;
:func:`nary_bracket` uses it.  The Jacobi oracle needs only brackets
``{g, x_R}`` whose arguments after the first are coordinates, and
``{g, x_R} = sum_w d_w g * P^{w R}`` is one row of the field's
(n-1)-face table ``faces(n-1)``, up to one sign per grade; so the oracle
reads its brackets off that table and never calls the kernel.  It enumerates no argument tuples: each nonzero bracket of a
nonconstant blade with a face is pushed to its coordinate family.  Once
those vanish, a quadratic family ``x_u x_v, x_T'`` reduces by Leibniz to
its symbol ``Q[u, v]``, twice an entry of the
:func:`~npk.exterior.covector_pair_table` of P with itself, zero at even
grade.  So the cost follows the field's support (its nonconstant blades,
their (n-1)-faces and the pairs of blades sharing at most two indices),
not the number of families.  It never consults the differential defect
or the classifier; it is their check.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from typing import Sequence

from .exterior import (
    Blade,
    GradedTerms,
    Multivector,
    _add_term,
    contract_terms,
    covector_pair_table,
    first_failing_pair,
    merge_blades,
    sort_to_blade,
    wedge_terms,
)
from .polynomial import Polynomial, integer_evaluator


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

    @classmethod
    def from_multivector(cls, value: Multivector) -> "MultivectorField":
        return cls(value.dim, value.grade, dict(value.terms))

    def is_constant(self) -> bool:
        return all(p.is_constant() for p in self.terms.values())

    # -- pointwise and componentwise operations -----------------------------

    def evaluate(self, point: Sequence) -> Multivector:
        """Exact substitution of a point of ints and Fractions, every component
        through one :func:`~npk.polynomial.integer_evaluator` call."""
        values, scale = integer_evaluator(list(self.terms.values()), self.dim)(point)
        return Multivector(self.dim, self.grade, {b: Fraction(v, scale) for b, v in zip(self.terms, values)})

    def partial(self, u: int) -> "MultivectorField":
        """Componentwise partial derivative along coordinate ``u``."""
        if not 1 <= u <= self.dim:
            raise ValueError(f"coordinate index {u} out of range 1..{self.dim}")
        return MultivectorField(self.dim, self.grade, {b: p.derivative(u) for b, p in self.terms.items()})

    # -- interior products ---------------------------------------------------

    def contract_covector(self, comps: Sequence[Polynomial]) -> "MultivectorField":
        """Interior product with a covector field given by m components."""
        if self.grade == 0:
            raise ValueError("cannot contract a scalar")
        if len(comps) != self.dim:
            raise ValueError("covector field must have one component per coordinate")
        alpha = {u + 1: c for u, c in enumerate(comps) if c}
        return MultivectorField(self.dim, self.grade - 1, contract_terms(alpha, self.terms))

    def __eq__(self, other) -> bool:
        if isinstance(other, Multivector):
            other = MultivectorField.from_multivector(other)
        return super().__eq__(other)

    def __repr__(self) -> str:
        if not self.terms:
            return f"0[grade {self.grade}, dim {self.dim}]"
        parts = []
        for blade, poly in sorted(self.terms.items()):
            name = "e(" + ",".join(map(str, blade)) + ")" if blade else "1"
            text = repr(poly)
            if len(poly.terms) > 1 or text.startswith("-"):
                text = f"({text})"
            parts.append(f"{text}*{name}" if blade else text)
        return " + ".join(parts)


def coordinate_vector_field(dim: int, u: int) -> MultivectorField:
    """The constant coordinate frame field along direction ``u``."""
    if not 1 <= u <= dim:
        raise ValueError(f"coordinate index {u} out of range 1..{dim}")
    return MultivectorField(dim, 1, {(u,): 1})


def contracted_derivative(a: MultivectorField, b: MultivectorField) -> MultivectorField:
    """``sum_u (i(dx^u) A) ^ (d_u B)``, of grade ``a.grade + b.grade - 1``."""
    out: dict[Blade, Polynomial] = {}
    variables = set().union(*(p.variables() for p in b.terms.values()))
    faces = a.faces(1)
    for u in sorted(variables):
        contracted = faces.get((u,))
        if not contracted:
            continue
        partial = {blade: d for blade, p in b.terms.items() if (d := p.derivative(u))}
        for key, val in wedge_terms(contracted, partial).items():
            _add_term(out, key, val)
    return MultivectorField(a.dim, a.grade + b.grade - 1, out)


def lie_bracket(x: MultivectorField, y: MultivectorField) -> MultivectorField:
    """Lie bracket of two polynomial vector fields."""
    if x.grade != 1 or y.grade != 1:
        raise ValueError("lie_bracket needs grade-1 fields")
    if x.dim != y.dim:
        raise ValueError("incompatible spaces")
    return contracted_derivative(x, y) - contracted_derivative(y, x)


# ---------------------------------------------------------------------------
# the induced bracket and its obstructions

Gradient = dict[int, Polynomial]


def _gradient(f: Polynomial) -> Gradient:
    """The nonzero partial derivatives ``{u: d_u f}``, by increasing ``u``."""
    return {u: f.derivative(u) for u in f.variables()}


def _bracket(field: MultivectorField, grads: Sequence[Gradient]) -> Polynomial:
    """Multilinear expansion ``sum prod_i d_{u_i} f_i * P^{u_1..u_n}``.

    One nonzero gradient entry is chosen per row; a choice is dropped as
    soon as an index repeats, and a complete one is sorted into a blade
    whose coefficient is looked up in the field.
    """
    terms = field.terms
    acc = Polynomial.zero(field.dim)

    def expand(row: int, chosen: tuple[int, ...], factors: tuple[Polynomial, ...]) -> None:
        nonlocal acc
        if row == len(grads):
            sign, blade = sort_to_blade(chosen)
            coef = terms.get(blade)
            if coef is None:
                return
            piece = coef
            for d in factors:
                piece = piece * d
            acc = acc + piece if sign > 0 else acc - piece
            return
        for u, d in grads[row].items():
            if u not in chosen:
                expand(row + 1, chosen + (u,), factors + (d,))

    expand(0, (), ())
    return acc


def _gradients(field: MultivectorField, functions: Sequence[Polynomial], count: int) -> list[Gradient]:
    if len(functions) != count:
        raise ValueError(f"expected {count} arguments, got {len(functions)}")
    for f in functions:
        if f.num_vars != field.dim:
            raise ValueError("arguments must be polynomials in the coordinates")
    return [_gradient(f) for f in functions]


def nary_bracket(field: MultivectorField, functions: Sequence[Polynomial]) -> Polynomial:
    """The bracket of n polynomial functions induced by a grade-n field.

    Expands ``sum_u prod_i d_{u_i} f_i * P^{u_1..u_n}`` over one nonzero
    entry of each argument's sparse gradient, skipping repeated indices;
    equivalently the sum over blades of the component times the Jacobian
    minor.  Completely antisymmetric in the arguments and a derivation in
    each.
    """
    return _bracket(field, _gradients(field, functions, field.grade))


def differential_defect(field: MultivectorField) -> MultivectorField:
    """The grade-(2n-1) obstruction sum_u (i(dx^u) P) ^ (d_u P).

    Identically zero iff the differential half of the Poisson conditions
    holds; for even grade its vanishing is equivalent to the vanishing of
    the self-bracket of the field.  Above the top grade the defect is the
    canonical zero.
    """
    return contracted_derivative(field, field)


def _face_bracket(grad: Gradient, row: dict | None, dim: int) -> Polynomial:
    """``sum_w d_w g * C[R][(w,)]``, which is ``(-1)^(n-1) {g, x_R}``.

    ``grad`` is the sparse gradient of ``g`` and ``row`` is the row of an
    increasing tuple ``R`` in the (n-1)-face table ``C = field.faces(n-1)``
    (``None`` when ``R`` is no face of a blade, and then the bracket is
    zero).  The products whose index the row has are summed in one
    :meth:`~npk.polynomial.Polynomial.sum_of_products`.  The sign is proved
    in :func:`jacobi_identity_holds`.
    """
    products = [(1, d, coef) for w, d in grad.items() if (coef := row.get((w,))) is not None] if row else []
    return Polynomial.sum_of_products(dim, products)


def _coordinate_defects(field: MultivectorField, rows: dict) -> dict:
    """``{T: (-1)^(n-1) J(x_T)}`` for the coordinate families that receive a
    push, without zeros; see :func:`jacobi_identity_holds`."""
    m = field.dim
    out: dict = {}
    for s, p in field.terms.items():
        if p.is_constant():
            continue
        grad = _gradient(p)
        ends = {(w,) for w in grad}
        for r, row in rows.items():
            # a face that no index of the gradient completes reads zero
            if ends.isdisjoint(row):
                continue
            merged = merge_blades(s, r)
            if merged:
                val = _face_bracket(grad, row, m)
                _add_term(out, merged[1], val if merged[0] > 0 else -val)
    return out


def jacobi_identity_holds(field: MultivectorField) -> bool:
    """Decide the generalized Jacobi identity for all smooth arguments.

    The defect is a second-order multi-differential operator that is
    completely antisymmetric in its arguments, so it vanishes identically
    iff it vanishes on every increasing tuple of coordinates and on every
    family whose first argument is a product of two coordinates with the
    rest an increasing coordinate tuple.  Both families are checked as
    exact polynomial identities.

    No bracket here goes through the general kernel.  In
    ``{g, x_{r_1}, .., x_{r_{n-1}}} = sum prod_i d_{u_i} f_i P^{u_1..u_n}``
    the factor ``d_{u_{i+1}} x_{r_i}`` is 1 at ``u_{i+1} = r_i`` and 0
    elsewhere, so the sum collapses to ``{g, x_R} = sum_w d_w g P^{w R}``,
    one row of the (n-1)-face table ``C = field.faces(n-1)`` up to one sign
    per grade, ``P^{w R} = (-1)^(n-1) C[R][(w,)]``.  Proof: ``C[R][(w,)]``
    carries the sign ``(-1)^(sum(pos) - (n-1)(n-2)/2)``, where ``pos`` are
    the positions of ``R`` in the blade ``B = sort(w, R)``.  If ``w`` sits
    at position ``p`` of ``B``, then ``sum(pos) = n(n-1)/2 - p``, so that
    sign is ``(-1)^(n-1-p)``; moving ``w`` from the front to position ``p``
    gives ``P^{w R} = (-1)^p P^B``.  Write ``FB(g, R)`` for the read
    ``(-1)^(n-1) {g, x_R}`` (:func:`_face_bracket`), ``FB(S, R)`` when
    ``g = P^S``, ``E_A[w] = C[A][(w,)]`` for a face ``A`` (the ``w`` with
    an entry are the ends of ``A``), and ``sign(S, R)`` for the sign of
    merging two disjoint increasing tuples
    (:func:`~npk.exterior.merge_blades`).

    Write ``J(f_1, .., f_{2n-1})`` for the shuffle sum, one term
    ``sign(S, R) {{f_S}, f_R}`` per (n, n-1)-shuffle ``S | R`` of the
    argument positions; the full permutation sum is ``n!(n-1)! J``, so
    ``J`` is alternating in its arguments.  A shuffle whose inner bracket
    is constant adds nothing, and a term is nonzero only where both of its
    brackets read a face.  Nothing is enumerated per family: each nonzero
    term is pushed to the family it belongs to, and a family that receives
    nothing has zero defect.

    - The coordinate family ``x_T``: the shuffle ``S | R`` (``T`` the union
      of ``S`` and ``R``) adds ``sign(S, R) {P^S, x_R}``.  ``{x_S} = P^S``
      is nonconstant only for a live blade ``S``, and ``{P^S, x_R}`` is
      zero unless ``R`` is a face that an index of ``d P^S`` completes, so
      ``J(x_T)`` is ``(-1)^(n-1)`` times the sum of ``sign(S, R) FB(S, R)``
      over the disjoint live ``S`` and such faces ``R`` merging to ``T``
      (:func:`_coordinate_defects`).
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
      reads a face ``R`` with signs that cancel, so
      ``Q[u, v] = sum sign(A, R) (E_A[u] E_R[v] + E_A[v] E_R[u])`` over the
      disjoint ordered faces ``(A, R)`` merging to ``T'``.  By the sign
      above ``E_A[w] = (-1)^(n-1) (i(dx^w) P)^A``, the factors
      ``(-1)^(n-1)`` cancel in a product, and ``e_A ^ e_R = sign(A, R) e_T'``,
      so ``Q[u, v]`` is the coefficient on ``T'`` of
      ``(i(dx^u) P) ^ (i(dx^v) P) + (i(dx^v) P) ^ (i(dx^u) P)``.  At odd
      grade the contractions have even grade and commute, so ``Q[u, v]`` is
      twice the coefficient of ``(i(dx^u) P) ^ (i(dx^v) P)``, on and off the
      diagonal: twice the entry ``(u, v)`` of the unpolarized
      :func:`~npk.exterior.covector_pair_table` ``(P, P, False)``.  At even
      grade the contractions have odd grade and anticommute: ``Q = 0``.

    The identity holds iff ``J(x_T)`` vanishes for every ``T`` and, at odd
    grade, ``Q`` at every key (a key that receives nothing has ``Q = 0``).
    """
    m, n = field.dim, field.grade
    if n < 1:
        raise ValueError(f"the generalized Jacobi identity needs grade >= 1, got {n}")
    rows = field.faces(n - 1)
    if _coordinate_defects(field, rows):
        return False
    if n % 2 == 0:
        return True
    table = covector_pair_table(field.terms, field.terms, False)
    return first_failing_pair(table, partial(Polynomial.sum_of_products, m)) is None
