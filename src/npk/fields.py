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
:func:`nary_bracket` and :func:`npk.oracles.jacobi_defect` use it.  The
Jacobi oracle needs only brackets ``{g, x_R}`` whose arguments after the
first are coordinates (the one with a quadratic argument there splits
into two by Leibniz), and ``{g, x_R} = sum_w d_w g * P^{w R}`` is one
row of the field's (n-1)-face table ``faces(n-1)``, up to one sign per
grade; so the oracle reads its brackets off that table and never calls
the kernel.  It enumerates no argument tuples: each nonzero bracket of a
nonconstant blade with a face, and each pair of disjoint faces, is pushed
to the generating families it belongs to, so its cost follows the
field's support (its nonconstant blades and the (n-1)-faces of its
blades), not the number of families.  It never consults the differential
defect or the classifier; it is their check.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations
from typing import Sequence

from .exterior import (
    Blade,
    GradedTerms,
    Multivector,
    _add_term,
    contract_terms,
    merge_blades,
    shuffle_sign,
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


@cache
def _jacobi_shuffles(n: int) -> dict:
    """The (n, n-1)-shuffles of 2n-1 argument positions, keyed by left positions.

    Each value is ``(sign, left, right)``; the table is built once per n
    and only read, by :func:`npk.oracles.jacobi_defect`.
    :func:`jacobi_identity_holds` calls it only as its grade guard: the
    Jacobi identity is stated for grade n >= 1, and a lower grade is
    refused here on every call, before any argument is read.
    """
    if n < 1:
        raise ValueError(f"the generalized Jacobi identity needs grade >= 1, got {n}")
    indices = tuple(range(2 * n - 1))
    out = {}
    for left in combinations(indices, n):
        right = tuple(i for i in indices if i not in left)
        out[left] = (shuffle_sign(left, right), left, right)
    return out


def _face_bracket(grad: Gradient, row: dict | None, dim: int) -> Polynomial:
    """``sum_w d_w g * C[R][(w,)]``, which is ``(-1)^(n-1) {g, x_R}``.

    ``grad`` is the sparse gradient of ``g`` and ``row`` is the row of an
    increasing tuple ``R`` in the (n-1)-face table ``C = field.faces(n-1)``
    (``None`` when ``R`` is no face of a blade, and then the bracket is
    zero).  The sign is proved in :func:`jacobi_identity_holds`.
    """
    acc = Polynomial.zero(dim)
    if row:
        for w, d in grad.items():
            coef = row.get((w,))
            if coef is not None:
                acc = acc + d * coef
    return acc


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
    gives ``P^{w R} = (-1)^p P^B``.  Write ``FB(S, R)`` for the read
    ``(-1)^(n-1) {P^S, x_R}`` (:func:`_face_bracket`), and ``sign(S, R)``
    for the sign of merging two disjoint increasing tuples
    (:func:`~npk.exterior.merge_blades`).

    Nothing is enumerated per family: each nonzero bracket is pushed to the
    families it belongs to, and a family that receives nothing has zero
    defect.  The bracket is a derivation in each argument, so a shuffle
    whose inner bracket is constant adds nothing, and a term is nonzero
    only where both of its brackets read a face:

    - the coordinate family ``x_T``: the shuffle ``S | R`` (``T`` the union
      of ``S`` and ``R``) adds ``sign(S, R) {P^S, x_R}``.  ``{x_S} = P^S``
      is nonconstant only for a live blade ``S``, and ``{P^S, x_R}`` is
      zero unless ``R`` is a face, so the family's defect is
      ``(-1)^(n-1)`` times the sum of ``sign(S, R) FB(S, R)`` over the
      disjoint live ``S`` and faces ``R`` merging to ``T``;
    - the quadratic family ``x_u x_v, x_T'`` with the quad in the inner
      bracket: the shuffle ``(x_u x_v, x_A) | R`` adds
      ``sign(A, R) {{x_u x_v, x_A}, x_R}`` (the quad, first, adds no
      inversion).  By Leibniz ``{x_u x_v, x_A} = x_v P^{u A} + x_u P^{v A}``,
      zero unless ``A`` is a face that ``u`` or ``v`` completes to a blade,
      and the outer bracket is zero unless ``R`` is a face; so only
      disjoint ordered pairs of faces ``(A, R)`` appear.  The term carries
      two face reads, whose signs cancel;
    - the quadratic family with the quad in the outer bracket: the shuffle
      ``S | (x_u x_v, x_R')`` adds ``(-1)^n sign(S, R') {P^S, x_u x_v, x_R'}``,
      the quad preceding the n left arguments.  By Leibniz that bracket is
      ``x_v {P^S, x_u, x_R'} + x_u {P^S, x_v, x_R'}``, and for
      ``R = sort(w, R')`` with ``w`` at position ``j``, moving ``x_w`` past
      the ``j`` smaller entries gives ``{P^S, x_w, x_R'} = (-1)^j {P^S, x_R}``.
      So every face ``R`` with ``FB(S, R)`` nonzero and every position
      ``j`` whose rest ``R'`` misses ``S`` add ``-sign(S, R') (-1)^j FB(S, R)``
      to ``lead[w]`` of the family ``merge(S, R')``, whose defect is then
      ``x_v lead[u] + x_u lead[v]`` plus its inner terms.  Here ``R`` may
      meet ``S``, in ``w`` only.

    The quadratic inner brackets are memoised for this one call.
    """
    m, n = field.dim, field.grade
    _jacobi_shuffles(n)  # the grade guard
    rows = field.faces(n - 1)
    zero = Polynomial.zero(m)
    outer: dict = {}
    for s, p in field.terms.items():
        if not p.is_constant():
            grad = _gradient(p)
            for r, row in rows.items():
                val = _face_bracket(grad, row, m)
                if val:
                    outer[s, r] = val
    coordinate: dict = {}
    lead: dict = {}
    # FB(S, R) goes to the coordinate family merge(S, R) and, as lead[w],
    # to the quadratic family merge(S, R - w) of each w in R
    for (s, r), val in outer.items():
        merged = merge_blades(s, r)
        if merged:
            _add_term(coordinate, merged[1], val if merged[0] > 0 else -val)
        for j, w in enumerate(r):
            merged = merge_blades(s, r[:j] + r[j + 1:])
            if merged:
                sign, rest = merged
                _add_term(lead.setdefault(rest, {}), w, -val if sign * (-1) ** j > 0 else val)
    if coordinate:
        return False
    # {{x_u x_v, x_A}, x_R}: the face A, the shuffle sign and the face row of R
    lefts: dict = {}
    for a, ends in rows.items():
        for r, row in rows.items():
            merged = merge_blades(a, r)
            if merged:
                lefts.setdefault(merged[1], []).append((merged[0], a, ends, row))
    coords = [Polynomial.variable(u, m) for u in range(1, m + 1)]
    inner: dict = {}
    for tup in {**lead, **lefts}:
        pushed = lead.get(tup, {})
        for u in range(1, m + 1):
            for v in range(u, m + 1):
                acc = zero
                for sign, a, ends, row in lefts.get(tup, ()):
                    if (u,) not in ends and (v,) not in ends:
                        continue
                    quad = inner.get((u, v, a))
                    if quad is None:
                        both = {u: 2 * coords[u - 1]} if u == v else {u: coords[v - 1], v: coords[u - 1]}
                        quad = inner[u, v, a] = _gradient(_face_bracket(both, ends, m))
                    val = _face_bracket(quad, row, m)
                    acc = acc + val if sign > 0 else acc - val
                if u in pushed:
                    acc = acc + coords[v - 1] * pushed[u]
                if v in pushed:
                    acc = acc + coords[u - 1] * pushed[v]
                if acc:
                    return False
    return True
