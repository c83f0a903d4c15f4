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
the kernel.  It visits only the shuffles whose inner bracket can be
nonconstant, read off the field's support (its nonconstant blades and
the (n-1)-faces of its blades), and memoises brackets within one call.
It never consults the differential defect or the classifier; it is
their check.
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
    and only read.  The Jacobi identity is stated for grade n >= 1; a
    lower grade is refused here on every call, before any argument is
    read.
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


def _tuples_containing(sets, size: int, dim: int, offset: int) -> dict:
    """Group the increasing ``size``-tuples of ``1..dim`` by the given sets they contain.

    Maps each tuple containing at least one of ``sets`` to the pairs
    ``(set, positions)``, the positions of the set within the tuple
    shifted by ``offset``.  Tuples that contain none are absent.
    """
    out: dict = {}
    for s in sets:
        if len(s) > size:
            continue
        rest = [a for a in range(1, dim + 1) if a not in s]
        for r in combinations(rest, size - len(s)):
            tup = tuple(sorted(s + r))
            out.setdefault(tup, []).append((s, tuple(tup.index(a) + offset for a in s)))
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
    gives ``P^{w R} = (-1)^p P^B``.  Every bracket of the generating
    families is such a read, for increasing ``S``, ``A``, ``R`` and ``R'``:

    - the coordinate inner bracket ``{x_S} = P^S``;
    - the quadratic inner bracket ``{x_u x_v, x_A} = x_v P^{u A} + x_u P^{v A}``;
    - the outer bracket ``{h, x_R}`` of a shuffle whose right arguments
      are coordinates, ``h`` a coordinate or quadratic inner bracket;
    - with the quad in the outer bracket, by Leibniz,
      ``{P^S, x_u x_v, x_R'} = x_v {P^S, x_u, x_R'} + x_u {P^S, x_v, x_R'}``,
      and ``{P^S, x_w, x_R'} = +-{P^S, x_R}`` for ``R = sort(w, R')``, the
      sign that of moving ``x_w`` past the smaller entries of ``R'``
      (zero if ``w`` is in ``R'``).

    Only the shuffles whose inner bracket can be nonconstant are visited.
    The bracket is a derivation in each argument, so an outer bracket with
    a constant argument vanishes and such a shuffle adds nothing.  Which
    inner brackets can be nonconstant is read off the field's support:

    - for an increasing coordinate tuple ``S``, ``{x_S} = P^S``, so a
      coordinate inner key, in either family, matters only when ``P^S``
      is nonconstant (a live blade);
    - by Leibniz, ``{x_u x_v, x_A} = x_v {x_u, x_A} + x_u {x_v, x_A}``
      and ``{x_w, x_A} = P^{w A}``, so the quadratic inner key
      ``((u, v), A)`` is zero unless ``A`` is an (n-1)-face of a blade
      containing ``u`` or ``v``; the faces are the keys of ``C``.

    ``C`` is read as it is.  A coordinate family's terms each carry one
    face read, so their sum only changes sign; a quadratic inner term
    ``{{x_u x_v, x_A}, x_R}`` carries two (``A``, then ``R``), which cancel;
    only the quad-in-outer terms need the parity ``n - 1`` in their sign.

    A family none of whose shuffles survives has zero defect and is never
    built.  The quadratic inner brackets and the outer brackets
    ``{P^S, x_R}`` (shared by the coordinate families and the
    quad-in-outer shuffles) are memoised for this one call.
    """
    m, n = field.dim, field.grade
    shuffles = _jacobi_shuffles(n)
    rows = field.faces(n - 1)
    zero = Polynomial.zero(m)
    live = [blade for blade, p in field.terms.items() if not p.is_constant()]
    hamiltonian = {s: _gradient(field.terms[s]) for s in live}
    outer: dict = {}

    def coordinate_outer(s, r):
        # {P^S, x_R}: the outer bracket of the shuffle S | R, shared by the
        # coordinate families and the quad-in-outer shuffles
        val = outer.get((s, r))
        if val is None:
            val = outer[s, r] = _face_bracket(hamiltonian[s], rows.get(r), m)
        return val

    for tup, found in _tuples_containing(live, 2 * n - 1, m, 0).items():
        acc = zero
        for s, pos in found:
            sign, _, right = shuffles[pos]
            val = coordinate_outer(s, tuple(tup[j] for j in right))
            acc = acc + val if sign > 0 else acc - val
        if acc:
            return False
    # quadratic families, the quad as argument 0: its shuffles into the
    # inner bracket need a face A that u or v completes to a blade, the
    # others a live S
    coords = [Polynomial.variable(u, m) for u in range(1, m + 1)]
    quad_left = _tuples_containing(rows, 2 * n - 2, m, 1)
    quad_right = _tuples_containing(live, 2 * n - 2, m, 1)
    inner: dict = {}
    for tup in list(quad_right) + [tup for tup in quad_left if tup not in quad_right]:
        # {{x_u x_v, x_A}, x_R}: the face A, the shuffle sign and the face
        # row of R; a shuffle whose R is no face adds nothing
        lefts = []
        for face, pos in quad_left.get(tup, ()):
            sign, _, right = shuffles[(0,) + pos]
            row = rows.get(tuple(tup[j - 1] for j in right))
            if row:
                lefts.append((face, sign, row))
        # {P^S, x_u x_v, x_R'} = x_v {P^S, x_u, x_R'} + x_u {P^S, x_v, x_R'},
        # so these shuffles add x_v lead[u] + x_u lead[v], where lead[w] is
        # their signed sum of {P^S, x_w, x_R'}
        lead = [zero] * (m + 1)
        for s, pos in quad_right.get(tup, ()):
            sign, _, right = shuffles[pos]
            rest = tuple(tup[j - 1] for j in right[1:])
            for w in range(1, m + 1):
                if w not in rest:
                    val = coordinate_outer(s, tuple(sorted(rest + (w,))))
                    # moving x_w past each smaller entry of R' flips the sign,
                    # and so does the face read's (-1)^(n-1)
                    flip = sign if (sum(a < w for a in rest) + n - 1) % 2 == 0 else -sign
                    lead[w] = lead[w] + val if flip > 0 else lead[w] - val
        for u in range(1, m + 1):
            for v in range(u, m + 1):
                acc = zero
                for face, sign, row in lefts:
                    ends = rows[face]
                    if (u,) not in ends and (v,) not in ends:
                        continue
                    quad = inner.get((u, v, face))
                    if quad is None:
                        both = {u: 2 * coords[u - 1]} if u == v else {u: coords[v - 1], v: coords[u - 1]}
                        quad = inner[u, v, face] = _gradient(_face_bracket(both, ends, m))
                    val = _face_bracket(quad, row, m)
                    acc = acc + val if sign > 0 else acc - val
                if lead[u]:
                    acc = acc + coords[v - 1] * lead[u]
                if lead[v]:
                    acc = acc + coords[u - 1] * lead[v]
                if acc:
                    return False
    return True
