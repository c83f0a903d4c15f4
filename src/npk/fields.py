"""Multivector fields with polynomial components on coordinate space.

A grade-n field on m coordinates is the :class:`~npk.exterior.GradedTerms`
container with coefficients in the polynomials in ``x1..xm``: its
``terms`` map n-blades to polynomials, and storage, canonicalisation,
``component``, ``wedge`` and ``+ - * ==`` are the shared ones.  This
subclass fixes the coefficient ring (so ``*`` also takes a polynomial
factor) and adds evaluation at a rational point (an exact
:class:`~npk.exterior.Multivector`), partial derivatives and contractions
with covector fields.  The module
also provides the n-ary bracket a grade-n field induces on polynomial
functions, the differential defect whose vanishing is the differential
half of the Poisson conditions, and the generalized Jacobi identity
decided exactly on a finite generating family of arguments.

Every bracket runs through one kernel over sparse gradients ``{u: d_u f}``:
the expansion ``sum prod_i d_{u_i} f_i * P^{u_1..u_n}`` over one nonzero
entry per argument, skipping repeated indices.  The Jacobi oracle never
consults the differential defect or the classifier; it is their check.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import factorial
from typing import Sequence

from .exterior import (
    Blade,
    GradedTerms,
    Multivector,
    _add_term,
    contract_basis_terms,
    contract_blade_terms,
    contract_terms,
    shuffle_sign,
    sort_to_blade,
    wedge_terms,
)
from .polynomial import Polynomial

_SCALARS = (int, Fraction)


class MultivectorField(GradedTerms):
    """Sparse grade-n multivector field with polynomial components."""

    __slots__ = ()
    _factors = _SCALARS + (Polynomial,)
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
        """Exact substitution of a rational point."""
        if len(point) != self.dim:
            raise ValueError(f"point must have {self.dim} coordinates")
        terms = {blade: poly.evaluate(point) for blade, poly in self.terms.items()}
        return Multivector(self.dim, self.grade, terms)

    def partial(self, u: int) -> "MultivectorField":
        """Componentwise partial derivative along coordinate ``u``."""
        if not 1 <= u <= self.dim:
            raise ValueError(f"coordinate index {u} out of range 1..{self.dim}")
        return MultivectorField(self.dim, self.grade, {b: p.derivative(u) for b, p in self.terms.items()})

    # -- interior products ---------------------------------------------------

    def contract_basis(self, u: int) -> "MultivectorField":
        """Interior product with the coordinate covector field dx^u."""
        if self.grade == 0:
            raise ValueError("cannot contract a scalar")
        if not 1 <= u <= self.dim:
            raise ValueError(f"coordinate index {u} out of range 1..{self.dim}")
        return MultivectorField(self.dim, self.grade - 1, contract_basis_terms(self.terms, u))

    def contract_blade(self, blade: Blade) -> "MultivectorField":
        """Iterated basis contraction; the first index acts first."""
        blade = tuple(blade)
        if len(blade) > self.grade:
            raise ValueError("contraction exceeds grade")
        return MultivectorField(self.dim, self.grade - len(blade), contract_blade_terms(self.terms, blade))

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


def lie_bracket(x: MultivectorField, y: MultivectorField) -> MultivectorField:
    """Lie bracket of two polynomial vector fields."""
    if x.grade != 1 or y.grade != 1:
        raise ValueError("lie_bracket needs grade-1 fields")
    if x.dim != y.dim:
        raise ValueError("incompatible spaces")
    m = x.dim
    out: dict[Blade, Polynomial] = {}
    for (u,), xu in x.terms.items():
        for (j,), yj in y.terms.items():
            d = yj.derivative(u)
            if d:
                _add_term(out, (j,), xu * d)
    for (u,), yu in y.terms.items():
        for (j,), xj in x.terms.items():
            d = xj.derivative(u)
            if d:
                _add_term(out, (j,), -(yu * d))
    return MultivectorField(m, 1, out)


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
    m, n = field.dim, field.grade
    target = 2 * n - 1
    if target > m:
        return MultivectorField(m, target)
    out: dict[Blade, Polynomial] = {}
    for u in range(1, m + 1):
        du = field.partial(u)
        if du.is_zero():
            continue
        cu = contract_basis_terms(field.terms, u)
        if not cu:
            continue
        for key, val in wedge_terms(cu, du.terms).items():
            _add_term(out, key, val)
    return MultivectorField(m, target, out)


def _position_shuffles(total: int, first: int):
    indices = tuple(range(total))
    for left in combinations(indices, first):
        right = tuple(i for i in indices if i not in left)
        yield shuffle_sign(left, right), left, right


def _shuffle_sum(field: MultivectorField, keys, grads, shuffles, memo: dict) -> Polynomial:
    """Signed sum of nested brackets of keyed arguments over ``shuffles``.

    Argument i has key ``keys[i]`` and sparse gradient ``grads[i]``.  The
    inner bracket of a shuffle depends only on the ordered keys of its
    left arguments, so ``memo`` maps that key tuple to the inner bracket's
    gradient.
    """
    acc = Polynomial.zero(field.dim)
    for sign, left, right in shuffles:
        key = tuple(map(keys.__getitem__, left))
        inner = memo.get(key)
        if inner is None:
            inner = memo[key] = _gradient(_bracket(field, [grads[i] for i in left]))
        if inner:
            outer = _bracket(field, [inner] + [grads[j] for j in right])
            acc = acc + outer if sign > 0 else acc - outer
    return acc


def jacobi_defect(field: MultivectorField, functions: Sequence[Polynomial]) -> Polynomial:
    """Signed sum of nested brackets over all permutations of 2n-1 arguments.

    Both bracket slots are antisymmetric, so the full permutation sum
    factors exactly through (n, n-1)-shuffles with multiplicity n!(n-1)!;
    the returned polynomial is the complete permutation sum including that
    factor.
    """
    n = field.grade
    total = 2 * n - 1
    grads = _gradients(field, functions, total)
    acc = _shuffle_sum(field, tuple(range(total)), grads, list(_position_shuffles(total, n)), {})
    return acc * (factorial(n) * factorial(n - 1))


def jacobi_identity_holds(field: MultivectorField) -> bool:
    """Decide the generalized Jacobi identity for all smooth arguments.

    The defect is a second-order multi-differential operator that is
    completely antisymmetric in its arguments, so it vanishes identically
    iff it vanishes on every increasing tuple of coordinates and on every
    family whose first argument is a product of two coordinates with the
    rest an increasing coordinate tuple.  Both families are checked as
    exact polynomial identities, with the brackets expanded over sparse
    gradients.  Each inner bracket is computed once per ordered tuple of
    argument keys and reused across shuffles and families; that memo lives
    for this one call.
    """
    m, n = field.dim, field.grade
    coords = [Polynomial.variable(u, m) for u in range(1, m + 1)]
    unit = {u: _gradient(x) for u, x in enumerate(coords, 1)}
    shuffles = list(_position_shuffles(2 * n - 1, n))
    memo: dict = {}
    for tup in combinations(range(1, m + 1), 2 * n - 1):
        if _shuffle_sum(field, tup, [unit[a] for a in tup], shuffles, memo):
            return False
    for u in range(1, m + 1):
        for v in range(u, m + 1):
            quad = _gradient(coords[u - 1] * coords[v - 1])
            for tup in combinations(range(1, m + 1), 2 * n - 2):
                grads = [quad] + [unit[a] for a in tup]
                if _shuffle_sum(field, ((u, v),) + tup, grads, shuffles, memo):
                    return False
    return True
