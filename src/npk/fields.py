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

def _det(mat: list[list[Polynomial]], rows: tuple[int, ...], cols: tuple[int, ...], nvars: int) -> Polynomial:
    """Determinant by cofactor expansion along the sparsest remaining row."""
    if len(rows) == 1:
        return mat[rows[0]][cols[0]]
    best_ri = -1
    best_nz = None
    for ri, r in enumerate(rows):
        nz = sum(1 for c in cols if mat[r][c])
        if nz == 0:
            return Polynomial.zero(nvars)
        if best_nz is None or nz < best_nz:
            best_nz, best_ri = nz, ri
            if nz == 1:
                break
    r = rows[best_ri]
    rest = rows[:best_ri] + rows[best_ri + 1:]
    acc = Polynomial.zero(nvars)
    for ci, c in enumerate(cols):
        entry = mat[r][c]
        if not entry:
            continue
        minor = _det(mat, rest, cols[:ci] + cols[ci + 1:], nvars)
        if not minor:
            continue
        piece = entry * minor
        acc = acc + piece if (best_ri + ci) % 2 == 0 else acc - piece
    return acc


def _bracket_from_gradients(field: MultivectorField, grads: list[list[Polynomial]]) -> Polynomial:
    m, n = field.dim, field.grade
    acc = Polynomial.zero(m)
    mat = grads
    for blade, coef in field.terms.items():
        cols = tuple(a - 1 for a in blade)
        d = _det(mat, tuple(range(n)), cols, m)
        if d:
            acc = acc + coef * d
    return acc


def nary_bracket(field: MultivectorField, functions: Sequence[Polynomial]) -> Polynomial:
    """The bracket of n polynomial functions induced by a grade-n field.

    Equals the sum over increasing n-tuples of coordinate indices of the
    corresponding component times the Jacobian minor of the arguments;
    completely antisymmetric in the arguments and a derivation in each.
    """
    n = field.grade
    if len(functions) != n:
        raise ValueError(f"expected {n} arguments, got {len(functions)}")
    m = field.dim
    for f in functions:
        if f.num_vars != m:
            raise ValueError("arguments must be polynomials in the coordinates")
    grads = [[f.derivative(u) for u in range(1, m + 1)] for f in functions]
    return _bracket_from_gradients(field, grads)


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
        inv = sum(1 for a in left for b in right if a > b)
        yield (1 if inv % 2 == 0 else -1), left, right


def jacobi_defect(field: MultivectorField, functions: Sequence[Polynomial]) -> Polynomial:
    """Signed sum of nested brackets over all permutations of 2n-1 arguments.

    Both bracket slots are antisymmetric, so the full permutation sum
    factors exactly through (n, n-1)-shuffles with multiplicity n!(n-1)!;
    the returned polynomial is the complete permutation sum including that
    factor.
    """
    n = field.grade
    total = 2 * n - 1
    if len(functions) != total:
        raise ValueError(f"expected {total} arguments, got {len(functions)}")
    m = field.dim
    for f in functions:
        if f.num_vars != m:
            raise ValueError("arguments must be polynomials in the coordinates")
    grads = [[f.derivative(u) for u in range(1, m + 1)] for f in functions]
    acc = Polynomial.zero(m)
    for sign, left, right in _position_shuffles(total, n):
        inner = _bracket_from_gradients(field, [grads[i] for i in left])
        if not inner:
            continue
        outer_grads = [[inner.derivative(u) for u in range(1, m + 1)]]
        outer_grads.extend(grads[j] for j in right)
        outer = _bracket_from_gradients(field, outer_grads)
        if not outer:
            continue
        acc = acc + outer if sign > 0 else acc - outer
    return acc * (factorial(n) * factorial(n - 1))


def jacobi_identity_holds(field: MultivectorField) -> bool:
    """Decide the generalized Jacobi identity for all smooth arguments.

    The defect is a second-order multi-differential operator that is
    completely antisymmetric in its arguments, so it vanishes identically
    iff it vanishes on every increasing tuple of coordinates and on every
    family whose first argument is a product of two coordinates with the
    rest an increasing coordinate tuple.  Both families are checked as
    exact polynomial identities.
    """
    m, n = field.dim, field.grade
    coords = [Polynomial.variable(u, m) for u in range(1, m + 1)]
    for tup in combinations(range(1, m + 1), 2 * n - 1):
        if jacobi_defect(field, [coords[a - 1] for a in tup]):
            return False
    for u in range(1, m + 1):
        for v in range(u, m + 1):
            quad = coords[u - 1] * coords[v - 1]
            for tup in combinations(range(1, m + 1), 2 * n - 2):
                if jacobi_defect(field, [quad] + [coords[a - 1] for a in tup]):
                    return False
    return True
