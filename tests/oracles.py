"""Independent brute-force oracles, kept separate from the library paths.

Everything here recomputes quantities from first principles (full
permutation and shuffle sums of nested brackets, one-covector-at-a-time
contraction, Leibniz determinants, dense Fraction Gauss-Jordan
elimination and span membership, subspace meets through annihilators)
so the tests have a second route to every value; the sampled
involutivity check is a second route that can only refute.
:func:`irreducibility_by_sampled_covectors` is the package's earlier
irreducibility search, basis covectors then seeded draws, kept as the
reference for the seed-free one.
:class:`TuplePolynomial` is the plain exponent-tuple/Fraction polynomial,
the reference for the packed-exponent :class:`npk.polynomial.Polynomial`.
:func:`covector_pair_table` is not a second route: it is the package's own
pair table in full, which the package sums only up to its first witness.
"""

import json
import random
import re
from fractions import Fraction
from functools import cache
from itertools import chain, combinations, permutations, product
from math import factorial, lcm, prod
from typing import Iterator, Mapping, Sequence

import npk.exterior
import npk.fields
from npk.compat import gradient_contraction
from npk.exterior import Covector, Multivector, _add_term, contract_terms, iter_blades, merge_blades, wedge_terms
from npk.fields import MultivectorField, nary_bracket
from npk.grassmann import IrreducibilityKind, IrreducibilityVerdict, _image
from npk.linalg import Subspace, _integral
from npk.poisson import default_sample_points
from npk.polynomial import Polynomial, _pack, _width
from npk.specio import SpecError, TensorSpec


def perm_sign(perm) -> int:
    inv = sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )
    return 1 if inv % 2 == 0 else -1


def reference_face_table(terms: Mapping, k: int) -> dict:
    """Map each k-blade ``s`` to ``i(dx^s) terms`` for any k, first index acting first.

    The reference for the one-index :func:`npk.exterior.blade_contractions`.
    Zero contractions are absent, so a blade shorter than k adds nothing.
    Built from the k-faces of the blades present, so the cost is
    ``len(terms) * C(grade, k)`` rather than ``C(dim, k)`` contractions.
    Contracting the face at positions ``j1 < ... < jk`` of a blade, first
    index first, has sign ``(-1)^(sum(j) - k(k-1)/2)``.  A face and its
    complement determine the blade, so no two terms meet and nothing
    cancels.  Complementing reverses lexicographic order, so the faces in
    order pair with the complements in reverse order.
    """
    out: dict = {}
    shift = k * (k - 1) // 2
    for blade, coef in terms.items():
        if len(blade) < k:
            continue
        rests = list(combinations(blade, len(blade) - k))
        faces = zip(combinations(range(len(blade)), k), combinations(blade, k), reversed(rests))
        for pos, face, rest in faces:
            out.setdefault(face, {})[rest] = -coef if (sum(pos) - shift) % 2 else coef
    return out


def iterated_contraction(p: Multivector, covectors) -> Multivector:
    """Grade-1 contractions applied one at a time, first covector first."""
    acc = p
    for alpha in covectors:
        acc = acc.contract(alpha)
    return acc


def fraction_rref(rows, width):
    """Dense Gauss-Jordan elimination over Fraction rows of length ``width``.

    Returns the nonzero reduced rows and the pivot columns: the reference
    for the fraction-free sparse :meth:`npk.linalg.Subspace.from_vectors`,
    whose basis is those rows and whose leading columns are those pivots.
    """
    mat = [[x if isinstance(x, Fraction) else Fraction(x) for x in row] for row in rows]
    for row in mat:
        if len(row) != width:
            raise ValueError("matrix rows must have equal length")
    pivots: list[int] = []
    r = 0
    for c in range(width):
        pr = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = Fraction(1) / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def intersection_by_annihilators(u: Subspace, v: Subspace) -> Subspace:
    """Canonical basis of the intersection of two subspaces: ``(u° + v°)°``.

    The reference for the meet that
    :func:`npk.grassmann.contraction_subspace_report` reads off an echelon
    basis: two annihilators, one join and one more annihilator.
    """
    if u.ambient_dim != v.ambient_dim:
        raise ValueError("subspaces live in different ambient spaces")
    covectors = u.annihilator().basis + v.annihilator().basis
    return Subspace.from_vectors(covectors, u.ambient_dim).annihilator()


def in_span(space: Subspace, vector) -> bool:
    """Whether ``vector`` lies in ``space``: adding it to the basis leaves the rank at ``dim``.

    The span-membership reference, by dense Gauss-Jordan elimination
    (:func:`fraction_rref`); the package decides an inclusion by comparing
    canonical bases, ``Subspace.from_vectors(u.basis + v.basis, m) == u``.
    """
    return len(fraction_rref([*space.basis, vector], space.ambient_dim)[0]) == space.dim


def annihilator_by_contraction(p: Multivector) -> Subspace:
    """Kernel of ``alpha -> i(alpha) p``, one matrix row per (n-1)-blade.

    Column ``u`` holds the coefficients of ``i(dx^u) p`` over all C(m, n-1)
    blades; the kernel is read off that matrix's own reduced echelon form,
    and put in canonical form, by :func:`fraction_rref`.
    """
    m = p.dim
    columns = [contract_terms({u: 1}, p.terms) for u in range(1, m + 1)]
    rows = [[col.get(b, Fraction(0)) for col in columns] for b in iter_blades(m, p.grade - 1)]
    reduced, pivots = fraction_rref(rows, m)
    kernel = []
    for free in range(m):
        if free in pivots:
            continue
        v = [Fraction(0)] * m
        v[free] = Fraction(1)
        for row, pivot in zip(reduced, pivots):
            v[pivot] = -row[free]
        kernel.append(v)
    basis, _ = fraction_rref(kernel, m)
    return Subspace(m, tuple(tuple(row) for row in basis))


def contractions_decomposable_full(p: Multivector, k: int) -> bool:
    """Every k-fold contraction decomposable, in all ``k*m`` covector components.

    The reference for the gauge-fixed :func:`npk.grassmann.contractions_decomposable`:
    each of the k covectors gets m polynomial indeterminates, one per basis
    index whether or not the support uses it, and every contraction-wedge
    defect of the symbolic contraction is built with ``wedge_terms`` and
    tested for identical vanishing.  Its faces come from
    :func:`reference_face_table`, so it shares no face kernel with the
    package.
    """
    m, n = p.dim, p.grade
    if p.is_zero():
        return True
    nvars = k * m
    terms: dict = {blade: Polynomial.constant(c, nvars) for blade, c in p.terms.items()}
    for i in range(k):
        alpha = {u: Polynomial.variable(i * m + u, nvars) for u in range(1, m + 1)}
        terms = contract_terms(alpha, terms)
    return not any(wedge_terms(face, terms) for face in reference_face_table(terms, n - k - 1).values())


def covector_pair_table(left: Mapping, right: Mapping, polarize: bool) -> dict:
    """``{(a, b): {blade: [(sign, x, y), ...]}}`` over basis pairs ``a <= b``, whole.

    The table :func:`npk.exterior.first_failing_pair` sums only up to its
    witness: every pair of the package's one enumeration, merged by
    :func:`merge_blades` as that function merges it.  A list's products
    ``sign * x * y`` sum to the coefficient on ``blade`` of
    ``(i(dx^a) L) ^ (i(dx^b) R)``, plus ``(i(dx^b) L) ^ (i(dx^a) R)`` when
    ``polarize`` and ``a < b``.
    """
    groups = npk.exterior._pair_groups(left, right, polarize)
    return {pair: npk.exterior._pair_blades(group) for pair, group in groups.items()}


def pair_wedges_by_contraction(left: MultivectorField, right: MultivectorField, polarize: bool) -> dict:
    """``{(a, b): wedge}`` for the basis pairs ``a <= b`` whose wedge is nonzero.

    The wedge is ``(i(dx^a) L) ^ (i(dx^b) R)``, plus ``(i(dx^b) L) ^ (i(dx^a) R)``
    with ``polarize`` (twice the first at ``a = b``).  Each contraction is
    its own :func:`~npk.compat.gradient_contraction` call with the
    coordinate ``x_a``, as ``i(dx^a) = i(d x_a)``.  The reference for
    :func:`covector_pair_table`: the first key is the witness of
    :func:`npk.poisson.algebraic_condition` (``P`` with itself, not
    polarized) and of :func:`npk.compat.is_compatible` (polarized).
    """
    m = left.dim

    def contractions(f: MultivectorField) -> dict:
        return {a: gradient_contraction(f, Polynomial.variable(a, m)) for a in range(1, m + 1)}

    lc, rc = contractions(left), contractions(right)
    out = {}
    for a in range(1, m + 1):
        for b in range(a, m + 1):
            wedge = lc[a].wedge(rc[b])
            if polarize:
                wedge = wedge + lc[b].wedge(rc[a])
            if wedge:
                out[(a, b)] = wedge
    return out


def naive_det(rows):
    """Leibniz-formula determinant over any commutative coefficients."""
    n = len(rows)
    acc = None
    for perm in permutations(range(n)):
        prod = rows[0][perm[0]]
        for i in range(1, n):
            prod = prod * rows[i][perm[i]]
        signed = prod if perm_sign(perm) > 0 else -prod
        acc = signed if acc is None else acc + signed
    return acc


def bracket_by_minors(field: MultivectorField, functions) -> Polynomial:
    """Bracket as the sum over blades of component times Jacobian minor.

    Gradients are dense rows over all m coordinates and every minor is a
    Leibniz determinant.
    """
    m = field.dim
    grads = [[f.derivative(u) for u in range(1, m + 1)] for f in functions]
    acc = Polynomial.zero(m)
    for blade in iter_blades(m, field.grade):
        coef = field.component(blade)
        if coef:
            minor = naive_det([[row[a - 1] for a in blade] for row in grads])
            acc = acc + coef * minor
    return acc


def alternation_defect_components(a: MultivectorField, b: MultivectorField) -> dict:
    """Fully alternated first-derivative pairing of two fields, by brute force.

    For grades p >= 1 and q and each increasing (p+q-1)-tuple of coordinate
    indices, sums over all permutations of the tuple with sign:
    ``sum_u A^{u I_1} * d_u B^{I_2}``, with ``I_1`` the first p-1 entries
    and ``I_2`` the last q.  That is ``(p-1)! q!`` times
    ``sum_u (i(dx^u) A) ^ (d_u B)``; ``(f, f)`` gives the differential
    defect.
    """
    m, p, q = a.dim, a.grade, b.grade
    total = p + q - 1
    partials = [b.partial(u) for u in range(1, m + 1)]
    out = {}
    for tup in combinations(range(1, m + 1), total):
        acc = Polynomial.zero(m)
        for perm in permutations(range(total)):
            arranged = [tup[i] for i in perm]
            first_block = tuple(arranged[: p - 1])
            second_block = tuple(arranged[p - 1:])
            inner = Polynomial.zero(m)
            for u in range(1, m + 1):
                c1 = a.component((u,) + first_block)
                if not c1:
                    continue
                c2 = partials[u - 1].component(second_block)
                if not c2:
                    continue
                inner = inner + c1 * c2
            if inner:
                acc = acc + inner if perm_sign(perm) > 0 else acc - inner
        if acc:
            out[tup] = acc
    return out


@cache
def jacobi_shuffles(n: int) -> dict:
    """The (n, n-1)-shuffles of 2n-1 argument positions, keyed by left positions.

    Each value is ``(sign, left, right)``; the table is built once per n
    and only read, by :func:`jacobi_defect`.  Grade ``n < 1`` is refused.
    """
    if n < 1:
        raise ValueError(f"the generalized Jacobi identity needs grade >= 1, got {n}")
    indices = tuple(range(2 * n - 1))
    out = {}
    for left in combinations(indices, n):
        right = tuple(i for i in indices if i not in left)
        out[left] = (merge_blades(left, right)[0], left, right)
    return out


def jacobi_defect(field: MultivectorField, functions: Sequence[Polynomial]) -> Polynomial:
    """Signed sum of nested brackets over all permutations of 2n-1 arguments.

    Both bracket slots are antisymmetric, so the full permutation sum
    factors exactly through (n, n-1)-shuffles with multiplicity n!(n-1)!;
    the returned polynomial is the complete permutation sum including that
    factor.  Every bracket runs through the general kernel
    ``npk.fields._bracket``, looked up on the module at each call.
    """
    n = field.grade
    shuffles = jacobi_shuffles(n)
    grads = npk.fields._gradients(field, functions, 2 * n - 1)
    acc = Polynomial.zero(field.dim)
    for sign, left, right in shuffles.values():
        inner = npk.fields._gradient(npk.fields._bracket(field, [grads[i] for i in left]))
        if inner:
            outer = npk.fields._bracket(field, [inner] + [grads[j] for j in right])
            acc = acc + outer if sign > 0 else acc - outer
    return acc * (factorial(n) * factorial(n - 1))


def jacobi_defect_bruteforce(field: MultivectorField, functions) -> Polynomial:
    """Full signed permutation sum of nested brackets, no shuffle collapse."""
    n = field.grade
    total = 2 * n - 1
    assert len(functions) == total
    acc = Polynomial.zero(field.dim)
    for perm in permutations(range(total)):
        inner = nary_bracket(field, [functions[i] for i in perm[:n]])
        outer = nary_bracket(field, [inner] + [functions[j] for j in perm[n:]])
        if outer:
            acc = acc + outer if perm_sign(perm) > 0 else acc - outer
    return acc


def jacobi_identity_by_defect_loop(field: MultivectorField) -> bool:
    """Generalized Jacobi identity through :func:`jacobi_defect`.

    Checks every generating family (each increasing (2n-1)-tuple of
    coordinates, and each product of two coordinates followed by an
    increasing (2n-2)-tuple) with its own full shuffle sum: no memo shared
    between families and no filter on the field's support.
    """
    m, n = field.dim, field.grade
    xs = [Polynomial.variable(u, m) for u in range(1, m + 1)]
    families = [[xs[a - 1] for a in tup] for tup in combinations(range(1, m + 1), 2 * n - 1)]
    families += [
        [xs[u - 1] * xs[v - 1]] + [xs[a - 1] for a in tup]
        for u in range(1, m + 1)
        for v in range(u, m + 1)
        for tup in combinations(range(1, m + 1), 2 * n - 2)
    ]
    return not any(jacobi_defect(field, family) for family in families)


def lie_derivative_by_coordinates(x: MultivectorField, q: MultivectorField) -> MultivectorField:
    """``L_X Q`` by the coordinate formula, through no bracket kernel.

    ``(L_X Q)^I = X(Q^I) - sum_k sum_u Q^{i_1..u..i_q} d_u X^{i_k}`` on every
    increasing q-tuple ``I``, with ``u`` in place ``k``: each component is
    read by ``component`` and differentiated by ``Polynomial.derivative``.
    The reference for :func:`npk.fields.schouten` at grade 1, where
    ``[X, Q] = L_X Q``.
    """
    m = x.dim
    xs = x.vector_components()
    out = {}
    for blade in iter_blades(m, q.grade):
        coef = q.component(blade)
        acc = sum((xs[u - 1] * coef.derivative(u) for u in range(1, m + 1)), Polynomial.zero(m))
        for k, i in enumerate(blade):
            for u in range(1, m + 1):
                acc = acc - q.component(blade[:k] + (u,) + blade[k + 1:]) * xs[i - 1].derivative(u)
        if acc:
            out[blade] = acc
    return MultivectorField(m, q.grade, out)


def involutivity_by_sampling(field: MultivectorField, points=None, seed: int = 0) -> bool:
    """Sampled involutivity of the image distribution: may refute, never certifies.

    The reference for :func:`npk.poisson.is_involutive`.  The face rows
    span the image wherever the field is nonzero; each nonzero Lie bracket
    of two rows, taken by :func:`lie_derivative_by_coordinates` and so
    sharing no bracket with the package, is evaluated at every sample point
    (the default points when ``points`` is None) where the field is nonzero
    and tested for membership in the span of the rows there, by
    Gauss-Jordan elimination.  False means some point refutes involutivity.
    """
    m, n = field.dim, field.grade
    pts = list(points) if points is not None else default_sample_points(m, seed)
    rows = [MultivectorField(m, 1, face) for face in reference_face_table(field.terms, n - 1).values()]
    brackets = [b for x, y in combinations(rows, 2) if (b := lie_derivative_by_coordinates(x, y))]
    for pt in pts:
        if field.evaluate(pt).is_zero():
            continue
        span = Subspace.from_vectors([row.evaluate(pt).vector_components() for row in rows], m)
        for bracket in brackets:
            value = bracket.evaluate(pt)
            if not value.is_zero() and not in_span(span, value.vector_components()):
                return False
    return True


_IRREDUCIBILITY_SAMPLES = 20


def irreducibility_by_sampled_covectors(p: Multivector, seed: int = 0) -> IrreducibilityVerdict:
    """Search for a split of ``p`` into independent grade-n summands.

    The package's search before it read its candidates off one face table:
    the reference for :func:`npk.grassmann.irreducibility_check`.
    Rank below 2n certifies irreducibility outright (each summand of a
    split carries rank at least n).  Otherwise the basis covectors, then 20
    seeded random ones (drawn only if every basis covector fails) are
    sampled; a contraction that stays nonzero
    while dropping the rank by at least n witnesses reducibility.  Sampling can
    never certify irreducibility, so the remaining outcome is an honest
    "no witness found".  Each rank is the pivot count of :func:`_image`, on
    integer terms and candidates; only the witness becomes a :class:`Covector`.
    """
    if p.is_zero():
        raise ValueError("zero tensor")
    m, n = p.dim, p.grade
    if n < 1:
        raise ValueError("irreducibility check needs grade at least 1")
    terms = _integral(p.terms)
    rank = len(_image(terms)[1])
    if rank < 2 * n:
        return IrreducibilityVerdict(IrreducibilityKind.CERTIFIED_BY_RANK)
    basis = ([int(u == v) for v in range(m)] for u in range(m))
    randint = random.Random(seed).randint
    draws = ([randint(-9, 9) for _ in range(m)] for _ in range(_IRREDUCIBILITY_SAMPLES))
    for comps in chain(basis, filter(any, draws)):
        contracted = contract_terms(dict(enumerate(comps, 1)), terms)
        # a zero contraction is skipped; the pass stops once the drop is too small
        if contracted and len(_image(contracted, rank - n + 1)[1]) <= rank - n:
            return IrreducibilityVerdict(IrreducibilityKind.REDUCIBILITY_WITNESS, Covector(m, tuple(comps)))
    return IrreducibilityVerdict(IrreducibilityKind.NO_WITNESS_FOUND)


# ---------------------------------------------------------------------------
# constant 3-vectors on Q^6: Hitchin's invariant, and integer maps acting on
# multivectors; both from permutation signs alone, with no package kernel

def hitchin_lambda(p: Multivector) -> Fraction:
    """Hitchin's invariant of a 3-vector P on Q^6: the scalar with ``K_P^2 = lambda * 1``.

    ``K_P(alpha)`` is the covector ``v -> `` the e123456 coefficient of
    ``i(alpha) P ^ P ^ v`` (Hitchin 2000).  It is linear in ``alpha``, so
    ``K_P(K_P(dx^a))`` is row ``a`` of the square of the matrix whose row
    ``a`` is ``K_P(dx^a)``.  ``K_P`` is quadratic in ``P``: it is built in
    integers for ``L * P``, ``L`` the lcm of the denominators, and
    ``lambda(P) = lambda(L * P) / L**4``.  Refused unless the square is scalar.
    """
    if (p.dim, p.grade) != (6, 3):
        raise ValueError("Hitchin's invariant needs a 3-vector on Q^6")
    den = lcm(*(c.denominator for c in p.terms.values()))
    terms = {b: c.numerator * (den // c.denominator) for b, c in p.terms.items()}
    k = []
    for a in range(1, 7):
        # i(dx^a) e_ijk deletes a from position s with the sign (-1)^s
        faces = {b[:s] + b[s + 1:]: (-1) ** s * c for b, c in terms.items() for s in range(3) if b[s] == a}
        row = [0] * 6
        for face, c in faces.items():
            for blade, d in terms.items():
                if len(rest := set(range(1, 7)) - {*face, *blade}) == 1:
                    (v,) = rest
                    row[v - 1] += perm_sign((*face, *blade, v)) * c * d
        k.append(row)
    square = [[sum(k[a][v] * k[v][w] for v in range(6)) for w in range(6)] for a in range(6)]
    if square != [[square[0][0] * (a == w) for w in range(6)] for a in range(6)]:
        raise AssertionError(f"K_P^2 is not scalar: {square}")
    return Fraction(square[0][0], den**4)


def unimodular_matrix(rng, m: int) -> list[list[int]]:
    """A seeded product of 12 elementary integer matrices ``1 + t E_ij`` (i != j): determinant 1."""
    g = [[int(i == j) for j in range(m)] for i in range(m)]
    for _ in range(12):
        i, j = rng.sample(range(m), 2)
        t = rng.choice([-2, -1, 1, 2])
        g[i] = [x + t * y for x, y in zip(g[i], g[j])]
    return g


def transport(p: Multivector, g) -> Multivector:
    """``g . P``: every ``e_i`` becomes the column ``g e_i = sum_k g[k][i] e_k``."""
    columns = [[(k, g[k - 1][i]) for k in range(1, p.dim + 1) if g[k - 1][i]] for i in range(p.dim)]
    out: dict = {}
    for blade, c in p.terms.items():
        for picks in product(*(columns[i - 1] for i in blade)):
            image = tuple(k for k, _ in picks)
            if len(set(image)) == p.grade:
                key = tuple(sorted(image))
                out[key] = out.get(key, 0) + perm_sign(image) * c * prod(x for _, x in picks)
    return Multivector(p.dim, p.grade, out)


# ---------------------------------------------------------------------------
# the tuple/Fraction polynomial that npk.polynomial replaced, kept as the
# reference for the packed-exponent class

_SCALARS = (int, Fraction)


class TuplePolynomial:
    """Polynomial in ``num_vars`` variables over the rationals.

    ``terms`` maps exponent tuples (length ``num_vars``, entries >= 0) to
    nonzero Fractions; the zero polynomial stores no terms.  Instances are
    immutable by convention: every operation returns a fresh object.
    Variables are 1-based so that ``variable(u)`` matches the coordinate
    ``x^u`` used throughout the package.
    """

    __slots__ = ("num_vars", "terms")
    __hash__ = None

    def __init__(self, num_vars: int, terms: Mapping[tuple[int, ...], Fraction] | None = None):
        if num_vars < 0:
            raise ValueError("num_vars must be nonnegative")
        clean: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for exps, coef in terms.items():
                exps = tuple(exps)
                if len(exps) != num_vars or any(not isinstance(e, int) or e < 0 for e in exps):
                    raise ValueError(f"bad exponent tuple {exps!r} for {num_vars} variables")
                coef = coef if isinstance(coef, Fraction) else Fraction(coef)
                if not coef:
                    continue
                cur = clean.get(exps)
                if cur is None:
                    clean[exps] = coef
                else:
                    s = cur + coef
                    if s:
                        clean[exps] = s
                    else:
                        del clean[exps]
        self.num_vars = num_vars
        self.terms = clean

    @classmethod
    def _raw(cls, num_vars: int, terms: dict[tuple[int, ...], Fraction]) -> "TuplePolynomial":
        # internal fast path: caller guarantees canonical terms
        p = object.__new__(cls)
        p.num_vars = num_vars
        p.terms = terms
        return p

    @classmethod
    def zero(cls, num_vars: int) -> "TuplePolynomial":
        return cls._raw(num_vars, {})

    @classmethod
    def constant(cls, value, num_vars: int) -> "TuplePolynomial":
        c = value if isinstance(value, Fraction) else Fraction(value)
        if not c:
            return cls._raw(num_vars, {})
        return cls._raw(num_vars, {(0,) * num_vars: c})

    @classmethod
    def variable(cls, u: int, num_vars: int) -> "TuplePolynomial":
        if not 1 <= u <= num_vars:
            raise ValueError(f"variable index {u} out of range 1..{num_vars}")
        exps = tuple(1 if i == u - 1 else 0 for i in range(num_vars))
        return cls._raw(num_vars, {exps: Fraction(1)})

    @classmethod
    def monomial(cls, coef, exps: Sequence[int], num_vars: int | None = None) -> "TuplePolynomial":
        exps = tuple(exps)
        nv = len(exps) if num_vars is None else num_vars
        return cls(nv, {exps: coef})

    # -- ring operations -------------------------------------------------

    def _coerce(self, other) -> "TuplePolynomial | None":
        if isinstance(other, TuplePolynomial):
            if other.num_vars != self.num_vars:
                raise ValueError("operands have different variable counts")
            return other
        if isinstance(other, _SCALARS):
            return TuplePolynomial.constant(other, self.num_vars)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for exps, coef in other.terms.items():
            cur = out.get(exps)
            if cur is None:
                out[exps] = coef
            else:
                s = cur + coef
                if s:
                    out[exps] = s
                else:
                    del out[exps]
        return TuplePolynomial._raw(self.num_vars, out)

    __radd__ = __add__

    def __neg__(self):
        return TuplePolynomial._raw(self.num_vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            c = other if isinstance(other, Fraction) else Fraction(other)
            if not c:
                return TuplePolynomial._raw(self.num_vars, {})
            return TuplePolynomial._raw(self.num_vars, {e: v * c for e, v in self.terms.items()})
        if not isinstance(other, TuplePolynomial):
            return NotImplemented
        if other.num_vars != self.num_vars:
            raise ValueError("operands have different variable counts")
        if not self.terms or not other.terms:
            return TuplePolynomial._raw(self.num_vars, {})
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                piece = c1 * c2
                cur = out.get(exps)
                if cur is None:
                    out[exps] = piece
                else:
                    s = cur + piece
                    if s:
                        out[exps] = s
                    else:
                        del out[exps]
        return TuplePolynomial._raw(self.num_vars, out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("only nonnegative integer powers are supported")
        acc = TuplePolynomial.constant(1, self.num_vars)
        for _ in range(exponent):
            acc = acc * self
        return acc

    # -- calculus and evaluation ------------------------------------------

    def derivative(self, u: int) -> "TuplePolynomial":
        """Partial derivative with respect to the 1-based variable ``u``."""
        if not 1 <= u <= self.num_vars:
            raise ValueError(f"variable index {u} out of range 1..{self.num_vars}")
        i = u - 1
        out: dict[tuple[int, ...], Fraction] = {}
        for exps, coef in self.terms.items():
            e = exps[i]
            if e == 0:
                continue
            # lowering one exponent is injective, so no two terms merge
            out[exps[:i] + (e - 1,) + exps[i + 1:]] = coef * e
        return TuplePolynomial._raw(self.num_vars, out)

    def evaluate(self, point: Sequence) -> Fraction:
        if len(point) != self.num_vars:
            raise ValueError(f"point must have {self.num_vars} coordinates")
        pt = [p if isinstance(p, Fraction) else Fraction(p) for p in point]
        total = Fraction(0)
        for exps, coef in self.terms.items():
            val = coef
            for p, e in zip(pt, exps):
                if e:
                    val *= p ** e
            total += val
        return total

    # -- queries -----------------------------------------------------------

    def degree(self) -> int:
        """Total degree; 0 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=0)

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> Fraction:
        zero_exps = (0,) * self.num_vars
        return self.terms.get(zero_exps, Fraction(0))

    def monomials(self) -> Iterator[tuple[tuple[int, ...], Fraction]]:
        return iter(sorted(self.terms.items()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, _SCALARS):
            other = TuplePolynomial.constant(other, self.num_vars)
        if not isinstance(other, TuplePolynomial):
            return NotImplemented
        return self.num_vars == other.num_vars and self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps, coef in sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True):
            factors = [f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}" for i, e in enumerate(exps) if e]
            if not factors:
                parts.append(str(coef))
            elif coef == 1:
                parts.append("*".join(factors))
            elif coef == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(f"{coef}*" + "*".join(factors))
        text = " + ".join(parts)
        return text.replace("+ -", "- ")


# -- the spec loader by a pairs hook -----------------------------------------
# The route the package took before its plain decode: every JSON object goes
# through a hook that refuses a repeated key, each rational becomes an int or
# a Fraction, and each blade's monomials are packed from exponent tuples.


def _spec_is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _spec_ints(xs: list) -> bool:
    return {*map(type, xs)} == {int}


def _spec_rational(text) -> int | Fraction:
    # README's grammar: a JSON integer, or -?[0-9]+ or -?[0-9]+/[0-9]+ with a nonzero denominator
    if _spec_is_int(text):
        return text
    if not isinstance(text, str):
        raise SpecError(f"rational values must be strings or integers, got {type(text).__name__}")
    match = re.fullmatch(r"(-?[0-9]+)(?:/([0-9]+))?", text)
    if match is None:
        raise SpecError(f"bad rational {text!r} (not an integer or integer/integer in ASCII digits)")
    try:
        num, den = int(match[1]), int(match[2] or "1")
    except ValueError:
        raise SpecError("rational longer than the interpreter's digit limit") from None
    if den == 0:
        raise SpecError(f"bad rational {text!r} (zero denominator)")
    return Fraction(num, den) if match[2] else num


def _spec_check_keys(obj: dict, allowed: set[str], where: str = "") -> None:
    if obj.keys() == allowed:
        return
    unknown = set(obj) - allowed
    if unknown:
        raise SpecError(f"{where}unknown fields {sorted(unknown)}")
    raise SpecError(f"{where}missing fields {sorted(allowed - set(obj))}")


def _spec_packed(clean: Mapping) -> tuple[dict[int, int], int, int, int]:
    bound = max((max(e, default=0) for e in clean), default=0)
    width = _width(bound)
    den = lcm(*(c.denominator for c in clean.values()))
    return {_pack(e, width): c.numerator * (den // c.denominator) for e, c in clean.items()}, den, bound, width


def _spec_unique_fields(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        key = next(key for key, _ in pairs if key in seen or seen.add(key))
        raise SpecError(f"duplicate field {key!r}")
    return obj


def parse_spec_by_pairs_hook(text: str) -> TensorSpec:
    """The spec of ``text``, or its :class:`SpecError`, by the pairs-hook route."""
    try:
        obj = json.loads(text, object_pairs_hook=_spec_unique_fields)
    except json.JSONDecodeError as exc:
        raise SpecError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise SpecError("JSON nested deeper than the decoder's recursion limit") from None
    except SpecError:
        raise
    except ValueError:  # an int literal past the interpreter's digit limit
        raise SpecError("integer longer than the interpreter's digit limit") from None
    if not isinstance(obj, dict):
        raise SpecError("top level must be a JSON object")
    _spec_check_keys(obj, {"m", "n", "kind", "terms"}, "top level: ")
    m, n, kind, terms = obj["m"], obj["n"], obj["kind"], obj["terms"]
    if not _spec_is_int(m) or m < 1:
        raise SpecError("m must be a positive integer")
    if not _spec_is_int(n) or n < 1:
        raise SpecError("n must be a positive integer")
    if n > m:
        raise SpecError(f"n must not exceed m: no grade-{n} blades exist in dimension {m}")
    if kind not in ("constant", "polynomial"):
        raise SpecError(f"kind must be 'constant' or 'polynomial', got {kind!r}")
    if not isinstance(terms, list):
        raise SpecError("terms must be a list")
    acc: dict = {}
    mpos = None
    try:
        for pos, term in enumerate(terms):
            if not isinstance(term, dict):
                raise SpecError("must be an object")
            _spec_check_keys(term, {"indices", "value"})
            indices = term["indices"]
            if not isinstance(indices, list) or len(indices) != n or not _spec_ints(indices):
                raise SpecError(f"indices must be a list of {n} integers")
            if indices != sorted(set(indices)) or indices[0] < 1 or indices[-1] > m:
                raise SpecError(f"indices must be strictly increasing within 1..{m}")
            blade = tuple(indices)
            value = term["value"]
            if kind == "constant":
                _add_term(acc, blade, _spec_rational(value))
                continue
            if not isinstance(value, list):
                raise SpecError("polynomial values must be monomial lists")
            monos = acc.setdefault(blade, {})
            for mpos, mono in enumerate(value):
                if not isinstance(mono, dict):
                    raise SpecError("must be an object")
                _spec_check_keys(mono, {"coef", "exps"})
                exps = mono["exps"]
                if not isinstance(exps, list) or len(exps) != m or not _spec_ints(exps) or min(exps) < 0:
                    raise SpecError(f"exps must be a list of {m} nonnegative integers")
                _add_term(monos, tuple(exps), _spec_rational(mono["coef"]))
            mpos = None
            if not monos:
                del acc[blade]
    except SpecError as exc:
        where = f"terms[{pos}]" if mpos is None else f"terms[{pos}].value[{mpos}]"
        raise SpecError(f"{where}: {exc}") from None
    if kind == "constant":
        comps = {blade: Polynomial._raw(m, {0: c.numerator}, c.denominator) for blade, c in acc.items()}
    else:
        comps = {blade: Polynomial._raw(m, *_spec_packed(monos)) for blade, monos in acc.items()}
    return TensorSpec(m, n, kind, MultivectorField._raw(m, n, comps))
