"""Independent brute-force oracles, kept separate from the library paths.

Everything here recomputes quantities from first principles (full
permutation sums, one-covector-at-a-time contraction, Leibniz
determinants) so the tests have a second route to every value.
"""

from fractions import Fraction
from itertools import combinations, permutations

from npk.exterior import Multivector, contract_basis_terms, iter_blades
from npk.fields import MultivectorField, nary_bracket
from npk.linalg import Subspace, rref
from npk.polynomial import Polynomial


def perm_sign(perm) -> int:
    inv = sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )
    return 1 if inv % 2 == 0 else -1


def iterated_contraction(p: Multivector, covectors) -> Multivector:
    """Grade-1 contractions applied one at a time, first covector first."""
    acc = p
    for alpha in covectors:
        acc = acc.contract(alpha)
    return acc


def annihilator_by_contraction(p: Multivector) -> Subspace:
    """Kernel of ``alpha -> i(alpha) p``, one matrix row per (n-1)-blade.

    Column ``u`` holds the coefficients of ``i(dx^u) p`` over all C(m, n-1)
    blades; the kernel is read off that matrix's own reduced echelon form.
    """
    m = p.dim
    columns = [contract_basis_terms(p.terms, u) for u in range(1, m + 1)]
    rows = [[col.get(b, Fraction(0)) for col in columns] for b in iter_blades(m, p.grade - 1)]
    reduced, pivots = rref(rows, m)
    kernel = []
    for free in range(m):
        if free in pivots:
            continue
        v = [Fraction(0)] * m
        v[free] = Fraction(1)
        for row, pivot in zip(reduced, pivots):
            v[pivot] = -row[free]
        kernel.append(v)
    return Subspace.from_vectors(kernel, m)


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


def alternation_defect_components(field: MultivectorField) -> dict:
    """Fully alternated first-derivative obstruction, by brute force.

    For each increasing (2n-1)-tuple of coordinate indices, sums over all
    permutations of the tuple with sign:
    ``sum_u P^{u a_1..a_{n-1}} * d_u P^{a_n..a_{2n-1}}``.
    """
    m, n = field.dim, field.grade
    total = 2 * n - 1
    partials = [field.partial(u) for u in range(1, m + 1)]
    out = {}
    for tup in combinations(range(1, m + 1), total):
        acc = Polynomial.zero(m)
        for perm in permutations(range(total)):
            arranged = [tup[i] for i in perm]
            first_block = tuple(arranged[: n - 1])
            second_block = tuple(arranged[n - 1:])
            inner = Polynomial.zero(m)
            for u in range(1, m + 1):
                c1 = field.component((u,) + first_block)
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
