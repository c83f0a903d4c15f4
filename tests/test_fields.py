import random
from fractions import Fraction
from itertools import combinations
from math import comb, factorial

import pytest

import npk.exterior
import npk.fields
import npk.grassmann
import npk.poisson
from npk.compat import delta, is_compatible
from npk.exterior import Multivector, blade_contractions, iter_blades
from npk.fields import (
    MultivectorField,
    _gradient,
    contracted_derivative,
    differential_defect,
    jacobi_identity_holds,
    nary_bracket,
    schouten,
)
from npk.poisson import block_sum, classify, coordinate_semidecomposable
from npk.polynomial import Polynomial
from npk.suites import random_constant_field, random_decomposable_field, random_linear_field, random_polynomial
import oracles
from oracles import (
    alternation_defect_components,
    bracket_by_minors,
    covector_pair_table,
    jacobi_defect,
    jacobi_defect_bruteforce,
    jacobi_identity_by_defect_loop,
    jacobi_shuffles,
    lie_derivative_by_coordinates,
)

M = 5
X = [Polynomial.variable(u, M) for u in range(1, M + 1)]


def var(u, m=M):
    return Polynomial.variable(u, m)


# ---------------------------------------------------------------------------
# polynomial basics

def test_polynomial_arithmetic():
    p = X[0] * X[1] + 2
    q = p * p
    assert q == X[0] * X[0] * X[1] * X[1] + 4 * X[0] * X[1] + 4
    assert (p - p) == 0
    assert p.degree() == 2
    assert p.evaluate([1, 3, 0, 0, 0]) == 5


def test_polynomial_derivative():
    p = X[0] * X[0] * X[2] + Fraction(3, 2) * X[1]
    assert p.derivative(1) == 2 * X[0] * X[2]
    assert p.derivative(2) == Fraction(3, 2)
    assert p.derivative(4) == 0
    with pytest.raises(ValueError):
        p.derivative(6)


# ---------------------------------------------------------------------------
# componentwise field operations

def test_field_repr():
    # a coefficient of several terms or with a leading minus is parenthesised
    assert repr(MultivectorField(3, 3, {(1, 2, 3): var(1, 3) + 1})) == "(x1 + 1)*e(1,2,3)"
    assert repr(MultivectorField(4, 2, {(1, 2): var(1, 4), (3, 4): 1})) == "x1*e(1,2) + 1*e(3,4)"
    assert repr(MultivectorField(4, 2, {(1, 2): -var(1, 4)})) == "(-x1)*e(1,2)"
    assert repr(MultivectorField(4, 0, {(): var(1, 4)})) == "x1"
    assert repr(MultivectorField.zero(4, 2)) == "0[grade 2, dim 4]"


def test_partial_derivative_of_constant_field():
    f = MultivectorField(M, 3, {(1, 2, 3): 7})
    assert f.partial(1).is_zero()


def test_partial_derivative_single_variable():
    f = MultivectorField(M, 3, {(1, 2, 3): X[0]})
    assert f.partial(1) == MultivectorField(M, 3, {(1, 2, 3): 1})


def test_partial_derivative_product():
    f = MultivectorField(M, 2, {(1, 2): X[0] * X[1]})
    assert f.partial(2) == MultivectorField(M, 2, {(1, 2): X[0]})
    with pytest.raises(ValueError):
        f.partial(0)


def test_evaluate_constant_field():
    f = MultivectorField(M, 2, {(1, 2): Fraction(3, 2)})
    assert f.evaluate([9, 9, 9, 9, 9]) == Multivector(M, 2, {(1, 2): Fraction(3, 2)})


def test_evaluate_at_origin_and_elsewhere():
    f = MultivectorField(M, 3, {(1, 2, 3): X[0]})
    assert f.evaluate([0] * 5).is_zero()
    assert f.evaluate([2, 0, 0, 0, 0]) == Multivector(M, 3, {(1, 2, 3): 2})


def test_evaluate_matches_per_component_polynomial_evaluate():
    # one integer evaluation over all components against one per component
    rng = random.Random("field-evaluate")
    fields = [MultivectorField(6, 2), MultivectorField(3, 4), MultivectorField(4, 2, {(1, 2): Fraction(5, 3)})]
    for _ in range(30):
        m = rng.randint(2, 6)
        n = rng.randint(1, m)
        blades = rng.sample(list(iter_blades(m, n)), min(rng.randint(1, 4), comb(m, n)))
        fields.append(MultivectorField(m, n, {b: random_polynomial(rng, m, degree=3) for b in blades}))
    for f in fields:
        for _ in range(4):
            point = [rng.choice((0, rng.randint(-4, 4), Fraction(rng.randint(-9, 9), rng.randint(1, 7))))
                     for _ in range(f.dim)]
            want = Multivector(f.dim, f.grade, {b: p.evaluate(point) for b, p in f.terms.items()})
            assert f.evaluate(point) == want
            assert f.evaluate(tuple(point)).terms == want.terms
    assert all(f.evaluate([0] * f.dim).is_zero() for f in fields[:2])
    with pytest.raises(ValueError, match="point must have 6 coordinates"):
        fields[0].evaluate([0] * 5)


# ---------------------------------------------------------------------------
# the induced bracket

def test_unit_jacobian_bracket():
    p = MultivectorField(M, 3, {(1, 2, 3): 1})
    assert nary_bracket(p, [X[0], X[1], X[2]]) == 1


def test_bracket_with_repeated_argument_vanishes():
    p = MultivectorField(M, 3, {(1, 2, 3): 1, (1, 4, 5): 1})
    assert nary_bracket(p, [X[0], X[0], X[2]]) == 0


def test_bracket_two_term_expansion():
    # determinant over columns (1,2,3) gives x4, over (1,4,5) gives 0
    p = MultivectorField(M, 3, {(1, 2, 3): 1, (1, 4, 5): 1})
    assert nary_bracket(p, [X[0], X[1] * X[3], X[2]]) == X[3]


def test_bracket_arity_checked():
    p = MultivectorField(M, 3, {(1, 2, 3): 1})
    with pytest.raises(ValueError, match="expected 3 arguments"):
        nary_bracket(p, [X[0], X[1]])


def test_bracket_antisymmetry_and_leibniz():
    rng = random.Random("bracket-laws")
    for _ in range(25):
        p = random_linear_field(rng, M, 3, max_terms=4)
        fs = [random_polynomial(rng, M, degree=2, max_monos=2) for _ in range(3)]
        base = nary_bracket(p, fs)
        for pos in range(2):
            swapped = list(fs)
            swapped[pos], swapped[pos + 1] = swapped[pos + 1], swapped[pos]
            assert nary_bracket(p, swapped) == -base
        g = random_polynomial(rng, M, degree=1, max_monos=2)
        left = nary_bracket(p, [fs[0] * g, fs[1], fs[2]])
        right = fs[0] * nary_bracket(p, [g, fs[1], fs[2]]) + g * base
        assert left == right


def test_bracket_matches_minor_oracle():
    rng = random.Random("bracket-vs-minors")
    nonzero_seen = 0
    for _ in range(30):
        m = rng.randint(1, 5)
        n = rng.randint(1, m)
        blades = rng.sample(list(iter_blades(m, n)), min(3, comb(m, n)))
        p = MultivectorField(m, n, {b: random_polynomial(rng, m, degree=2) for b in blades})
        fs = [random_polynomial(rng, m, degree=2, max_monos=6) for _ in range(n)]
        value = nary_bracket(p, fs)
        assert value == bracket_by_minors(p, fs)
        nonzero_seen += bool(value)
    assert nonzero_seen >= 20


# ---------------------------------------------------------------------------
# differential defect

def test_defect_of_constant_field_vanishes():
    for n, m in ((3, 5), (4, 7)):
        f = MultivectorField(m, n, {tuple(range(1, n + 1)): 5})
        assert differential_defect(f).is_zero()


def test_defect_single_term_vanishes():
    f = MultivectorField(M, 3, {(1, 2, 3): X[0]})
    assert differential_defect(f).is_zero()


def test_defect_two_terms_cancel():
    # symbolic expansion: every wedge repeats an index
    f = MultivectorField(M, 3, {(1, 2, 3): X[1], (3, 4, 5): X[0]})
    defect = differential_defect(f)
    assert defect.is_zero()
    assert alternation_defect_components(f, f) == {}


def test_defect_nonzero_instance_matches_alternation():
    f = MultivectorField(M, 3, {(1, 2, 3): X[0], (1, 4, 5): 1})
    defect = differential_defect(f)
    assert defect == MultivectorField(M, 5, {(1, 2, 3, 4, 5): 1})
    alternation = alternation_defect_components(f, f)
    factor = factorial(3) * factorial(2)
    assert alternation == {(1, 2, 3, 4, 5): Polynomial.constant(factor, M)}


def test_defect_matches_alternation_on_random_fields():
    rng = random.Random("defect-two-route")
    factor = factorial(3) * factorial(2)
    nonzero_seen = 0
    for _ in range(12):
        f = random_linear_field(rng, M, 3, max_terms=5)
        # salt the field so the defect has a chance to be nonzero
        u = rng.randint(1, M)
        f = f + MultivectorField(M, 3, {(1, 2, 3): var(u), (1, 4, 5): 1})
        defect = differential_defect(f)
        alternation = alternation_defect_components(f, f)
        keys = set(alternation) | set(defect.terms)
        for key in keys:
            left = alternation.get(key, Polynomial.zero(M))
            right = defect.terms.get(key, Polynomial.zero(M)) * factor
            assert left == right
        if defect.terms:
            nonzero_seen += 1
    assert nonzero_seen >= 1


def test_defect_vacuous_above_top_grade():
    f = MultivectorField(4, 3, {(1, 2, 3): Polynomial.variable(1, 4)})
    defect = differential_defect(f)
    assert defect.is_zero()
    assert defect.grade == 5


def _random_sparse_field(rng, m, grade):
    blades = rng.sample(list(iter_blades(m, grade)), min(rng.randint(1, 3), comb(m, grade)))
    return MultivectorField(m, grade, {b: random_polynomial(rng, m, degree=2, max_monos=2) for b in blades})


def test_contracted_derivative_matches_two_field_alternation():
    # K(A, B) = sum_u (i(dx^u) A) ^ (d_u B) against the brute-force
    # alternation, which is (p-1)! q! K(A, B); the Schouten bracket of two
    # vector fields K(X, Y) - K(Y, X) and delta K(P, U) + K(U, P) are read off the
    # alternation alone.  U = g P is compatible with P at even grade, and
    # at odd grade when P is a single blade
    rng = random.Random("kernel-alternation")
    nonzero = brackets = deltas = 0
    for _ in range(100):
        m = rng.randint(2, 5)
        p = rng.randint(1, min(3, m))
        a = _random_sparse_field(rng, m, p)
        other = _random_sparse_field(rng, m, rng.randint(0, min(3, m)))
        for b in (other, a * random_polynomial(rng, m, degree=1, max_monos=2)):
            q = b.grade
            kernel = contracted_derivative(a, b)
            assert kernel.grade == min(p + q - 1, m + 1)
            ab = alternation_defect_components(a, b)
            assert ab == {blade: coef * (factorial(p - 1) * factorial(q)) for blade, coef in kernel.terms.items()}
            nonzero += bool(kernel)
            if q == 0:
                continue
            ab = MultivectorField(m, p + q - 1, ab)
            ba = MultivectorField(m, p + q - 1, alternation_defect_components(b, a))
            if p == q == 1:
                assert schouten(a, b) == ab - ba
                brackets += bool(ab - ba)
            if is_compatible(a, b).holds:
                # (p-1)! q! (q-1)! p! delta(A, B) = (q-1)! p! AB + (p-1)! q! BA
                scale_ab, scale_ba = factorial(p - 1) * factorial(q), factorial(q - 1) * factorial(p)
                image = delta(a, b)
                assert image * (scale_ab * scale_ba) == ab * scale_ba + ba * scale_ab
                deltas += bool(image)
    assert nonzero >= 80 and brackets >= 10 and deltas >= 8


# ---------------------------------------------------------------------------
# generalized Jacobi identity

def test_jacobi_defect_constant_coordinates():
    p = MultivectorField(M, 3, {(1, 2, 3): 4, (2, 4, 5): -1})
    assert jacobi_defect(p, [X[0], X[1], X[2], X[3], X[4]]) == 0


def test_jacobi_defect_decomposable_vanishes():
    p = MultivectorField(M, 3, {(1, 2, 3): 1})
    args = [X[0] * X[1], X[0], X[1], X[2], X[3]]
    assert jacobi_defect(p, args) == 0
    args = [X[0] * X[1], X[1], X[2], X[3], X[4]]
    assert jacobi_defect(p, args) == 0


def test_jacobi_defect_nonzero_families():
    # for e123 + e145 only families touching x1 quadratically obstruct;
    # values cross-checked against the full permutation sum
    p = MultivectorField(M, 3, {(1, 2, 3): 1, (1, 4, 5): 1})
    args = [X[0] * X[0], X[1], X[2], X[3], X[4]]
    value = jacobi_defect(p, args)
    assert value == 48
    assert value == jacobi_defect_bruteforce(p, args)
    args = [X[0] * X[1], X[0], X[2], X[3], X[4]]
    value = jacobi_defect(p, args)
    assert value == -24
    assert value == jacobi_defect_bruteforce(p, args)


def test_jacobi_defect_arity_checked():
    p = MultivectorField(M, 3, {(1, 2, 3): 1})
    with pytest.raises(ValueError, match="expected 5 arguments"):
        jacobi_defect(p, [X[0]] * 4)


def test_shuffle_sum_equals_full_permutation_sum():
    rng = random.Random("shuffle-vs-brute")
    for _ in range(4):
        p = random_linear_field(rng, M, 3, max_terms=4)
        fs = [random_polynomial(rng, M, degree=2, max_monos=2) for _ in range(5)]
        assert jacobi_defect(p, fs) == jacobi_defect_bruteforce(p, fs)


def test_jacobi_oracle_examples():
    # each verdict also from the nested-bracket defect loop, which shares no
    # kernel with the decision
    lie_poisson = MultivectorField(3, 2, {(1, 2): var(3, 3), (1, 3): -var(2, 3), (2, 3): var(1, 3)})
    examples = [
        (MultivectorField(M, 3, {(1, 2, 3): 1}), True),
        (MultivectorField(M, 3, {(1, 2, 3): X[0]}), True),
        (lie_poisson, True),
        (MultivectorField(M, 3, {(1, 2, 3): 1, (1, 4, 5): 1}), False),
        (MultivectorField(3, 2, {(1, 2): 1, (2, 3): var(2, 3)}), False),
    ]
    for f, expected in examples:
        assert jacobi_identity_holds(f) is expected, f
        assert jacobi_identity_by_defect_loop(f) is expected, f


def test_jacobi_oracle_two_block_even_grade():
    assert jacobi_identity_holds(block_sum(2, 2, 8))


def test_face_read_matches_kernel_and_minors():
    # {g, x_R} read off the (n-1)-face row of R, against the general kernel
    # and the minor expansion; an R that is no face of a blade reads zero
    rng = random.Random("face-read")
    faceless = nonzero = 0
    for _ in range(40):
        m = rng.randint(1, 6)
        n = rng.randint(1, min(4, m))
        blades = rng.sample(list(iter_blades(m, n)), min(rng.randint(1, 3), comb(m, n)))
        p = MultivectorField(m, n, {b: random_polynomial(rng, m, degree=2) for b in blades})
        rows = blade_contractions(p.terms, n - 1)
        g = random_polynomial(rng, m, degree=2, max_monos=4)
        for r in combinations(range(1, m + 1), n - 1):
            args = [g] + [var(a, m) for a in r]
            row = rows.get(r, {})
            read = sum((d * row[(w,)] for w, d in _gradient(g).items() if (w,) in row), Polynomial.zero(m))
            value = (-1) ** (n - 1) * read
            assert value == nary_bracket(p, args)
            assert value == bracket_by_minors(p, args)
            if r not in rows:
                assert value == 0
                faceless += 1
            nonzero += bool(value)
    assert faceless >= 20 and nonzero >= 20


def _memo_cases():
    """Fields of grade 2, 3 and 4 on which the oracle meets the defect loop."""
    rng = random.Random("memo-vs-loop")
    cases = []
    for n, m in ((2, 5), (3, 6), (4, 7)):
        for _ in range(4 if n < 4 else 2):
            k = rng.randint(2 * n - 1, m)
            cases.append(random_linear_field(rng, k, n, max_terms=4))
            cases.append(random_decomposable_field(rng, k, n))
        # components of degree 2
        for blades in (1, 2):
            chosen = rng.sample(list(iter_blades(m, n)), blades)
            cases.append(MultivectorField(m, n, {b: random_polynomial(rng, m, degree=2) for b in chosen}))
        x = [var(u, m) for u in range(1, m + 1)]
        first = tuple(range(1, n + 1))
        shared = (1,) + tuple(range(n + 1, 2 * n))
        # constant and not decomposable (e12 + e34, or two blades sharing one
        # index): holds at even grade; at odd grade it fails, and only
        # through the quadratic families
        apart = tuple(range(n + 1, 2 * n + 1)) if n == 2 else shared
        cases.append(MultivectorField(m, n, {first: 1, apart: 1}))
        # the workload shapes: a linear function times a decomposable field,
        # and two blades sharing one index with the first coefficient on it
        line = Multivector(m, 1, {(1,): 2, (n + 1,): -1})
        for u in range(2, n + 1):
            line = line.wedge(Multivector(m, 1, {(u,): 1}))
        cases.append(MultivectorField.from_multivector(line) * (x[0] + 3 * x[n] - 1))
        cases.append(MultivectorField(m, n, {first: x[0] + 1, shared: Fraction(-2, 3)}))
        # a square coefficient, so the x_u^2 families cancel only with
        # d(x_u^2) = 2 x_u; a face (first[1:]) completed by both u and v;
        # degree-2 components in a face coordinate
        other = first[1:] + (n + 1,)
        cases.append(MultivectorField(m, n, {first: x[2 * n - 2], shared: 2 * x[2 * n - 3] * x[2 * n - 3]}))
        cases.append(MultivectorField(m, n, {first: 2 * x[n - 1], other: x[n] * x[n]}))
        cases.append(MultivectorField(m, n, {first: 2 * x[1] * x[1], shared: -x[1] * x[n - 1]}))
        cases.append(MultivectorField(m, n, {first: x[0] * x[1], other: -x[0]}))
    return cases


def test_memoised_oracle_matches_defect_loop():
    verdicts = set()
    for f in _memo_cases():
        verdict = jacobi_identity_holds(f)
        assert verdict == jacobi_identity_by_defect_loop(f), f
        verdicts.add((f.grade, verdict))
    assert verdicts == {(n, v) for n in (2, 3, 4) for v in (True, False)}


def test_family_pushes_match_the_shuffle_sum():
    # jacobi_defect returns the full permutation sum; each (n, n-1)-shuffle
    # stands for the n!(n-1)! permutations that reorder its two slots, all
    # of equal signed value, so jacobi_defect = c_n J with c_n = n!(n-1)!.
    # J(x_T) is the coefficient on T of the differential defect, and Q[u, v]
    # is the part of J(x_u x_v, x_T') in which both derivatives fall on the quad,
    # J(x_u x_v, x_T') - x_v J(x_u, x_T') - x_u J(x_v, x_T'); zero at even grade
    c = {1: 1, 2: 2, 3: 12, 4: 144}
    assert c == {n: factorial(n) * factorial(n - 1) for n in c}
    rng = random.Random("quadratic-symbol")
    coordinate_seen, quad_seen, symbol_seen, squares = set(), set(), set(), 0
    for n, m in ((1, 3), (2, 4), (3, 5), (4, 7)):
        x = [var(u, m) for u in range(1, m + 1)]
        # two blades sharing only the index 1 (one blade at n = 1), whose
        # faces without it are disjoint and both completed by 1, and two
        # random blades
        shared = [tuple(range(1, n + 1)), (1,) + tuple(range(n + 1, 2 * n))]
        for _ in range(4):
            chosen = dict.fromkeys(shared + rng.sample(list(iter_blades(m, n)), 2))
            f = MultivectorField(m, n, {b: random_polynomial(rng, m, degree=rng.randint(1, 2), max_monos=2) for b in chosen})
            coordinate = differential_defect(f).terms
            assert all(coordinate.values())
            for tup in combinations(range(1, m + 1), 2 * n - 1):
                value = coordinate.get(tup, Polynomial.zero(m))
                assert jacobi_defect(f, [x[a - 1] for a in tup]) == c[n] * value, (f, tup)
                if value:
                    coordinate_seen.add(n)
            # Q[u, v] on T' is the polarized pair table's sum, doubled at u = v
            table = covector_pair_table(f.terms, f.terms, True)
            symbol = {
                (tup, u, v): Polynomial.sum_of_products(m, products) * (2 if u == v else 1)
                for (u, v), blades in table.items()
                for tup, products in blades.items()
            }
            if n % 2:
                # at odd grade the contractions commute: Q is twice the
                # unpolarized entry, on and off the diagonal
                plain = covector_pair_table(f.terms, f.terms, False)
                doubled = {
                    (tup, u, v): Polynomial.sum_of_products(m, products) * 2
                    for (u, v), blades in plain.items()
                    for tup, products in blades.items()
                }
                assert {k: q for k, q in doubled.items() if q} == {k: q for k, q in symbol.items() if q}
            for tup in combinations(range(1, m + 1), 2 * n - 2):
                rest = [x[a - 1] for a in tup]
                single = [jacobi_defect(f, [x[w - 1]] + rest) for w in range(1, m + 1)]
                for u in range(1, m + 1):
                    for v in range(u, m + 1):
                        defect = jacobi_defect(f, [x[u - 1] * x[v - 1]] + rest)
                        q = symbol.get((tup, u, v), Polynomial.zero(m))
                        assert defect - x[v - 1] * single[u - 1] - x[u - 1] * single[v - 1] == c[n] * q, (f, tup, u, v)
                        if defect:
                            quad_seen.add(n)
                        if q:
                            symbol_seen.add(n)
                            squares += u == v
    assert coordinate_seen == quad_seen == {1, 2, 3, 4}
    assert symbol_seen == {1, 3} and squares >= 5


def test_oracle_matches_classifier_past_the_coordinate_families():
    # a seeded population whose failures include fields that pass every
    # coordinate family and fail only a quadratic one, where Q decides; the
    # decision and classify run the same two kernels, so those late failures
    # are also checked against the nested-bracket defect loop
    rng = random.Random("quadratic-stage")
    late = 0
    verdicts = set()
    for i in range(400):
        n = (2, 3, 4)[i % 3]
        m = rng.randint(2 * n - 1, n + 3)
        kind = i // 3 % 4
        if kind == 0:
            f = random_linear_field(rng, m, n, max_terms=4)
        elif kind == 1:
            f = random_decomposable_field(rng, m, n)
        elif kind == 2:
            chosen = rng.sample(list(iter_blades(m, n)), rng.randint(1, 2))
            f = MultivectorField(m, n, {b: random_polynomial(rng, m, degree=2, max_monos=2) for b in chosen})
        else:
            f = random_constant_field(rng, m, n, max_terms=3)
        verdict = jacobi_identity_holds(f)
        assert verdict == classify(f).is_poisson, f
        if not verdict and differential_defect(f).is_zero():
            late += 1
            assert not jacobi_identity_by_defect_loop(f), f
        verdicts.add((n, verdict))
    assert verdicts == {(n, v) for n in (2, 3, 4) for v in (True, False)}
    assert late >= 20


def _truth_tests(monkeypatch, f) -> tuple[bool, int]:
    """The oracle's verdict on ``f`` and its count of ``Polynomial.__bool__`` calls."""
    calls = []
    truth = Polynomial.__bool__

    def counted(self):
        calls.append(None)
        return truth(self)

    with monkeypatch.context() as patch:
        patch.setattr(Polynomial, "__bool__", counted)
        verdict = jacobi_identity_holds(f)
    return verdict, len(calls)


def test_oracle_cost_follows_the_support(monkeypatch):
    # two blades on 20 coordinates: C(20, 9) coordinate families, yet only
    # the brackets that read a face reach a truth test
    verdict, calls = _truth_tests(monkeypatch, random_decomposable_field(random.Random(5), 20, 5))
    assert verdict and calls <= 1000


def test_quadratic_stage_visits_only_pushed_pairs(monkeypatch):
    # a loop over the m(m+1)/2 pairs (u, v) of every quadratic family that
    # receives a push makes 3,744 truth tests on three constant 4-blades on
    # 12 coordinates, and 8,424 on a constant decomposable 3-vector with 27
    # blades; the keys of Q make none at even grade and 891 here
    verdict, calls = _truth_tests(monkeypatch, block_sum(2, 3, 12))
    assert verdict and calls <= 200
    m = 12
    v = [Multivector(m, 1, {(a,): 1, (a + 1,): 2, (a + 2,): -1}) for a in (1, 4, 7)]
    verdict, calls = _truth_tests(monkeypatch, MultivectorField.from_multivector(v[0].wedge(v[1]).wedge(v[2])))
    assert verdict and calls <= 1000


def _wide_fields():
    """Fields on 10 to 12 coordinates, each with its verdict at a glance."""
    def shared(m, n):
        # two blades sharing one index, the first coefficient on that index
        first, other = tuple(range(1, n + 1)), (1,) + tuple(range(n + 1, 2 * n))
        return MultivectorField(m, n, {first: var(1, m) + 1, other: Fraction(-2, 3)})

    line = Multivector(10, 1, {(1,): 2, (5,): -1})
    for u in (2, 3, 4):
        line = line.wedge(Multivector(10, 1, {(u,): 1}))
    return [
        coordinate_semidecomposable(10, 1, 5),
        block_sum(2, 3, 12),
        MultivectorField(11, 4, {(2, 5, 7, 11): var(3, 11) - 2 * var(11, 11) + 1}),
        shared(10, 3),
        shared(10, 4),
        MultivectorField.from_multivector(line) * (var(1, 10) + 3 * var(5, 10) - 1),
    ]


def test_oracle_matches_classifier_on_wide_fields():
    verdicts = [jacobi_identity_holds(f) for f in _wide_fields()]
    assert verdicts == [classify(f).is_poisson for f in _wide_fields()]
    assert set(verdicts) == {True, False}


def test_jacobi_needs_grade_at_least_one():
    scalar = MultivectorField(3, 0, {(): 1})
    with pytest.raises(ValueError, match="grade >= 1"):
        jacobi_identity_holds(scalar)
    with pytest.raises(ValueError, match="grade >= 1"):
        jacobi_defect(scalar, [])
    # grade 1 keeps its answer: the defect of a vector field X is X(X f)
    d1 = MultivectorField(3, 1, {(1,): 1})
    x1 = var(1, 3)
    assert jacobi_defect(d1, [x1 * x1]) == 2
    assert jacobi_defect(d1, [x1 * x1]) == jacobi_defect_bruteforce(d1, [x1 * x1])
    assert not jacobi_identity_holds(d1)
    assert jacobi_identity_holds(MultivectorField(3, 1))


def test_oracle_grade_guard_builds_no_shuffle_table(monkeypatch):
    def forbidden(n):
        raise AssertionError("the oracle built the shuffle table")

    monkeypatch.setattr(oracles, "jacobi_shuffles", forbidden)
    # the package keeps no shuffle table of its own to fall back on
    assert not any("shuffle" in name for name in vars(npk.fields))
    assert jacobi_identity_holds(MultivectorField(7, 7, {tuple(range(1, 8)): 1}))
    with pytest.raises(ValueError, match="grade >= 1"):
        jacobi_identity_holds(MultivectorField(3, 0, {(): 1}))


def test_shuffle_table_built_once_per_grade():
    assert jacobi_shuffles(3) is jacobi_shuffles(3)
    assert len(jacobi_shuffles(3)) == comb(5, 3)
    for _ in range(2):
        with pytest.raises(ValueError, match="grade >= 1"):
            jacobi_shuffles(0)


def test_jacobi_oracle_is_independent_of_classifier(monkeypatch):
    # the decision shares the differential defect and the pair table with the
    # classifier by design, but reads the table itself: no entry point of
    # npk.poisson is called, so grade 1 keeps its answers
    def forbidden(*args, **kwargs):
        raise AssertionError("the Jacobi oracle consulted the classifier")

    for name in ("classify", "algebraic_condition", "differential_condition", "pointwise_decomposable"):
        monkeypatch.setattr(npk.poisson, name, forbidden)
    lie_poisson = MultivectorField(3, 2, {(1, 2): var(3, 3), (1, 3): -var(2, 3), (2, 3): var(1, 3)})
    assert jacobi_identity_holds(lie_poisson)
    assert jacobi_identity_holds(MultivectorField(M, 3, {(1, 2, 3): X[0]}))
    assert not jacobi_identity_holds(MultivectorField(M, 3, {(1, 2, 3): 1, (1, 4, 5): 1}))
    assert not jacobi_identity_holds(MultivectorField(3, 2, {(1, 2): 1, (2, 3): var(2, 3)}))
    assert not jacobi_identity_holds(MultivectorField(3, 1, {(1,): 1}))


def test_oracle_reads_every_bracket_off_the_face_table(monkeypatch):
    # the bracket kernel and the contraction it runs on, patched in every npk
    # module that imports it, are counted; neither decision path (classify,
    # jacobi_identity_holds) calls either, so the nested-bracket oracle shares
    # neither with them
    calls, contractions = [], []
    kernel, contract = npk.fields._bracket, npk.exterior.contract_terms

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    def counted_contraction(*args):
        contractions.append(args)
        return contract(*args)

    monkeypatch.setattr(npk.fields, "_bracket", counted)
    for module in (npk.exterior, npk.fields, npk.grassmann):
        monkeypatch.setattr(module, "contract_terms", counted_contraction)
    lie_poisson = MultivectorField(3, 2, {(1, 2): var(3, 3), (1, 3): -var(2, 3), (2, 3): var(1, 3)})
    assert jacobi_identity_holds(lie_poisson)
    assert jacobi_identity_holds(MultivectorField(M, 3, {(1, 2, 3): X[0] + 2 * X[3] - 1}))
    assert classify(lie_poisson).is_poisson
    assert not classify(MultivectorField(M, 3, {(1, 2, 3): 1, (1, 4, 5): 1})).is_poisson
    assert calls == [] and contractions == []
    # the general kernel still serves the public bracket and the defect, one
    # contraction per argument
    assert nary_bracket(lie_poisson, [var(1, 3), var(2, 3)]) == var(3, 3)
    assert len(calls) == 1 and len(contractions) == 2
    assert jacobi_defect(lie_poisson, [var(1, 3) * var(2, 3), var(2, 3), var(3, 3)]) == 0
    assert len(calls) > 1 and len(contractions) == 2 * len(calls)


# ---------------------------------------------------------------------------
# the Schouten bracket

def test_schouten_of_coordinate_fields_vanishes():
    a = MultivectorField(M, 1, {(1,): 1})
    b = MultivectorField(M, 1, {(3,): 1})
    assert schouten(a, b).is_zero()


def test_schouten_twisted_direction():
    # [d1, d3 + x1*d4] = d4, the Lie bracket of two vector fields
    a = MultivectorField(M, 1, {(1,): 1})
    b = MultivectorField(M, 1, {(3,): 1, (4,): X[0]})
    assert schouten(a, b) == MultivectorField(M, 1, {(4,): 1})
    assert schouten(b, a) == MultivectorField(M, 1, {(4,): -1})


def _sign(exponent):
    return -1 if exponent % 2 else 1


def _signed_sum(dim, *pairs):
    # sum of sign * field over fields whose stored grades may differ only
    # through the canonical zero above the top grade
    out: dict = {}
    for sign, f in pairs:
        for blade, coef in f.terms.items():
            out[blade] = out.get(blade, Polynomial.zero(dim)) + sign * coef
    return {blade: coef for blade, coef in out.items() if coef}


def test_schouten_agrees_with_its_independent_routes():
    # on seeded triples (grades 0-3 on Q^3 and Q^4, coefficients of degree at
    # most 2), against routes that share no kernel with it: the Lie
    # derivative by coordinates at p = 1, the Jacobiator of the coordinate
    # brackets through nary_bracket at p = q = 2, and the graded rules
    # (antisymmetry, Leibniz, Jacobi), which fix the bracket on the
    # generators and so rule out every other sign table
    rng = random.Random("schouten-routes")
    counts = dict.fromkeys(("lie", "jacobiator", "antisymmetry", "leibniz", "even-leibniz", "jacobi"), 0)
    for _ in range(300):
        m = rng.choice((3, 4))
        p, q, r = (_random_sparse_field(rng, m, rng.randint(0, 3)) for _ in range(3))
        gp, gq, gr = p.grade, q.grade, r.grade
        if gp == 1:
            assert schouten(p, q) == lie_derivative_by_coordinates(p, q)
            counts["lie"] += 1
        if gp + gq >= 1:
            assert schouten(q, p) == schouten(p, q) * -_sign((gp - 1) * (gq - 1))
            counts["antisymmetry"] += 1
        if gp + gq >= 1 and gp + gr >= 1 and gq + gr <= m:
            left = schouten(p, q.wedge(r))
            right = schouten(p, q).wedge(r) + q.wedge(schouten(p, r)) * _sign((gp - 1) * gq)
            assert left == right
            counts["leibniz"] += 1
            counts["even-leibniz"] += gp % 2 == 0 and bool(left)
        if gp + gq + gr >= 2:
            def outer(a, b, c):
                # (-1)^((a-1)(c-1)) [A, [B, C]], zero where [B, C] has grade -1
                if b.grade + c.grade == 0:
                    return MultivectorField(m, 0)
                return schouten(a, schouten(b, c)) * _sign((a.grade - 1) * (c.grade - 1))
            assert _signed_sum(m, (1, outer(p, q, r)), (1, outer(q, r, p)), (1, outer(r, p, q))) == {}
            counts["jacobi"] += 1
        if gp == 2:
            # [P, P]_ijk = -2 (sum over the cyclic orders of {{x_i, x_j}, x_k})
            pp = schouten(p, p)
            x = [var(u, m) for u in range(1, m + 1)]
            for i, j, k in combinations(range(m), 3):
                cyclic = [(i, j, k), (j, k, i), (k, i, j)]
                jacobiator = sum(
                    (nary_bracket(p, [nary_bracket(p, [x[a], x[b]]), x[c]]) for a, b, c in cyclic),
                    Polynomial.zero(m),
                )
                assert pp.component((i + 1, j + 1, k + 1)) == -2 * jacobiator
                counts["jacobiator"] += 1
    assert counts["lie"] >= 60 and counts["jacobiator"] >= 150 and counts["antisymmetry"] >= 250
    assert counts["leibniz"] >= 150 and counts["even-leibniz"] >= 30 and counts["jacobi"] >= 250
