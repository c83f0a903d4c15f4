import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import npk.exterior
from npk.exterior import (
    Covector,
    Multivector,
    blade_contractions,
    contract_terms,
    iter_blades,
    merge_blades,
)
from npk.fields import MultivectorField
from npk.linalg import Subspace
from npk.polynomial import Polynomial
from npk.suites import random_constant_multivector, random_linear_field
from oracles import covector_pair_table, iterated_contraction, pair_wedges_by_contraction, perm_sign, reference_face_table


def blade(dim, *indices, c=1):
    return Multivector(dim, len(indices), {indices: c})


def contract_with(lam, p):
    # the reference face table's row for each blade of the form, extended linearly
    faces = reference_face_table(p.terms, lam.grade)
    out = Multivector.zero(p.dim, p.grade - lam.grade)
    for s, c in lam.terms.items():
        out = out + c * Multivector(p.dim, out.grade, faces.get(s, {}))
    return out


def contract_one_at_a_time(terms, s):
    # one basis covector at a time through contract_terms, the first index first
    for u in s:
        terms = contract_terms({u: 1}, terms)
    return dict(terms)


# ---------------------------------------------------------------------------
# wedge

def test_basis_product():
    assert blade(5, 1).wedge(blade(5, 2)) == blade(5, 1, 2)


def test_wedge_square_vanishes():
    assert blade(5, 1).wedge(blade(5, 1)).is_zero()


def test_cross_terms_double():
    a = Multivector(4, 2, {(1, 2): 1, (3, 4): 1})
    assert a.wedge(a) == Multivector(4, 4, {(1, 2, 3, 4): 2})


def test_wedge_dimension_mismatch():
    with pytest.raises(ValueError, match="incompatible spaces"):
        blade(4, 1).wedge(blade(5, 2))


def test_merge_and_sort_signs_match_the_inversion_count():
    # the one blade-merge sign of the package, against perm_sign's direct
    # count of inversions: every pair of blades in dimension 6, and, through
    # the component accessor that folds the merge over its indices, every
    # index tuple of length at most 4 over 1..5
    blades = [b for k in range(7) for b in iter_blades(6, k)]
    for s in blades:
        for t in blades:
            want = (perm_sign(s + t), tuple(sorted(s + t))) if not set(s) & set(t) else None
            assert merge_blades(s, t) == want, (s, t)
    for k in range(5):
        ones = Multivector(5, k, dict.fromkeys(iter_blades(5, k), 1))
        for indices in product(range(1, 6), repeat=k):
            want = perm_sign(indices) if len(set(indices)) == k else 0
            assert ones.component(indices) == want, indices


@pytest.mark.parametrize("cls", [Multivector, MultivectorField])
def test_graded_terms_refusals(cls):
    refusals = [
        (lambda: cls(4, 2, {(1,): 1}), "blade (1,) does not have grade 2"),
        (lambda: cls(3, 2, {(1, 4): 1}), "blade (1, 4) exceeds dimension 3"),
        (lambda: cls(-1, 0), "dimension must be nonnegative"),
        (lambda: cls(3, -1), "grade must be nonnegative"),
        (lambda: cls(2, 3, {(1, 2, 3): 1}), "no blades exist above the top grade"),
        (lambda: cls(4, 1, {(1,): 1}) + cls(4, 2, {(1, 2): 1}), "cannot add elements of different grades"),
        (lambda: cls(4, 1, {(1,): 1}) + cls(5, 1, {(1,): 1}), "incompatible spaces"),
    ]
    for build, message in refusals:
        with pytest.raises(ValueError) as refusal:
            build()
        assert type(refusal.value) is ValueError and str(refusal.value) == message
    # a zero coefficient above the top grade is the canonical zero, not a refusal
    assert cls(2, 3, {(1, 2, 3): 0}) == cls.zero(2, 5)


def test_wedge_above_top_grade_is_canonical_zero():
    a = blade(3, 1, 2)
    b = blade(3, 2, 3)
    out = a.wedge(b)
    assert out.is_zero()
    assert out.grade == 4
    assert out == Multivector.zero(3, 7)  # every above-top zero is the same value


# ---------------------------------------------------------------------------
# covector contraction

def test_contract_dual_pairing():
    assert blade(5, 1, 2, 3).contract(Covector.basis(5, 1)) == blade(5, 2, 3)


def test_contract_absent_index():
    assert blade(5, 1, 2, 3).contract(Covector.basis(5, 4)).is_zero()


def test_contract_sum():
    p = blade(5, 1, 2, 3) + blade(5, 1, 4, 5)
    expected = blade(5, 2, 3) + blade(5, 4, 5)
    assert p.contract(Covector.basis(5, 1)) == expected


def test_contract_scalar_rejected():
    scalar = Multivector(5, 0, {(): 1})
    with pytest.raises(ValueError, match="cannot contract a scalar"):
        scalar.contract(Covector.basis(5, 1))


def test_contract_delete_signs():
    # deleting the j-th factor carries (-1)^(j-1)
    p = blade(4, 1, 2)
    assert p.contract(Covector.basis(4, 2)) == blade(4, 1, c=-1)
    alpha = Covector(4, (1, 1, 0, 0))
    assert p.contract(alpha) == blade(4, 2) + blade(4, 1, c=-1)


# ---------------------------------------------------------------------------
# form contraction (the committed convention)

def test_two_form_contraction_committed_sign():
    # innermost-first: i(eps1^eps2) = i(eps2) o i(eps1), so the value is +e3
    lam = blade(5, 1, 2)
    out = contract_with(lam, blade(5, 1, 2, 3))
    assert out == blade(5, 3)
    oracle = iterated_contraction(blade(5, 1, 2, 3), [Covector.basis(5, 1), Covector.basis(5, 2)])
    assert out == oracle


@pytest.mark.parametrize("n", [3, 4, 5])
def test_full_contraction_leaves_last_vector(n):
    m = n + 1
    p = blade(m, *range(1, n + 1))
    lam = blade(m, *range(1, n))
    assert contract_with(lam, p) == blade(m, n)


@pytest.mark.parametrize("a,b", [(2, 3), (3, 2), (2, 4), (4, 2), (3, 4)])
def test_double_omission_pattern(a, b):
    # i(eps1^...^hat a^...^hat b^...^eps n) applied to i(eps a)P gives +-e_b
    n, m = 4, 6
    p = blade(m, *range(1, n + 1))
    pa = p.contract(Covector.basis(m, a))
    lam_indices = tuple(i for i in range(1, n + 1) if i not in (a, b))
    lam = blade(m, *lam_indices)
    out = contract_with(lam, pa)
    assert out == blade(m, b) or out == blade(m, b, c=-1)
    oracle = iterated_contraction(pa, [Covector.basis(m, i) for i in lam_indices])
    assert out == oracle


# ---------------------------------------------------------------------------
# algebraic laws (property tests)

def _coeffs():
    return st.integers(min_value=-4, max_value=4)


@st.composite
def two_multivectors(draw, dim=5, grades=(0, 1, 2, 3)):
    p = draw(st.sampled_from(grades))
    q = draw(st.sampled_from(grades))
    a_blades = list(iter_blades(dim, p))
    b_blades = list(iter_blades(dim, q))
    a = {bl: draw(_coeffs()) for bl in draw(st.lists(st.sampled_from(a_blades), max_size=3, unique=True))}
    b = {bl: draw(_coeffs()) for bl in draw(st.lists(st.sampled_from(b_blades), max_size=3, unique=True))}
    return Multivector(dim, p, a), Multivector(dim, q, b)


@settings(max_examples=80, deadline=None)
@given(two_multivectors())
def test_graded_commutativity(pair):
    a, b = pair
    left = a.wedge(b)
    right = b.wedge(a)
    if (a.grade * b.grade) % 2:
        right = -right
    assert left == right


@settings(max_examples=60, deadline=None)
@given(two_multivectors(grades=(1, 2)), st.sampled_from(list(iter_blades(5, 1))))
def test_associativity(pair, extra):
    a, b = pair
    c = Multivector(5, 1, {extra: 3})
    assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))


@settings(max_examples=80, deadline=None)
@given(two_multivectors(grades=(1, 2, 3)), st.tuples(*[_coeffs()] * 5))
def test_contraction_is_an_antiderivation(pair, alpha_comps):
    a, b = pair
    alpha = Covector(5, tuple(Fraction(c) for c in alpha_comps))
    product = a.wedge(b)
    if product.grade == 0 or product.grade > 5:
        return
    left = product.contract(alpha)
    first = a.contract(alpha).wedge(b) if a.grade else Multivector.zero(5, b.grade - 1)
    second = a.wedge(b.contract(alpha)) if b.grade else Multivector.zero(5, a.grade - 1)
    if a.grade % 2:
        second = -second
    assert left == first + second


@settings(max_examples=80, deadline=None)
@given(two_multivectors(grades=(2, 3)), st.tuples(*[_coeffs()] * 5))
def test_double_contraction_vanishes(pair, alpha_comps):
    p, _ = pair
    alpha = Covector(5, tuple(Fraction(c) for c in alpha_comps))
    assert p.contract(alpha).contract(alpha).is_zero()


def test_form_contraction_matches_iterated_on_decomposables():
    rng = random.Random("form-vs-iterated")
    m = 5
    for _ in range(100):
        n = rng.choice((2, 3, 4))
        k = rng.randint(1, n)
        p_terms = {bl: Fraction(rng.randint(-4, 4)) for bl in rng.sample(list(iter_blades(m, n)), 3)}
        p = Multivector(m, n, p_terms)
        covectors = [
            Covector(m, tuple(Fraction(rng.randint(-3, 3)) for _ in range(m)))
            for _ in range(k)
        ]
        lam = Multivector.from_vector(covectors[0].components)
        for alpha in covectors[1:]:
            lam = lam.wedge(Multivector.from_vector(alpha.components))
        expected = iterated_contraction(p, covectors) if not lam.is_zero() else None
        if lam.is_zero():
            continue
        assert contract_with(lam, p) == expected


def test_component_accessor_is_antisymmetric():
    p = blade(5, 1, 2, 3, c=Fraction(3, 2))
    assert p.component((1, 2, 3)) == Fraction(3, 2)
    assert p.component((2, 1, 3)) == Fraction(-3, 2)
    assert p.component((3, 1, 2)) == Fraction(3, 2)
    assert p.component((1, 1, 3)) == 0
    assert p.component((1, 2, 4)) == 0


def test_blade_contractions_match_dense_enumeration():
    # the one-index face table (k = 1 and k = n - 1) versus contracting with
    # every k-blade of the ambient space, and versus the general k-face
    # reference, rows and entries in the same order
    rng = random.Random("face-table")

    def ordered(table):
        return [(s, list(row.items())) for s, row in table.items()]

    for _ in range(30):
        grade = rng.randint(1, 4)
        m = rng.randint(grade, 6)
        fraction_terms = random_constant_multivector(rng, m, grade).terms
        polynomial_terms = random_linear_field(rng, m, grade).terms
        for terms in (fraction_terms, polynomial_terms):
            for k in {1, grade - 1}:
                dense = {s: contract_one_at_a_time(terms, s) for s in iter_blades(m, k)}
                table = blade_contractions(terms, k)
                assert table == {s: t for s, t in dense.items() if t}
                assert ordered(table) == ordered(reference_face_table(terms, k))
    # a grade-0 term map has no 1-faces
    for scalar in ({(): Fraction(3, 2)}, {(): Polynomial.variable(1, 3)}, {}):
        assert blade_contractions(scalar, 1) == reference_face_table(scalar, 1) == {}


@pytest.mark.parametrize("p,q", [(1, 2), (2, 2), (3, 3), (2, 4), (2, 1), (3, 2), (4, 2)])
def test_pair_table_matches_the_dense_route_on_blade_pairs(p, q):
    # every pair of basis blades S, T on six coordinates: the table's sums
    # are the dense route's wedges (which count the polarized diagonal
    # twice), and only the pairs sharing at most two indices push anything
    m = 6
    sizes = set()
    for s in iter_blades(m, p):
        for t in iter_blades(m, q):
            left, right = MultivectorField(m, p, {s: 2}), MultivectorField(m, q, {t: -3})
            shared = len(set(s) & set(t))
            for polarize in (False, True):
                table = covector_pair_table(left.terms, right.terms, polarize)
                got = {}
                for (a, b), blades in table.items():
                    twice = 2 if polarize and a == b else 1
                    sums = {blade: Polynomial.sum_of_products(m, products) * twice for blade, products in blades.items()}
                    if wedge := MultivectorField(m, p + q - 2, sums):
                        got[(a, b)] = wedge
                assert got == pair_wedges_by_contraction(left, right, polarize), (s, t, polarize)
                assert shared <= 2 or not table
                if table:
                    sizes.add(shared)
    assert sizes == set(range(min(p, q, 2) + 1))


def test_pair_table_takes_blades_and_signs_from_merge_blades(monkeypatch):
    # one merge per pushed product, and a merge that flips its sign flips
    # the sign of every push: the table adds only the position parity
    left = {(1, 2, 3): 2, (1, 4, 5): -1, (2, 4, 6): 5}
    right = {(1, 2): 3, (3, 6): -2, (4, 5): 7}
    calls = []
    merge = npk.exterior.merge_blades

    def flipped(s, t):
        calls.append((s, t))
        sign, blade = merge(s, t)
        return -sign, blade

    for polarize in (False, True):
        want = covector_pair_table(left, right, polarize)
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(npk.exterior, "merge_blades", flipped)
            got = covector_pair_table(left, right, polarize)
        pushes = sum(len(products) for blades in want.values() for products in blades.values())
        assert pushes and len(calls) == pushes
        assert got == {
            pair: {blade: [(-sign, x, y) for sign, x, y in products] for blade, products in blades.items()}
            for pair, blades in want.items()
        }


_INEXACT = {
    "multivector-float": lambda: Multivector(3, 1, {(1,): 0.1}),
    "multivector-bool": lambda: Multivector(3, 1, {(1,): True}),
    "multivector-str": lambda: Multivector(3, 1, {(1,): "1/2"}),
    "multivector-times-bool": lambda: blade(3, 1, 2) * True,
    "covector-float": lambda: Covector(2, (0.5, 1)),
    "covector-bool": lambda: Covector(2, (1, True)),
    "polynomial-float": lambda: Polynomial(2, {(1, 0): 0.5}),
    "polynomial-bool": lambda: Polynomial(2, {(1, 0): False}),
    "constant-bool": lambda: Polynomial.constant(True, 2),
    "constant-float": lambda: Polynomial.constant(1.0, 2),
    "field-float": lambda: MultivectorField(2, 1, {(1,): 0.25}),
    "rref-float": lambda: Subspace.from_vectors([[Fraction(1), 0.5]], 2),
    "rref-bool": lambda: Subspace.from_vectors([[True, 0]], 2),
    # span membership is asked as from_vectors(basis + (v,)) == span
    "contains-float": lambda: Subspace.from_vectors([[1, 0], [0.0, 1]], 2),
}


@pytest.mark.parametrize("build", _INEXACT.values(), ids=_INEXACT)
def test_float_and_bool_coefficients_are_refused(build):
    # exact ints and Fractions only, as for sample coordinates: a float would
    # be stored as its binary expansion and a bool would pass for 0 or 1
    with pytest.raises(TypeError, match="must be ints or Fractions"):
        build()


def test_multivector_repr():
    assert repr(Multivector(4, 2, {(1, 2): 1, (1, 3): -1, (2, 4): Fraction(3, 2)})) == "e(1,2) - e(1,3) + 3/2*e(2,4)"
    assert repr(Multivector(3, 1, {(2,): -2})) == "-2*e(2)"
    assert repr(Multivector(4, 0, {(): Fraction(-2, 3)})) == "-2/3"
    assert repr(Multivector.zero(4, 2)) == "0[grade 2, dim 4]"
