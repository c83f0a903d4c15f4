import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from math import lcm

from npk.linalg import Subspace, sparse_rank
from oracles import fraction_rref, in_span, intersection_by_annihilators


def F(x):
    return Fraction(x)


def full(dim):
    """The whole space, its reduced-echelon basis the identity rows."""
    return Subspace(dim, tuple(tuple(F(int(i == j)) for j in range(dim)) for i in range(dim)))


def column_image(mat, ncols):
    """Column space of ``mat``, eliminated independently of its row space."""
    return Subspace.from_vectors([[row[c] for row in mat] for c in range(ncols)], len(mat))


def test_identity_matrix():
    mat = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    space = Subspace.from_vectors(mat, 3)
    rank, kernel = space.dim, space.annihilator()
    image = column_image(mat, 3)
    assert rank == 3 == image.dim
    assert kernel == Subspace(3, ())
    assert image == full(3)


def test_zero_matrix():
    mat = [[0, 0, 0, 0], [0, 0, 0, 0]]
    space = Subspace.from_vectors(mat, 4)
    rank, kernel = space.dim, space.annihilator()
    image = column_image(mat, 4)
    assert rank == 0 == image.dim
    assert kernel == full(4)
    assert image == Subspace(2, ())


def test_rank_one_matrix():
    # hand elimination: row2 = 2*row1; kernel spanned by (2, -1), image by (1, 2)
    mat = [[1, 2], [2, 4]]
    space = Subspace.from_vectors(mat, 2)
    rank, kernel = space.dim, space.annihilator()
    image = column_image(mat, 2)
    assert rank == 1 == image.dim
    assert kernel == Subspace.from_vectors([[2, -1]], 2)
    assert image == Subspace.from_vectors([[1, 2]], 2)
    assert rank + kernel.dim == 2


def test_intersection_basic():
    u = Subspace.from_vectors([[1, 0, 0], [0, 1, 0]], 3)
    v = Subspace.from_vectors([[0, 1, 0], [0, 0, 1]], 3)
    assert intersection_by_annihilators(u, v) == Subspace.from_vectors([[0, 1, 0]], 3)


def test_intersection_idempotent():
    u = Subspace.from_vectors([[1, 2, 3], [0, 1, 1]], 3)
    assert intersection_by_annihilators(u, u) == u


def test_intersection_derived():
    # solve the joint system by hand: span{e1+e2, e3} ∩ span{e1, e2} = span{e1+e2}
    u = Subspace.from_vectors([[1, 1, 0], [0, 0, 1]], 3)
    v = Subspace.from_vectors([[1, 0, 0], [0, 1, 0]], 3)
    assert intersection_by_annihilators(u, v) == Subspace.from_vectors([[1, 1, 0]], 3)


def test_intersection_ambient_mismatch():
    with pytest.raises(ValueError):
        intersection_by_annihilators(full(3), full(4))


def test_contains():
    assert in_span(Subspace.from_vectors([[1, 0]], 2), [5, 0])
    assert not in_span(Subspace.from_vectors([[1, 0]], 2), [0, 1])
    # (e1 + e2) - (e2 + e3) = e1 - e3
    u = Subspace.from_vectors([[1, 1, 0], [0, 1, 1]], 3)
    assert in_span(u, [1, 0, -1])


# ---------------------------------------------------------------------------
# properties

def _random_matrix(rng, rows, cols):
    return [[F(rng.randint(-5, 5)) for _ in range(cols)] for _ in range(rows)]


def test_image_reproduces_columns():
    rng = random.Random("image-columns")
    for _ in range(40):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        mat = _random_matrix(rng, rows, cols)
        rank = Subspace.from_vectors(mat, cols).dim
        image = column_image(mat, cols)
        # row rank by elimination, column rank by a separate elimination
        assert image.dim == rank
        for c in range(cols):
            assert in_span(image, [mat[r][c] for r in range(rows)])


def test_kernel_annihilates():
    rng = random.Random("kernel-check")
    for _ in range(40):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        mat = _random_matrix(rng, rows, cols)
        space = Subspace.from_vectors(mat, cols)
        rank, kernel = space.dim, space.annihilator()
        assert rank + kernel.dim == cols
        for vec in kernel.basis:
            assert all(
                sum(mat[r][c] * vec[c] for c in range(cols)) == 0 for r in range(rows)
            )


@st.composite
def subspaces(draw, ambient=5):
    count = draw(st.integers(0, 3))
    vectors = [
        [draw(st.integers(-4, 4)) for _ in range(ambient)] for _ in range(count)
    ]
    return Subspace.from_vectors(vectors, ambient)


@settings(max_examples=60, deadline=None)
@given(subspaces(), subspaces())
def test_intersect_commutes(u, v):
    assert intersection_by_annihilators(u, v) == intersection_by_annihilators(v, u)


@settings(max_examples=40, deadline=None)
@given(subspaces(), subspaces(), subspaces())
def test_intersect_associates(u, v, w):
    meet = intersection_by_annihilators
    assert meet(meet(u, v), w) == meet(u, meet(v, w))


@settings(max_examples=60, deadline=None)
@given(subspaces(), subspaces())
def test_dimension_formula(u, v):
    meet = intersection_by_annihilators(u, v)
    join = Subspace.from_vectors(u.basis + v.basis, u.ambient_dim)
    assert meet.dim == u.dim + v.dim - join.dim


def test_canonical_form_is_basis_independent():
    rng = random.Random("canonical")
    for _ in range(40):
        ambient = rng.randint(2, 6)
        count = rng.randint(1, ambient)
        vectors = [[F(rng.randint(-4, 4)) for _ in range(ambient)] for _ in range(count)]
        space = Subspace.from_vectors(vectors, ambient)
        # random invertible recombination of the same vectors
        recombined = list(vectors)
        for _ in range(6):
            i, j = rng.randrange(count), rng.randrange(count)
            if i != j:
                factor = F(rng.randint(-3, 3))
                recombined[i] = [a + factor * b for a, b in zip(recombined[i], recombined[j])]
            else:
                scale = F(rng.choice([1, 2, 3, -1, -2]))
                recombined[i] = [scale * a for a in recombined[i]]
        assert Subspace.from_vectors(recombined, ambient) == space


# ---------------------------------------------------------------------------
# the fraction-free kernel against the dense Fraction Gauss-Jordan oracle

def integer_rows(rows):
    """Each row as sparse integers ``{col: int}``, scaled by its own denominator lcm."""
    out = []
    for row in rows:
        row = [Fraction(x) for x in row]
        den = lcm(*(x.denominator for x in row))
        out.append({j: int(x * den) for j, x in enumerate(row) if x})
    return out


def assert_matches_oracle(rows, width):
    # the canonical basis and its leading columns are the Gauss-Jordan rows and pivots
    basis = Subspace.from_vectors(rows, width).basis
    reduced, pivots = fraction_rref(rows, width)
    assert basis == tuple(map(tuple, reduced))
    assert [next(j for j, x in enumerate(row) if x) for row in basis] == pivots
    for row in basis:
        assert all(isinstance(x, Fraction) for x in row)
    assert_rank_matches_oracle(rows, width)


def assert_rank_matches_oracle(rows, width):
    want = len(fraction_rref(rows, width)[0])
    assert sparse_rank(integer_rows(rows), width) == want
    assert sparse_rank(iter(integer_rows(rows)), width) == want


def test_rref_special_rows():
    assert_matches_oracle([[0, 0, 0], [1, 2, 3], [0, 0, 0]], 3)
    assert_matches_oracle([[1, 2, 3], [1, 2, 3], [1, 2, 3]], 3)
    assert_matches_oracle([[2, -4, 6], [Fraction(-1, 3), Fraction(2, 3), -1], [0, 1, 5], [0, -7, -35]], 3)
    assert_matches_oracle([[0, 0], [0, 0]], 2)


def test_rref_shapes():
    assert_matches_oracle([[1, 2], [3, 4], [5, 6], [7, 9]], 2)
    assert_matches_oracle([[0, 0, 1, 2, 3, 4], [0, 1, 0, 0, 2, 0]], 6)
    assert_matches_oracle([[], [], []], 0)
    assert_matches_oracle([], 0)
    assert_matches_oracle([], 4)


def test_rref_hilbert_8():
    hilbert = [[Fraction(1, i + j + 1) for j in range(8)] for i in range(8)]
    assert Subspace.from_vectors(hilbert, 8).dim == 8
    assert_matches_oracle(hilbert, 8)


def _entry(rng):
    kind = rng.random()
    if kind < 0.4:
        return 0
    if kind < 0.7:
        return rng.randint(-9, 9)
    return Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))


def test_rref_seeded_against_oracle():
    rng = random.Random("rref-oracle")
    for _ in range(150):
        rows, width = rng.randint(0, 7), rng.randint(0, 7)
        mat = [[_entry(rng) for _ in range(width)] for _ in range(rows)]
        if mat and rng.random() < 0.5:
            # force dependence: duplicates, multiples and sums of earlier rows
            for i in range(rng.randint(1, 3)):
                a, b = rng.randrange(len(mat)), rng.randrange(len(mat))
                c = Fraction(rng.randint(-5, 5), rng.randint(1, 7))
                mat.append([x + c * y for x, y in zip(mat[a], mat[b])])
            rng.shuffle(mat)
        assert_matches_oracle(mat, width)


entries = st.one_of(
    st.integers(-10**6, 10**6),
    st.fractions(max_denominator=10**6),
    st.just(0),
)


@st.composite
def matrices(draw):
    width = draw(st.integers(0, 6))
    base = draw(st.lists(st.lists(entries, min_size=width, max_size=width), max_size=6))
    scales = draw(st.lists(st.fractions(max_denominator=50), max_size=3))
    extra = [[s * x for x in row] for row, s in zip(base, scales)]
    return base + extra, width


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_rref_matches_oracle(case):
    mat, width = case
    assert_matches_oracle(mat, width)


@settings(max_examples=80, deadline=None)
@given(matrices(), st.randoms(use_true_random=False))
def test_subspace_invariant_under_permutation_and_scaling(case, rnd):
    mat, width = case
    space = Subspace.from_vectors(mat, width)
    shuffled = [list(row) for row in mat]
    rnd.shuffle(shuffled)
    scaled = []
    for row in shuffled:
        factor = Fraction(rnd.choice([-1, 1]) * rnd.randint(1, 10**6), rnd.randint(1, 10**6))
        scaled.append([factor * x for x in row])
    assert Subspace.from_vectors(shuffled, width) == space
    assert Subspace.from_vectors(scaled, width) == space


def test_rref_validates_after_full_rank():
    # the first two rows already have full rank; a later ragged or inexact row must still raise
    for rows, length in (([[1, 0], [0, 1], [1, 2, 3]], 3), ([[1, 0], [0, 1], [1]], 1),
                         (iter([[1, 0], [0, 1], [5, 5], []]), 0)):
        with pytest.raises(ValueError, match=f"^vectors must have length 2, not {length}$"):
            Subspace.from_vectors(rows, 2)
    for row in ([0.5, 1], [True, 0], [1, "1"]):
        with pytest.raises(TypeError, match="^entries must be ints or Fractions, not "):
            Subspace.from_vectors([[1, 0], [0, 1], row], 2)


def test_sparse_rank_stops_at_full_rank():
    # rows after the rank reaches the width are never read
    def rows():
        yield {0: 2, 1: 4}
        yield {0: 6, 1: 12}
        yield {1: -3}
        raise AssertionError("read a row after full rank")

    assert sparse_rank(rows(), 2) == 2
    assert sparse_rank([{}, {2: 5}, {}], 3) == 1
    assert sparse_rank([], 3) == 0
