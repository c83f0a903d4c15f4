import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from npk.linalg import Subspace, intersect


def F(x):
    return Fraction(x)


def column_image(mat, ncols):
    """Column space of ``mat``, eliminated independently of its row space."""
    return Subspace.from_vectors([[row[c] for row in mat] for c in range(ncols)], len(mat))


def test_identity_matrix():
    mat = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    space = Subspace.from_vectors(mat, 3)
    rank, kernel = space.dim, space.annihilator()
    image = column_image(mat, 3)
    assert rank == 3 == image.dim
    assert kernel == Subspace.zero(3)
    assert image == Subspace.full(3)


def test_zero_matrix():
    mat = [[0, 0, 0, 0], [0, 0, 0, 0]]
    space = Subspace.from_vectors(mat, 4)
    rank, kernel = space.dim, space.annihilator()
    image = column_image(mat, 4)
    assert rank == 0 == image.dim
    assert kernel == Subspace.full(4)
    assert image == Subspace.zero(2)


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
    assert intersect(u, v) == Subspace.from_vectors([[0, 1, 0]], 3)


def test_intersection_idempotent():
    u = Subspace.from_vectors([[1, 2, 3], [0, 1, 1]], 3)
    assert intersect(u, u) == u


def test_intersection_derived():
    # solve the joint system by hand: span{e1+e2, e3} ∩ span{e1, e2} = span{e1+e2}
    u = Subspace.from_vectors([[1, 1, 0], [0, 0, 1]], 3)
    v = Subspace.from_vectors([[1, 0, 0], [0, 1, 0]], 3)
    assert intersect(u, v) == Subspace.from_vectors([[1, 1, 0]], 3)


def test_intersection_ambient_mismatch():
    with pytest.raises(ValueError):
        intersect(Subspace.full(3), Subspace.full(4))


def test_contains():
    assert Subspace.from_vectors([[1, 0]], 2).contains([5, 0])
    assert not Subspace.from_vectors([[1, 0]], 2).contains([0, 1])
    # (e1 + e2) - (e2 + e3) = e1 - e3
    u = Subspace.from_vectors([[1, 1, 0], [0, 1, 1]], 3)
    assert u.contains([1, 0, -1])


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
            assert image.contains([mat[r][c] for r in range(rows)])


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
    assert intersect(u, v) == intersect(v, u)


@settings(max_examples=40, deadline=None)
@given(subspaces(), subspaces(), subspaces())
def test_intersect_associates(u, v, w):
    assert intersect(intersect(u, v), w) == intersect(u, intersect(v, w))


@settings(max_examples=60, deadline=None)
@given(subspaces(), subspaces())
def test_dimension_formula(u, v):
    meet = intersect(u, v)
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
