"""Exact rational linear algebra: reduced echelon forms and subspaces.

Matrices are plain lists of rows of Fractions.  Subspaces of the base
space and of its dual share one representation (a canonical reduced
row-echelon basis); the caller tracks variance.  Canonical form makes
subspace equality plain structural equality.  The kernel of a matrix is
the annihilator of its row space, read off that space's echelon basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]


def _to_fraction_rows(rows: Iterable[Sequence]) -> list[list[Fraction]]:
    return [[x if isinstance(x, Fraction) else Fraction(x) for x in row] for row in rows]


def rref(rows: Iterable[Sequence], width: int | None = None) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row-echelon form; returns the nonzero rows and pivot columns."""
    mat = _to_fraction_rows(rows)
    if width is None:
        if not mat:
            raise ValueError("width required for an empty matrix")
        width = len(mat[0])
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


@dataclass(frozen=True)
class Subspace:
    """Linear subspace given by a canonical reduced-echelon row basis."""

    ambient_dim: int
    basis: tuple[Vector, ...]

    @classmethod
    def from_vectors(cls, vectors: Iterable[Sequence], ambient_dim: int) -> "Subspace":
        vecs = _to_fraction_rows(vectors)
        if not vecs:
            return cls(ambient_dim, ())
        reduced, _ = rref(vecs, ambient_dim)
        return cls(ambient_dim, tuple(tuple(row) for row in reduced))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        rows = tuple(
            tuple(Fraction(1 if j == i else 0) for j in range(ambient_dim))
            for i in range(ambient_dim)
        )
        return cls(ambient_dim, rows)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, vector: Sequence) -> bool:
        v = [x if isinstance(x, Fraction) else Fraction(x) for x in vector]
        if len(v) != self.ambient_dim:
            raise ValueError("vector length must equal the ambient dimension")
        for row in self.basis:
            p = next(i for i, x in enumerate(row) if x)
            if v[p]:
                f = v[p]
                v = [a - f * b for a, b in zip(v, row)]
        return not any(v)

    def annihilator(self) -> "Subspace":
        """Covectors vanishing on the subspace: the kernel of its basis rows.

        Read off the reduced echelon basis: each free column ``f`` gives
        ``e_f - sum_i basis[i][f] e_(pivot i)``.
        """
        width = self.ambient_dim
        pivots = [next(i for i, x in enumerate(row) if x) for row in self.basis]
        vectors = []
        for free in sorted(set(range(width)) - set(pivots)):
            v = [Fraction(0)] * width
            v[free] = Fraction(1)
            for p, row in zip(pivots, self.basis):
                v[p] = -row[free]
            vectors.append(v)
        return Subspace.from_vectors(vectors, width)


def intersect(u: Subspace, v: Subspace) -> Subspace:
    """Canonical basis of the intersection of two subspaces."""
    if u.ambient_dim != v.ambient_dim:
        raise ValueError("subspaces live in different ambient spaces")
    if u.dim == 0 or v.dim == 0:
        return Subspace.zero(u.ambient_dim)
    # columns are the two bases; kernel elements (a, b) satisfy
    # sum a_i u_i + sum b_j v_j = 0, so sum a_i u_i lies in both spaces
    cols = list(u.basis) + list(v.basis)
    rows = [[col[r] for col in cols] for r in range(u.ambient_dim)]
    kernel = Subspace.from_vectors(rows, len(cols)).annihilator()
    vectors = []
    for kv in kernel.basis:
        combo = [Fraction(0)] * u.ambient_dim
        for a, base in zip(kv[: u.dim], u.basis):
            if a:
                combo = [x + a * y for x, y in zip(combo, base)]
        vectors.append(combo)
    return Subspace.from_vectors(vectors, u.ambient_dim)
