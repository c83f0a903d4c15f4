"""Exact rational linear algebra: reduced echelon forms and subspaces.

Matrices are iterables of equal-length rows of ints or Fractions.  The one
elimination, :func:`rref`, runs fraction-free on sparse integer rows,
stops as soon as the rank reaches the width, and turns only the pivot
rows back into Fractions.  Subspaces of the base
space and of its dual share one representation (a canonical reduced
row-echelon basis); the caller tracks variance.  Canonical form makes
subspace equality plain structural equality.  The kernel of a matrix is
the annihilator of its row space, read off that space's echelon basis.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]


def _primitive(vec: dict[int, int]) -> dict[int, int]:
    """``vec`` divided by the gcd of its entries; the empty row stays empty."""
    g = gcd(*vec.values())
    return vec if g == 1 else {j: x // g for j, x in vec.items()}


def _integer_row(row: Sequence) -> dict[int, int]:
    """The nonzero entries of ``row`` over the lcm of their denominators, primitive."""
    entries = []
    for j, x in enumerate(row):
        if x:
            if not isinstance(x, (int, Fraction)):
                x = Fraction(x)
                if not x:
                    continue
            entries.append((j, x))
    den = lcm(*(x.denominator for _, x in entries))
    return _primitive({j: x.numerator * (den // x.denominator) for j, x in entries})


def _eliminate(vec: dict[int, int], pivot_row: dict[int, int], c: int) -> dict[int, int]:
    """Primitive integer combination of ``vec`` and ``pivot_row`` with no column ``c``."""
    a, b = pivot_row[c], vec[c]
    g = gcd(a, b)
    a, b = a // g, b // g
    out = {j: a * x for j, x in vec.items()}
    for j, y in pivot_row.items():
        x = out.get(j, 0) - b * y
        if x:
            out[j] = x
        else:
            del out[j]
    return _primitive(out)


def rref(rows: Iterable[Sequence], width: int | None = None) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row-echelon form; returns the nonzero rows and pivot columns.

    Fraction-free: each row is read once, its zero entries dropped, and
    scaled by the lcm of its denominators to a primitive integer row
    ``{col: int}``.  It is reduced, in integers, against the pivot rows
    found so far (each starts at its own pivot column and is kept
    primitive, so entries stay small) and, if anything is left, joins them.
    Elimination stops once the rank equals ``width``; later rows are only
    checked for length.  Only the pivot rows are back-substituted and
    turned into dense Fraction rows with leading entry 1.
    """
    echelon: dict[int, dict[int, int]] = {}
    order: list[int] = []  # pivot columns, ascending
    for row in rows:
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ValueError("matrix rows must have equal length")
        if len(order) == width:
            continue
        vec = _integer_row(row)
        for c in order:
            if c in vec:
                vec = _eliminate(vec, echelon[c], c)
        if vec:
            lead = min(vec)
            echelon[lead] = vec
            insort(order, lead)
    if width is None:
        raise ValueError("width required for an empty matrix")
    zero = Fraction(0)
    reduced = []
    for i in reversed(range(len(order))):
        c = order[i]
        vec = echelon[c]
        for later in order[i + 1:]:
            if later in vec:
                vec = _eliminate(vec, echelon[later], later)
        echelon[c] = vec
        lead = vec[c]
        dense = [zero] * width
        for j, x in vec.items():
            dense[j] = Fraction(x, lead)
        reduced.append(dense)
    reduced.reverse()
    return reduced, order


@dataclass(frozen=True)
class Subspace:
    """Linear subspace given by a canonical reduced-echelon row basis."""

    ambient_dim: int
    basis: tuple[Vector, ...]

    @classmethod
    def from_vectors(cls, vectors: Iterable[Sequence], ambient_dim: int) -> "Subspace":
        vecs = list(vectors)
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
