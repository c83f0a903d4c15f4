"""Exact rational linear algebra: reduced echelon forms and subspaces.

Matrices are iterables of equal-length rows of ints or Fractions, which the
one rational-to-integer scaling, :func:`_integral`, turns (like the term
maps of ``grassmann``) into sparse integer rows; the one forward
elimination, :func:`_forward`, runs fraction-free on those rows and stops
once the rank reaches the width; :func:`_reduced` turns only its pivot rows
back into Fractions.  :func:`rref` is the two in turn, :func:`sparse_rank`
the first alone, and ``grassmann._image`` feeds it face rows.  Subspaces
of the base space and of its dual share one representation (a canonical
reduced row-echelon basis); the caller tracks variance.  Canonical form
makes subspace equality plain structural equality.  The kernel of a matrix
is the annihilator of its row space, read off that space's echelon basis.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .polynomial import _EXACT

Vector = tuple[Fraction, ...]


def _primitive(vec: dict[int, int]) -> dict[int, int]:
    """``vec`` divided by the gcd of its entries; the empty row stays empty."""
    g = gcd(*vec.values())
    return vec if g == 1 else {j: x // g for j, x in vec.items()}


def _integral(coefs: dict) -> dict:
    """The ints and Fractions of ``coefs`` (any keys) times the lcm of their denominators, all integers."""
    den = lcm(*(c.denominator for c in coefs.values()))
    return {key: c.numerator * (den // c.denominator) for key, c in coefs.items()}


def _integer_row(row: Sequence) -> dict[int, int]:
    """The nonzero entries of ``row``, exact ints or Fractions, by :func:`_integral`."""
    if not {*map(type, row)} <= _EXACT:
        raise TypeError(f"entries must be ints or Fractions, not {row!r}")
    return _integral({j: x for j, x in enumerate(row) if x})


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


def _forward(vecs: Iterable[dict[int, int]], width: int) -> tuple[dict[int, dict[int, int]], list[int]]:
    """Fraction-free forward elimination of sparse integer rows.

    Each row is made primitive and reduced, in integers, against the pivot
    rows found so far (each starts at its own pivot column and is kept
    primitive, so entries stay small); if anything is left it joins them.
    Stops, reading no further row, once the rank equals ``width``.
    Returns the pivot rows by pivot column and the pivot columns, ascending.
    """
    echelon: dict[int, dict[int, int]] = {}
    order: list[int] = []
    for vec in vecs:
        vec = _primitive(vec)
        for c in order:
            if c in vec:
                vec = _eliminate(vec, echelon[c], c)
        if vec:
            lead = min(vec)
            echelon[lead] = vec
            insort(order, lead)
            if len(order) == width:
                break
    return echelon, order


def sparse_rank(vecs: Iterable[dict[int, int]], width: int) -> int:
    """Rank of sparse integer rows ``{col: int}`` over at most ``width`` distinct columns.

    The forward pass of :func:`rref` alone: no back-substitution and no
    Fractions.
    """
    return len(_forward(vecs, width)[1])


def rref(rows: Iterable[Sequence], width: int | None = None) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row-echelon form; returns the nonzero rows and pivot columns.

    Fraction-free: every row is checked for length, and each one the
    forward pass (:func:`_forward`) reads has its zero entries dropped and
    is scaled by the lcm of its denominators to an integer row
    ``{col: int}``.  Elimination stops once the rank equals ``width``.
    Only the pivot rows are back-substituted (:func:`_reduced`) and
    turned into dense Fraction rows with leading entry 1.
    """
    rows = list(rows)
    if width is None:
        if not rows:
            raise ValueError("width required for an empty matrix")
        width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise ValueError("matrix rows must have equal length")
    echelon, order = _forward(map(_integer_row, rows), width)
    return _reduced(echelon, order, width), order


def _reduced(echelon: dict[int, dict[int, int]], order: list[int], width: int) -> list[list[Fraction]]:
    """The pivot rows of :func:`_forward`, back-substituted in integers (in place), as dense rows with leading 1."""
    reduced = []
    for i in reversed(range(len(order))):
        c = order[i]
        vec = echelon[c]
        for later in order[i + 1:]:
            if later in vec:
                vec = _eliminate(vec, echelon[later], later)
        echelon[c] = vec
        dense = [Fraction(0)] * width
        for j, x in vec.items():
            dense[j] = Fraction(x, vec[c])
        reduced.append(dense)
    return reduced[::-1]


@dataclass(frozen=True)
class Subspace:
    """Linear subspace given by a canonical reduced-echelon row basis."""

    ambient_dim: int
    basis: tuple[Vector, ...]

    @classmethod
    def from_vectors(cls, vectors: Iterable[Sequence], ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, tuple(map(tuple, rref(vectors, ambient_dim)[0])))

    @property
    def dim(self) -> int:
        return len(self.basis)

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

