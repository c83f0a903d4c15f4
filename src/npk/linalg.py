"""Exact rational linear algebra: reduced echelon forms and subspaces.

Matrices are iterables of equal-length rows of ints or Fractions, which the
one rational-to-integer scaling, :func:`_integral`, turns (like the term
maps of ``grassmann``) into sparse integer rows; the one forward
elimination, :func:`_forward`, runs fraction-free on those rows and stops
once the rank reaches the width; :func:`_reduced` turns only its pivot rows
back into Fractions.  :meth:`Subspace.from_vectors` is the two in turn,
:func:`sparse_rank` the first alone, and ``grassmann._image`` feeds it face
rows.  Subspaces of the base space and of its dual share one representation
(a canonical reduced row-echelon basis); the caller tracks variance.
Canonical form makes subspace equality plain structural equality.  An
annihilator (the kernel of the basis rows) is read off the echelon basis as
integer rows.
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

    The forward pass of :meth:`Subspace.from_vectors` alone: no
    back-substitution and no Fractions.
    """
    return len(_forward(vecs, width)[1])


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
        """The span of ``vectors``, each of ``ambient_dim`` exact ints or Fractions.

        Every vector is checked, also after the rank is full, then scaled by
        :func:`_integral` to a sparse integer row; one :func:`_forward` and
        one :func:`_reduced` give the canonical basis.
        """
        rows = []
        for vec in vectors:
            if len(vec) != ambient_dim:
                raise ValueError(f"vectors must have length {ambient_dim}, not {len(vec)}")
            if not {*map(type, vec)} <= _EXACT:
                raise TypeError(f"entries must be ints or Fractions, not {vec!r}")
            rows.append(_integral({j: x for j, x in enumerate(vec) if x}))
        return cls(ambient_dim, tuple(map(tuple, _reduced(*_forward(rows, ambient_dim), ambient_dim))))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def annihilator(self) -> "Subspace":
        """Covectors vanishing on the subspace: the kernel of its basis rows.

        Read off the reduced echelon basis: each free column ``f`` gives the
        sparse integer row of ``e_f - sum_i basis[i][f] e_(pivot i)`` (by
        :func:`_integral`), and one :func:`_forward` and :func:`_reduced`
        put those rows in canonical form.
        """
        width = self.ambient_dim
        pivots = [next(i for i, x in enumerate(row) if x) for row in self.basis]
        rows = (
            _integral({free: 1} | {p: -row[free] for p, row in zip(pivots, self.basis) if row[free]})
            for free in sorted(set(range(width)) - set(pivots))
        )
        return Subspace(width, tuple(map(tuple, _reduced(*_forward(rows, width), width))))
