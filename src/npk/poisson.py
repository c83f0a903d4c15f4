"""Classification of grade-n multivector fields as n-ary Poisson structures.

A grade-n field induces an n-ary bracket on functions; the bracket
satisfies the generalized Jacobi identity iff

* n is even and the differential defect vanishes identically (equivalent
  to the vanishing of the field's self-bracket), or
* n is odd and, in addition to the differential defect vanishing, the
  algebraic condition ``(i(alpha) P) ^ (i(beta) P) = 0`` holds for all
  covectors.

Both conditions are decided exactly: the algebraic one reduces to basis
covector pairs by bilinearity (:func:`~npk.exterior.first_failing_pair`),
the differential one is the polynomial identity ``K(P, P) = 0`` of
:func:`~npk.fields.differential_defect`.  The algebraic Nambu condition
is equivalent to pointwise decomposability of the field value
(Takhtajan; Gautheron), which the one Plucker loop
:func:`~npk.grassmann.plucker_holds` decides; the component
and polarized routes that cross-check it live in :mod:`npk.oracles`.  The
module also builds the semi-decomposable structures of constant rank 2n
and decides, for decomposable fields, involutivity of the image
distribution as a polynomial identity on the face rows.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, cycle
from math import gcd, lcm
from typing import Iterable, Sequence

from .exterior import blade_contractions, first_failing_pair, merge_blades
from .fields import MultivectorField, coordinate_vector_field, differential_defect, schouten
from .grassmann import plucker_holds
from .linalg import sparse_rank
from .polynomial import _integer_point, integer_evaluator

Point = tuple[Fraction, ...]


@dataclass(frozen=True)
class AlgebraicConditionReport:
    holds: bool
    witness: tuple[int, int] | None = None


@dataclass(frozen=True)
class PoissonVerdict:
    """Full classification of one multivector field."""

    parity: str
    algebraic_holds: bool
    algebraic_witness: tuple[int, int] | None
    differential_holds: bool
    is_poisson: bool
    rank_at_samples: tuple[tuple[Point, int], ...]
    pointwise_decomposable: bool
    nambu_algebraic: bool


def algebraic_condition(field: MultivectorField) -> AlgebraicConditionReport:
    """Decide ``(i(alpha) P) ^ (i(beta) P) = 0`` for all covectors.

    Bilinearity reduces the quantifier to basis pairs ``a <= b`` (the
    expression is symmetric in the pair for odd grade and antisymmetric
    for even grade, so ordered pairs cover everything), not polarized.  On
    failure the lexicographically first failing pair is reported.  For even
    grade the classifier ignores this condition; it is still evaluated and
    reported.
    """
    if field.grade < 2:
        raise ValueError("needs grade at least 2")
    witness = first_failing_pair(field.terms, field.terms, False)
    return AlgebraicConditionReport(witness is None, witness)


def differential_condition(field: MultivectorField) -> bool:
    """Whether the differential defect vanishes identically."""
    return differential_defect(field).is_zero()


def pointwise_decomposable(field: MultivectorField) -> bool:
    """Whether the field value is decomposable at every point.

    All contraction-wedge defects over basis (n-1)-forms are required to
    vanish as polynomial identities in the coordinates.  Grade at most 1
    counts as decomposable, as in :func:`~npk.grassmann.is_decomposable`.
    """
    return field.grade <= 1 or plucker_holds(field.terms)


def default_sample_points(dim: int, seed: int = 0, extra: int = 8) -> _SamplePoints:
    """Origin, the coordinate unit points, and seeded random rational points.

    Each random coordinate is ``a/b`` with ``a = randint(-6, 6)`` drawn
    before ``b = randint(1, 3)``.  The set is built once per
    ``(dim, seed, extra)`` and shared: a tuple that cannot be edited, so a
    caller that edits it copies it first with ``list(...)``.
    """
    return _sample_points(dim, seed, extra)


class _SamplePoints(tuple):
    """A default point set, with each point's integer form (``forms``) and strings (``strs``)."""


# one set per key, so each key hands out the same strs tuples: canonical_json
# keys a report table's text by their ids, and their identity lets it reuse that text
@lru_cache(maxsize=16)
def _sample_points(dim: int, seed: int, extra: int) -> _SamplePoints:
    zero, one = Fraction(0), Fraction(1)
    points: list[Point] = [(zero,) * dim]
    for u in range(dim):
        points.append(tuple(one if i == u else zero for i in range(dim)))
    randint = random.Random(seed).randint
    for _ in range(extra):
        points.append(tuple(Fraction(randint(-6, 6), randint(1, 3)) for _ in range(dim)))
    shared = _SamplePoints(points)
    shared.forms = tuple(_integer_point(pt, dim) for pt in points)
    shared.strs = tuple(tuple(map(str, pt)) for pt in points)
    return shared


def _point_values(field: MultivectorField, points: Iterable[Point]) -> tuple[Sequence[Point], list[list[int]]]:
    """The points made Fractions and the ``integer_evaluator`` values at each: a
    default set of the field's dimension is read whole, with its ``forms``, any
    other points once, one by one; a constant field's one vector serves them all."""
    m, polys = field.dim, list(field.terms.values())
    values = None if field.is_constant() else integer_evaluator(polys, m)
    if isinstance(points, _SamplePoints) and len(points[0]) == m:
        pts, forms = points, points.forms
    else:
        pts, forms = [], []
        for pt in points:
            forms.append(_integer_point(pt, m))
            # tuples of Fractions, such as the default points, are kept as they are
            if type(pt) is not tuple or {*map(type, pt)} - {Fraction}:
                pt = tuple(c if isinstance(c, Fraction) else Fraction(c) for c in pt)
            pts.append(pt)
    if values is not None:
        return pts, [values(*form)[0] for form in forms]
    scale = lcm(*(p.den for p in polys))
    return pts, [[p.terms[0] * (scale // p.den) for p in polys]] if pts else []


def sample_ranks(field: MultivectorField, points: Sequence[Point]) -> tuple[tuple[Point, int], ...]:
    """``(point, rank)`` at each point, the point checked and made Fractions.

    The (n-1)-face table is built once, symbolically: contracting
    ``{blade: k}`` (``k`` the blade's 1-based position) gives each face the
    entries ``{(u,): +-k}``, so row ``face`` of the sharp matrix reads
    component ``|k|`` with the sign of ``k``.  At a point,
    :func:`~npk.polynomial.integer_evaluator` gives the integers
    ``S_k = p_k(x) * L * D**deg`` (a bool or float coordinate is a
    ``TypeError``); the scale is positive and shared, so these rows have the
    sharp matrix's rank, and no Fraction is built.  Points whose vectors
    agree after dividing by their gcd have matrices ``g * M`` and ``g' * M``
    with ``g, g' > 0``, so one rank: :func:`~npk.linalg.sparse_rank` runs
    once per such key, and the origin shares its key with every unit point
    whose coordinate no component reads.  A constant field is not
    evaluated: at degree 0, ``S_k = p_k * L`` (its numerator times
    ``L/den_k``) does not depend on ``x``, so one vector, key and
    elimination rank every point; each point is still checked.

    A face of exactly one blade is a *single* row, ``+-S_k e_u``.  Let
    ``U`` be the columns ``u`` of the single rows whose ``S_k`` is nonzero
    at a key.  The row space ``R`` contains ``span{e_u : u in U}``, and the
    projection deleting the columns ``U`` has exactly that span as kernel,
    so ``dim R = |U| + dim`` of the projected ``R``.  The projected single
    rows vanish, so the rank is ``|U|`` plus the rank of the other rows
    with the columns ``U`` deleted, and only those rows are eliminated.
    """
    if field.grade < 1:
        raise ValueError("sample ranks need grade at least 1")
    m = field.dim
    faces = blade_contractions({blade: k for k, blade in enumerate(field.terms, 1)}, field.grade - 1)
    single, table = [], []
    for face in faces.values():
        if len(face) == 1:
            ((u,), k), = face.items()
            single.append((u - 1, abs(k)))
        else:
            table.append([(u - 1, k) for (u,), k in face.items()])
    ranks: dict[tuple[int, ...], int] = {}
    out = []
    pts, vectors = _point_values(field, points)
    for ints in vectors:
        g = gcd(*ints)
        key = tuple(v // g for v in ints) if g > 1 else tuple(ints)
        if (rank := ranks.get(key)) is None:
            vals = (0, *key)
            done = {col for col, k in single if vals[k]}
            rows = (
                {col: vals[k] if k > 0 else -vals[-k] for col, k in entries if vals[abs(k)] and col not in done}
                for entries in table
            )
            rank = ranks[key] = len(done) + sparse_rank(rows, m - len(done))
        out.append(rank)
    return tuple(zip(pts, cycle(out)))


def classify(
    field: MultivectorField,
    sample_points: Sequence[Point] | None = None,
) -> PoissonVerdict:
    """Classify a grade-n field (n >= 2) against the Poisson conditions.

    The verdict applies the parity rule exactly: even grade needs only the
    differential condition, odd grade needs both; n = 2 is the classical
    Poisson case, decided by ``[P, P] = 0`` alone.  Ranks are reported at
    the supplied sample points, or at ``default_sample_points(dim)``.
    Pointwise decomposability, a polynomial identity equivalent to the
    algebraic Nambu condition, fills both fields.  Every field is what the
    four stages give, but no stage runs whose answer is already fixed:

    * n = 3: by the paper's lemma with k = 1, ``P(x)`` is decomposable iff
      every bivector ``i(alpha) P(x)`` squares to zero; over Q, iff the
      polarization ``(i(alpha) P) ^ (i(beta) P)``, the algebraic condition,
      vanishes (it is symmetric: bivectors commute).
    * n != 3: a decomposable ``P(x) = v_1 ^ .. ^ v_n != 0`` has the image
      ``V = span{v_i}`` of rank n, so :func:`~npk.grassmann.plucker_holds`
      runs only where no sample rank is above n.
    * decomposable, n >= 3: ``i(alpha) P ^ i(beta) P`` lies in
      ``Λ^(2n-2) V = 0``, so the algebraic condition holds with no witness.
      Near x with ``P(x) != 0``, ``P`` is a rational multiple of the wedge of
      n face rows independent at x; each term ``(i(dx^u) P) ^ d_u P`` of the
      differential defect then wedges 2n - 2 > n vectors of ``V``, and a
      polynomial zero on the open set ``{P != 0}`` is zero.
    * decomposable, n = 3: the rank is n where ``P(x) != 0``, else 0: no elimination.
    """
    if field.grade < 2:
        raise ValueError("classification needs grade at least 2")
    n, even = field.grade, field.grade % 2 == 0
    if sample_points is None:
        sample_points = default_sample_points(field.dim)
    if n == 3:
        algebraic = algebraic_condition(field)
        decomposable = algebraic.holds
        if decomposable:
            pts, vectors = _point_values(field, sample_points)
            ranks = tuple(zip(pts, cycle([n * any(s) for s in vectors])))
        else:
            ranks = sample_ranks(field, sample_points)
    else:
        ranks = sample_ranks(field, sample_points)
        decomposable = all(rank <= n for _, rank in ranks) and pointwise_decomposable(field)
        algebraic = AlgebraicConditionReport(True) if decomposable and n > 3 else algebraic_condition(field)
    differential = (decomposable and n >= 3) or differential_condition(field)
    return PoissonVerdict(
        parity="even" if even else "odd",
        algebraic_holds=algebraic.holds,
        algebraic_witness=algebraic.witness,
        differential_holds=differential,
        is_poisson=differential if even else (algebraic.holds and differential),
        rank_at_samples=ranks,
        pointwise_decomposable=decomposable,
        nambu_algebraic=decomposable,
    )


# ---------------------------------------------------------------------------
# constructors

def build_semidecomposable(
    v_fields: Sequence[MultivectorField],
    w_fields: Sequence[MultivectorField],
    h: int,
) -> MultivectorField:
    """Alternated mixed product of two frames of n vector fields each.

    Sums, over all h-subsets A of the frame indices, the shuffle-signed
    wedge of the V-fields indexed by A with the W-fields indexed by the
    complement; the usual 1/(h!(n-h)!) normalization is absorbed exactly
    because each subset class collapses to a single term.  Requires
    ``0 <= 2h <= n-3``; the n V-fields are only consulted when h > 0, and
    the result has constant rank 2n for h > 0 (n for h = 0) wherever the
    2n frame fields are independent.
    """
    n = len(w_fields)
    if h < 0 or 2 * h > n - 3:
        raise ValueError(f"h={h} out of range: need 0 <= 2h <= n-3 with n={n}")
    if h > 0 and len(v_fields) != n:
        raise ValueError(f"need {n} V fields when h > 0, got {len(v_fields)}")
    frames = list(v_fields) + list(w_fields)
    for f in frames:
        if f.grade != 1:
            raise ValueError("frame entries must be grade-1 fields")
        if f.dim != w_fields[0].dim:
            raise ValueError("incompatible spaces")
    m = w_fields[0].dim
    total = MultivectorField.zero(m, n)
    for subset in combinations(range(n), h):
        rest = tuple(i for i in range(n) if i not in subset)
        sign = merge_blades(subset, rest)[0]
        factors = [v_fields[i] for i in subset] + [w_fields[j] for j in rest]
        term = factors[0]
        for f in factors[1:]:
            term = term.wedge(f)
        total = total + term if sign > 0 else total - term
    return total


def coordinate_semidecomposable(m: int, h: int, n: int) -> MultivectorField:
    """The semi-decomposable structure on coordinate frames.

    For h > 0 the two frames are the first n and the next n coordinate
    directions (so 2n <= m); for h = 0 the result is the wedge of the
    first n coordinate directions.
    """
    if h == 0:
        if m < n:
            raise ValueError(f"need m >= n, got m={m}, n={n}")
        w = [coordinate_vector_field(m, j) for j in range(1, n + 1)]
        return build_semidecomposable([], w, 0)
    if m < 2 * n:
        raise ValueError(f"need m >= 2n for h > 0, got m={m}, n={n}")
    v = [coordinate_vector_field(m, i) for i in range(1, n + 1)]
    w = [coordinate_vector_field(m, n + j) for j in range(1, n + 1)]
    return build_semidecomposable(v, w, h)


def block_sum(u: int, s: int, m: int) -> MultivectorField:
    """Sum of s disjoint coordinate blocks of grade 2u on consecutive axes.

    Generalizes the constant symplectic bivector (u = 1); for u >= 2 the
    result is an even-grade Poisson field of rank 2us that is reducible
    and fails the algebraic condition when s >= 2.
    """
    if u < 1 or s < 1:
        raise ValueError("u and s must be positive")
    n = 2 * u
    if m < 2 * u * s:
        raise ValueError(f"need m >= 2us = {2 * u * s}, got m={m}")
    comps = {}
    for i in range(s):
        start = 2 * i * u + 1
        comps[tuple(range(start, start + n))] = 1
    return MultivectorField(m, n, comps)


# ---------------------------------------------------------------------------
# involutivity of the image distribution

def is_involutive(field: MultivectorField) -> bool:
    """Whether the image distribution of a decomposable field is involutive.

    The face rows ``X_R = i(dx^R) P`` over the (n-1)-faces ``R`` span the
    image of ``P`` wherever ``P != 0``.  Decided exactly: the distribution
    is involutive on ``{P != 0}`` iff ``[X_R, X_S] ^ P`` vanishes
    identically for every pair of face rows.  Proof: where ``P(x) != 0`` is
    decomposable, a vector lies in its image iff its wedge with ``P(x)``
    vanishes; ``[X_R, X_S] ^ P`` is a polynomial field, and one that
    vanishes on the nonempty Zariski-open set ``{P != 0}`` is zero.  (A
    zero field has no face rows and is involutive.)  Needs grade >= 1 and a
    pointwise-decomposable field, where the image has rank n.
    """
    if field.grade < 1 or not pointwise_decomposable(field):
        raise ValueError("involutivity is decided for pointwise-decomposable fields of grade >= 1")
    rows = [MultivectorField(field.dim, 1, face) for face in blade_contractions(field.terms, field.grade - 1).values()]
    return not any(schouten(x, y).wedge(field) for x, y in combinations(rows, 2))
