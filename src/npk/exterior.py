"""Exact sparse exterior algebra over an m-dimensional rational space.

Basis blades are strictly increasing tuples of 1-based indices.  A
homogeneous element of grade k stores a sparse map ``terms`` from k-blades
to nonzero coefficients.  One container, :class:`GradedTerms`, holds that
map for any coefficient ring: it canonicalises input, keeps the zero above
the top grade, and provides ``component``, ``wedge``, ``+ - * ==`` and the
one ``repr`` (sorted blades named ``e(i,j)``, each term by the polynomial
term rule); an element holds its ``dim``, ``grade`` and ``terms`` and
nothing else.  Point values (:class:`Multivector`) are the subclass with
``fractions.Fraction`` coefficients; multivector fields
(:class:`npk.fields.MultivectorField`), with polynomial coefficients.
The term kernels (:func:`wedge_terms`, :func:`contract_terms`, ...) only
need coefficients supporting ``+``, unary ``-``, ``*`` and truthiness, so
both subclasses share them.
:func:`first_failing_pair` is the one kernel of the conditions quadratic
in two covectors (the algebraic condition, compatibility, the Jacobi
symbol): products grouped by basis pair, and only the pairs up to the
witness take their blades and signs from :func:`merge_blades`.
:func:`merge_blades` is the one blade sign (``component`` folds it over
its indices).  :func:`blade_contractions` is the one kernel for
contraction with basis forms, and each table deletes one index: the
contractions with every basis covector (k = 1) or (n-1)-form (k = n - 1).
Each reader builds the table it reads; nothing is kept on an element.
:func:`contract_terms` contracts with one general covector.

Sign conventions, fixed once for the whole package:

* ``wedge`` concatenates blades and sorts, picking up the usual
  permutation sign (one factor of -1 per transposition).
* interior products contract the first slot:
  ``(i(a)P)^{b2..bn} = sum_u a_u * P^{u b2..bn}``, which on a blade
  ``e_{b1} ^ ... ^ e_{bn}`` deletes factor j with sign ``(-1)^(j-1)``.
* a decomposable form contracts innermost-first:
  ``i(a1 ^ ... ^ ak) = i(ak) o ... o i(a1)``, i.e. ``a1`` acts first.

Any consistent choice preserves the vanishing statements the rest of the
package relies on; the tests pin the resulting signs exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator, Mapping

from .polynomial import Polynomial, _exact, _sum_text

Blade = tuple[int, ...]


def iter_blades(dim: int, grade: int) -> Iterator[Blade]:
    """All strictly increasing ``grade``-tuples drawn from ``1..dim``."""
    return combinations(range(1, dim + 1), grade)


def merge_blades(left: Blade, right: Blade):
    """Sign and merged blade for the concatenation of two blades.

    Returns ``None`` when an index repeats (the wedge vanishes).
    """
    if not left:
        return 1, tuple(right)
    if not right:
        return 1, tuple(left)
    out: list[int] = []
    inv = 0
    i = j = 0
    nl, nr = len(left), len(right)
    while i < nl and j < nr:
        a, b = left[i], right[j]
        if a == b:
            return None
        if a < b:
            out.append(a)
            i += 1
        else:
            out.append(b)
            j += 1
            inv += nl - i
    out.extend(left[i:])
    out.extend(right[j:])
    return (1 if inv % 2 == 0 else -1), tuple(out)


# ---------------------------------------------------------------------------
# term-map kernels (coefficient-generic)

def _add_term(dst: dict, key: Blade, value) -> None:
    cur = dst.get(key)
    if cur is None:
        if value:
            dst[key] = value
    else:
        s = cur + value
        if s:
            dst[key] = s
        else:
            del dst[key]


def wedge_terms(a_terms: Mapping[Blade, object], b_terms: Mapping[Blade, object]) -> dict:
    out: dict = {}
    for ka, ca in a_terms.items():
        for kb, cb in b_terms.items():
            merged = merge_blades(ka, kb)
            if merged is None:
                continue
            sign, key = merged
            piece = ca * cb
            if sign < 0:
                piece = -piece
            _add_term(out, key, piece)
    return out


def contract_terms(alpha: Mapping[int, object], terms: Mapping[Blade, object]) -> dict:
    """First-slot interior product of a sparse covector with a term map."""
    out: dict = {}
    for blade, coef in terms.items():
        for j, idx in enumerate(blade):
            a = alpha.get(idx)
            if a is None or not a:
                continue
            piece = a * coef
            if j % 2:
                piece = -piece
            _add_term(out, blade[:j] + blade[j + 1:], piece)
    return out


def _pair_groups(left: Mapping[Blade, object], right: Mapping[Blade, object], polarize: bool) -> dict:
    """``{(a, b): [(S, i, T, j, x, y), ...]}`` over basis pairs ``a <= b``, nothing merged.

    An entry contracts position ``i`` of a blade ``S`` of ``L`` (coefficient
    ``x``) and position ``j`` of a blade ``T`` of ``R`` (coefficient ``y``),
    with sign ``(-1)^(i + j)``; :func:`_pair_blades` merges a pair's entries
    into the coefficients of ``(i(dx^a) L) ^ (i(dx^b) R)``, plus
    ``(i(dx^b) L) ^ (i(dx^a) R)`` when ``polarize`` and ``a < b`` (``L``,
    ``R`` the term maps).  Deleting ``w`` from ``S`` and ``z`` from ``T``
    leaves disjoint blades iff ``S & T <= {w, z}``, so one bitmask test
    rejects ``|S & T| > 2``.
    """
    out: dict = {}
    rights = [(t, sum(1 << v for v in t), y) for t, y in right.items()]
    for s, x in left.items():
        ms = sum(1 << v for v in s)
        for t, mt, y in rights:
            both = ms & mt
            if both.bit_count() > 2:
                continue
            for i, w in enumerate(s):
                # every index both blades share must be w or z
                need = both & ~(1 << w)
                if need.bit_count() > 1:
                    continue
                shared = need.bit_length() - 1
                for j, z in ((t.index(shared), shared),) if need else enumerate(t):
                    if w > z and not polarize:
                        continue
                    out.setdefault((w, z) if w <= z else (z, w), []).append((s, i, t, j, x, y))
    return out


def _pair_blades(group: list) -> dict:
    """One pair's ``{blade: [(sign, x, y), ...]}``: :func:`merge_blades` gives each
    entry its blade and the rest of its sign (the faces are disjoint, so it never vanishes)."""
    blades: dict = {}
    for s, i, t, j, x, y in group:
        sign, blade = merge_blades(s[:i] + s[i + 1:], t[:j] + t[j + 1:])
        blades.setdefault(blade, []).append((-sign if (i + j) % 2 else sign, x, y))
    return blades


def first_failing_pair(left: Mapping, right: Mapping, polarize: bool) -> tuple[int, int] | None:
    """First pair ``(a, b)`` of :func:`_pair_groups` ``(left, right, polarize)``
    of two polynomial term maps, in sorted order, with a blade whose products
    sum to nonzero; ``None`` means the condition holds for all covectors
    (lossless over the rationals).  Only the pairs up to the witness are
    merged and summed, each blade in one :meth:`Polynomial.sum_of_products`."""
    groups = _pair_groups(left, right, polarize)
    for pair in sorted(groups):
        blades = _pair_blades(groups[pair]).values()
        if any(Polynomial.sum_of_products(products[0][1].num_vars, products) for products in blades):
            return pair
    return None


def blade_contractions(terms: Mapping[Blade, object], k: int) -> dict:
    """Map each k-blade ``s`` to ``i(dx^s) terms``, first index acting first.

    Every face table deletes one index, so ``k`` is 1 or ``n - 1`` (``n``
    the grade; any other ``k`` is a ``ValueError``, and an empty map has no
    faces).  At position ``j`` of a blade, ``k = 1`` deletes ``u``, row
    ``(u,)``, sign ``(-1)^j``; ``k = n - 1`` keeps it, row the rest, entry
    ``(u,)``, sign ``(-1)^(n-1-j)`` (each later face index is contracted
    past ``u``).  Zero contractions are absent, so a grade-0 map has no
    1-faces.  A face and its complement determine the blade, so nothing
    cancels.  A blade's faces come in lexicographic order of positions.
    """
    n = len(next(iter(terms), ()))
    if terms and k != 1 and k != n - 1:
        raise ValueError(f"face tables delete one index: k must be 1 or {n - 1}, got {k}")
    out: dict = {}
    if k == 1:
        for blade, coef in terms.items():
            for j, u in enumerate(blade):
                out.setdefault((u,), {})[blade[:j] + blade[j + 1:]] = -coef if j % 2 else coef
    else:
        for blade, coef in terms.items():
            for j in range(n - 1, -1, -1):
                out.setdefault(blade[:j] + blade[j + 1:], {})[(blade[j],)] = -coef if (n - 1 - j) % 2 else coef
    return out


# ---------------------------------------------------------------------------
# the graded container and its rational subclass

def _check_blade(blade: Blade, dim: int, grade: int) -> None:
    if len(blade) != grade:
        raise ValueError(f"blade {blade!r} does not have grade {grade}")
    if not blade:
        return
    # exact ints only (a bool is not an index), checked at C speed
    if {*map(type, blade)} != {int} or blade[0] < 1 or list(blade) != sorted(set(blade)):
        raise ValueError(f"blade {blade!r} must be strictly increasing")
    if blade[-1] > dim:
        raise ValueError(f"blade {blade!r} exceeds dimension {dim}")


class GradedTerms:
    """Sparse homogeneous grade-k element over a coefficient ring.

    ``terms`` maps k-blades to nonzero coefficients.  Subclasses fix the
    ring through three hooks: ``_coerce(coef, dim)`` turns an input into a
    ring element (validating it), ``_zero(dim)`` is the ring's zero and
    ``_shown(coef)`` is how a coefficient reads in the one ``repr``;
    ``_factors`` lists the types ``*`` accepts.  The canonical zero above
    the top grade is stored with grade ``dim + 1`` so that out-of-range
    wedges compare equal.  An element is truthy exactly when it is nonzero,
    like its coefficients.
    """

    __slots__ = ("dim", "grade", "terms")
    __hash__ = None

    def __init__(self, dim: int, grade: int, terms: Mapping[Blade, object] | None = None):
        if dim < 0:
            raise ValueError("dimension must be nonnegative")
        if grade < 0:
            raise ValueError("grade must be nonnegative")
        self.dim = dim
        self.terms = {}
        if grade > dim:
            if terms and any(terms.values()):
                raise ValueError("no blades exist above the top grade")
            self.grade = dim + 1
            return
        self.grade = grade
        for blade, coef in (terms or {}).items():
            blade = tuple(blade)
            _check_blade(blade, dim, grade)
            _add_term(self.terms, blade, self._coerce(coef, dim))

    @classmethod
    def _raw(cls, dim: int, grade: int, terms: dict):
        # internal fast path: the caller guarantees grade <= dim, valid
        # blades of that grade and nonzero coefficients of the ring
        element = object.__new__(cls)
        element.dim, element.grade, element.terms = dim, grade, terms
        return element

    @classmethod
    def zero(cls, dim: int, grade: int):
        return cls(dim, grade)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def component(self, indices: Iterable[int]):
        """Fully antisymmetric component for an arbitrary index tuple."""
        sign, blade = 1, ()
        for u in indices:  # merge the indices one at a time; a repeat is zero
            if (merged := merge_blades(blade, (u,))) is None:
                return self._zero(self.dim)
            sign, blade = sign * merged[0], merged[1]
        coef = self.terms.get(blade)
        return self._zero(self.dim) if coef is None else coef if sign > 0 else -coef

    def vector_components(self) -> tuple:
        if self.grade != 1:
            raise ValueError("vector_components needs a grade-1 element")
        zero = self._zero(self.dim)
        return tuple(self.terms.get((u,), zero) for u in range(1, self.dim + 1))

    def wedge(self, other):
        if self.dim != other.dim:
            raise ValueError("incompatible spaces")
        grade = self.grade + other.grade
        if grade > self.dim:
            return type(self)(self.dim, grade)
        return type(self)(self.dim, grade, wedge_terms(self.terms, other.terms))

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        if self.dim != other.dim:
            raise ValueError("incompatible spaces")
        if self.grade != other.grade:
            raise ValueError("cannot add elements of different grades")
        out = dict(self.terms)
        for k, v in other.terms.items():
            _add_term(out, k, v)
        return type(self)(self.dim, self.grade, out)

    def __neg__(self):
        return type(self)(self.dim, self.grade, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, self._factors):
            return NotImplemented
        c = self._coerce(other, self.dim)
        return type(self)(self.dim, self.grade, {k: v * c for k, v in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.dim == other.dim and self.grade == other.grade and self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return f"0[grade {self.grade}, dim {self.dim}]"
        terms = sorted(self.terms.items())
        return _sum_text((self._shown(c), "e(" + ",".join(map(str, b)) + ")" if b else "") for b, c in terms)


class Multivector(GradedTerms):
    """Sparse homogeneous grade-k element with exact rational coefficients.

    The same container represents elements of the exterior powers of the
    base space and of its dual (the caller tracks variance).
    """

    __slots__ = ()
    _factors = (int, Fraction)

    @staticmethod
    def _coerce(coef, dim: int) -> Fraction:
        return coef if type(coef) is Fraction else Fraction(_exact(coef))

    @staticmethod
    def _zero(dim: int) -> Fraction:
        return Fraction(0)

    @staticmethod
    def _shown(coef: Fraction) -> Fraction:
        return coef

    @classmethod
    def from_vector(cls, coords: Iterable) -> "Multivector":
        coords = list(coords)
        return cls(len(coords), 1, {(u + 1,): c for u, c in enumerate(coords)})

    def contract(self, alpha: "Covector") -> "Multivector":
        if self.grade == 0:
            raise ValueError("cannot contract a scalar")
        if self.dim != alpha.dim:
            raise ValueError("incompatible spaces")
        return Multivector(self.dim, self.grade - 1, contract_terms(alpha.sparse(), self.terms))


@dataclass(frozen=True)
class Covector:
    """Element of the dual space, stored densely in the dual basis."""

    dim: int
    components: tuple[Fraction, ...]

    def __post_init__(self):
        comps = tuple(Multivector._coerce(c, self.dim) for c in self.components)
        if len(comps) != self.dim:
            raise ValueError("component vector length must equal the dimension")
        object.__setattr__(self, "components", comps)

    @classmethod
    def basis(cls, dim: int, u: int) -> "Covector":
        if not 1 <= u <= dim:
            raise ValueError(f"index {u} out of range 1..{dim}")
        return cls(dim, tuple(Fraction(1 if i == u - 1 else 0) for i in range(dim)))

    def sparse(self) -> dict[int, Fraction]:
        return {u + 1: c for u, c in enumerate(self.components) if c}
