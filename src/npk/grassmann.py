"""Structure theory of a single grade-n multivector at a point.

The sharp map sends (n-1)-forms to vectors by contraction, the rows of
the (n-1)-face table; its image dimension is the rank of the multivector.
Every question about a constant (rank, image, decomposability, factors,
contraction pivots and witnesses, subspace reports, irreducibility) goes
through one reduction, :func:`_image`, of an integer term map; Fractions
come back only where a caller receives a basis.  The annihilator (the
covectors contracting it to zero) is the kernel of the image rows, because
``<i(alpha) P, dx^s> = ±<alpha, i(dx^s) P>``; it is read off the echelon
basis of the image, and the two dimensions sum to the ambient dimension.
Rank n characterises decomposable multivectors, equivalently the vanishing
of every contraction-wedge defect ``(i(lam) P) ^ P`` over basis (n-1)-forms
(the classical quadratic decomposability relations, :func:`plucker_holds`,
run only where they are polynomial identities).  Rank also bounds
reducibility: a multivector that splits into two independent grade-n
summands needs rank at least 2n.

Universally quantified conditions ("for all covectors ...") are decided
exactly: by rank or an explicit integer witness where one applies, else by
treating covector components as polynomial indeterminates and testing
identical vanishing; sampling basis covectors alone is unsound (there are
non-decomposable multivectors all of whose basis contractions are
decomposable).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from itertools import chain

from .exterior import Covector, Multivector, blade_contractions, contract_terms, merge_blades
from .linalg import Subspace, _forward, _integral, _reduced, sparse_rank
from .polynomial import Polynomial


class NotDecomposableError(ValueError):
    """Raised when a factorization is requested for a non-decomposable input."""


@dataclass(frozen=True)
class SharpProfile:
    """Image of the sharp map; its rank and annihilator are derived on demand."""

    image: Subspace

    @property
    def rank(self) -> int:
        return self.image.dim

    @property
    def annihilator(self) -> Subspace:
        return self.image.annihilator()


@dataclass(frozen=True)
class Factorization:
    """Grade-1 factors whose wedge reproduces the input exactly."""

    factors: tuple[Multivector, ...]

    def wedge(self) -> Multivector:
        acc = self.factors[0]
        for f in self.factors[1:]:
            acc = acc.wedge(f)
        return acc


def _image(terms: dict, width: int | None = None) -> tuple[dict[int, dict[int, int]], list[int]]:
    """Pivot rows and columns of the image of an integer term map, by one :func:`~npk.linalg._forward`.

    The rows are the (n-1)-faces ``{u-1: int}`` of ``terms`` (grade >= 1, or
    empty), such as :func:`~npk.linalg._integral` gives; the table is dropped.
    The pass stops at ``width`` pivots, by default the support size (a bound on the rank).
    """
    faces = blade_contractions(terms, len(next(iter(terms), ())) - 1)
    rows = ({u - 1: x for (u,), x in face.items()} for face in faces.values())
    return _forward(rows, width or len(set().union(*terms)))


def sharp_profile(p: Multivector) -> SharpProfile:
    """Image, annihilator and rank of the contraction map of ``p``.

    The image is spanned by the contractions of ``p`` with the basis
    (n-1)-forms; the annihilator, the covectors contracting ``p`` to zero,
    is the kernel of those rows, read off the image's echelon basis only
    when asked for.  ``p`` lies in the top exterior power of its own image.
    """
    if p.grade < 1:
        raise ValueError("sharp profile needs grade at least 1")
    return SharpProfile(Subspace(p.dim, tuple(map(tuple, _reduced(*_image(_integral(p.terms)), p.dim)))))


def plucker_holds(terms) -> bool:
    """Whether every quadratic defect ``(i(dx^s) P) ^ P`` vanishes identically.

    ``P`` is the grade-n term map ``terms``, with polynomial coefficients,
    and ``s`` runs over the basis (n-1)-blades: the rows of its (n-1)-face
    table, built here.  The defects are the classical quadratic
    decomposability relations.  Each defect coefficient is a sum of signed
    products ``+-F[r] * P[b]`` over the face's terms ``r`` and the blades
    ``b`` disjoint from it; the products are grouped by the
    merged blade and each group is summed in one
    :meth:`Polynomial.sum_of_products`, then tested once.
    """
    if not terms:
        return True
    dim = next(iter(terms.values())).num_vars
    faces = blade_contractions(terms, len(next(iter(terms))) - 1)
    # each face is grade 1, so its terms are (u,); (u,) ^ blade is tabulated
    # once per u, when a face first needs it (a failing check stops early)
    inserts: dict = {}
    for face in faces.values():
        groups: dict = {}
        for (u,), a in face.items():
            row = inserts.get(u)
            if row is None:
                row = inserts[u] = [(merged, b) for blade, b in terms.items() if (merged := merge_blades((u,), blade))]
            for (sign, key), b in row:
                groups.setdefault(key, []).append((sign, a, b))
        if any(Polynomial.sum_of_products(dim, products) for products in groups.values()):
            return False
    return True


def is_decomposable(p: Multivector) -> bool:
    """Whether ``p`` is a wedge of grade-1 vectors.

    Decided by the rank, at least n for nonzero input and n exactly when
    ``p`` is decomposable: :func:`_image` stops at n + 1 pivots.  Zero and
    grade at most 1 count as decomposable by convention.
    """
    return p.grade <= 1 or p.is_zero() or len(_image(_integral(p.terms), p.grade + 1)[1]) == p.grade


def factorize(p: Multivector) -> Factorization:
    """Factor a decomposable multivector into grade-1 vectors, exactly.

    One :func:`_image` pass, stopped at n + 1 pivots, decides (rank n).
    ``p`` is ``c`` times the wedge of its image's canonical reduced-echelon
    rows, which are the identity on their ascending pivot columns: that
    wedge is 1 on the pivot blade, so ``c`` is ``p``'s coefficient there and
    scales the first row.  Only the round-trip is contractual; the gauge is
    the canonical reduced-echelon one.
    """
    if p.is_zero():
        raise ValueError("zero tensor")
    if p.grade < 1:
        raise ValueError("factorize needs grade at least 1")
    echelon, order = _image(_integral(p.terms), p.grade + 1)
    if len(order) != p.grade:
        raise NotDecomposableError("not decomposable")
    factors = [Multivector.from_vector(row) for row in _reduced(echelon, order, p.dim)]
    factors[0] = factors[0] * p.terms[tuple(c + 1 for c in order)]
    result = Factorization(tuple(factors))
    if result.wedge() != p:
        raise AssertionError("factorization round-trip failed")
    return result


def contractions_decomposable(p: Multivector, k: int) -> bool:
    """Whether every k-fold covector contraction of ``p`` is decomposable.

    Requires ``1 <= k <= n-2``; outside that range the equivalence with
    decomposability breaks down.  The cheapest exact certificate decides:

    1. rank n certifies True: ``p = c v_1 ^ .. ^ v_n`` and, if
       ``alpha(v_1) != 0`` (reorder), ``w_j = v_j - (alpha(v_j) / alpha(v_1)) v_1``
       give ``i(alpha) p = c alpha(v_1) w_2 ^ .. ^ w_n``, the wedge of a basis
       of ``V ∩ ker(alpha)`` (zero if alpha vanishes on ``V``); induct on k;
    2. a witness certifies False: k seeded integer covectors contracting
       ``p`` to a nonzero tensor of rank above ``n-k``, never decomposable;
    3. otherwise the covector components become polynomial indeterminates
       and every contraction-wedge defect of the symbolic contraction must
       vanish identically, which certifies either verdict.

    The identity needs only ``k*(r-k)`` indeterminates, ``r`` the rank of ``p``
    (the dimension of its image ``V``), not ``k*m``:

    * ``p`` lies in the top exterior power ``Λ^n V``.  :func:`_image`
      gives the pivot columns ``c_1 < .. < c_r`` of ``V``'s reduced-echelon
      basis ``v_1 .. v_r``, unique for the space.  That basis is the
      identity on the pivot columns, so the component of
      ``v_I`` on the blade ``c_J`` is ``delta_IJ``, and
      ``p = sum_I p[c_I] v_I``: the coordinates of ``p`` in ``V`` are its
      components on the pivot blades, ``p' = {I: p[c_I]}`` in ``Q^r``;
    * ``i(alpha) v_I`` depends only on the values ``alpha(v_i)``, so the
      k-fold contraction of ``p`` by ``alpha_1 .. alpha_k`` is the image
      of the contraction of ``p'`` by ``beta_j = (alpha_j(v_i))_i`` under
      the injective map ``Λ Q^r -> Λ Q^m`` sending ``e_i`` to ``v_i``.  An
      injective linear map preserves and reflects decomposability (the
      factors of a decomposable image span a subspace of the image of the
      map), and ``alpha -> beta`` maps onto ``(Q^r)*``.  So the profile of
      ``p`` is the profile of ``p'``, whose image is all of ``Q^r``: every
      one of the ``r`` coordinates is in its support;
    * the contraction ``Q(beta)`` is multilinear and alternating in the
      rows of the ``k x r`` matrix ``M`` of the ``beta_j``, so
      ``Q(gM) = det(g) Q(M)`` for ``g`` in GL(k), and each defect, being
      quadratic in ``Q``, satisfies ``D(gM) = det(g)^2 D(M)``;
    * fix the first k columns as pivots.  Where the pivot block ``B`` of
      ``M`` is invertible, ``M = B [I | A]``, so
      ``D(M) = det(B)^2 D([I | A])``;
    * those ``M`` are Zariski-dense, since ``det(B)`` is a nonzero
      polynomial.  So ``D`` vanishes identically in all ``k*m`` components
      exactly when it vanishes identically in the ``k*(r-k)`` entries of
      ``A``; the converse direction is the special case ``M = [I | A]``.

    The decision stays an exact polynomial identity, and nothing is kept
    on ``p``.
    """
    n = p.grade
    if n < 3:
        raise ValueError("needs grade at least 3")
    if not 1 <= k <= n - 2:
        raise ValueError(f"k must satisfy 1 <= k <= n-2, got k={k} for grade {n}")
    return p.is_zero() or _contractions_decomposable(p, _image(_integral(p.terms))[1], k)


def contraction_profile(p: Multivector) -> dict[int, bool]:
    """``{k: contractions_decomposable(p, k)}`` for ``k = 1 .. n-2``, from one :func:`_image`.

    Every k reads the same pivot columns, so the (n-1)-face table is built
    and reduced once per profile; nothing is kept on ``p``.
    """
    n = p.grade
    if n < 3:
        raise ValueError("needs grade at least 3")
    ks = range(1, n - 1)
    if p.is_zero():
        return dict.fromkeys(ks, True)
    pivots = _image(_integral(p.terms))[1]
    return {k: _contractions_decomposable(p, pivots, k) for k in ks}


def _contractions_decomposable(p: Multivector, pivots: list[int], k: int) -> bool:
    # the three certificates of contractions_decomposable, cheapest first
    if len(pivots) == p.grade:
        return True
    return _refuting_covectors(p, k) is None and _symbolic_profile(p, pivots, k)


def _refuting_covectors(p: Multivector, k: int) -> list[dict[int, int]] | None:
    # k integer covectors {index: int} contracting p, in order, to a nonzero
    # tensor of rank above n-k, or None when three seeded draws find none
    terms, grade, support = _integral(p.terms), p.grade - k, sorted(set().union(*p.terms))
    rng = random.Random(k)
    for _ in range(3):
        values = iter(rng.choices(range(-9, 10), k=k * len(support)))
        alphas = [dict(zip(support, values)) for _ in range(k)]
        q = terms
        for alpha in alphas:
            q = contract_terms(alpha, q)
        if len(_image(q, grade + 1)[1]) > grade:
            return alphas
    return None


def _symbolic_profile(p: Multivector, pivots: list[int], k: int) -> bool:
    # the gauge-fixed identity of contractions_decomposable on p's image pivots
    position = {c + 1: i for i, c in enumerate(pivots, 1)}
    r = len(pivots)
    nvars = k * (r - k)
    one = Polynomial.constant(1, nvars)
    terms: dict = {
        tuple(map(position.get, blade)): Polynomial.constant(c, nvars)
        for blade, c in p.terms.items()
        if position.keys() >= set(blade)
    }
    for i in range(k):
        alpha = {u: Polynomial.variable(i * (r - k) + j, nvars) for j, u in enumerate(range(k + 1, r + 1), 1)}
        alpha[i + 1] = one
        terms = contract_terms(alpha, terms)
    return plucker_holds(terms)


@dataclass(frozen=True)
class ContractionSubspaceReport:
    """How the image of a contracted multivector sits inside the expected bound."""

    inclusion_holds: bool
    equality_holds: bool
    rank_drop: int


def contraction_subspace_report(p: Multivector, alpha: Covector) -> ContractionSubspaceReport:
    """Compare the image of ``i(alpha) p`` with ``ker(alpha) ∩ im(sharp_p)``.

    The inclusion holds universally; equality must hold whenever the rank
    drops by exactly one (always the case for nonzero contractions of a
    decomposable multivector).

    Both images are integer echelon rows of :func:`_image` (``p`` and ``alpha``
    over the lcm of their denominators).  The small image is in the bound iff
    ``alpha`` kills its rows and they add no pivot to the image of ``p``; the bound
    has dimension ``rank - [alpha != 0 on im p]``, so equality is inclusion plus that.
    """
    if p.grade < 1:
        raise ValueError("needs grade at least 1")
    if p.dim != alpha.dim:
        raise ValueError("incompatible spaces")
    terms, a = _integral(p.terms), _integral(alpha.sparse())
    big, order = _image(terms)
    # a grade-1 p contracts to a scalar, whose image is zero
    small = _image(contract_terms(a, terms))[0] if p.grade > 1 else {}

    def kills(row: dict[int, int]) -> bool:
        return not sum(a.get(j + 1, 0) * x for j, x in row.items())

    rank = len(order)
    inclusion = all(map(kills, small.values())) and sparse_rank([*big.values(), *small.values()], p.dim) == rank
    return ContractionSubspaceReport(
        inclusion_holds=inclusion,
        equality_holds=inclusion and len(small) == rank - (not all(map(kills, big.values()))),
        rank_drop=rank - len(small),
    )


class IrreducibilityKind(Enum):
    CERTIFIED_BY_RANK = "certified_by_rank"
    NO_WITNESS_FOUND = "no_witness_found"
    REDUCIBILITY_WITNESS = "reducibility_witness"


_IRREDUCIBILITY_SAMPLES = 20


@dataclass(frozen=True)
class IrreducibilityVerdict:
    kind: IrreducibilityKind
    witness: Covector | None = None


def irreducibility_check(p: Multivector, seed: int = 0) -> IrreducibilityVerdict:
    """Search for a split of ``p`` into independent grade-n summands.

    Rank below 2n certifies irreducibility outright (each summand of a
    split carries rank at least n).  Otherwise the basis covectors, then 20
    seeded random ones (drawn only if every basis covector fails) are
    sampled; a contraction that stays nonzero
    while dropping the rank by at least n witnesses reducibility.  Sampling can
    never certify irreducibility, so the remaining outcome is an honest
    "no witness found".  Each rank is the pivot count of :func:`_image`, on
    integer terms and candidates; only the witness becomes a :class:`Covector`.
    """
    if p.is_zero():
        raise ValueError("zero tensor")
    m, n = p.dim, p.grade
    if n < 1:
        raise ValueError("irreducibility check needs grade at least 1")
    terms = _integral(p.terms)
    rank = len(_image(terms)[1])
    if rank < 2 * n:
        return IrreducibilityVerdict(IrreducibilityKind.CERTIFIED_BY_RANK)
    basis = ([int(u == v) for v in range(m)] for u in range(m))
    randint = random.Random(seed).randint
    draws = ([randint(-9, 9) for _ in range(m)] for _ in range(_IRREDUCIBILITY_SAMPLES))
    for comps in chain(basis, filter(any, draws)):
        contracted = contract_terms(dict(enumerate(comps, 1)), terms)
        # a zero contraction is skipped; the pass stops once the drop is too small
        if contracted and len(_image(contracted, rank - n + 1)[1]) <= rank - n:
            return IrreducibilityVerdict(IrreducibilityKind.REDUCIBILITY_WITNESS, Covector(m, tuple(comps)))
    return IrreducibilityVerdict(IrreducibilityKind.NO_WITNESS_FOUND)
