"""A shrinking search over the paper's lemma chain on sparse constant n-vectors.

For a constant n-vector P (n = 3..5, m <= 8) decomposability by rank, the
vanishing of every contraction-wedge defect as a polynomial identity, and
the decomposability of every k-fold contraction (1 <= k <= n-2) are one
verdict.  The irreducibility search certifies by rank exactly below 2n,
finds no witness at rank 2n + 1 (no split has that rank), and otherwise
reports the first basis covector that drops the rank by n; ranks here come
from the dense contraction matrix of the oracles.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from npk.exterior import Covector, Multivector, iter_blades
from npk.fields import MultivectorField
from npk.grassmann import IrreducibilityKind, contraction_profile, irreducibility_check, is_decomposable
from npk.poisson import pointwise_decomposable
from oracles import annihilator_by_contraction

COEFFICIENTS = st.sampled_from([-3, -2, -1, 1, 2, 3])


@st.composite
def sparse_nvectors(draw) -> Multivector:
    # up to two wedges of n vectors, each of support one but the first three
    # (one wedge) or the first (two wedges), which have support up to two,
    # plus enough blades for about 8
    n = draw(st.integers(3, 5))
    m = draw(st.integers(n, 8))
    wedges = draw(st.integers(0, 2))
    p = Multivector.zero(m, n)
    for _ in range(wedges):
        q = Multivector(m, 0, {(): 1})
        for i in range(n):
            support = st.lists(st.integers(1, m), min_size=1, max_size=2 if i < 4 - 2 * wedges else 1, unique=True)
            q = q.wedge(Multivector(m, 1, {(u,): draw(COEFFICIENTS) for u in draw(support)}))
        p = p + q
    blades = st.lists(st.sampled_from(list(iter_blades(m, n))), min_size=not wedges, max_size=8 - 2 * wedges, unique=True)
    return p + Multivector(m, n, {b: draw(COEFFICIENTS) for b in draw(blades)})


def _rank(p: Multivector) -> int:
    return p.dim - annihilator_by_contraction(p).dim


@settings(max_examples=300, deadline=None)
@given(sparse_nvectors())
def test_rank_identity_and_contractions_give_one_verdict(p):
    decomposable = is_decomposable(p)
    assert pointwise_decomposable(MultivectorField.from_multivector(p)) == decomposable
    assert contraction_profile(p) == dict.fromkeys(range(1, p.grade - 1), decomposable)


@settings(max_examples=300, deadline=None)
@given(sparse_nvectors().filter(lambda p: not p.is_zero()))
def test_search_certifies_by_rank_and_reports_the_first_basis_drop(p):
    m, n, rank = p.dim, p.grade, _rank(p)
    verdict = irreducibility_check(p)
    assert (verdict.kind is IrreducibilityKind.CERTIFIED_BY_RANK) == (rank < 2 * n)
    if rank < 2 * n:
        return
    if rank == 2 * n + 1:
        assert verdict.kind is IrreducibilityKind.NO_WITNESS_FOUND and verdict.witness is None
        return
    # a basis covector witnesses exactly when its contraction is nonzero and drops the rank by n
    drops = [u for u in range(1, m + 1)
             if not (q := p.contract(Covector.basis(m, u))).is_zero() and _rank(q) <= rank - n]
    if verdict.kind is IrreducibilityKind.REDUCIBILITY_WITNESS:
        assert verdict.witness == Covector.basis(m, drops[0])
    else:
        assert verdict.kind is IrreducibilityKind.NO_WITNESS_FOUND and verdict.witness is None
        assert drops == []
