import random
from fractions import Fraction
from itertools import combinations

import pytest

import npk.exterior
import npk.grassmann
import npk.linalg
import npk.suites
import perfbench.workloads
from npk.exterior import Covector, GradedTerms, Multivector, blade_contractions
from npk.fields import MultivectorField
from npk.grassmann import (
    ContractionSubspaceReport,
    IrreducibilityKind,
    IrreducibilityVerdict,
    NotDecomposableError,
    contraction_profile,
    contraction_subspace_report,
    contractions_decomposable,
    factorize,
    irreducibility_check,
    is_decomposable,
    sharp_profile,
)
from npk.linalg import Subspace
from npk.poisson import algebraic_condition, pointwise_decomposable
from npk.polynomial import Polynomial
from npk.suites import (
    random_constant_multivector,
    random_decomposable_field,
    random_decomposable_multivector,
    random_linear_field,
)
from oracles import (
    annihilator_by_contraction,
    contractions_decomposable_full,
    fraction_rref,
    hitchin_lambda,
    in_span,
    intersection_by_annihilators,
    irreducibility_by_sampled_covectors,
    perm_sign,
    reference_face_table,
    transport,
    unimodular_matrix,
)


def blade(dim, *indices, c=1):
    return Multivector(dim, len(indices), {indices: c})


E123 = blade(5, 1, 2, 3)
MIXED = blade(5, 1, 2, 3) + blade(5, 1, 4, 5)       # rank 5, shares a direction
TWO_BLOCK = Multivector(6, 3, {(1, 2, 3): 1, (4, 5, 6): 1})  # rank 6, disjoint blocks


# ---------------------------------------------------------------------------
# sharp profile

def test_sharp_profile_of_a_blade():
    profile = sharp_profile(E123)
    assert profile.rank == 3
    assert profile.image == Subspace.from_vectors([[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0]], 5)
    assert profile.annihilator == Subspace.from_vectors([[0, 0, 0, 1, 0], [0, 0, 0, 0, 1]], 5)


def test_sharp_profile_mixed_rank_five():
    # enumerating i(lam)P over the ten basis 2-forms row-reduces to the full space
    profile = sharp_profile(MIXED)
    assert profile.rank == 5
    assert profile.annihilator.dim == 0


def test_sharp_profile_zero():
    profile = sharp_profile(Multivector.zero(5, 3))
    assert profile.rank == 0
    assert profile.image == Subspace(5, ())
    assert profile.annihilator == Subspace(5, tuple(tuple(Fraction(int(i == j)) for j in range(5)) for i in range(5)))


def test_rank_dimension_identity_random():
    rng = random.Random("sharp-identity")
    for _ in range(60):
        m = rng.randint(3, 6)
        n = rng.randint(1, min(4, m))
        p = random_constant_multivector(rng, m, n, max_terms=4)
        profile = sharp_profile(p)
        assert profile.rank == profile.image.dim == m - profile.annihilator.dim
        assert profile.rank >= n  # nonzero input


def _annihilator_population():
    rng = random.Random("annihilator-oracle")
    cases = [Multivector.zero(5, 3)]
    for _ in range(60):
        n = rng.randint(1, 5)
        cases.append(random_constant_multivector(rng, rng.randint(n, 7), n, max_terms=4))
    return cases


def test_annihilator_matches_contraction_kernel():
    # image rows versus the C(m, n-1)-row matrix of the maps u -> i(dx^u) p
    for p in _annihilator_population():
        assert sharp_profile(p).annihilator == annihilator_by_contraction(p)


def test_annihilator_is_one_integer_pass(monkeypatch):
    # the kernel rows go to the integer echelon as they are: no dense
    # Fraction rows run through Subspace.from_vectors again
    cases = _annihilator_population()
    expected = [annihilator_by_contraction(p) for p in cases]

    def forbidden(*args, **kwargs):
        raise AssertionError("the annihilator ran from_vectors")

    monkeypatch.setattr(Subspace.from_vectors.__func__, "__code__", forbidden.__code__)
    assert [sharp_profile(p).annihilator for p in cases] == expected


def test_sharp_profile_matches_fraction_rref():
    # the integer image reduction against dense Gauss-Jordan on the Fraction
    # face rows of the reference face table: mixed denominators, zero and grade 1
    rng = random.Random("profile-fraction-rref")
    cases = [Multivector.zero(5, 3), Multivector.zero(4, 1), Multivector(4, 1, {(2,): Fraction(3, 7)})]
    for _ in range(80):
        m = rng.randint(1, 7)
        n = rng.randint(1, min(4, m))
        terms = {
            tuple(sorted(rng.sample(range(1, m + 1), n))): Fraction(rng.randint(-9, 9), rng.randint(1, 12))
            for _ in range(rng.randint(1, 4))
        }
        cases.append(Multivector(m, n, terms))
    mixed = grade_one = 0
    for p in cases:
        faces = reference_face_table(p.terms, p.grade - 1).values()
        rows = [[face.get((u,), 0) for u in range(1, p.dim + 1)] for face in faces]
        reduced, _ = fraction_rref(rows, p.dim)
        profile = sharp_profile(p)
        assert profile.rank == len(reduced)
        assert profile.image.basis == tuple(map(tuple, reduced))
        mixed += len({c.denominator for c in p.terms.values()}) >= 2
        grade_one += p.grade == 1 and bool(p)
    assert mixed >= 20 and grade_one >= 5


def test_sharp_profile_of_a_wide_blade():
    # C(30, 14) basis 14-forms, of which only the 15 faces of the blade contract it
    profile = sharp_profile(blade(30, *range(1, 16)))
    assert profile.rank == 15
    tail = [[int(i == u) for i in range(30)] for u in range(15, 30)]
    assert profile.annihilator == Subspace.from_vectors(tail, 30)


# ---------------------------------------------------------------------------
# decomposability and factorization

def test_decomposable_examples():
    assert is_decomposable(E123)
    assert not is_decomposable(MIXED)          # rank 5 != 3
    assert not is_decomposable(TWO_BLOCK)      # rank 6
    assert is_decomposable(Multivector.zero(5, 3))


def test_grade_zero_edges():
    # grade at most 1 counts as decomposable on both routes; a scalar has no factors
    scalar = Multivector(4, 0, {(): Fraction(3, 2)})
    assert is_decomposable(scalar)
    assert pointwise_decomposable(MultivectorField.from_multivector(scalar))
    assert pointwise_decomposable(MultivectorField.zero(3, 0))
    with pytest.raises(ValueError, match="factorize"):
        factorize(scalar)


def test_decomposable_iff_rank_equals_grade():
    # the rank of the image reduction against the quadratic Plücker relations,
    # decided as polynomial identities on the constant field
    rng = random.Random("rank-route")
    cases = [
        Multivector.zero(5, 3), Multivector.zero(3, 5), Multivector.zero(4, 0),
        Multivector(4, 0, {(): Fraction(-3, 2)}), Multivector(4, 1, {(2,): Fraction(3, 7), (4,): 1}),
        Multivector(4, 4, {(1, 2, 3, 4): Fraction(5, 3)}), TWO_BLOCK, MIXED, E123,
    ]
    for i in range(200):
        if i % 2 == 0:
            m = rng.randint(1, 7)
            n = rng.randint(1, min(4, m))
            p = random_decomposable_multivector(rng, m, n) * Fraction(rng.randint(1, 9), rng.randint(1, 12))
        else:
            # 2-4 blades of grade 2..m-2, where both verdicts occur
            m = rng.randint(4, 7)
            n = rng.randint(2, min(4, m - 2))
            terms = {
                tuple(sorted(rng.sample(range(1, m + 1), n))): Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 12))
                for _ in range(rng.randint(2, 4))
            }
            p = Multivector(m, n, terms)
        cases.append(p)
    verdicts = {True: 0, False: 0}
    mixed = 0
    for p in cases:
        dec = is_decomposable(p)
        assert dec == pointwise_decomposable(MultivectorField.from_multivector(p)), p
        verdicts[dec] += 1
        mixed += len({c.denominator for c in p.terms.values()}) >= 2
    assert min(verdicts.values()) >= 50
    assert mixed >= 40


def test_constants_never_reach_the_plucker_loop(monkeypatch):
    def forbidden(terms, faces):
        raise AssertionError("a constant multivector reached plucker_holds")

    monkeypatch.setattr(npk.grassmann, "plucker_holds", forbidden)
    assert is_decomposable(E123) and not is_decomposable(MIXED) and not is_decomposable(TWO_BLOCK)
    assert factorize(blade(5, 1, 2, 3, c=Fraction(-2, 3))).wedge() == blade(5, 1, 2, 3, c=Fraction(-2, 3))
    with pytest.raises(NotDecomposableError):
        factorize(TWO_BLOCK)


def test_factorize_builds_one_face_table(monkeypatch):
    # one (n-1)-face table per call, decomposable or not, on fresh elements
    built = []

    def counted(terms, k):
        built.append(k)
        return blade_contractions(terms, k)

    for module in (npk.exterior, npk.grassmann):
        monkeypatch.setattr(module, "blade_contractions", counted)
    rng = random.Random("factorize-tables")
    cases = [blade(6, 1, 2, 3), Multivector(8, 5, dict(DEC_851.terms)), Multivector(5, 3, dict(MIXED.terms))]
    cases += [random_decomposable_multivector(rng, 7, 4) for _ in range(5)]
    for p in cases:
        built.clear()
        try:
            factorize(p)
        except NotDecomposableError:
            pass
        assert built == [p.grade - 1], (p, built)


def test_factorize_round_trip_scaled_blade():
    p = blade(5, 1, 2, 3, c=2)
    factors = factorize(p)
    assert factors.wedge() == p


def test_factorize_expanded_product():
    v = Multivector(5, 1, {(1,): 1, (2,): 1})
    p = v.wedge(blade(5, 2)).wedge(blade(5, 3))
    assert p == E123  # (e1+e2)^e2^e3 expands to e123
    assert factorize(p).wedge() == p


def test_factorize_rejects_non_decomposable():
    with pytest.raises(NotDecomposableError, match="not decomposable"):
        factorize(MIXED)


def test_factorize_rejects_zero():
    with pytest.raises(ValueError, match="zero tensor"):
        factorize(Multivector.zero(5, 3))


def test_factorize_round_trip_random():
    rng = random.Random("factor-round-trip")
    for _ in range(50):
        m = rng.randint(3, 6)
        n = rng.randint(2, min(5, m))
        p = random_decomposable_multivector(rng, m, n)
        assert factorize(p).wedge() == p


# ---------------------------------------------------------------------------
# contractions of all covector tuples

def test_profile_of_a_blade_all_k():
    p = blade(6, 1, 2, 3, 4)
    assert contractions_decomposable(p, 1)
    assert contractions_decomposable(p, 2)


def test_profile_counterexample_needs_symbolic_route():
    # every single basis contraction is decomposable, yet the profile fails:
    # alpha = eps1 + eps4 contracts to e23 + e56 whose square is 2*e2356
    for a in range(1, 7):
        assert is_decomposable(TWO_BLOCK.contract(Covector.basis(6, a)))
    assert not contractions_decomposable(TWO_BLOCK, 1)
    alpha = Covector(6, (1, 0, 0, 1, 0, 0))
    contracted = TWO_BLOCK.contract(alpha)
    assert contracted == Multivector(6, 2, {(2, 3): 1, (5, 6): 1})
    assert contracted.wedge(contracted) == Multivector(6, 4, {(2, 3, 5, 6): 2})


def test_profile_k_range_enforced():
    with pytest.raises(ValueError, match="k must satisfy"):
        contractions_decomposable(E123, 2)
    with pytest.raises(ValueError, match="k must satisfy"):
        contractions_decomposable(E123, 0)


def _forward_population():
    rng = random.Random("profile-forward")
    cases = []
    for _ in range(40):
        m = rng.randint(4, 6)
        n = rng.choice((3, 4))
        if n > m - 1:
            continue
        cases.append(
            random_decomposable_multivector(rng, m, n)
            if rng.random() < 0.5
            else random_constant_multivector(rng, m, n, max_terms=3)
        )
    return cases


def test_profile_true_implies_decomposable_random():
    for p in _forward_population():
        for k in range(1, p.grade - 1):
            if contractions_decomposable(p, k):
                assert is_decomposable(p)


def _on_support(rng, m, n, support, decomposable):
    """A nonzero multivector with blades in ``support``: a wedge of n vectors, or 2-4
    random blades drawn until the sum is not decomposable (needs n+2 axes)."""
    while True:
        if decomposable:
            acc = Multivector(m, 0, {(): 1})
            for _ in range(n):
                axes = rng.sample(support, rng.randint(1, min(3, len(support))))
                acc = acc.wedge(Multivector(m, 1, {(u,): rng.choice((-2, -1, 1, Fraction(1, 2), 3)) for u in axes}))
            if not acc.is_zero():
                return acc
        else:
            blades = list(combinations(support, n))
            chosen = rng.sample(blades, min(rng.randint(2, 4), len(blades)))
            acc = Multivector(m, n, {b: rng.choice((-3, -1, 1, Fraction(2, 3), 2)) for b in chosen})
            if not is_decomposable(acc):
                return acc


def _gauge_population():
    rng = random.Random("profile-gauge")
    cases = [TWO_BLOCK, blade(6, 2, 4, 5, 6), blade(7, 3, 5, 6, 7, c=Fraction(-2, 3)),
             Multivector(8, 4, {(3, 5, 6, 8): 2}), Multivector(8, 3, {(3, 5, 6): 1, (3, 6, 8): Fraction(1, 2)}),
             Multivector(7, 3, {(2, 3, 4): 1, (5, 6, 7): 1}), MIXED]
    for i in range(204):
        decomposable = i % 2 == 0
        n = rng.choice((3, 3, 4, 4, 5))  # grade 5 at k = 3 is the oracle's slowest case
        # a grade-n multivector on at most n+1 axes is always decomposable
        m = rng.randint(n if decomposable else n + 2, 7)
        support = sorted(rng.sample(range(1, m + 1), rng.randint(n if decomposable else n + 2, m)))
        cases.append(_on_support(rng, m, n, support, decomposable))
    return cases


def test_gauge_fixed_profile_matches_full_variable_route():
    cases = _gauge_population()
    verdicts = {True: 0, False: 0}
    by_grade = set()
    small_supports = late_starts = 0
    for p in cases:
        support = set().union(*p.terms)
        small_supports += len(support) < p.dim
        late_starts += min(support) > 1
        dec = is_decomposable(p)
        verdicts[dec] += 1
        by_grade.add((p.grade, dec))
        for k in range(1, p.grade - 1):
            assert contractions_decomposable(p, k) == contractions_decomposable_full(p, k) == dec, (p, k)
    assert min(verdicts.values()) >= 100
    assert by_grade == {(n, v) for n in (3, 4, 5) for v in (True, False)}
    assert small_supports >= 60 and late_starts >= 20


def test_profile_builds_only_the_gauge_fixed_variables(monkeypatch):
    Polynomial = npk.grassmann.Polynomial
    built = []
    variable, constant = Polynomial.variable.__func__, Polynomial.constant.__func__

    def spy_variable(cls, u, num_vars):
        built.append(num_vars)
        return variable(cls, u, num_vars)

    def spy_constant(cls, value, num_vars):
        built.append(num_vars)
        return constant(cls, value, num_vars)

    monkeypatch.setattr(Polynomial, "variable", classmethod(spy_variable))
    monkeypatch.setattr(Polynomial, "constant", classmethod(spy_constant))
    rng = random.Random("profile-frame")
    cases = [TWO_BLOCK, Multivector(8, 4, {(3, 5, 6, 8): 2}), blade(8, 1, 2, 3, 4, 5)]
    cases += [_on_support(rng, 8, 5, sorted(rng.sample(range(1, 9), 7)), rng.random() < 0.5) for _ in range(6)]
    for p in cases:
        s = len(set().union(*p.terms))
        pivots = npk.grassmann._image(npk.linalg._integral(p.terms))[1]
        for k in range(1, p.grade - 1):
            built.clear()
            npk.grassmann._symbolic_profile(p, pivots, k)
            assert built and max(built) <= k * (s - k), (p, k, max(built))


def _sparse_vector(rng, m):
    axes = rng.sample(range(1, m + 1), rng.choice((2, 2, 2, 3)))
    return Multivector(m, 1, {(u,): rng.choice((-2, -1, 1, Fraction(1, 2), 3)) for u in axes})


def _wedge(vectors):
    acc = vectors[0]
    for v in vectors[1:]:
        acc = acc.wedge(v)
    return acc


def _below_support(rng, m, n, kind):
    """A nonzero grade-n multivector whose rank is below its support size,
    from vectors with 2-3 entries each: a wedge of n of them (kind 0), or
    the sum of two wedges from one pool of n+2, which spans a proper
    subspace, sharing n-1 vectors (kind 1, decomposable) or n-2 (kind 2)."""
    while True:
        pool = [_sparse_vector(rng, m) for _ in range(n + 2)]
        p = _wedge(pool[:n])
        if kind:
            p = p + _wedge(pool[kind:kind + n])
        if p and sharp_profile(p).rank < len(set().union(*p.terms)):
            return p


def _image_population():
    # rank below support, so the image is a proper part of the support
    rng = random.Random("profile-image")
    return [_below_support(rng, rng.randint(n + 3, 8), n, i % 3)
            for n, count in ((3, 30), (4, 18), (5, 3)) for i in range(count)]


def test_profile_in_the_image_matches_full_variable_route():
    # the profile is decided in the image of P
    verdicts = set()
    for p in _image_population():
        dec = is_decomposable(p)
        verdicts.add((p.grade, dec))
        for k in range(1, p.grade - 1):
            assert contractions_decomposable(p, k) == contractions_decomposable_full(p, k) == dec, (p, k)
    assert verdicts == {(n, v) for n in (3, 4, 5) for v in (True, False)}


def test_symbolic_identity_alone_matches_the_full_variable_route(monkeypatch):
    # with the witness finding nothing, every False of the profile is the
    # identity's; called directly, the identity decides both verdicts
    monkeypatch.setattr(npk.grassmann, "_refuting_covectors", lambda p, k: None)
    verdicts = set()
    for p in _image_population():
        dec = is_decomposable(p)
        verdicts.add((p.grade, dec))
        pivots = npk.grassmann._image(npk.linalg._integral(p.terms))[1]
        full = {k: contractions_decomposable_full(p, k) for k in range(1, p.grade - 1)}
        assert contraction_profile(p) == full == dict.fromkeys(full, dec), p
        assert {k: npk.grassmann._symbolic_profile(p, pivots, k) for k in full} == full, p
    assert verdicts == {(n, v) for n in (3, 4, 5) for v in (True, False)}


def test_plucker_loop_negates_no_polynomial(monkeypatch):
    # the face table carries blade positions, so a face entry's sign is an
    # int sign of its products: seeded fields of grades 2-5 and the symbolic
    # contractions of the profile route, built before the patch
    rng = random.Random("plucker-signs")
    fields = [make(rng, m, n) for n in (2, 3, 4, 5) for m in (n + 1, n + 2)
              for make in (random_linear_field, random_decomposable_field) for _ in range(3)]
    symbolic = []
    plucker_holds = npk.grassmann.plucker_holds

    def record(terms):
        symbolic.append(terms)
        return plucker_holds(terms)

    with monkeypatch.context() as patch:
        patch.setattr(npk.grassmann, "plucker_holds", record)
        for p in (MIXED, TWO_BLOCK, DEC_851, _two_blade_851(rng), _two_blade_851(rng)):
            pivots = npk.grassmann._image(npk.linalg._integral(p.terms))[1]
            for k in range(1, p.grade - 1):
                npk.grassmann._symbolic_profile(p, pivots, k)
    inputs = [f.terms for f in fields] + symbolic
    expected = [plucker_holds(terms) for terms in inputs]
    assert set(expected) == {True, False}

    def forbidden(self):
        raise AssertionError("a polynomial was negated")

    monkeypatch.setattr(Polynomial, "__neg__", forbidden)
    assert [plucker_holds(terms) for terms in inputs] == expected


# the algebra benchmark's (8, 5, 1) shape: support 6, rank 5
DEC_851 = Multivector(8, 1, {(1,): 2, (6,): -1}).wedge(blade(8, 2, 3, 4, 5))


def test_profile_indeterminates_follow_the_rank(monkeypatch):
    seen = []
    plucker_holds = npk.grassmann.plucker_holds

    def spy(terms):
        seen.append({c.num_vars for c in terms.values()})
        return plucker_holds(terms)

    monkeypatch.setattr(npk.grassmann, "plucker_holds", spy)
    assert (len(set().union(*DEC_851.terms)), sharp_profile(DEC_851).rank) == (6, 5)
    pivots = npk.grassmann._image(npk.linalg._integral(DEC_851.terms))[1]
    assert all(npk.grassmann._symbolic_profile(DEC_851, pivots, k) for k in (1, 2, 3))
    # k * (r - k) with r = 5, not k * (s - k) with s = 6
    assert seen == [{4}, {6}, {6}]


def _two_blade_851(rng):
    """The algebra benchmark's two_blade (8, 5) shape: two 5-blades sharing two indices."""
    def coef():
        return Fraction(rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)), rng.randint(1, 3))

    return Multivector(8, 5, {(1, 2, 3, 4, 5): coef(), (1, 2, 6, 7, 8): coef()})


def _contracted(p, witness):
    for alpha in witness:
        p = p.contract(Covector(p.dim, tuple(alpha.get(u, 0) for u in range(1, p.dim + 1))))
    return p


def _suite_population(monkeypatch, seed):
    # the instances suite_contraction_profile profiles, recorded as it runs
    seen = []
    profile = npk.suites.contraction_profile

    def record(p):
        seen.append(p)
        return profile(p)

    with monkeypatch.context() as patch:
        patch.setattr(npk.suites, "contraction_profile", record)
        assert npk.suites.suite_contraction_profile(seed).passed
    return seen


def test_witness_rechecks_without_the_kernel(monkeypatch):
    # every non-decomposable input gets a witness for every k, and the
    # witness, contracted in Fractions, leaves a non-decomposable tensor
    rng = random.Random("two-blade-851")
    cases = [TWO_BLOCK, *(_two_blade_851(rng) for _ in range(10))]
    for seed in (0, 42):
        cases += _suite_population(monkeypatch, seed)
    refuted = 0
    for p in cases:
        dec = is_decomposable(p)
        for k in range(1, p.grade - 1):
            witness = npk.grassmann._refuting_covectors(p, k)
            assert (witness is None) == dec, (p, k)
            if witness is not None:
                assert len(witness) == k and set().union(*witness) <= set().union(*p.terms)
                q = _contracted(p, witness)
                assert q and not is_decomposable(q), (p, k, witness)
                refuted += 1
    assert refuted >= 80


def test_certificates_leave_nothing_to_the_identity(monkeypatch):
    # rank n or a witness decides every profile of these inputs
    def refuse(terms):
        raise AssertionError("the symbolic identity ran")

    monkeypatch.setattr(npk.grassmann, "plucker_holds", refuse)
    rng = random.Random("certified-profiles")
    cases = [DEC_851, TWO_BLOCK, *(_two_blade_851(rng) for _ in range(4))]
    cases += [random_decomposable_multivector(rng, m, n) for m, n in ((6, 3), (7, 4)) for _ in range(4)]
    cases += _forward_population() + _gauge_population() + _image_population()
    for p in cases:
        dec = is_decomposable(p)
        profile = contraction_profile(p)
        assert profile == {k: contractions_decomposable(p, k) for k in profile} == dict.fromkeys(profile, dec), p


def test_contraction_profile_is_every_k_from_one_face_table(monkeypatch):
    # one (n-1)-face table per profile: the image pivots serve every k,
    # while the per-k calls build one each; the contracted tables that the
    # Plucker loop reads have grade below n-1
    built = []

    def counted(terms, k):
        built.append(k)
        return blade_contractions(terms, k)

    for module in (npk.exterior, npk.grassmann):
        monkeypatch.setattr(module, "blade_contractions", counted)
    rng = random.Random("contraction-profile")
    cases = [DEC_851, TWO_BLOCK, MIXED, blade(7, 1, 2, 3, 4, 5)]
    cases += [random_constant_multivector(rng, 7, 5, max_terms=4) for _ in range(4)]
    cases += [random_decomposable_multivector(rng, 7, 4) for _ in range(4)]
    for p in cases:
        n = p.grade
        built.clear()
        profile = contraction_profile(p)
        assert built.count(n - 1) == 1, (p, built)
        built.clear()
        assert profile == {k: contractions_decomposable(p, k) for k in range(1, n - 1)}, p
        assert built.count(n - 1) == n - 2, (p, built)
        assert set(profile.values()) == {is_decomposable(p)}, p


def test_contraction_profile_edges():
    assert contraction_profile(Multivector.zero(6, 5)) == {1: True, 2: True, 3: True}
    assert contraction_profile(TWO_BLOCK) == {1: False}
    for p in (blade(5, 1, 2), blade(5, 1), Multivector.zero(5, 2)):
        with pytest.raises(ValueError, match="needs grade at least 3"):
            contraction_profile(p)


def test_profile_keeps_no_table_on_the_element():
    # an element holds dim, grade and terms only: no subclass adds a slot
    # or an instance dict, so no table can be kept on it
    assert GradedTerms.__slots__ == ("dim", "grade", "terms")
    subclasses = GradedTerms.__subclasses__()
    assert {Multivector, MultivectorField} <= set(subclasses)
    assert all(cls.__dict__.get("__slots__") == () for cls in subclasses)
    dec = Multivector(8, 1, {(1,): 2, (6,): -1}).wedge(blade(8, 2, 3, 4, 5))
    p = Multivector(7, 3, {(1, 2, 3): 1, (1, 4, 5): Fraction(-2, 3), (2, 6, 7): 3})
    two_block = Multivector(6, 3, {(1, 2, 3): 1, (4, 5, 6): 1})
    for q in (dec, p, two_block):
        before = dict(q.terms)
        for k in range(1, q.grade - 1):
            contractions_decomposable(q, k)
        contraction_profile(q)
        sharp_profile(q)
        is_decomposable(q)
        try:
            factorize(q)
        except NotDecomposableError:
            pass
        irreducibility_check(q)
        contraction_subspace_report(q, Covector.basis(q.dim, 1))
        assert not hasattr(q, "__dict__")
        assert q.terms == before


# ---------------------------------------------------------------------------
# contraction subspace reports

def test_report_decomposable_drop_one():
    report = contraction_subspace_report(E123, Covector.basis(5, 1))
    assert report.inclusion_holds
    assert report.equality_holds
    assert report.rank_drop == 1


def test_report_annihilating_covector():
    report = contraction_subspace_report(E123, Covector.basis(5, 4))
    assert report.inclusion_holds
    assert report.rank_drop == 3


def test_report_two_block_strict_inclusion():
    report = contraction_subspace_report(TWO_BLOCK, Covector.basis(6, 1))
    assert report.inclusion_holds
    assert not report.equality_holds
    assert report.rank_drop == 4  # 6 - 2, at least the grade


def test_report_random_pairs():
    rng = random.Random("subspace-reports")
    for _ in range(60):
        m = rng.randint(3, 6)
        n = rng.randint(2, min(4, m))
        p = (
            random_decomposable_multivector(rng, m, n)
            if rng.random() < 0.4
            else random_constant_multivector(rng, m, n, max_terms=4)
        )
        alpha = Covector(m, tuple(Fraction(rng.randint(-4, 4)) for _ in range(m)))
        report = contraction_subspace_report(p, alpha)
        assert report.inclusion_holds
        if report.rank_drop == 1:
            assert report.equality_holds


def _image_by_contraction(q, m):
    """The image of ``q``: the annihilator of its dense contraction kernel."""
    return Subspace(m, ()) if q.grade == 0 else annihilator_by_contraction(q).annihilator()


def _report_by_annihilators(p, alpha):
    m = p.dim
    image = _image_by_contraction(p, m)
    small = _image_by_contraction(p.contract(alpha), m)
    ker_alpha = Subspace.from_vectors([alpha.components], m).annihilator()
    bound = intersection_by_annihilators(ker_alpha, image)
    return ContractionSubspaceReport(all(in_span(bound, v) for v in small.basis), small == bound, image.dim - small.dim)


def test_report_matches_the_annihilator_meet():
    # the meet read off the echelon basis against (ker alpha° + im P°)°,
    # with both images from the dense contraction kernel
    rng = random.Random("report-oracle")
    drops, verdicts, vanishing = set(), set(), 0
    for i in range(120):
        n = rng.randint(1, 3)
        m = rng.randint(max(n, 2), 7)
        kind = i % 5
        if kind == 0:
            p = Multivector.zero(m, n) if i % 3 == 0 else random_decomposable_multivector(rng, m, n)
        elif kind == 1 and m >= 2 * n:
            scale = Fraction(rng.randint(1, 5), rng.randint(1, 5))
            p = Multivector(m, n, {tuple(range(1, n + 1)): 1, tuple(range(n + 1, 2 * n + 1)): scale})
        else:
            p = random_constant_multivector(rng, m, n, max_terms=4)
        kernel = annihilator_by_contraction(p).basis
        if i % 4 == 0 and kernel:
            # a combination of annihilator covectors vanishes on im P
            comps = [sum(rng.randint(-3, 3) * v[u] for v in kernel) for u in range(m)]
            alpha = Covector(m, tuple(comps))
        elif i % 4 == 1:
            alpha = Covector.basis(m, rng.randint(1, m))
        else:
            alpha = Covector(m, tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(m)))
        report = contraction_subspace_report(p, alpha)
        assert report == _report_by_annihilators(p, alpha), (p, alpha)
        assert report.inclusion_holds
        drops.add(min(report.rank_drop, 2))
        verdicts.add(report.equality_holds)
        vanishing += all(sum(a * x for a, x in zip(alpha.components, v)) == 0 for v in sharp_profile(p).image.basis)
    assert drops == {0, 1, 2}
    assert verdicts == {True, False}
    assert vanishing >= 10


# ---------------------------------------------------------------------------
# irreducibility

def test_blade_certified_by_rank():
    assert irreducibility_check(E123).kind is IrreducibilityKind.CERTIFIED_BY_RANK


def test_mixed_certified_by_rank():
    # rank 5 < 2*3, so no two independent grade-3 summands can exist
    assert irreducibility_check(MIXED).kind is IrreducibilityKind.CERTIFIED_BY_RANK


def test_two_block_witness():
    verdict = irreducibility_check(TWO_BLOCK)
    assert verdict.kind is IrreducibilityKind.REDUCIBILITY_WITNESS
    contracted = TWO_BLOCK.contract(verdict.witness)
    assert not contracted.is_zero()
    assert sharp_profile(contracted).rank <= sharp_profile(TWO_BLOCK).rank - 3


def test_search_reads_one_face_table(monkeypatch):
    # the candidates are the rows of one 1-face table; no covector is built
    # or contracted, and no random state exists
    tables, contractions, states = [], [], []
    monkeypatch.setattr(npk.grassmann, "blade_contractions",
                        lambda terms, k: tables.append((len(next(iter(terms))), k)) or blade_contractions(terms, k))
    for module in (npk.grassmann, npk.exterior):
        monkeypatch.setattr(module, "contract_terms", lambda *args: contractions.append(args))
    monkeypatch.setattr(random, "Random", lambda *args: states.append(args))
    witness = Covector.basis(6, 1)
    assert irreducibility_check(TWO_BLOCK) == IrreducibilityVerdict(IrreducibilityKind.REDUCIBILITY_WITNESS, witness)
    # the rank pass over the 2-faces, the 1-face table, then the rank of its first row
    assert tables == [(3, 2), (3, 1), (2, 1)]
    tables.clear()
    assert irreducibility_check(NO_WITNESS) == IrreducibilityVerdict(IrreducibilityKind.NO_WITNESS_FOUND)
    assert tables == [(3, 2), (3, 1), *[(2, 1)] * 6]
    assert contractions == [] and states == []


NO_WITNESS = Multivector(6, 3, {(1, 2, 3): 1, (1, 4, 5): 1, (2, 4, 6): 1, (3, 5, 6): 1})
OFF_AXIS_ONE = Multivector(7, 3, {(2, 3, 4): 1, (5, 6, 7): 1})


def test_no_witness_found():
    # rank 6 = 2n, yet no basis covector drops the rank by 3
    assert sharp_profile(NO_WITNESS).rank == 6
    assert irreducibility_check(NO_WITNESS) == IrreducibilityVerdict(IrreducibilityKind.NO_WITNESS_FOUND)


def test_zero_contraction_is_no_witness():
    # dx^1 contracts P to zero, which drops the rank but splits nothing
    assert OFF_AXIS_ONE.contract(Covector.basis(7, 1)).is_zero()
    witness = Covector.basis(7, 2)
    assert irreducibility_check(OFF_AXIS_ONE) == IrreducibilityVerdict(IrreducibilityKind.REDUCIBILITY_WITNESS, witness)


RANK_7 = Multivector(7, 3, {(1, 2, 7): -2, (1, 3, 7): -1, (1, 4, 5): 5, (2, 5, 6): -3, (3, 4, 6): 4})


def test_rank_2n_plus_1_gets_no_reducibility_witness():
    # a split has rank n + n or at least n + (n + 2): rank 2n + 1 = 7 has none,
    # though dx^1 drops the rank by n and the old search took it for a witness
    assert sharp_profile(RANK_7).rank == 7
    assert irreducibility_check(RANK_7).kind is not IrreducibilityKind.REDUCIBILITY_WITNESS
    assert irreducibility_by_sampled_covectors(RANK_7) == IrreducibilityVerdict(
        IrreducibilityKind.REDUCIBILITY_WITNESS, Covector.basis(7, 1))


def test_seeded_rank_2n_plus_1_constants_get_no_witness():
    # sparse constants of rank 2n + 1 at n = 3 and 4: no search runs, and the
    # old search finds a rank drop of n, never a split, on every one
    rng = random.Random("rank-2n-plus-1")
    none = IrreducibilityVerdict(IrreducibilityKind.NO_WITNESS_FOUND)
    population = []
    for n in (3, 4):
        while sum(p.grade == n for p in population) < 40:
            p = random_constant_multivector(rng, 2 * n + 1, n, max_terms=2 * n)
            if not p.is_zero() and sharp_profile(p).rank == 2 * n + 1:
                population.append(p)
    assert [irreducibility_check(p) for p in population] == [none] * len(population)
    old = {irreducibility_by_sampled_covectors(p).kind for p in population}
    assert old == {IrreducibilityKind.REDUCIBILITY_WITNESS}


# (e1+e2)^(e3+e4)^(e5+e6) + (e1-e2)^(e3-e4)^(e5-e6): a split that no basis covector separates
OFF_BASIS_SPLIT = Multivector(6, 3, {(1, 3, 5): 2, (1, 4, 6): 2, (2, 3, 6): 2, (2, 4, 5): 2})


def _search_population() -> list:
    rng = random.Random("face-table-search")
    constants = [TWO_BLOCK, OFF_AXIS_ONE, NO_WITNESS, RANK_7, OFF_BASIS_SPLIT]
    for m in range(4, 10):
        for n in range(2, min(m, 5) + 1):
            for _ in range(8):
                constants.append(random_constant_multivector(rng, m, n, max_terms=8))
                q = random_decomposable_multivector(rng, m, n) + random_constant_multivector(rng, m, n, max_terms=3)
                if not q.is_zero():
                    constants.append(q)
    # the shapes of the algebra benchmark's irreducibility strata, drawn as it draws them
    strata = [st for st in perfbench.workloads.WORKLOADS["algebra"]["round"] if st.kind == "irreducibility"]
    for seed in range(10):
        for st in strata:
            op = perfbench.workloads.generate(st, random.Random(seed), fixed_layout=True)
            constants.append(Multivector(op.m, op.n, op.terms))
    return constants


def test_search_matches_the_sampled_reference():
    # the reference tries the basis covectors through contract_terms, then 20
    # seeded draws; on these populations no draw ever supplied the witness.
    # At rank 2n + 1 no split exists, and the package runs no search
    constants = _search_population()
    verdicts = [irreducibility_check(p) for p in constants]
    none = IrreducibilityVerdict(IrreducibilityKind.NO_WITNESS_FOUND)
    assert verdicts == [none if sharp_profile(p).rank == 2 * p.grade + 1 else irreducibility_by_sampled_covectors(p, 0)
                        for p in constants]
    assert {verdict.kind for verdict in verdicts} == set(IrreducibilityKind)


def test_a_split_off_the_basis_gets_no_witness():
    # only a draw of the reference separates it: none at seed 0, and at seed
    # 120 a covector that kills the second summand's image
    none = IrreducibilityVerdict(IrreducibilityKind.NO_WITNESS_FOUND)
    assert irreducibility_check(OFF_BASIS_SPLIT) == none
    assert irreducibility_by_sampled_covectors(OFF_BASIS_SPLIT, 0) == none
    witness = Covector(6, (0, 0, -3, -3, 7, 7))
    assert irreducibility_by_sampled_covectors(OFF_BASIS_SPLIT, 120) == IrreducibilityVerdict(
        IrreducibilityKind.REDUCIBILITY_WITNESS, witness)


def test_constant_questions_run_on_the_integer_echelon(monkeypatch):
    # the report, the irreducibility search and the profile read the integer
    # rows of _image: no Fraction echelon or Subspace, no Fraction contraction
    # in the last two, and the profile witness ranks q by its own faces
    rng = random.Random("integer-echelon")
    grade5 = [DEC_851, *(_two_blade_851(rng) for _ in range(4))]
    reports = [(p, Covector(p.dim, tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(p.dim))))
               for p in (E123, MIXED, TWO_BLOCK, blade(4, 2), *grade5)]
    reports.append((TWO_BLOCK, Covector.basis(6, 4)))
    expected = [_report_by_annihilators(p, alpha) for p, alpha in reports]
    constants = [E123, TWO_BLOCK, NO_WITNESS, OFF_AXIS_ONE, *grade5]
    verdicts = [irreducibility_check(p) for p in constants]
    profiles = [contraction_profile(p) for p in constants]

    def forbidden(*args, **kwargs):
        raise AssertionError("a Fraction route was taken")

    for fn in (npk.linalg._reduced, Subspace.from_vectors.__func__):
        monkeypatch.setattr(fn, "__code__", forbidden.__code__)
    assert [contraction_subspace_report(p, alpha) for p, alpha in reports] == expected
    monkeypatch.setattr(Multivector.contract, "__code__", forbidden.__code__)
    assert [irreducibility_check(p) for p in constants] == verdicts
    assert [contraction_profile(p) for p in constants] == profiles
    tables = []

    def spy(terms, k):
        tables.append(k)
        return blade_contractions(terms, k)

    monkeypatch.setattr(npk.grassmann, "blade_contractions", spy)
    for p in grade5:
        for k in (1, 2):
            tables.clear()
            npk.grassmann._refuting_covectors(p, k)
            assert set(tables) == {p.grade - k - 1}, (p, k, tables)


def test_zero_rejected():
    with pytest.raises(ValueError, match="zero tensor"):
        irreducibility_check(Multivector.zero(5, 3))


def test_nonzero_scalar_refused():
    # a scalar has no rank to drop: refused like the other grade-guarded checks
    with pytest.raises(ValueError, match="needs grade at least 1"):
        irreducibility_check(Multivector(4, 0, {(): 1}))


def test_pairwise_condition_never_flags_a_witness():
    # multivectors whose basis-pair contraction wedges all vanish are
    # never reported reducible
    rng = random.Random("no-false-witness")
    checked = 0
    for _ in range(60):
        m = rng.randint(4, 6)
        p = (
            random_decomposable_multivector(rng, m, 3)
            if rng.random() < 0.7
            else random_constant_multivector(rng, m, 3, max_terms=3)
        )
        if not algebraic_condition(MultivectorField.from_multivector(p)).holds:
            continue
        checked += 1
        verdict = irreducibility_check(p)
        assert verdict.kind is not IrreducibilityKind.REDUCIBILITY_WITNESS
    assert checked >= 20


# ---------------------------------------------------------------------------
# Hitchin's invariant of 3-vectors on Q^6 (ROADMAP item 25), through
# permutation signs alone: known values, a scalar square, invariance

HITCHIN_VALUES = [  # (terms, lambda)
    ({(1, 2, 6): 1, (1, 3, 5): 1, (2, 3, 4): 1}, 0),  # rank 6, no split over any field
    ({(1, 3, 5): 1, (1, 4, 6): 2, (2, 3, 6): 2, (2, 4, 5): 2}, 32),  # splits over Q(sqrt 2) only
    ({(1, 3, 5): 1, (1, 4, 6): -1, (2, 3, 6): -1, (2, 4, 5): -1}, -4),  # splits over Q(i) only
]


def test_hitchin_lambda_of_the_normal_forms():
    for c in (1, 3, -2, Fraction(3, 5)):
        assert hitchin_lambda(Multivector(6, 3, {(1, 2, 3): 1, (4, 5, 6): c})) == c**2
    for terms, value in HITCHIN_VALUES:
        assert hitchin_lambda(Multivector(6, 3, terms)) == value


def test_hitchin_square_is_scalar_and_integer_maps_scale_lambda_by_det_squared():
    rng = random.Random("hitchin")
    blades, signs, checked = list(combinations(range(1, 7), 3)), set(), 0
    while checked < 200:
        terms = {b: rng.choice([1, -1, 2, -3, Fraction(1, 2)]) for b in rng.sample(blades, rng.randint(2, 8))}
        p = Multivector(6, 3, terms)
        if annihilator_by_contraction(p).dim:
            continue  # rank below 6
        lam = hitchin_lambda(p)  # refuses unless K_P^2 is a scalar matrix
        q = transport(p, unimodular_matrix(rng, 6))
        assert hitchin_lambda(q) == lam
        d, u = rng.choice([2, -3]), rng.randrange(6)
        assert hitchin_lambda(transport(q, [[d if i == j == u else int(i == j) for j in range(6)] for i in range(6)])) == d**2 * lam
        signs.add((lam > 0) - (lam < 0))
        checked += 1
    assert signs == {-1, 0, 1}


# ---------------------------------------------------------------------------
# classical truths about constants (ROADMAP item 25) that share no kernel
# with _image: the achievable ranks, and decomposability through the Hodge
# dual, decided by permutation signs and the four-index Pluecker relations

def _dual_two_form(p: Multivector) -> dict:
    # omega_ij = sign(I, ij) P^I for the complement I of {i, j}
    every = set(range(1, p.dim + 1))
    return {
        (i, j): perm_sign(rest + (i, j)) * p.component(rest)
        for i, j in combinations(range(1, p.dim + 1), 2)
        for rest in [tuple(sorted(every - {i, j}))]
    }


def _two_form_squares_to_zero(omega: dict, m: int) -> bool:
    w = omega.__getitem__
    return all(
        w((i, j)) * w((k, l)) - w((i, k)) * w((j, l)) + w((i, l)) * w((j, k)) == 0
        for i, j, k, l in combinations(range(1, m + 1), 4)
    )


def test_classical_truths_of_seeded_constants():
    rng = random.Random("classical-truths")
    corank_one, corank_two = 0, {True: 0, False: 0}
    for _ in range(400):
        m = rng.randint(3, 8)
        n = rng.randint(1, m)
        p = random_constant_multivector(rng, m, n, max_terms=6)
        rank = sharp_profile(p).rank
        assert rank >= n and rank != n + 1, (p, rank)
        if n == m - 1:
            corank_one += 1
            assert is_decomposable(p)
            assert factorize(p).wedge() == p
        elif n == m - 2:
            dual = _two_form_squares_to_zero(_dual_two_form(p), m)
            assert is_decomposable(p) == dual, p
            corank_two[dual] += 1
    assert corank_one >= 50
    assert min(corank_two.values()) >= 15
    # dense (m-2)-vectors, whose dual 2-forms fill every four-index relation:
    # wedges of m-2 random vectors, and random values on every blade
    dense = {True: 0, False: 0}
    for i in range(60):
        m = rng.randint(4, 7)
        if i % 2:
            p = Multivector(m, m - 2, {b: rng.randint(-4, 4) or 5 for b in combinations(range(1, m + 1), m - 2)})
        else:
            p = Multivector(m, 0, {(): 1})
            while p.grade < m - 2:
                p = p.wedge(Multivector(m, 1, {(u,): rng.randint(-3, 3) for u in range(1, m + 1)}))
            if p.is_zero():
                continue
        dual = _two_form_squares_to_zero(_dual_two_form(p), m)
        assert is_decomposable(p) == dual, p
        dense[dual] += 1
    assert min(dense.values()) >= 15, dense
