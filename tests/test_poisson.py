import inspect
import json
import pathlib
import random
import types
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

import npk.exterior
import npk.fields
import npk.grassmann
import npk.linalg
import npk.poisson
from npk.cli import main
from npk.compat import gradient_contraction, is_compatible
from npk.exterior import blade_contractions, iter_blades
from npk.fields import MultivectorField, coordinate_vector_field, jacobi_identity_holds
from npk.grassmann import sharp_profile
from npk.poisson import (
    algebraic_condition,
    block_sum,
    build_semidecomposable,
    PoissonVerdict,
    classify,
    coordinate_semidecomposable,
    default_sample_points,
    differential_condition,
    is_involutive,
    pointwise_decomposable,
    sample_ranks,
)
from npk.oracles import is_nambu_algebraic
from npk.polynomial import Polynomial
from npk.specio import from_field, parse_spec_text, serialize, to_field
from npk.suites import (
    random_constant_field,
    random_decomposable_field,
    random_linear_field,
    random_polynomial,
)
from oracles import involutivity_by_sampling

SPECS = pathlib.Path(__file__).resolve().parents[1] / "specs"
M = 5
X = [Polynomial.variable(u, M) for u in range(1, M + 1)]

BLADE = MultivectorField(M, 3, {(1, 2, 3): 1})
MIXED = MultivectorField(M, 3, {(1, 2, 3): 1, (1, 4, 5): 1})


# ---------------------------------------------------------------------------
# the algebraic condition

def test_algebraic_condition_blade_holds():
    assert algebraic_condition(BLADE).holds


def test_algebraic_condition_mixed_fails_on_the_diagonal():
    # i(dx1)P wedged with itself is 2*e2345
    report = algebraic_condition(MIXED)
    assert not report.holds
    assert report.witness == (1, 1)
    contracted = gradient_contraction(MIXED, X[0])
    assert contracted.wedge(contracted) == MultivectorField(M, 4, {(2, 3, 4, 5): 2})


def test_algebraic_condition_block_sum_fails():
    report = algebraic_condition(block_sum(2, 2, 8))
    assert not report.holds
    assert report.witness == (1, 5)


def test_algebraic_condition_needs_grade_two():
    with pytest.raises(ValueError, match="needs grade at least 2"):
        algebraic_condition(MultivectorField(4, 1, {(1,): 1}))


def test_even_grade_symmetrization_is_trivial():
    # for even grade the pair expression is antisymmetric, so the
    # symmetrized combination vanishes identically on any field
    rng = random.Random("even-symmetrization")
    for _ in range(10):
        f = random_constant_field(rng, 6, 4, max_terms=3)
        for a in range(1, 7):
            fa = gradient_contraction(f, Polynomial.variable(a, 6))
            for b in range(a, 7):
                fb = gradient_contraction(f, Polynomial.variable(b, 6))
                assert (fa.wedge(fb) + fb.wedge(fa)).is_zero()


# ---------------------------------------------------------------------------
# classification

def test_classify_mixed_not_poisson():
    verdict = classify(MIXED)
    assert verdict.parity == "odd"
    assert not verdict.algebraic_holds
    assert not verdict.is_poisson


def test_classify_blade_poisson_and_nambu():
    verdict = classify(BLADE)
    assert verdict.is_poisson
    assert verdict.differential_holds
    assert verdict.pointwise_decomposable
    assert verdict.nambu_algebraic
    assert all(rank == 3 for _, rank in verdict.rank_at_samples)


def test_classify_block_sum():
    verdict = classify(block_sum(2, 2, 8))
    assert verdict.parity == "even"
    assert verdict.is_poisson
    assert not verdict.algebraic_holds
    assert all(rank == 8 for _, rank in verdict.rank_at_samples)
    assert not verdict.nambu_algebraic


def test_classify_semidecomposable():
    verdict = classify(coordinate_semidecomposable(10, 1, 5))
    assert verdict.is_poisson
    assert all(rank == 10 for _, rank in verdict.rank_at_samples)
    assert not verdict.nambu_algebraic


def test_classify_rejects_low_grade():
    with pytest.raises(ValueError, match="needs grade at least 2"):
        classify(MultivectorField(4, 1, {(1,): 1}))


LIE_POISSON = MultivectorField(3, 2, {
    (1, 2): Polynomial.variable(3, 3),
    (1, 3): -Polynomial.variable(2, 3),
    (2, 3): Polynomial.variable(1, 3),
})


def test_classify_bivectors():
    # n = 2 is even: [P, P] = 0 alone decides; the algebraic condition is
    # only reported
    verdict = classify(LIE_POISSON)
    assert verdict.parity == "even"
    assert verdict.is_poisson and verdict.differential_holds
    assert not verdict.algebraic_holds
    assert all(rank == (0 if not any(pt) else 2) for pt, rank in verdict.rank_at_samples)
    assert classify(block_sum(1, 1, 2)).is_poisson
    skew = MultivectorField(3, 2, {(1, 2): 1, (2, 3): Polynomial.variable(2, 3)})
    assert not classify(skew).is_poisson


def test_bivector_classifier_agrees_with_jacobi_oracle():
    rng = random.Random("bivector-check-vs-jacobi")
    verdicts = []
    for _ in range(24):
        m = rng.randint(3, 5)
        blades = rng.sample(list(iter_blades(m, 2)), rng.randint(1, 3))
        f = MultivectorField(m, 2, {b: random_polynomial(rng, m, degree=2, max_monos=2) for b in blades})
        verdict = classify(f).is_poisson
        assert verdict == jacobi_identity_holds(f)
        verdicts.append(verdict)
    assert set(verdicts) == {True, False}


def test_verdict_implications_on_random_fields():
    rng = random.Random("verdict-implications")
    fields = [random_linear_field(rng, M, 3, max_terms=5) for _ in range(10)]
    fields += [random_decomposable_field(rng, M, 3) for _ in range(5)]
    fields += [random_constant_field(rng, 6, 4, max_terms=3) for _ in range(5)]
    for f in fields:
        verdict = classify(f)
        if verdict.nambu_algebraic:
            assert verdict.pointwise_decomposable
        if verdict.pointwise_decomposable:
            assert verdict.algebraic_holds
        expected = (
            verdict.differential_holds
            if verdict.parity == "even"
            else verdict.algebraic_holds and verdict.differential_holds
        )
        assert verdict.is_poisson == expected


# ---------------------------------------------------------------------------
# the Nambu condition

def test_nambu_blade_true():
    assert is_nambu_algebraic(BLADE)


def test_nambu_semidecomposable_false():
    assert not is_nambu_algebraic(coordinate_semidecomposable(10, 1, 5))


def test_nambu_two_block_false():
    assert not is_nambu_algebraic(MultivectorField(6, 3, {(1, 2, 3): 1, (4, 5, 6): 1}))


def test_nambu_equals_pointwise_decomposability():
    rng = random.Random("nambu-pointwise")
    for _ in range(15):
        f = random_linear_field(rng, M, 3, max_terms=4)
        assert is_nambu_algebraic(f) == pointwise_decomposable(f)
        # classify reads the flag off pointwise decomposability; the three
        # routes stay its oracle
        assert classify(f).nambu_algebraic == is_nambu_algebraic(f)
    for _ in range(5):
        f = random_decomposable_field(rng, M, 3)
        assert is_nambu_algebraic(f)


def test_bivector_nambu_is_self_wedge_vanishing():
    # at n = 2 decomposability is P ^ P = 0; the oracle's routes need n >= 3
    rng = random.Random("nambu-bivector")
    seen = set()
    for _ in range(30):
        m = rng.randint(3, 5)
        f = random_linear_field(rng, m, 2, max_terms=3)
        verdict = pointwise_decomposable(f)
        assert verdict == f.wedge(f).is_zero()
        seen.add(verdict)
    assert seen == {True, False}
    with pytest.raises(ValueError, match="needs grade at least 3"):
        is_nambu_algebraic(MultivectorField(4, 2, {(1, 2): 1, (3, 4): 1}))


# ---------------------------------------------------------------------------
# constructors

def test_builder_h0_is_the_plain_wedge():
    frames = [coordinate_vector_field(M, u) for u in (1, 2, 3)]
    built = build_semidecomposable([], frames, 0)
    assert built == BLADE
    assert sharp_profile(built.evaluate([0] * M)).rank == 3


def test_builder_h1_n5_full_rank():
    built = coordinate_semidecomposable(10, 1, 5)
    verdict = classify(built)
    assert verdict.is_poisson
    assert not verdict.nambu_algebraic
    assert all(rank == 10 for _, rank in verdict.rank_at_samples)


def test_builder_rejects_out_of_range_h():
    frames = [coordinate_vector_field(8, u) for u in range(1, 5)]
    cofr = [coordinate_vector_field(8, u) for u in range(5, 9)]
    with pytest.raises(ValueError, match="out of range"):
        build_semidecomposable(frames, cofr, 1)  # 2h = 2 > n-3 = 1


def test_builder_matches_coordinate_wrapper():
    v = [coordinate_vector_field(10, u) for u in range(1, 6)]
    w = [coordinate_vector_field(10, u) for u in range(6, 11)]
    assert build_semidecomposable(v, w, 1) == coordinate_semidecomposable(10, 1, 5)


def test_block_sum_degenerate_bivector():
    assert block_sum(1, 1, 2) == MultivectorField(2, 2, {(1, 2): 1})


def test_block_sum_layout():
    assert block_sum(2, 2, 8) == MultivectorField(
        8, 4, {(1, 2, 3, 4): 1, (5, 6, 7, 8): 1}
    )
    with pytest.raises(ValueError):
        block_sum(2, 2, 7)


# ---------------------------------------------------------------------------
# involutivity of the image distribution

def _frame_wedge(rng, m, n):
    """Wedge of n vector fields with two entries each, of degree at most 2."""
    acc = None
    for _ in range(n):
        entries = {(u,): random_polynomial(rng, m, degree=2, max_monos=2) for u in rng.sample(range(1, m + 1), 2)}
        x = MultivectorField(m, 1, entries)
        acc = x if acc is None else acc.wedge(x)
    return acc


def test_involutivity_coordinate_distribution():
    assert is_involutive(BLADE)


def test_involutivity_twisted_distribution_fails():
    # generators span e1, e2, e3 + x1*e4; [d1, d3 + x1 d4] = d4 leaves the span
    field = MultivectorField(M, 3, {(1, 2, 3): 1, (1, 2, 4): X[0]})
    assert pointwise_decomposable(field)
    assert not is_involutive(field)


def test_involutivity_scaled_frame_holds():
    assert is_involutive(MultivectorField(M, 3, {(1, 2, 3): Polynomial.constant(1, M) + X[0]}))


def test_involutivity_holds_across_the_zero_locus():
    # x1 e123 vanishes on x1 = 0; off it the image is span{e1, e2, e3}
    field = MultivectorField(M, 3, {(1, 2, 3): X[0]})
    assert field.evaluate((0,) * M).is_zero()
    assert is_involutive(field)
    # a zero field has no face rows; a grade-1 field has one
    assert is_involutive(MultivectorField(M, 3))
    assert is_involutive(MultivectorField(M, 1, {(1,): X[1], (2,): X[0]}))


def test_is_involutive_needs_a_decomposable_field():
    with pytest.raises(ValueError, match="pointwise-decomposable"):
        is_involutive(MIXED)
    with pytest.raises(ValueError, match="grade >= 1"):
        is_involutive(MultivectorField(M, 0, {(): 1}))


def test_is_involutive_agrees_with_sampling():
    # sampling may only refute: where it refutes the exact verdict is False,
    # that is, where the exact check certifies no sample point refutes
    rng = random.Random("involutivity")
    fields = [_frame_wedge(rng, rng.randint(n + 1, 6), n) for n in (2, 3, 4) for _ in range(15)]
    fields += [random_decomposable_field(rng, rng.randint(4, 6), rng.randint(2, 4)) for _ in range(15)]
    verdicts = set()
    for f in fields:
        assert pointwise_decomposable(f)
        exact, sampled = is_involutive(f), involutivity_by_sampling(f)
        assert sampled or not exact, f
        verdicts.add((exact, sampled))
    assert verdicts >= {(True, True), (False, False)}


# ---------------------------------------------------------------------------
# the paper's facts on decomposable fields

def _paper_population(rng):
    for n in (3, 4):
        for _ in range(12):
            m = rng.randint(n + 1, 7)
            yield _frame_wedge(rng, m, n)
            yield _frame_wedge(rng, m, n) + _frame_wedge(rng, m, n)
            yield random_linear_field(rng, m, n, max_terms=4)


def test_ternary_algebraic_condition_is_pointwise_decomposability():
    # the lemma with k = 1: at n = 3, (i(a) P) ^ (i(b) P) = 0 for all
    # covectors iff P is decomposable at every point
    seen = set()
    for f in _paper_population(random.Random("paper-ternary")):
        if f.grade == 3:
            decomposable = pointwise_decomposable(f)
            assert algebraic_condition(f).holds == decomposable, f
            seen.add(decomposable)
    assert seen == {True, False}


def test_decomposable_fields_satisfy_both_conditions():
    # for n >= 3 a pointwise-decomposable field is Poisson: each term of the
    # differential defect holds some frame field on both sides of the wedge;
    # classify takes this on trust, so the conditions are decided directly
    grades = set()
    for f in _paper_population(random.Random("paper-decomposable")):
        if pointwise_decomposable(f):
            assert algebraic_condition(f) == algebraic_condition(BLADE) and differential_condition(f), f
            assert classify(f).is_poisson, f
            grades.add(f.grade)
    assert grades == {3, 4}


def _four_stages(f, points):
    """The verdict with every stage run in full, the route classify's shortcuts replace."""
    even = f.grade % 2 == 0
    algebraic, differential, decomposable = algebraic_condition(f), differential_condition(f), pointwise_decomposable(f)
    return PoissonVerdict(
        parity="even" if even else "odd",
        algebraic_holds=algebraic.holds,
        algebraic_witness=algebraic.witness,
        differential_holds=differential,
        is_poisson=differential if even else algebraic.holds and differential,
        rank_at_samples=sample_ranks(f, points),
        pointwise_decomposable=decomposable,
        nambu_algebraic=decomposable,
    )


def _shortcut_population():
    rng = random.Random("classify-shortcuts")
    yield from _paper_population(rng)
    for n in (2, 5):
        for _ in range(6):
            m = rng.randint(n + 1, 7)
            yield random_linear_field(rng, m, n, max_terms=4)
            yield random_decomposable_field(rng, m, n)
    yield from (MIXED, BLADE, MultivectorField(M, 3), MultivectorField(M, 4), block_sum(2, 2, 8))
    yield from (coordinate_semidecomposable(10, 1, 5), coordinate_semidecomposable(7, 0, 5))


def test_classify_shortcuts_match_the_four_stages():
    seen = set()
    for f in _shortcut_population():
        points = default_sample_points(f.dim, seed=f.dim)
        want = _four_stages(f, points)
        assert [pt for pt, _ in want.rank_at_samples] == list(points)
        # the shared set is read whole; a copy, a generator and mixed points are made integer per call
        mixed = [tuple(pt) for pt in points[:3]] + [list(pt) for pt in points[3:]]
        for read in (lambda: points, lambda: list(points), lambda: (pt for pt in points), lambda: mixed):
            assert classify(f, read()) == want, f
            assert sample_ranks(f, read()) == want.rank_at_samples, f
        seen.add((f.grade, classify(f).pointwise_decomposable))
    assert seen == {(n, dec) for n in (2, 3, 4, 5) for dec in (True, False)}


def _forbid(monkeypatch, *fns):
    def forbidden(*args, **kwargs):
        raise AssertionError("classify ran a stage its shortcuts imply")

    # swapping the code object catches callers that imported the name directly
    for fn in fns:
        monkeypatch.setattr(fn, "__code__", forbidden.__code__)


def test_classify_skips_the_plucker_loop_where_it_is_implied(monkeypatch):
    # n = 3 reads decomposability off the algebraic condition; at n = 4 a
    # sample rank above 4 refutes it
    rng = random.Random("no-plucker")
    fields = [f for f in _paper_population(rng) if f.grade == 3]
    fields += [block_sum(2, 2, 8), _frame_wedge(rng, 8, 4) + _frame_wedge(rng, 8, 4)]
    expected = [_four_stages(f, default_sample_points(f.dim)) for f in fields]
    assert any(rank > 4 for _, rank in expected[-1].rank_at_samples)
    assert {v.pointwise_decomposable for v in expected} == {True, False}
    _forbid(monkeypatch, npk.grassmann.plucker_holds)
    assert [classify(f) for f in fields] == expected


def test_classify_skips_the_conditions_decomposability_implies(monkeypatch):
    # at n = 3 the algebraic condition is the decomposability test itself,
    # so only the differential defect is left out there
    rng = random.Random("no-conditions")
    fields = [f for f in _paper_population(rng) if pointwise_decomposable(f)]
    fields += [random_decomposable_field(rng, 7, 5), coordinate_semidecomposable(7, 0, 5), MultivectorField(M, 4)]
    expected = [_four_stages(f, default_sample_points(f.dim)) for f in fields]
    assert {f.grade for f in fields} == {3, 4, 5}
    _forbid(monkeypatch, npk.fields.differential_defect)
    assert [classify(f) for f in fields] == expected
    _forbid(monkeypatch, npk.exterior.first_failing_pair, npk.exterior._pair_groups)
    assert [classify(f) for f in fields if f.grade > 3] == [v for f, v in zip(fields, expected) if f.grade > 3]


# ---------------------------------------------------------------------------
# sampling utilities and rank semicontinuity

def test_default_sample_points_layout():
    points = default_sample_points(3, seed=1)
    assert len(points) == 1 + 3 + 8
    assert points[0] == (0, 0, 0)
    assert points[2] == (0, 1, 0)
    assert default_sample_points(3, seed=1) == points  # deterministic


def test_default_sample_points_are_built_once_per_arguments(monkeypatch):
    # a plain function, so that tracing tools that wrap functions still see it
    assert inspect.isfunction(default_sample_points)
    builds = []

    def counted(seed):
        builds.append(seed)
        return random.Random(seed)

    npk.poisson._sample_points.cache_clear()
    monkeypatch.setattr(npk.poisson, "random", types.SimpleNamespace(Random=counted))
    first = default_sample_points(4, 3, 5)
    assert len(first) == 1 + 4 + 5 and first[0] == (0,) * 4
    # one shared set per key, which no caller can edit: an editor copies it
    with pytest.raises(TypeError):
        first[0] = None
    assert not hasattr(first, "append")
    assert default_sample_points(4, seed=3, extra=5) is first
    assert default_sample_points(4, 3, extra=5) is first
    assert builds == [3]
    # one build for each new (dim, seed, extra)
    for dim, seed, extra in ((4, 4, 5), (5, 3, 5), (4, 3, 6), (4, 4, 5), (5, 3, 5)):
        default_sample_points(dim, seed, extra)
    assert builds == [3, 4, 3, 3]
    npk.poisson._sample_points.cache_clear()


def test_rank_is_generically_maximal_along_lines():
    # the executable shadow of lower semicontinuity: the rank at sampled
    # generic parameters dominates the rank at the special point
    rng = random.Random("semicontinuity")
    for _ in range(10):
        f = random_linear_field(rng, M, 3, max_terms=5)
        base = [Fraction(rng.randint(-3, 3)) for _ in range(M)]
        direction = [Fraction(rng.randint(-3, 3)) for _ in range(M)]
        special = sharp_profile(f.evaluate(base)).rank
        generic = max(
            sharp_profile(
                f.evaluate([b + t * d for b, d in zip(base, direction)])
            ).rank
            for t in (Fraction(1, 3), Fraction(1, 2), 1, 2, 5)
        )
        assert generic >= special


def _rank_sampling_fields():
    """Seeded fields for the rank-sampling tests: n = 2..5, three kinds."""
    rng = random.Random("rank-sampling")
    fields = []
    for i in range(240):
        n = 2 + i % 4
        m = rng.randint(n, n + 3)
        kind = (i // 4) % 3
        if kind == 0:
            f = random_linear_field(rng, m, n, max_terms=6)
        elif kind == 1:
            blades = rng.sample(list(iter_blades(m, n)), min(rng.randint(1, 4), comb(m, n)))
            f = MultivectorField(m, n, {b: random_polynomial(rng, m, degree=2, max_monos=3) for b in blades})
        else:
            f = random_constant_field(rng, m, n, max_terms=5)
        fields.append(f)
    # the single face rows of sample_ranks: blades that share no (n-1)-face
    # (every row single), fans through one (n-1)-face (one row not single,
    # the fan's own faces single), and components that vanish at some of
    # the default points (x_u vanishes at the origin and at e_v, v != u)
    for i in range(72):
        n = 2 + i % 4
        m = rng.randint(n + 1, n + 4)
        if (i // 4) % 2:
            face = sorted(rng.sample(range(1, m + 1), n - 1))
            ends = rng.sample([w for w in range(1, m + 1) if w not in face], rng.randint(2, m - n + 1))
            blades = [tuple(sorted(face + [w])) for w in ends]
        else:
            blades, faces = [], set()
            for b in rng.sample(list(iter_blades(m, n)), comb(m, n)):
                if len(blades) < 4 and not faces & set(combinations(b, n - 1)):
                    blades.append(b)
                    faces |= set(combinations(b, n - 1))
        comps = {}
        for b in blades:
            x = Polynomial.variable(rng.randint(1, m), m)
            comps[b] = rng.choice((
                x,
                x * random_polynomial(rng, m, degree=1),
                Polynomial.constant(Fraction(rng.randint(-5, 5), rng.randint(1, 4)), m),
                random_polynomial(rng, m, degree=2),
            ))
        fields.append(MultivectorField(m, n, comps))
    return fields


def assert_ranks_match_sharp_profile(f, points=None):
    # sample_ranks serves every grade that `npk rank` accepts; classify,
    # from grade 2 on, must report the same pairs
    if points is None:
        points = default_sample_points(f.dim)
    want = tuple(
        (tuple(Fraction(c) for c in pt), sharp_profile(f.evaluate(pt)).rank) for pt in points
    )
    got = sample_ranks(f, points)
    assert got == want
    assert all(isinstance(c, Fraction) for pt, _ in got for c in pt)
    if f.grade >= 2:
        assert classify(f, points).rank_at_samples == want
    return [rank for _, rank in want]


def test_rank_sampling_fields_reach_the_single_row_split():
    # every shape the split in sample_ranks distinguishes is among the cases
    shapes = set()
    for f in _rank_sampling_fields():
        rows = blade_contractions(f.terms, f.grade - 1).values()
        vanish = any(not p.evaluate(pt) for pt in default_sample_points(f.dim) for p in f.terms.values())
        shapes.add((all(len(row) == 1 for row in rows), any(len(row) > 1 for row in rows), vanish))
    assert {(True, False, True), (False, True, True), (True, False, False), (False, True, False)} <= shapes


def test_rank_sampling_matches_sharp_profile_at_every_point():
    # classify ranks each point from one symbolic face table and a
    # rank-only elimination; sharp_profile ranks the evaluated value
    rng = random.Random("rank-sampling-points")
    kinds = set()
    for f in _rank_sampling_fields():
        points = list(default_sample_points(f.dim, seed=rng.randint(0, 99)))
        # plain ints and Fractions with large denominators, mixed in one point
        points.append(tuple(
            rng.randint(-5, 5) if rng.random() < 0.5 else Fraction(rng.randint(-50, 50), rng.randint(2, 97))
            for _ in range(f.dim)
        ))
        ranks = assert_ranks_match_sharp_profile(f, points)
        kinds.add((f.grade, f.is_constant(), len(set(ranks)) > 1))
    assert {n for n, _, _ in kinds} == {2, 3, 4, 5}
    assert {(True, False), (False, False), (False, True)} <= {(c, v) for _, c, v in kinds}
    # the wider domain of `npk rank`: grade-1 fields, zero fields, full
    # grade, and ranks that drop at the origin
    wider = []
    for _ in range(20):
        m = rng.randint(1, 5)
        wider.append(random_linear_field(rng, m, 1, max_terms=3))
        wider.append(random_constant_field(rng, m, 1, max_terms=3))
        wider.append(random_linear_field(rng, m, m, max_terms=1))
    wider += [MultivectorField(m, n) for m, n in ((1, 1), (3, 1), (3, 3), (5, 1), (5, 5))]
    wider.append(MultivectorField(3, 1, {(1,): Polynomial.variable(1, 3)}))
    wider.append(MultivectorField(4, 2, {(1, 2): Polynomial.variable(1, 4), (3, 4): Polynomial.variable(2, 4)}))
    drops = 0
    for f in wider:
        ranks = assert_ranks_match_sharp_profile(f)
        drops += ranks[0] < max(ranks)
        if f.is_zero():
            assert set(ranks) == {0}
    assert drops >= 2


def test_rank_sampling_special_cases():
    # the zero field has rank 0 everywhere
    zero = MultivectorField(4, 3)
    assert [r for _, r in classify(zero).rank_at_samples] == [0] * (1 + 4 + 8)
    # x1 d1^d2^d3 + x2 d1^d4^d5 has rank 0 at the origin and at e3..e5, rank 3
    # at e1 and e2, and rank 5 wherever x1 x2 != 0
    drop = MultivectorField(M, 3, {(1, 2, 3): X[0], (1, 4, 5): X[1]})
    ranks = assert_ranks_match_sharp_profile(drop)
    assert ranks[:3] == [0, 3, 3] and ranks[3:6] == [0, 0, 0] and 5 in ranks
    # coefficients and coordinates with denominators > 1 and distinct lcms
    half = Polynomial.constant(Fraction(1, 2), M)
    thirds = Fraction(2, 3) * X[2] - Fraction(5, 7)
    field = MultivectorField(M, 2, {(1, 2): half * X[0], (2, 3): thirds, (4, 5): Fraction(7, 11) * X[3]})
    points = [
        (Fraction(1, 2), Fraction(-3, 7), Fraction(1, 3), Fraction(1, 5), Fraction(9, 13)),
        (Fraction(0), Fraction(1, 3), Fraction(15, 14), Fraction(4, 5), Fraction(-1, 10**9)),
        (2, Fraction(1, 6), Fraction(15, 14), 0, 1),
    ]
    # rank 2 from e2 ^ (x1/2 e1 - (2/3 x3 - 5/7) e3) unless x1 = 2/3 x3 - 5/7 = 0,
    # and 2 more from 7/11 x4 e4 ^ e5 unless x4 = 0
    assert assert_ranks_match_sharp_profile(field, points) == [4, 2, 2]
    # Pfaffian x1 x2 - 1: the rank drops to 2 exactly where x1 x2 = 1, which
    # only the values over one common denominator can see at (1/2, 2)
    y = [Polynomial.variable(u, 4) for u in range(1, 5)]
    pfaffian = MultivectorField(4, 2, {(1, 2): y[0], (3, 4): y[1], (1, 3): 1, (2, 4): 1})
    points = [(Fraction(1, 2), 2, 0, 0), (Fraction(2, 3), Fraction(3, 2), 5, 0), (Fraction(1, 3), 2, 0, 0)]
    assert assert_ranks_match_sharp_profile(pfaffian, points) == [2, 2, 4]


def _count_eliminations(monkeypatch) -> list:
    calls = []
    kernel = npk.poisson.sparse_rank

    def counted(rows, width):
        calls.append(width)
        return kernel(rows, width)

    monkeypatch.setattr(npk.poisson, "sparse_rank", counted)
    return calls


def test_classify_runs_one_rank_only_elimination_per_point(monkeypatch, tmp_path, capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("rank sampling reached sharp_profile or rref")

    # swapping the code object catches callers that imported the name directly
    for fn in (npk.grassmann.sharp_profile, npk.linalg.rref):
        monkeypatch.setattr(fn, "__code__", forbidden.__code__)
    calls = _count_eliminations(monkeypatch)
    polynomial = MultivectorField(M, 3, {(1, 2, 3): X[0], (1, 4, 5): X[1] + 1})
    verdict = classify(polynomial)
    assert 0 < len(calls) <= len(verdict.rank_at_samples) == 1 + M + 8
    # a constant field has one value vector; the zero field is decomposable
    # at n = 3, so its ranks are read off its values with no elimination
    for constant, eliminations in ((MIXED, 1), (MultivectorField(M, 3), 0)):
        calls.clear()
        verdict = classify(constant)
        assert len(calls) == eliminations
        assert len({rank for _, rank in verdict.rank_at_samples}) == 1
    # `npk rank` takes the same route, from grade 1 on
    grade_one = MultivectorField(M, 1, {(2,): 3})
    for f, most in ((polynomial, 1 + M + 8), (MIXED, 1), (MultivectorField(M, 3), 1), (grade_one, 1)):
        path = tmp_path / "field.json"
        path.write_text(serialize(from_field(f)))
        calls.clear()
        assert main(["rank", str(path), "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)["rank_at_samples"]
        assert len(entries) == 1 + M + 8
        assert 0 < len(calls) <= most
    # every point is checked for length, whether or not it is ranked
    for f in (polynomial, MIXED, MultivectorField(M, 3)):
        with pytest.raises(ValueError, match=f"point must have {M} coordinates"):
            classify(f, [(0,) * M, (1,) * (M - 1)])
        with pytest.raises(ValueError, match=f"point must have {M} coordinates"):
            f.evaluate((1,) * (M - 1))


def test_rank_sampling_runs_one_elimination_per_distinct_value_vector(monkeypatch):
    calls = _count_eliminations(monkeypatch)
    origin, e = (0,) * M, [tuple(int(i == u) for i in range(M)) for u in range(M)]

    def eliminations(f, points):
        calls.clear()
        sample_ranks(f, points)
        n = len(calls)
        assert_ranks_match_sharp_profile(f, points)
        return n

    # a constant field has one value vector
    assert eliminations(MIXED, default_sample_points(M)) == 1
    # components in x1 and x2 only: e3, e4, e5 read the origin's values
    half = Fraction(1, 2)
    f = MultivectorField(M, 3, {(1, 2, 3): half * X[0] - 1, (1, 4, 5): X[1] * X[0] + Fraction(2, 3)})
    assert eliminations(f, [origin, e[2], e[3], e[4]]) == 1
    assert eliminations(f, [origin, e[0], e[2]]) == 2
    # homogeneous of degree 2: p(tx) = t^2 p(x), so the integer vectors at
    # tx are positive multiples of the one at x (4 times it at t = +-2)
    quad = MultivectorField(M, 3, {
        (1, 2, 3): half * X[0] * X[0] - X[1] * X[2],
        (1, 4, 5): Fraction(3, 7) * X[3] * X[4],
        (2, 4, 5): Fraction(5, 6) * X[0] * X[2],
    })
    x = (1, 2, -3, 0, 5)
    scaled = [tuple(t * c for c in x) for t in (1, 2, Fraction(1, 3), -2, Fraction(-5, 4))]
    assert eliminations(quad, scaled) == 1
    assert eliminations(quad, [x, (1,) * M]) == 2
    # the committed spec: rank 3 at the origin, e3, e4, e5 (one elimination), 5 elsewhere
    field = to_field(parse_spec_text((SPECS / "quadratic_rank_drop_3vector.json").read_text()))
    calls.clear()
    ranks = [rank for _, rank in classify(field).rank_at_samples]
    assert ranks[:6] == [3, 5, 5, 3, 3, 3] and set(ranks[6:]) == {5}
    assert len(calls) == len(ranks) - 3


def test_a_constant_field_is_ranked_from_one_value_vector(monkeypatch):
    # at degree 0 every point has the same integer values, so no evaluator
    # is built and one elimination ranks every point, default or edited;
    # each point is still checked
    rng = random.Random("constant-values")
    fields = [random_constant_field(rng, 7, n, max_terms=5) for n in (2, 3, 4, 5) for _ in range(3)]
    fields += [Fraction(-3, 4) * MIXED, block_sum(2, 2, 8), MultivectorField(6, 4)]
    cases = []
    for f in fields:
        edited = list(default_sample_points(f.dim, 2))
        edited[1] = (Fraction(1, 2),) * f.dim
        edited.insert(0, tuple(range(f.dim)))
        for points in (default_sample_points(f.dim, 2), edited):
            want = tuple((tuple(map(Fraction, pt)), sharp_profile(f.evaluate(pt)).rank) for pt in points)
            cases.append((f, points, want))

    def forbidden(*args, **kwargs):
        raise AssertionError("a constant field built an evaluator")

    monkeypatch.setattr(npk.poisson, "integer_evaluator", forbidden)
    calls = _count_eliminations(monkeypatch)
    assert {f.grade for f in fields} == {2, 3, 4, 5} and all(f.is_constant() for f in fields)
    for f, points, want in cases:
        calls.clear()
        assert sample_ranks(f, points) == want
        assert len(calls) == 1
        if f.grade >= 2:
            assert classify(f, points).rank_at_samples == want
    for f in fields:
        calls.clear()
        assert sample_ranks(f, []) == () and not calls
        with pytest.raises(TypeError, match="coordinates must be ints or Fractions"):
            sample_ranks(f, [(0,) * f.dim, (True,) + (0,) * (f.dim - 1)])
        for run in (sample_ranks, classify):
            if run is classify and f.grade < 2:
                continue
            with pytest.raises(ValueError, match=f"point must have {f.dim} coordinates"):
                run(f, [(0,) * f.dim, (1,) * (f.dim - 1)])
            with pytest.raises(ValueError, match=f"point must have {f.dim} coordinates"):
                run(f, default_sample_points(f.dim - 1))


def test_rank_sampling_keeps_fraction_points_and_converts_the_rest():
    f = MultivectorField(M, 3, {(1, 2, 3): X[0], (1, 4, 5): X[1] + 1})
    points = default_sample_points(M, 3)
    ranked = sample_ranks(f, points)
    # the sample points are tuples of Fractions: returned as they are
    assert all(got is pt for (got, _), pt in zip(ranked, points))
    # ints and lists are still made tuples of Fractions
    mixed = [(0, 1, Fraction(1, 2), -3, 0), [Fraction(2), 0, 0, 0, 1]]
    exact = [tuple(map(Fraction, pt)) for pt in mixed]
    assert sample_ranks(f, mixed) == sample_ranks(f, exact)
    assert all({*map(type, got)} == {Fraction} for got, _ in sample_ranks(f, mixed))


def test_default_sample_points_carry_their_integer_forms_and_strings():
    for dim, seed, extra in ((1, 0, 8), (4, 3, 5), (7, 11, 0)):
        points = default_sample_points(dim, seed, extra)
        assert isinstance(points, tuple) and len(points) == 1 + dim + extra
        assert points.forms == tuple(npk.poisson._integer_point(pt, dim) for pt in points)
        assert points.strs == tuple(tuple(map(str, pt)) for pt in points)
        # the same string tuples on every call
        again = default_sample_points(dim, seed, extra).strs
        assert all(a is b for a, b in zip(again, points.strs))


def test_rank_sampling_reads_cached_forms_only_for_the_cached_points():
    # a caller may edit the list of default points: moved or replaced points
    # are made integer afresh, and default points of another dimension refused
    drop = MultivectorField(M, 3, {(1, 2, 3): X[0], (1, 4, 5): X[1]})
    for f in (drop, BLADE, X[2] * BLADE):
        points = list(default_sample_points(M, 3))
        points[1] = (Fraction(1, 2),) * M
        points.insert(0, (Fraction(-1, 3), 2, 0, 1, 0))
        assert_ranks_match_sharp_profile(f, points)
        for run in (sample_ranks, classify):
            with pytest.raises(ValueError, match=f"point must have {M} coordinates"):
                run(f, default_sample_points(M - 1))


def test_rank_sampling_refuses_non_exact_coordinates():
    polynomial = MultivectorField(M, 3, {(1, 2, 3): X[0], (1, 4, 5): X[1] + 1})
    for f in (polynomial, MIXED, MultivectorField(M, 3)):
        for bad in (0.5, True, 1.0):
            with pytest.raises(TypeError, match="coordinates must be ints or Fractions"):
                sample_ranks(f, [(0,) * M, (Fraction(1, 2), bad, 0, 0, 0)])
            with pytest.raises(TypeError, match="coordinates must be ints or Fractions"):
                classify(f, [(bad,) + (0,) * (M - 1)])


def test_scale_examples_merge_no_blade(monkeypatch):
    # the paper's constant-rank-2n structure at (n, h) = (11, 4) and (13, 3):
    # every two of its blades share at least three indices, so the
    # algebraic condition, self-compatibility and the Jacobi oracle push
    # nothing and merge no blade
    calls = []
    merge = npk.exterior.merge_blades

    def counted(left, right):
        calls.append((left, right))
        return merge(left, right)

    for module in (npk.exterior, npk.fields, npk.grassmann):
        monkeypatch.setattr(module, "merge_blades", counted)
    for n, h in ((11, 4), (13, 3)):
        p = coordinate_semidecomposable(2 * n, h, n)
        verdict = classify(p)
        assert verdict.is_poisson and {rank for _, rank in verdict.rank_at_samples} == {2 * n}
        calls.clear()
        assert algebraic_condition(p).holds and is_compatible(p, p).holds and jacobi_identity_holds(p)
        assert calls == []


def test_jacobi_oracle_agrees_with_classifier_spot_checks():
    rng = random.Random("oracle-vs-classifier")
    for _ in range(6):
        f = random_linear_field(rng, M, 3, max_terms=5)
        assert jacobi_identity_holds(f) == classify(f).is_poisson
    g = random_decomposable_field(rng, M, 3)
    assert jacobi_identity_holds(g) and classify(g).is_poisson
