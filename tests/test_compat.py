import random
from itertools import combinations

import pytest

from npk.compat import (
    IncompatibleFieldError,
    delta,
    gradient_contraction,
    is_compatible,
)
from npk.fields import MultivectorField, differential_defect, jacobi_identity_holds
from npk.poisson import algebraic_condition, block_sum, build_semidecomposable, classify, coordinate_semidecomposable
from npk.polynomial import Polynomial
from npk.suites import (
    _random_triangular_frames,
    random_constant_field,
    random_decomposable_field,
    random_linear_field,
    random_polynomial,
)
from oracles import bracket_by_minors, pair_wedges_by_contraction

M = 5
X = [Polynomial.variable(u, M) for u in range(1, M + 1)]
BLADE = MultivectorField(M, 3, {(1, 2, 3): 1})


def grade0(f):
    return MultivectorField(f.num_vars, 0, {(): f})


# ---------------------------------------------------------------------------
# membership

def test_structure_is_compatible_with_itself():
    assert is_compatible(BLADE, BLADE).holds
    semi = coordinate_semidecomposable(10, 1, 5)
    assert is_compatible(semi, semi).holds


def test_scalars_are_vacuously_compatible():
    assert is_compatible(BLADE, grade0(X[0] * X[3] + 2)).holds


def test_incompatible_bivector_witness():
    # (i(dx1)P) ^ (i(dx4)U) = e23 ^ e5 survives, symmetric partner vanishes
    candidate = MultivectorField(M, 2, {(4, 5): 1})
    report = is_compatible(BLADE, candidate)
    assert not report.holds
    assert report.witness == (1, 4)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError, match="incompatible spaces"):
        is_compatible(BLADE, MultivectorField(4, 2, {(1, 2): 1}))


# ---------------------------------------------------------------------------
# the operator

def test_operator_annihilates_structures():
    assert delta(BLADE, BLADE).is_zero()
    semi = coordinate_semidecomposable(10, 1, 5)
    assert delta(semi, semi).is_zero()


def test_operator_on_coordinates_is_the_contraction():
    out = delta(BLADE, grade0(X[0]))
    assert out == MultivectorField(M, 2, {(2, 3): 1})
    assert out == gradient_contraction(BLADE, X[0])


def test_operator_on_constants_vanishes():
    # 2*e123 + e234 factors as (2e1 + e4) ^ e2 ^ e3, hence compatible
    p = MultivectorField(M, 3, {(1, 2, 3): 2, (2, 3, 4): 1})
    u = MultivectorField(M, 0, {(): 7})
    assert is_compatible(p, p).holds
    assert delta(p, p).is_zero()
    assert delta(p, u).is_zero()


def test_operator_rejects_incompatible_input():
    candidate = MultivectorField(M, 2, {(4, 5): 1})
    with pytest.raises(IncompatibleFieldError, match="not compatible"):
        delta(BLADE, candidate)


def test_gradient_action_matches_direct_contraction():
    rng = random.Random("gradient-route")
    structures = [BLADE] + [random_decomposable_field(rng, M, 3) for _ in range(4)]
    for i in range(50):
        p = structures[i % len(structures)]
        f = random_polynomial(rng, M, degree=2, max_monos=3)
        assert delta(p, grade0(f)) == gradient_contraction(p, f)


def _casimir_case(m):
    # the cited structure on Q^m, built from its components, and its
    # quadratic Casimir sum x_i^2
    x = [Polynomial.variable(u, m) for u in range(1, m + 1)]
    if m == 3:  # Lie-Poisson so(3): x3 e12 - x2 e13 + x1 e23
        p = MultivectorField(3, 2, {(1, 2): x[2], (1, 3): -x[1], (2, 3): x[0]})
    else:  # Filippov's A_4: x1 e234 - x2 e134 + x3 e124 - x4 e123
        p = MultivectorField(4, 3, {(2, 3, 4): x[0], (1, 3, 4): -x[1], (1, 2, 4): x[2], (1, 2, 3): -x[3]})
    return p, x, sum((xi * xi for xi in x), Polynomial.zero(m))


@pytest.mark.parametrize("m", [3, 4], ids=["so3", "filippov-a4"])
def test_cited_casimirs_contract_to_zero(m):
    p, x, casimir = _casimir_case(m)
    assert classify(p).is_poisson
    assert jacobi_identity_holds(p)
    assert gradient_contraction(p, casimir).is_zero()
    assert not gradient_contraction(p, x[0]).is_zero()
    # the Jacobian-minor route, on every increasing coordinate tuple
    tuples = list(combinations(x, p.grade - 1))
    assert [bracket_by_minors(p, [casimir, *t]) for t in tuples] == [Polynomial.zero(m)] * len(tuples)


def test_operator_range_stays_compatible():
    rng = random.Random("range-check")
    structures = [BLADE] + [random_decomposable_field(rng, M, 3) for _ in range(3)]
    for i in range(20):
        p = structures[i % len(structures)]
        f = random_polynomial(rng, M, degree=2, max_monos=2)
        image = delta(p, grade0(f))
        assert is_compatible(p, image).holds


def test_operator_square_recorded_not_asserted():
    # the square of the operator need not vanish; record the value only
    f = X[0] * X[3]
    first = delta(BLADE, grade0(f))
    assert is_compatible(BLADE, first).holds
    square = delta(BLADE, first)
    print(f"operator square on x1*x4: {square!r}")


def test_wedge_closure_recorded_not_asserted():
    # whether the compatible family is wedge-closed is recorded per sample
    first = delta(BLADE, grade0(X[0]))
    second = delta(BLADE, grade0(X[1]))
    sample = first.wedge(second)
    report = is_compatible(BLADE, sample)
    print(f"wedge closure sample compatible: {report.holds}")


# ---------------------------------------------------------------------------
# self-compatibility

def first_pair(wedges):
    return min(wedges, default=None)


def test_witnesses_match_the_per_index_contractions():
    # is_compatible and algebraic_condition push blade pairs through one
    # table; their first failing pair must be the one that m separate
    # contractions with dx^a give
    rng = random.Random("one-pass-contractions")
    witnesses = set()
    for _ in range(200):
        n, q = rng.randint(2, 4), rng.randint(1, 3)
        m = rng.randint(max(n, q), 6)
        p = random_linear_field(rng, m, n, max_terms=4)
        u = p if rng.random() < 0.3 else random_linear_field(rng, m, q, max_terms=3)
        want = first_pair(pair_wedges_by_contraction(p, u, True))
        report = is_compatible(p, u)
        assert (report.holds, report.witness) == (want is None, want)
        want = first_pair(pair_wedges_by_contraction(p, p, False))
        algebraic = algebraic_condition(p)
        assert (algebraic.holds, algebraic.witness) == (want is None, want)
        witnesses.update((report.witness, algebraic.witness))
    assert None in witnesses and len(witnesses) > 4
    with pytest.raises(ValueError, match="cannot contract a scalar"):
        is_compatible(grade0(X[0]), BLADE)


def _paper_populations():
    rng = random.Random("paper-populations")
    fields = [block_sum(u, s, m) for u, s, m in ((1, 1, 2), (1, 3, 7), (2, 1, 5), (2, 2, 8), (2, 3, 12))]
    fields += [
        coordinate_semidecomposable(2 * n if h else n + 1, h, n)
        for n in range(3, 10)
        for h in range(0, (n - 3) // 2 + 1)
    ]
    for n in (3, 4, 5, 6):
        frames = _random_triangular_frames(rng, 2 * n)
        for h in range(0, (n - 3) // 2 + 1):
            fields.append(build_semidecomposable(frames[:n], frames[n:], h))
    # unit lower-triangular frames, so that the second frame reaches the
    # first frame's coordinates and blades meet in fewer than three indices
    for n, h, fill in ((3, 0, 0.6), (4, 0, 0.4), (5, 1, 0.15)):
        frames = []
        for i in range(1, 2 * n + 1):
            comps = {(j,): rng.choice((-2, -1, 1, 2, 3)) for j in range(1, i) if rng.random() < fill}
            frames.append(MultivectorField(2 * n, 1, {**comps, (i,): 1}))
        fields.append(build_semidecomposable(frames[:n], frames[n:], h))
    for _ in range(40):
        n = rng.randint(2, 5)
        m = rng.randint(n, 7)
        fields.append(random_decomposable_field(rng, m, n))
        fields.append(random_constant_field(rng, m, n))
    return rng, fields


def test_witnesses_match_the_dense_route_on_the_paper_populations():
    # the dense route over block sums, the semi-decomposables on coordinate
    # and triangular frames, decomposable and constant fields, each with
    # itself and with a random field; the blade pairs that push to the table
    # (sharing at most two indices) come in every size, in fields that
    # hold and in fields that fail
    rng, fields = _paper_populations()
    verdicts, sizes = set(), {True: set(), False: set()}
    for p in fields:
        want = first_pair(pair_wedges_by_contraction(p, p, False))
        algebraic = algebraic_condition(p)
        assert (algebraic.holds, algebraic.witness) == (want is None, want), p
        want = first_pair(pair_wedges_by_contraction(p, p, True))
        report = is_compatible(p, p)
        assert (report.holds, report.witness) == (want is None, want), p
        u = random_linear_field(rng, p.dim, rng.randint(1, min(3, p.dim)), max_terms=3)
        want = first_pair(pair_wedges_by_contraction(p, u, True))
        report = is_compatible(p, u)
        assert (report.holds, report.witness) == (want is None, want), (p, u)
        verdicts.add((algebraic.holds, report.holds))
        sizes[algebraic.holds] |= {len(set(s) & set(t)) for s in p.terms for t in p.terms} & {0, 1, 2}
    assert verdicts == {(a, c) for a in (True, False) for c in (True, False)}
    assert sizes == {True: {0, 1, 2}, False: {0, 1, 2}}


def test_self_compatibility_cross_checks():
    # the pair sum (i(dx^a) P) ^ (i(dx^b) P) + (i(dx^b) P) ^ (i(dx^a) P) is
    # twice one wedge at odd n, where the contractions have even grade and
    # commute, so is_compatible(P, P) is the algebraic condition, witness
    # included; at even n they anticommute and every field is
    # self-compatible.  On self-compatible fields delta(P, P) is twice the
    # differential defect
    rng = random.Random("self-compatibility")
    odd_verdicts = set()
    defects = 0
    for _ in range(300):
        n = rng.randint(2, 5)
        m = rng.randint(n, 7)
        if rng.random() < 0.3:
            field = random_decomposable_field(rng, m, n)
        else:
            field = random_linear_field(rng, m, n, max_terms=4)
        report = is_compatible(field, field)
        if n % 2:
            algebraic = algebraic_condition(field)
            assert (report.holds, report.witness) == (algebraic.holds, algebraic.witness)
            odd_verdicts.add(report.holds)
        else:
            assert report.holds
        if report.holds:
            defect = differential_defect(field)
            assert delta(field, field) == defect * 2
            defects += bool(defect)
        else:
            with pytest.raises(IncompatibleFieldError):
                delta(field, field)
    assert odd_verdicts == {True, False}
    assert defects >= 15
