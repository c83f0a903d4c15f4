"""Acceptance criteria, one test per criterion, exact arithmetic throughout.

Every check runs at zero tolerance: equalities of rationals, polynomials
and multivectors are exact.  Each test prints a single pass/fail line so
the acceptance record is readable from the pytest output (run with -s or
check the failure report).
"""

import npk.grassmann
import npk.oracles
import npk.suites
from npk.suites import (
    SuiteResult,
    suite_block_sum_instance,
    suite_compat_operator,
    suite_contraction_profile,
    suite_jacobi_vs_classifier,
    suite_kernel_selfconsistency,
    suite_nambu_chain,
    suite_semidecomposable_rank,
    suite_ternary_decomposability,
)

SEED = 0


def _report(number: int, label: str, result: SuiteResult) -> None:
    status = "PASS" if result.passed else "FAIL"
    print(f"criterion {number} [{label}]: {status} ({result.cases} cases)")
    assert result.passed, f"criterion {number} failed: {result.failures}"


def test_criterion_1_jacobi_equivalence():
    # >= 50 grade-3 fields (m=5, degree <= 1, <= 6 terms) and >= 20
    # grade-4 fields (m <= 7): the Jacobi identity oracle agrees with the
    # parity-rule classifier on every instance
    result = suite_jacobi_vs_classifier(SEED)
    assert result.info["grade3_instances"] >= 50
    assert result.info["grade4_instances"] >= 20
    assert result.info["poisson_instances"] >= 10  # both verdict classes exercised
    _report(1, "jacobi-vs-classifier", result)


def test_criterion_2_contraction_profile_equivalence():
    # >= 200 constant multivectors (grades 3 and 4, m <= 6, half built
    # decomposable), plus the two-block counterexample whose basis
    # contractions are all decomposable
    result = suite_contraction_profile(SEED)
    assert result.info["population"] >= 200
    _report(2, "contraction-profile-equivalence", result)


def test_contraction_profile_suite_catches_a_false_rank_shortcut(monkeypatch):
    # the rank-n shortcut answers False: the rank disagrees, and neither a
    # witness nor the identity certifies the verdict
    decide = npk.grassmann._contractions_decomposable

    def shortcut_false(p, pivots, k):
        return False if len(pivots) == p.grade else decide(p, pivots, k)

    monkeypatch.setattr(npk.grassmann, "_contractions_decomposable", shortcut_false)
    result = suite_contraction_profile(SEED)
    assert not result.passed
    # the seed-0 population has 254 (instance, k) pairs of rank n
    disagree = [f.removesuffix(" decomposable=True") for f in result.failures if f.endswith("decomposable=True")]
    uncertified = [f.removesuffix(" not certified") for f in result.failures if f.endswith("not certified")]
    assert len(result.failures) == 2 * 254
    assert disagree == uncertified and all(f.endswith("profile=False") for f in disagree)


def test_contraction_profile_suite_certifies_true_without_the_rank(monkeypatch):
    # a rank fault the profile and the suite's rank share: both say True
    # everywhere, and only the identity refuses the random half's verdicts
    monkeypatch.setattr(npk.grassmann, "_contractions_decomposable", lambda p, pivots, k: True)
    monkeypatch.setattr(npk.suites, "is_decomposable", lambda p: True)
    result = suite_contraction_profile(SEED)
    assert not result.passed
    # the seed-0 population has 26 non-decomposable (instance, k) pairs
    uncertified = [f for f in result.failures if f.endswith("profile=True not certified")]
    assert len(uncertified) == 26
    assert result.failures == uncertified + ["two-block counterexample misclassified"]


def test_contraction_profile_suite_rechecks_each_witness(monkeypatch):
    # the suite's witnesses contract every input to zero: no False verdict
    # re-checks in Fractions, although the profile itself is right
    monkeypatch.setattr(npk.suites, "_refuting_covectors", lambda p, k: [{}] * k)
    result = suite_contraction_profile(SEED)
    assert len(result.failures) == 26
    assert all(f.endswith("profile=False not certified") for f in result.failures)


def test_criterion_3_ternary_decomposability():
    # grade 3: the algebraic condition, decomposability and the Poisson
    # property coincide, and the differential condition comes for free
    result = suite_ternary_decomposability(SEED)
    assert result.info["constant_instances"] >= 120
    assert result.info["field_instances"] >= 50
    _report(3, "ternary-decomposability", result)


def test_criterion_4_semidecomposable_rank():
    # mixed-frame structures of rank exactly 2n (h > 0) resp. n (h = 0),
    # out-of-range h rejected
    result = suite_semidecomposable_rank(SEED)
    _report(4, "semidecomposable-rank", result)


def test_criterion_5_nambu_chain():
    # component identities == polarized identities == pointwise
    # decomposability; mixed-frame structures are Poisson but not Nambu
    result = suite_nambu_chain(SEED)
    _report(5, "nambu-three-routes", result)


def test_nambu_chain_catches_routes_that_always_hold(monkeypatch):
    # every route of is_nambu_algebraic and the suite's own pointwise check
    # say True; only the rank of the field's values can disagree
    def always(field):
        return True

    for name in ("pointwise_decomposable", "nambu_polarized_route", "nambu_component_route"):
        monkeypatch.setattr(npk.oracles, name, always)
    monkeypatch.setattr(npk.suites, "pointwise_decomposable", always)
    result = suite_nambu_chain(SEED)
    assert not result.passed
    assert len(result.failures) == 13
    assert all("nambu=True disagrees with the rank" in f for f in result.failures)


def test_criterion_6_two_block_instance():
    # the two-block grade-4 structure on 8 coordinates: Poisson, algebraic
    # condition fails, rank 8 at every sample, reducibility witnessed
    result = suite_block_sum_instance(SEED)
    _report(6, "two-block-instance", result)


def test_criterion_7_compat_operator():
    # the operator annihilates every structure in the suite, acts on
    # functions as the gradient contraction (50 random functions), and
    # maps into the compatible family
    result = suite_compat_operator(SEED)
    _report(7, "compat-operator-identities", result)


def test_criterion_8_kernel_selfconsistency():
    # factorization round-trips exactly, rank == m - annihilator dimension,
    # the image inclusion always holds and rank drop 1 forces equality
    result = suite_kernel_selfconsistency(SEED)
    _report(8, "kernel-self-consistency", result)
