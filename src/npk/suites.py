"""Seeded property suites behind both the CLI and the acceptance tests.

Every suite draws its instances from an explicit ``random.Random`` seed,
iterates in a fixed order, and returns a :class:`SuiteResult` whose JSON
form is byte-identical across runs with the same seed.  Informational
records (operator squares, wedge-closure samples) carry no pass/fail
meaning and live in ``info``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction

from .compat import IncompatibleFieldError, delta, gradient_contraction, is_compatible
from .exterior import Covector, Multivector, iter_blades
from .fields import MultivectorField, jacobi_identity_holds
from .grassmann import (
    IrreducibilityKind,
    _image,
    _refuting_covectors,
    _symbolic_profile,
    contraction_profile,
    contraction_subspace_report,
    factorize,
    irreducibility_check,
    is_decomposable,
    sharp_profile,
)
from .linalg import _integral
from .poisson import (
    algebraic_condition,
    block_sum,
    build_semidecomposable,
    classify,
    coordinate_semidecomposable,
    default_sample_points,
    differential_condition,
    pointwise_decomposable,
    sample_ranks,
)
from .oracles import is_nambu_algebraic
from .polynomial import Polynomial


@dataclass
class SuiteResult:
    name: str
    passed: bool
    cases: int
    failures: list[str] = dataclass_field(default_factory=list)
    info: dict = dataclass_field(default_factory=dict)


# ---------------------------------------------------------------------------
# seeded generators

def _fraction(rng: random.Random, span: int = 6) -> Fraction:
    return Fraction(rng.randint(-span, span))


def _nonzero_fraction(rng: random.Random, span: int = 6) -> Fraction:
    while True:
        c = _fraction(rng, span)
        if c:
            return c


def random_vector(rng: random.Random, m: int, support: int = 2) -> Multivector:
    """Sparse nonzero grade-1 multivector."""
    indices = rng.sample(range(1, m + 1), min(support, m))
    terms = {(u,): _nonzero_fraction(rng) for u in indices}
    return Multivector(m, 1, terms)


def random_constant_multivector(rng: random.Random, m: int, n: int, max_terms: int = 4) -> Multivector:
    """Sparse nonzero grade-n multivector with random blades."""
    blades = list(iter_blades(m, n))
    while True:
        chosen = rng.sample(blades, min(rng.randint(1, max_terms), len(blades)))
        terms = {b: _nonzero_fraction(rng) for b in chosen}
        p = Multivector(m, n, terms)
        if not p.is_zero():
            return p


def random_decomposable_multivector(rng: random.Random, m: int, n: int) -> Multivector:
    """Nonzero wedge of n sparse random vectors."""
    while True:
        acc = random_vector(rng, m)
        for _ in range(n - 1):
            acc = acc.wedge(random_vector(rng, m))
        if not acc.is_zero():
            return acc


def random_sparse_decomposable_multivector(rng: random.Random, m: int, n: int) -> Multivector:
    """Decomposable with at most two blades (one support-2 factor)."""
    while True:
        acc = random_vector(rng, m, support=2)
        for _ in range(n - 1):
            acc = acc.wedge(random_vector(rng, m, support=1))
        if not acc.is_zero():
            return acc


def random_linear_polynomial(rng: random.Random, m: int, max_monos: int = 2) -> Polynomial:
    """Polynomial of degree at most one with a couple of monomials."""
    terms: dict[tuple[int, ...], Fraction] = {}
    for _ in range(rng.randint(1, max_monos)):
        if rng.random() < 0.3:
            exps = (0,) * m
        else:
            u = rng.randint(1, m)
            exps = tuple(1 if i == u - 1 else 0 for i in range(m))
        terms[exps] = terms.get(exps, Fraction(0)) + _nonzero_fraction(rng)
    return Polynomial(m, terms)


def random_linear_field(rng: random.Random, m: int, n: int, max_terms: int = 6) -> MultivectorField:
    """Sparse grade-n field whose components have degree at most one."""
    blades = list(iter_blades(m, n))
    while True:
        chosen = rng.sample(blades, min(rng.randint(1, max_terms), len(blades)))
        comps = {b: random_linear_polynomial(rng, m) for b in chosen}
        f = MultivectorField(m, n, comps)
        if not f.is_zero():
            return f


def random_constant_field(rng: random.Random, m: int, n: int, max_terms: int = 4) -> MultivectorField:
    return MultivectorField.from_multivector(random_constant_multivector(rng, m, n, max_terms))


def random_decomposable_field(rng: random.Random, m: int, n: int) -> MultivectorField:
    """Linear function times a sparse constant decomposable; at most 2 blades."""
    while True:
        first = Multivector(m, 1, {
            (rng.randint(1, m),): _nonzero_fraction(rng),
            (rng.randint(1, m),): _nonzero_fraction(rng),
        })
        rest_indices = rng.sample(range(1, m + 1), n - 1)
        acc = first
        for u in rest_indices:
            acc = acc.wedge(Multivector(m, 1, {(u,): _nonzero_fraction(rng)}))
        if acc.is_zero():
            continue
        scale = random_linear_polynomial(rng, m)
        if not scale:
            continue
        return MultivectorField.from_multivector(acc) * scale


def _random_triangular_frames(rng: random.Random, m: int) -> list[MultivectorField]:
    """m constant frame fields, independent everywhere (unit triangular)."""
    frames = []
    for i in range(1, m + 1):
        comps = {(i,): Fraction(1)}
        if i < m and rng.random() < 0.7:
            comps[(rng.randint(i + 1, m),)] = _nonzero_fraction(rng, 4)
        frames.append(MultivectorField(m, 1, comps))
    return frames


def _grade0(f: Polynomial) -> MultivectorField:
    return MultivectorField(f.num_vars, 0, {(): f})


def random_polynomial(rng: random.Random, m: int, degree: int = 2, max_monos: int = 3) -> Polynomial:
    terms: dict[tuple[int, ...], Fraction] = {}
    for _ in range(rng.randint(1, max_monos)):
        exps = [0] * m
        for _ in range(rng.randint(0, degree)):
            exps[rng.randint(0, m - 1)] += 1
        key = tuple(exps)
        terms[key] = terms.get(key, Fraction(0)) + _nonzero_fraction(rng)
    poly = Polynomial(m, terms)
    return poly if poly else Polynomial.constant(1, m)


# ---------------------------------------------------------------------------
# suites

def suite_jacobi_vs_classifier(seed: int = 0) -> SuiteResult:
    """Generalized Jacobi identity versus the parity-rule classifier.

    Both sides run the same two kernels, the differential defect and the
    covector-pair table, so this checks only how the parity rule is wired
    into each: the grade guard, the parity branch and the verdict.  The
    route independent of those kernels, the nested-bracket defect loop,
    is a test oracle.
    """
    rng = random.Random(f"{seed}:jacobi")
    fields: list[MultivectorField] = []
    for _ in range(25):
        fields.append(random_linear_field(rng, 5, 3, max_terms=6))
    for _ in range(10):
        fields.append(random_constant_field(rng, 5, 3, max_terms=4))
    for _ in range(8):
        fields.append(
            MultivectorField.from_multivector(random_sparse_decomposable_multivector(rng, 5, 3))
        )
    for _ in range(7):
        fields.append(random_decomposable_field(rng, 5, 3))
    for _ in range(6):
        fields.append(random_constant_field(rng, 7, 4, max_terms=4))
    for _ in range(6):
        fields.append(random_linear_field(rng, 7, 4, max_terms=5))
    for _ in range(3):
        fields.append(random_linear_field(rng, 6, 4, max_terms=5))
    for _ in range(2):
        fields.append(random_linear_field(rng, 5, 4, max_terms=4))
    for _ in range(3):
        fields.append(random_decomposable_field(rng, 7, 4))
    failures = []
    poisson_count = 0
    for i, f in enumerate(fields[:50]):
        # declared population: grade 3, m=5, degree <= 1, at most 6 terms
        if f.grade != 3 or f.dim != 5 or len(f.terms) > 6 or any(
            p.degree() > 1 for p in f.terms.values()
        ):
            failures.append(f"instance {i}: outside the declared grade-3 population")
    for i, f in enumerate(fields):
        oracle = jacobi_identity_holds(f)
        verdict = classify(f).is_poisson
        if oracle:
            poisson_count += 1
        if oracle != verdict:
            failures.append(f"instance {i} (grade {f.grade}, dim {f.dim}): jacobi={oracle} classifier={verdict}")
    return SuiteResult(
        "jacobi-vs-classifier",
        not failures,
        len(fields),
        failures,
        {
            "grade3_instances": sum(f.grade == 3 for f in fields),
            "grade4_instances": sum(f.grade == 4 for f in fields),
            "poisson_instances": poisson_count,
        },
    )


def _profile_certified(p: Multivector, k: int, verdict: bool) -> bool:
    # True by the identity, not by the rank the profile may read; False by
    # the witness, contracted again in Fractions, or by the identity
    witness = None if verdict else _refuting_covectors(p, k)
    if witness is None:
        return _symbolic_profile(p, _image(_integral(p.terms))[1], k) == verdict
    for alpha in witness:
        p = p.contract(Covector(p.dim, tuple(alpha.get(u, 0) for u in range(1, p.dim + 1))))
    return not is_decomposable(p)


def suite_contraction_profile(seed: int = 0) -> SuiteResult:
    """Decomposability versus decomposability of all k-fold contractions, each verdict certified."""
    rng = random.Random(f"{seed}:profile")
    makers = {
        "decomposable_half": random_decomposable_multivector,
        "random_half": lambda r, m, n: random_constant_multivector(r, m, n, max_terms=4),
    }
    population: list[Multivector] = []
    halves = dict.fromkeys(makers, 0)
    for n, sizes in ((3, ((4, 20), (5, 20), (6, 20))), (4, ((5, 32), (6, 8)))):
        for half, make in makers.items():
            for m, count in sizes:
                population.extend(make(rng, m, n) for _ in range(count))
                halves[half] += count
    failures = []
    cases = 0
    for i, p in enumerate(population):
        dec = is_decomposable(p)
        for k, profile in contraction_profile(p).items():
            cases += 1
            if profile != dec:
                failures.append(f"instance {i} (grade {p.grade}, dim {p.dim}), k={k}: profile={profile} decomposable={dec}")
            if not _profile_certified(p, k, profile):
                failures.append(f"instance {i} (grade {p.grade}, dim {p.dim}), k={k}: profile={profile} not certified")
    # the sharp counterexample: both basis contractions decomposable, yet not decomposable
    counter = Multivector(6, 3, {(1, 2, 3): 1, (4, 5, 6): 1})
    cases += 1
    basis_ok = all(
        is_decomposable(counter.contract(Covector.basis(6, a))) for a in range(1, 7)
    )
    if is_decomposable(counter) or not basis_ok or contraction_profile(counter)[1]:
        failures.append("two-block counterexample misclassified")
    return SuiteResult(
        "contraction-profile-equivalence",
        not failures,
        cases,
        failures,
        {"population": len(population), **halves},
    )


def suite_ternary_decomposability(seed: int = 0) -> SuiteResult:
    """For grade 3: algebraic condition == decomposability == Poisson."""
    rng = random.Random(f"{seed}:ternary")
    failures = []
    cases = 0
    constants: list[Multivector] = []
    for m in (4, 5, 6):
        for _ in range(20):
            constants.append(random_decomposable_multivector(rng, m, 3))
        for _ in range(20):
            constants.append(random_constant_multivector(rng, m, 3, max_terms=4))
    constants.append(Multivector(6, 3, {(1, 2, 3): 1, (4, 5, 6): 1}))
    constants.append(Multivector(5, 3, {(1, 2, 3): 1, (1, 4, 5): 1}))
    for i, p in enumerate(constants):
        cases += 1
        f = MultivectorField.from_multivector(p)
        alg = algebraic_condition(f).holds
        dec = is_decomposable(p)
        pointwise = pointwise_decomposable(f)
        if not (alg == dec == pointwise):
            failures.append(f"constant {i}: algebraic={alg} decomposable={dec} pointwise={pointwise}")
    fields: list[MultivectorField] = []
    for _ in range(35):
        fields.append(random_linear_field(rng, 5, 3, max_terms=6))
    for _ in range(15):
        fields.append(random_decomposable_field(rng, 5, 3))
    for i, f in enumerate(fields):
        cases += 1
        verdict = classify(f)
        pointwise = pointwise_decomposable(f)
        if not (verdict.is_poisson == pointwise == verdict.algebraic_holds):
            failures.append(
                f"field {i}: poisson={verdict.is_poisson} pointwise={pointwise} "
                f"algebraic={verdict.algebraic_holds}"
            )
        if pointwise and not differential_condition(f):
            failures.append(f"field {i}: decomposable but the differential condition fails")
    return SuiteResult(
        "ternary-decomposability",
        not failures,
        cases,
        failures,
        {"constant_instances": len(constants), "field_instances": len(fields)},
    )


def suite_semidecomposable_rank(seed: int = 0) -> SuiteResult:
    """Mixed-frame structures: Poisson of constant rank 2n (n for h = 0)."""
    rng = random.Random(f"{seed}:builder")
    failures = []
    cases = 0

    def check_ranks(f: MultivectorField, expected: int, label: str, points) -> None:
        nonlocal cases
        cases += 1
        verdict = classify(f, sample_points=points)
        if not verdict.is_poisson:
            failures.append(f"{label}: not classified as Poisson")
        bad = [pt for pt, r in verdict.rank_at_samples if r != expected]
        if bad:
            failures.append(f"{label}: rank != {expected} at {len(bad)} sample points")

    points10 = default_sample_points(10, seed)
    check_ranks(coordinate_semidecomposable(10, 1, 5), 10, "coordinate frames h=1 n=5", points10)

    frames = _random_triangular_frames(rng, 10)
    mixed = build_semidecomposable(frames[:5], frames[5:], 1)
    check_ranks(mixed, 10, "random frames h=1 n=5", points10)

    for n in (3, 4, 5):
        m = n + 1
        fr = _random_triangular_frames(rng, m)[:n]
        plain = build_semidecomposable([], fr, 0)
        pts = default_sample_points(m, seed)
        cases += 1
        verdict = classify(plain, sample_points=pts)
        if not verdict.is_poisson:
            failures.append(f"h=0 n={n}: not classified as Poisson")
        if any(r != n for _, r in verdict.rank_at_samples):
            failures.append(f"h=0 n={n}: rank != {n} at a sample point")
        if not verdict.pointwise_decomposable:
            failures.append(f"h=0 n={n}: output not decomposable")
    for n, h in ((4, 1), (5, 2), (3, 1)):
        cases += 1
        fr = [MultivectorField(2 * n, 1, {(i,): 1}) for i in range(1, n + 1)]
        gr = [MultivectorField(2 * n, 1, {(n + i,): 1}) for i in range(1, n + 1)]
        try:
            build_semidecomposable(fr, gr, h)
        except ValueError:
            pass
        else:
            failures.append(f"h={h}, n={n}: out-of-range h accepted")
    return SuiteResult("semidecomposable-rank", not failures, cases, failures, {})


def suite_nambu_chain(seed: int = 0) -> SuiteResult:
    """Component, polarized, and pointwise routes to the Nambu condition agree,
    and agree with the rank of the field's value, which shares no kernel with them."""
    rng = random.Random(f"{seed}:nambu")
    failures = []
    fields: list[MultivectorField] = []
    for _ in range(12):
        fields.append(random_linear_field(rng, 5, 3, max_terms=5))
    for _ in range(6):
        fields.append(random_decomposable_field(rng, 5, 3))
    for _ in range(4):
        fields.append(random_constant_field(rng, 6, 3, max_terms=4))
    for _ in range(4):
        fields.append(random_constant_field(rng, 6, 4, max_terms=3))
    for _ in range(2):
        fields.append(random_decomposable_field(rng, 7, 4))
    fields.append(MultivectorField(6, 3, {(1, 2, 3): 1, (4, 5, 6): 1}))
    fields.append(MultivectorField(5, 3, {(1, 2, 3): 1}))
    cases = 0
    for i, f in enumerate(fields):
        cases += 1
        # is_nambu_algebraic asserts internally that all three routes agree
        try:
            nambu = is_nambu_algebraic(f)
        except AssertionError as exc:
            failures.append(f"instance {i}: {exc}")
            continue
        # a Nambu field's value is decomposable at every sample point, and a
        # constant field is Nambu exactly when its value is decomposable
        if nambu or f.is_constant():
            points = default_sample_points(f.dim, seed)[: 1 if f.is_constant() else None]
            if nambu != all(is_decomposable(f.evaluate(pt)) for pt in points):
                failures.append(f"instance {i}: nambu={nambu} disagrees with the rank of the value")
    semi = coordinate_semidecomposable(10, 1, 5)
    cases += 1
    verdict = classify(semi)
    if not verdict.is_poisson or verdict.nambu_algebraic:
        failures.append("mixed-frame structure must be Poisson but not Nambu")
    return SuiteResult("nambu-three-routes", not failures, cases, failures, {"instances": len(fields)})


def suite_block_sum_instance(seed: int = 0) -> SuiteResult:
    """The two-block grade-4 structure on 8 coordinates, checked in full."""
    failures = []
    cases = 0
    f = block_sum(2, 2, 8)
    verdict = classify(f, default_sample_points(8, seed))
    cases += 1
    if not verdict.is_poisson:
        failures.append("expected a Poisson structure")
    cases += 1  # the algebraic flag and its witness
    if verdict.algebraic_holds:
        failures.append("expected the algebraic condition to fail")
    if verdict.algebraic_witness != (1, 5):
        failures.append(f"expected witness (1, 5), got {verdict.algebraic_witness}")
    cases += 1
    bad = [pt for pt, r in verdict.rank_at_samples if r != 8]
    if bad:
        failures.append(f"rank != 8 at {len(bad)} sample points")
    cases += 1
    check = irreducibility_check(f.evaluate([0] * 8))
    if check.kind is not IrreducibilityKind.REDUCIBILITY_WITNESS:
        failures.append(f"expected a reducibility witness, got {check.kind.value}")
    return SuiteResult(
        "two-block-instance",
        not failures,
        cases,
        failures,
        {"rank_everywhere": 8, "nambu_algebraic": verdict.nambu_algebraic},
    )


def suite_compat_operator(seed: int = 0) -> SuiteResult:
    """The degree-(n-1) operator annihilates structures and lifts gradients."""
    rng = random.Random(f"{seed}:compat")
    failures = []
    cases = 0
    structures: list[MultivectorField] = [coordinate_semidecomposable(10, 1, 5)]
    perturbed_frames = _random_triangular_frames(rng, 10)
    x1 = Polynomial.variable(1, 10)
    perturbed_frames[4] = perturbed_frames[4] + MultivectorField(10, 1, {(9,): x1})
    structures.append(build_semidecomposable(perturbed_frames[:5], perturbed_frames[5:], 1))
    structures.append(build_semidecomposable([], _random_triangular_frames(rng, 6)[:4], 0))
    structures.append(MultivectorField(5, 3, {(1, 2, 3): 1}))
    for _ in range(4):
        structures.append(random_decomposable_field(rng, 5, 3))
    for i, p in enumerate(structures):
        cases += 1
        try:
            image = delta(p, p)
        except IncompatibleFieldError as refusal:
            failures.append(f"structure {i}: not compatible with itself (witness {refusal.witness})")
            continue
        if not image.is_zero():
            failures.append(f"structure {i}: operator does not annihilate the structure")
    gradient_structures = [s for s in structures if s.dim == 5]
    for j in range(50):
        cases += 1
        p = gradient_structures[j % len(gradient_structures)]
        f = random_polynomial(rng, 5, degree=2, max_monos=3)
        via_delta = delta(p, _grade0(f))
        direct = gradient_contraction(p, f)
        if via_delta != direct:
            failures.append(f"gradient case {j}: operator and direct contraction disagree")
            continue
        if not is_compatible(p, via_delta).holds:
            failures.append(f"gradient case {j}: image is not compatible")
    # informational records, no pass/fail meaning
    info: dict = {}
    p0 = MultivectorField(5, 3, {(1, 2, 3): 1})
    f0 = Polynomial.variable(1, 5) * Polynomial.variable(4, 5)
    d1 = delta(p0, _grade0(f0))
    info["operator_square_example"] = repr(delta(p0, d1))
    g0 = Polynomial.variable(2, 5)
    closure = d1.wedge(delta(p0, _grade0(g0)))
    info["wedge_closure_sample_compatible"] = is_compatible(p0, closure).holds
    return SuiteResult("compat-operator-identities", not failures, cases, failures, info)


def suite_kernel_selfconsistency(seed: int = 0) -> SuiteResult:
    """Factorization round-trips, the sampled rank, the annihilator, and subspace reports."""
    rng = random.Random(f"{seed}:kernel")
    failures = []
    cases = 0
    for i in range(60):
        n = (3, 4, 5)[i % 3]
        m = rng.randint(max(n, 4), 6)
        p = random_decomposable_multivector(rng, m, n)
        cases += 1
        factors = factorize(p)
        if factors.wedge() != p:
            failures.append(f"decomposable {i}: factorization round-trip failed")
        if sharp_profile(p).rank != n:
            failures.append(f"decomposable {i}: rank != grade")
    for i in range(60):
        n = (3, 4)[i % 2]
        m = rng.randint(max(n, 4), 6)
        p = random_constant_multivector(rng, m, n, max_terms=4)
        cases += 1
        profile = sharp_profile(p)
        if sample_ranks(MultivectorField.from_multivector(p), [(0,) * m])[0][1] != profile.rank:
            failures.append(f"random {i}: sampled rank != sharp profile rank")
        if any(not p.contract(Covector(m, alpha)).is_zero() for alpha in profile.annihilator.basis):
            failures.append(f"random {i}: an annihilator covector does not annihilate")
    for i in range(100):
        n = (3, 4)[i % 2]
        m = rng.randint(max(n, 4), 6)
        p = (
            random_decomposable_multivector(rng, m, n)
            if i % 3 == 0
            else random_constant_multivector(rng, m, n, max_terms=4)
        )
        alpha = Covector(m, tuple(_fraction(rng, 4) for _ in range(m)))
        cases += 1
        report = contraction_subspace_report(p, alpha)
        if not report.inclusion_holds:
            failures.append(f"pair {i}: image inclusion violated")
        if report.rank_drop == 1 and not report.equality_holds:
            failures.append(f"pair {i}: rank drop 1 without subspace equality")
    return SuiteResult("kernel-self-consistency", not failures, cases, failures, {})


ALL_SUITES = (
    suite_jacobi_vs_classifier,
    suite_contraction_profile,
    suite_ternary_decomposability,
    suite_semidecomposable_rank,
    suite_nambu_chain,
    suite_block_sum_instance,
    suite_compat_operator,
    suite_kernel_selfconsistency,
)


def run_all(seed: int = 0) -> list[SuiteResult]:
    return [suite(seed) for suite in ALL_SUITES]
