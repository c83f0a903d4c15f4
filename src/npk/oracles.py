"""Independent cross-check routes for the algebraic Nambu condition.

Each command decides with one route; the routes here recompute the same
answer another way so that the suites can require agreement.  The
algebraic Nambu condition has two such routes besides pointwise
decomposability (:func:`npk.poisson.pointwise_decomposable`): the
component-form quadratic identities and their basis-pair polarization.
:func:`is_nambu_algebraic` runs all three and requires them to agree.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations, combinations_with_replacement

from .exterior import contract_terms, iter_blades
from .fields import MultivectorField
from .poisson import pointwise_decomposable
from .polynomial import Polynomial


def nambu_component_route(field: MultivectorField) -> bool:
    # quadratic component identities; antisymmetry in the two index blocks
    # restricts the scan to increasing tuples, symmetry to ordered (u, v)
    m, n = field.dim, field.grade
    comp = field.component
    b_tuples = list(combinations(range(1, m + 1), n))
    firsts: dict[tuple[int, tuple[int, ...]], list[tuple[int, Polynomial]]] = {}
    for u in range(1, m + 1):
        for b in b_tuples:
            entries = []
            for k in range(n):
                c = comp(b[:k] + (u,) + b[k + 1:])
                if c:
                    entries.append((k, c))
            if entries:
                firsts[(u, b)] = entries
    a_tuples = list(combinations(range(1, m + 1), n - 2))
    zero = Polynomial.zero(m)
    for u in range(1, m + 1):
        for v in range(u, m + 1):
            for b in b_tuples:
                fu = firsts.get((u, b))
                fv = firsts.get((v, b))
                if not fu and not fv:
                    continue
                for a in a_tuples:
                    total = zero
                    if fu:
                        for k, c in fu:
                            other = comp((v,) + a + (b[k],))
                            if other:
                                total = total + c * other
                    if fv:
                        for k, c in fv:
                            other = comp((u,) + a + (b[k],))
                            if other:
                                total = total + c * other
                    if total:
                        return False
    return True


def nambu_polarized_route(field: MultivectorField) -> bool:
    # polarized wedge identities over basis covector pairs and basis
    # (n-2)-forms; polarization is lossless in characteristic zero.  One
    # basis covector at a time, apart from the face table that pointwise
    # decomposability reads; the first index of phi acts first
    m, n = field.dim, field.grade

    def contract(f: MultivectorField, u: int) -> MultivectorField:
        return MultivectorField(m, f.grade - 1, contract_terms({u: 1}, f.terms))

    c = {a: contract(field, a) for a in range(1, m + 1)}
    phis = list(iter_blades(m, n - 2))
    deep = {a: [reduce(contract, phi, c[a]) for phi in phis] for a in range(1, m + 1)}

    pairs = combinations_with_replacement(range(1, m + 1), 2)
    return not any(c[a].wedge(deep[b][i]) + c[b].wedge(deep[a][i]) for a, b in pairs for i in range(len(phis)))


def is_nambu_algebraic(field: MultivectorField) -> bool:
    """Decide the algebraic Nambu condition, three independent ways.

    The component-form quadratic identities, their basis-pair polarization,
    and pointwise decomposability are equivalent; all three are computed
    and must agree.  True exactly when the field value is decomposable at
    every point.
    """
    if field.grade < 3:
        raise ValueError("needs grade at least 3")
    routes = (
        pointwise_decomposable(field),
        nambu_polarized_route(field),
        nambu_component_route(field),
    )
    if len(set(routes)) != 1:
        raise AssertionError(f"independent routes disagree: {routes}")
    return routes[0]

