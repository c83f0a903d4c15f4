#!/usr/bin/env python3
"""Classify a small gallery of structures and print a comparison table.

Runs without installation: the package is picked up from ../src.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from npk import (  # noqa: E402
    MultivectorField,
    Polynomial,
    block_sum,
    classify,
    coordinate_semidecomposable,
    is_involutive,
)


def gallery():
    x1 = Polynomial.variable(1, 5)
    one = Polynomial.constant(1, 5)
    yield "coordinate 3-blade", MultivectorField(5, 3, {(1, 2, 3): 1})
    yield "blade + shared-direction blade", MultivectorField(5, 3, {(1, 2, 3): 1, (1, 4, 5): 1})
    yield "two disjoint 3-blades", MultivectorField(6, 3, {(1, 2, 3): 1, (4, 5, 6): 1})
    yield "mixed frames h=1 n=5", coordinate_semidecomposable(10, 1, 5)
    yield "two 4-blocks on 8 axes", block_sum(2, 2, 8)
    yield "scaled 3-blade (1+x1)", MultivectorField(5, 3, {(1, 2, 3): one + x1})
    yield "twisted distribution", MultivectorField(5, 3, {(1, 2, 3): 1, (1, 2, 4): x1})


def main() -> int:
    header = f"{'structure':34s} {'n':>2s} {'m':>2s} {'poisson':>7s} {'algebraic':>9s} {'nambu':>5s} {'rank@0':>6s} {'involutive*':>11s}"
    print(header)
    print("-" * len(header))
    for name, field in gallery():
        verdict = classify(field)
        rank0 = verdict.rank_at_samples[0][1]
        involutive = is_involutive(field) if verdict.pointwise_decomposable else "-"
        print(
            f"{name:34s} {field.grade:2d} {field.dim:2d} {str(verdict.is_poisson):>7s} "
            f"{str(verdict.algebraic_holds):>9s} {str(verdict.nambu_algebraic):>5s} "
            f"{rank0:6d} {str(involutive):>11s}"
        )
    print("\n* involutivity of the image distribution, decided exactly from the")
    print("  face rows; '-' when the field is not pointwise decomposable.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
