"""Every contraction table is built once per element and k.

Each reader of a face table goes through ``GradedTerms.faces(k)``, which
builds ``blade_contractions(terms, k)`` on first use and keeps it; only
the two term maps that are no element (the symbolic contraction of
``contractions_decomposable`` and the position map of ``sample_ranks``)
are tabulated directly, once per call.  ``grassmann._image`` also
tabulates the (n-1)-faces of a constant directly, on the integer
multiple of its terms, for the one forward pass behind every question
about its image: the rows are read once and dropped, and a table kept on
the caller's element would stay alive as long as the element does.
"""

import importlib
import pathlib
import pkgutil
from collections import Counter
from fractions import Fraction

import pytest

import npk
from npk.cli import main
from npk.exterior import Multivector, blade_contractions
from npk.specio import parse_spec, to_field

SPECS = sorted((pathlib.Path(__file__).resolve().parents[1] / "specs").glob("*.json"))
COMMANDS = ("check", "rank", "nambu", "jacobi", "factorize", "sigma-delta")


@pytest.fixture
def builds(monkeypatch):
    """Count ``blade_contractions`` builds by ``(id(terms), k)``, in every npk module."""
    counts: Counter = Counter()
    alive = []  # every keyed term map stays alive, so no id is reused

    def counted(terms, k):
        alive.append(terms)
        counts[id(terms), k] += 1
        return blade_contractions(terms, k)

    for info in pkgutil.iter_modules(npk.__path__):
        module = importlib.import_module(f"npk.{info.name}")
        if getattr(module, "blade_contractions", None) is blade_contractions:
            monkeypatch.setattr(module, "blade_contractions", counted)
    return counts


@pytest.mark.parametrize("command", COMMANDS)
def test_each_table_is_built_at_most_once(command, builds, capsys):
    for spec in SPECS:
        main([command, str(spec)])
        capsys.readouterr()
    assert builds, "no table was built: the patch missed the kernel"
    repeated = {key: count for key, count in builds.items() if count > 1}
    assert not repeated, f"{command} rebuilt {len(repeated)} tables"


def test_faces_is_the_kernel_table_built_once():
    elements = [to_field(parse_spec(spec)) for spec in SPECS]
    elements.append(Multivector(5, 3, {(1, 2, 3): 2, (1, 4, 5): Fraction(-1, 3), (2, 3, 5): 1}))
    elements.append(Multivector.zero(4, 2))
    for p in elements:
        for k in range(p.grade + 2):
            table = p.faces(k)
            assert table == blade_contractions(p.terms, k), (p, k)
            assert p.faces(k) is table
