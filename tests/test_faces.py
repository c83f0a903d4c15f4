"""Every contraction table is built at most once per term map and k.

No table is kept on an element: each reader builds the
``blade_contractions(terms, k)`` it reads, once per call, and every table
deletes one index.  The k = 1 table of A's blades is built by
``contracted_derivative``.  The k = n - 1 tables are built by
``plucker_holds`` (the Plücker loop, which ``contractions_decomposable``
runs on its symbolic contraction), ``sample_ranks`` and ``is_involutive``;
and ``grassmann._image`` tabulates the (n-1)-faces of a constant on the
integer multiple of its terms, for the one forward pass behind every
question about its image.
A caller that decides the same thing twice for one element builds its
table twice, and this count sees it.  The same holds for the
``first_failing_pair`` decision behind every compatibility.
"""

import importlib
import pathlib
import pkgutil
from collections import Counter

import pytest

import npk
from npk.cli import main
from npk.exterior import blade_contractions, first_failing_pair

SPECS = sorted((pathlib.Path(__file__).resolve().parents[1] / "specs").glob("*.json"))
COMMANDS = ("check", "rank", "nambu", "jacobi", "factorize", "sigma-delta", "suite")


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
    runs = [["suite", "--seed", "0"]] if command == "suite" else [[command, str(spec)] for spec in SPECS]
    for argv in runs:
        main(argv)
        capsys.readouterr()
    assert builds, "no table was built: the patch missed the kernel"
    repeated = {key: count for key, count in builds.items() if count > 1}
    assert not repeated, f"{command} rebuilt {len(repeated)} tables"


@pytest.mark.parametrize(
    "spec,decisions", [("decomposable_3vector", 2), ("two_block_4vector", 2), ("nonpoisson_3vector", 1)]
)
def test_sigma_delta_decides_each_compatibility_once(spec, decisions, monkeypatch, capsys):
    # delta decides (P, P) and (P, lifted) and reports a refusal, so no
    # compatibility is decided again; a structure that fails stops at one
    pairs = []

    def counted(left, right, polarize):
        pairs.append((left, right))
        return first_failing_pair(left, right, polarize)

    for info in pkgutil.iter_modules(npk.__path__):
        module = importlib.import_module(f"npk.{info.name}")
        if getattr(module, "first_failing_pair", None) is first_failing_pair:
            monkeypatch.setattr(module, "first_failing_pair", counted)
    main(["sigma-delta", str(SPECS[0].with_name(f"{spec}.json"))])
    capsys.readouterr()
    assert len(pairs) == decisions
