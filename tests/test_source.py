"""Static checks of the package source, with the standard library's ``ast``."""

import ast
import pathlib
import re

import pytest

import npk

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "npk").glob("*.py"))
# the unused-import check also reads the tests and the scripts, named by
# their path from the root; a package module is named by its file name
CHECKED = {p.name: p for p in SOURCES}
CHECKED.update({str(p.relative_to(ROOT)): p for d in ("tests", "scripts") for p in sorted((ROOT / d).glob("*.py"))})
# the oldest Python that pyproject.toml admits, as (3, minor)
OLDEST = tuple(map(int, re.search(r'^requires-python = ">=(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text(), re.M).groups()))


def _names_in(node) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads.

    A read is a name in the code, in a quoted annotation, or in ``__all__``.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = _names_in(tree)
    for node in ast.walk(tree):
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in filter(None, annotations):
            for part in ast.walk(annotation):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    used |= _names_in(ast.parse(part.value, mode="eval"))
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used and name != "*")


@pytest.mark.parametrize("path", CHECKED.values(), ids=CHECKED.keys())
def test_parses_at_the_oldest_supported_grammar(path):
    ast.parse(path.read_text(encoding="utf-8"), feature_version=OLDEST)


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport os\nfrom a import b, c as d\nx: 'b' = d\n"
    assert unused_imports(source) == ["os (line 2)"]
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []


@pytest.mark.parametrize("path", CHECKED.values(), ids=CHECKED.keys())
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unread_private_names(sources: list[str]) -> list[str]:
    """Module-level private names (one leading underscore) that no module reads.

    A definition is a top-level ``def``, ``class`` or assignment; a read is
    a loaded name or an attribute of that name anywhere in ``sources``,
    except inside the top-level statement that defines it.
    """
    defined, reads = set(), set()
    for source in sources:
        for stmt in ast.parse(source).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = {stmt.name}
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                own = {t.id for t in targets if isinstance(t, ast.Name)}
            else:
                own = set()
            defined |= {name for name in own if name.startswith("_") and not name.startswith("__")}
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name not in own:
                    reads.add(name)
    return sorted(defined - reads)


def test_unread_private_names_are_found():
    sources = [
        "from b import _used\n_SIZE = 3\ndef _loop(n):\n    return _loop(n - 1)\nclass _Kept:\n    pass\nx = _used()\n",
        "import a\ndef _used():\n    return a._Kept\n__all__ = []\n",
    ]
    assert unread_private_names(sources) == ["_SIZE", "_loop"]
    assert unread_private_names(["def _f():\n    pass\nx = _f()\n"]) == []


def test_no_unread_private_name():
    assert unread_private_names([path.read_text(encoding="utf-8") for path in SOURCES]) == []


def private_names_read_only_by_tests(package: list[str], tests: list[str]) -> list[str]:
    """Private names of ``package`` that no package module reads but a test does.

    Such a name is test-only code kept in the package; it belongs with the
    test oracles.
    """
    return sorted(set(unread_private_names(package)) - set(unread_private_names(package + tests)))


def test_private_names_read_only_by_tests_are_found():
    package = ["def _oracle():\n    pass\ndef _dead():\n    pass\ndef _used():\n    pass\nx = _used()\n"]
    tests = ["import m\nassert m._oracle() == m._used()\n"]
    assert private_names_read_only_by_tests(package, tests) == ["_oracle"]


def test_no_private_name_read_only_by_tests():
    package = [path.read_text(encoding="utf-8") for path in SOURCES]
    tests = [path.read_text(encoding="utf-8") for path in sorted((ROOT / "tests").glob("*.py"))]
    assert private_names_read_only_by_tests(package, tests) == []


def test_public_names_resolve_and_are_sorted():
    assert [name for name in npk.__all__ if not hasattr(npk, name)] == []
    assert npk.__all__ == sorted(npk.__all__)


def indented_json_calls(source: str) -> list[int]:
    """Lines that call ``json.dumps`` or ``json.dump`` with an ``indent`` keyword.

    The standard library writes indented JSON on its pure-Python path; the
    package writes its canonical JSON with ``specio.canonical_json``.  A
    call is matched by the name it is made with, ``dumps`` or ``dump``, as
    a name or as an attribute.
    """
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in ("dumps", "dump") and any(k.arg == "indent" for k in node.keywords):
                lines.append(node.lineno)
    return lines


def test_indented_json_calls_are_found():
    source = "import json\nfrom json import dumps\njson.dumps(x, indent=2)\njson.dumps(x)\ndumps(x, sort_keys=True, indent=None)\n"
    assert indented_json_calls(source) == [3, 5]
    assert indented_json_calls("json.dump(x, f, indent=1)\nprint(x, indent=2)\n") == [1]


def test_no_indented_json_in_the_package():
    found = {path.name: lines for path in SOURCES if (lines := indented_json_calls(path.read_text(encoding="utf-8")))}
    assert found == {}
