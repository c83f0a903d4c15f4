"""Seeded mutants of the shipped specs, run through every spec command.

Each mutant applies one to three edits to a ``specs/*.json`` file.  Half
the mutants take edits that may break the schema: a key dropped, a value
replaced from a fixed corpus or wrapped in a list, a list entry duplicated
or inserted, or an unknown key added.  The other half take edits that keep
it valid, so that they reach a verdict: a term or a monomial duplicated, a
coefficient replaced by a seeded rational string, or a monomial added with
exponents within the limit.  Every command must answer each mutant with an
exit code (0 or 1 a verdict, 2 a refusal, 3 an internal error), never with
an exception out of ``main``.
"""

import copy
import json
import pathlib
import random

from npk.cli import main

SPECS = pathlib.Path(__file__).resolve().parent.parent / "specs"
COMMANDS = ("check", "rank", "factorize", "nambu", "jacobi", "sigma-delta")
CORPUS = (None, True, 1.5, 2**40, "1/0", "", [], {}, [True], "x")
# m sets the work; a mutant above this waits for a work budget (ROADMAP item 10).  An
# exponent needs none: check and rank refuse one above 2**16, and the other commands
# only differentiate
LIMIT = 12


def _containers(obj):
    # every dict and list of the JSON tree, the top level first
    if isinstance(obj, (dict, list)):
        yield obj
        for value in obj.values() if isinstance(obj, dict) else obj:
            yield from _containers(value)


def _keep_schema(spec: dict, rng: random.Random) -> None:
    # one edit that leaves a valid spec valid
    terms = spec["terms"]
    term = rng.choice(terms)
    edit = rng.choice(("term", "monomial", "coef", "grow"))
    if edit == "term":
        terms.insert(rng.randint(0, len(terms)), copy.deepcopy(term))
    elif spec["kind"] == "constant":
        term["value"] = f"{rng.randint(-9, 9)}/{rng.randint(1, 4)}"
    elif edit == "monomial":
        term["value"].insert(rng.randint(0, len(term["value"])), copy.deepcopy(rng.choice(term["value"])))
    elif edit == "coef":
        rng.choice(term["value"])["coef"] = f"{rng.randint(-9, 9)}/{rng.randint(1, 4)}"
    else:
        exps = [rng.choice((0, 0, 1, 2)) for _ in range(spec["m"])]
        term["value"].append({"coef": str(rng.randint(-3, 3)), "exps": exps})


def mutate(spec: dict, rng: random.Random) -> dict:
    spec = copy.deepcopy(spec)
    if rng.random() < 0.5:
        for _ in range(rng.randint(1, 3)):
            _keep_schema(spec, rng)
        return spec
    for _ in range(rng.randint(1, 3)):
        containers = list(_containers(spec))
        dicts = [c for c in containers if isinstance(c, dict)]
        lists = [c for c in containers if isinstance(c, list)]
        places = [(c, key) for c in containers for key in (c if isinstance(c, dict) else range(len(c)))]
        edit = rng.choice(("drop", "replace", "wrap", "list", "unknown"))
        if edit == "drop" and (keyed := [d for d in dicts if d]):
            del (d := rng.choice(keyed))[rng.choice(sorted(d))]
        elif edit == "replace" and places:
            parent, key = rng.choice(places)
            parent[key] = copy.deepcopy(rng.choice(CORPUS))
        elif edit == "wrap" and places:
            parent, key = rng.choice(places)
            parent[key] = [parent[key]]
        elif edit == "list" and lists:
            target = rng.choice(lists)
            if target and rng.random() < 0.5:
                entry = copy.deepcopy(rng.choice(target))
            else:
                entry = copy.deepcopy(rng.choice(CORPUS))
            target.insert(rng.randint(0, len(target)), entry)
        else:
            rng.choice(dicts)[rng.choice(("extra", "M", "terms "))] = copy.deepcopy(rng.choice(CORPUS))
    return spec


def _too_large(obj, key=None) -> bool:
    # an int above LIMIT as m, at any depth below that key
    if isinstance(obj, dict):
        return any(_too_large(value, k) for k, value in obj.items())
    if isinstance(obj, list):
        return any(_too_large(value, key) for value in obj)
    return key == "m" and type(obj) is int and obj > LIMIT


def test_every_spec_mutant_gets_an_exit_code(tmp_path, capsys):
    rng = random.Random("spec-mutations")
    originals = [json.loads(path.read_text()) for path in sorted(SPECS.glob("*.json"))]
    codes, runs, verdicts = set(), 0, 0
    while runs < 1000:
        mutant = mutate(rng.choice(originals), rng)
        if _too_large(mutant):
            continue
        path = tmp_path / "mutant.json"
        path.write_text(json.dumps(mutant))
        for command in COMMANDS:
            argv = [command, str(path)] + (["--json"] if runs % 2 else [])
            code = main(argv)
            assert code in (0, 1, 2, 3), (argv, mutant)
            codes.add(code)
            runs += 1
            verdicts += code in (0, 1)
        capsys.readouterr()
    # refusals and verdicts both occur, and a third of the runs reach a verdict
    assert 2 in codes and codes & {0, 1}
    assert verdicts >= runs // 3, (verdicts, runs)
