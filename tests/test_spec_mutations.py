"""Seeded mutants of the shipped specs, run through every spec command.

Each mutant applies one to three edits to a ``specs/*.json`` file: a key
dropped, a value replaced from a fixed corpus or wrapped in a list, a list
entry duplicated or inserted, or an unknown key added.  Every command must
answer each mutant with an exit code (0 or 1 a verdict, 2 a refusal, 3 an
internal error), never with an exception out of ``main``.
"""

import copy
import json
import pathlib
import random

from npk.cli import main

SPECS = pathlib.Path(__file__).resolve().parent.parent / "specs"
COMMANDS = ("check", "rank", "factorize", "nambu", "jacobi", "sigma-delta")
CORPUS = (None, True, 1.5, 2**40, "1/0", "", [], {}, [True], "x")
# m and the degrees set the work; a mutant above this waits for a work budget (ROADMAP item 10)
LIMIT = 12


def _containers(obj):
    # every dict and list of the JSON tree, the top level first
    if isinstance(obj, (dict, list)):
        yield obj
        for value in obj.values() if isinstance(obj, dict) else obj:
            yield from _containers(value)


def mutate(spec: dict, rng: random.Random) -> dict:
    spec = copy.deepcopy(spec)
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
    # an int above LIMIT as m or as an exponent, at any depth below those keys
    if isinstance(obj, dict):
        return any(_too_large(value, k) for k, value in obj.items())
    if isinstance(obj, list):
        return any(_too_large(value, key) for value in obj)
    return key in ("m", "exps") and type(obj) is int and obj > LIMIT


def test_every_spec_mutant_gets_an_exit_code(tmp_path, capsys):
    rng = random.Random("spec-mutations")
    originals = [json.loads(path.read_text()) for path in sorted(SPECS.glob("*.json"))]
    codes, runs = set(), 0
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
        capsys.readouterr()
    # refusals and verdicts both occur, so the mutants reach past the parser
    assert 2 in codes and codes & {0, 1}
