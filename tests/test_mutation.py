"""Seeded mutations of the bundled scenario and of the default document:
every command ends in a documented exit code, never in a traceback or a
warning, and every refusal names the field it refuses."""

import contextlib
import io
import json
import random
import re
import warnings
from pathlib import Path

import pytest

from chronos.cli import DEFAULT_DOCUMENT, main

BUNDLED = Path(__file__).resolve().parents[1] / "scenarios" \
    / "oscillator_jump.json"
SOURCES = {"bundled": BUNDLED.read_text(encoding="utf-8"),
           "default": DEFAULT_DOCUMENT}
SEED = 20260
MUTANTS = 24  # documents drawn from each source
MAX_GRID_POINTS = 64
COMMANDS = (["run"], ["spectrum"], ["subspace"],
            ["check", "--suite", "constraint1"])
# "error: " then the offending key path, a colon and the message
NAMED_FIELD = re.compile(r"^error: (<document>|--\w+|[a-z_]+(\.[a-z_]+"
                         r"|\[\d+\])*): \S")


def numeric_paths(doc, path=()):
    """Key paths of every number in a JSON document, in document order."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        if isinstance(doc, (int, float)) and not isinstance(doc, bool):
            yield path
        return
    for key, value in items:
        yield from numeric_paths(value, path + (key,))


def mutated_value(rng, path, value):
    if path[-1] == "n":  # a grid size, kept small
        return rng.choice([-2, 0, 1, 2, 3, 2.0, 7, 8, 33,
                           MAX_GRID_POINTS - 1, MAX_GRID_POINTS])
    kind = rng.randrange(5)
    if kind == 0:  # the edges of the float range
        return rng.choice([0, -0.0, 5e-324, 1e-308, 1e308, -1e308,
                           2 ** 64, -1])
    if kind == 1:  # any power of ten the float range holds, either sign
        return rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-323, 308)
    if kind == 2:  # a small integer, or a fraction where one is expected
        return rng.choice([rng.randint(-3, 40), rng.randint(-3, 40) + 0.5])
    if kind == 3:
        return -value
    return value * rng.uniform(0.0, 3.0)


def mutants(source, seed):
    rng = random.Random(seed)
    doc = json.loads(source)
    paths = list(numeric_paths(doc))
    for _ in range(MUTANTS):
        copy = json.loads(source)
        for path in rng.sample(paths, rng.choice([1, 2])):
            owner = copy
            for key in path[:-1]:
                owner = owner[key]
            owner[path[-1]] = mutated_value(rng, path, owner[path[-1]])
        yield copy


def test_mutants_keep_grids_small():
    for name, source in SOURCES.items():
        for doc in mutants(source, SEED):
            preset = doc["preset"]
            if isinstance(preset, dict):
                assert preset["q"]["n"] <= MAX_GRID_POINTS
                assert preset["t"]["n"] <= MAX_GRID_POINTS


def run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_mutated_documents_end_in_an_exit_code(tmp_path, name):
    path = tmp_path / "mutant.json"
    codes = {}
    for index, doc in enumerate(mutants(SOURCES[name], SEED)):
        path.write_text(json.dumps(doc), encoding="utf-8")
        for command in COMMANDS:
            argv = command + ["--config", str(path)]
            where = "mutant %d, %s: %s" % (index, " ".join(command),
                                           json.dumps(doc))
            # a warning raises here, as a sign of a scale that left the
            # float range: the package itself issues none
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, err = run_quietly(argv)
            assert code in (0, 1, 2, 3), where
            assert "Traceback" not in err, where
            if code == 2:
                assert NAMED_FIELD.match(err), where + "\n" + err
            codes[code] = codes.get(code, 0) + 1
    # the draw reaches both accepted and refused documents
    assert codes.get(0, 0) > 0 and codes.get(2, 0) > 0, codes
