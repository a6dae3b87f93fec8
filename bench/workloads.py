"""Benchmark workloads: seeded inputs, chronos command lines and output checks.

Each workload turns a seed into input files and the `chronos` argument
lists that use them (one child process per list), and checks the CSV those
commands write against closed-form physics rather than stored bytes.  A
check raises OutputError; the caller counts that invocation as failed.

The workloads split the library's hot paths so that a change to one shows
on one workload and leaves the others alone:

  subspace-dense  one dense composite build and SVD at dim 2048
  run-long        hundreds of small eigensolves, no SVD (separable route)
  spectrum-large  two large eigensolves at dim 1024
  check-suites    the second and generalized kernel routes plus ladder steps
"""
from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

TOL = 1e-6  # chronos' default constraint tolerance, which every input keeps
HALF = 0.5

RUN_STEPS = 400
RUN_LEVELS = 8  # jumps move among levels 0..7
RUN_Q = {"n": 128, "origin": -10.0, "spacing": 20.0 / 128}
# period 4*pi/omega puts every oscillator level on the frequency lattice
RUN_T = {"n": 64, "origin": 0.0, "spacing": 4.0 * math.pi / 64}

SPECTRUM_LEVELS = 16
SPECTRUM_Q = {"n": 1024, "origin": -20.0, "spacing": 40.0 / 1024}
SPECTRUM_T = {"n": 32, "origin": 0.0, "spacing": 4.0 * math.pi / 32}

SUBSPACE_ROWS = 8  # levels below the band edge of the 32-sample time grid
SUITES = ("constraint2", "generalized", "ladder")


class OutputError(Exception):
    """A command's output disagrees with the workload's expected physics."""


@dataclass
class Inputs:
    """Command lines of one workload plus what its outputs must satisfy."""

    commands: list          # argument lists, without the program name
    outputs: list           # CSV path each command writes, by position
    expect: dict = field(default_factory=dict)


def _constants(omega=1.0):
    return {"hbar": 1.0, "mass": 1.0, "c": 1.0, "omega": omega}


def _seeded_omega(seed):
    # the grids scale with the oscillator length, so accuracy does not
    # depend on omega while every printed number does
    return random.Random(seed).uniform(0.8, 1.25)


def _write(path, doc):
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")


def run_long_document(seed):
    """Scenario of RUN_STEPS steps: distinct evolves, a jump every fourth.

    Returns (document, level after each step with the initial level first).
    Each jump leaves the current level for another among 0..7 and is
    stamped with the clock reading tau*(level + 1/2) of its from-level,
    where tau = 1 for the unit constants used here.
    """
    rng = random.Random(seed)
    level = rng.randrange(RUN_LEVELS)
    levels = [level]
    steps = []
    durations = set()
    for i in range(RUN_STEPS):
        if i % 4 == 3:
            target = rng.choice([n for n in range(RUN_LEVELS) if n != level])
            steps.append({"jump": {"from": level, "to": target,
                                   "at": level + HALF}})
            level = target
        else:
            dt = rng.uniform(0.05, 3.0)
            while dt in durations:
                dt = rng.uniform(0.05, 3.0)
            durations.add(dt)
            steps.append({"evolve": dt})
        levels.append(level)
    doc = {"constants": _constants(), "preset": {"q": RUN_Q, "t": RUN_T},
           "model": "oscillator", "initial": {"level": levels[0]},
           "steps": steps}
    return doc, levels


def _subspace(seed, workdir):
    omega = _seeded_omega(seed)
    config = workdir / "subspace.json"
    _write(config, {"constants": _constants(omega), "preset": "energy-aligned",
                    "model": "oscillator", "initial": {"level": 0},
                    "steps": []})
    out = workdir / "subspace.csv"
    return Inputs([["subspace", "--config", str(config), "--out", str(out)]],
                  [out], {"omega": omega})


def _run_long(seed, workdir):
    doc, levels = run_long_document(seed)
    config = workdir / "run.json"
    _write(config, doc)
    out = workdir / "run.csv"
    return Inputs([["run", "--config", str(config), "--out", str(out)]],
                  [out], {"levels": levels, "steps": RUN_STEPS})


def _spectrum(seed, workdir):
    omega = _seeded_omega(seed)
    config = workdir / "spectrum.json"
    _write(config, {"constants": _constants(omega),
                    "preset": {"q": SPECTRUM_Q, "t": SPECTRUM_T},
                    "model": "oscillator", "initial": {"level": 0},
                    "steps": []})
    out = workdir / "spectrum.csv"
    return Inputs([["spectrum", "--config", str(config), "--levels",
                    str(SPECTRUM_LEVELS), "--out", str(out)]], [out],
                  {"omega": omega})


def _suites(seed, workdir):
    del seed  # the suites are fixed; nothing in them is drawn at random
    outs = [workdir / ("check-%s.csv" % s) for s in SUITES]
    return Inputs([["check", "--suite", s, "--out", str(o)]
                   for s, o in zip(SUITES, outs)], outs)


def _rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def _require(condition, message):
    if not condition:
        raise OutputError(message)


def _check_subspace(inputs, texts):
    rows = _rows(texts[0])
    _require(len(rows) == SUBSPACE_ROWS,
             "%d subspace rows, expected %d" % (len(rows), SUBSPACE_ROWS))
    omega = inputs.expect["omega"]
    labels = sorted(float(r["label"]) for r in rows)
    for n, label in enumerate(labels):
        _require(abs(label - omega * (n + HALF)) <= TOL,
                 "label %r is not omega*(%d + 1/2)" % (label, n))
    for r in rows:
        _require(float(r["residual"]) <= TOL,
                 "member %s residual %s above %g" % (r["index"], r["residual"],
                                                     TOL))


def _check_run(inputs, texts):
    rows = _rows(texts[0])
    levels = inputs.expect["levels"]
    _require(len(rows) == len(levels),
             "%d trajectory rows, expected %d" % (len(rows), len(levels)))
    for r, level in zip(rows, levels):
        where = "step %s" % r["step_index"]
        _require(abs(float(r["energy_mean"]) - (level + HALF)) <= 1e-6,
                 "%s energy %s is not level %d + 1/2"
                 % (where, r["energy_mean"], level))
        _require(float(r["residual1"]) <= TOL,
                 "%s residual %s above %g" % (where, r["residual1"], TOL))
        _require(abs(float(r["subspace_weight"]) - 1.0) <= 1e-9,
                 "%s subspace weight %s" % (where, r["subspace_weight"]))
        probs = [float(v) for k, v in r.items() if k.startswith("p")
                 and k[1:].isdigit()]
        _require(probs and abs(sum(probs) - 1.0) <= 1e-9,
                 "%s probabilities sum to %r" % (where, sum(probs)))


def _check_spectrum(inputs, texts):
    rows = _rows(texts[0])
    _require(len(rows) == SPECTRUM_LEVELS,
             "%d spectrum rows, expected %d" % (len(rows), SPECTRUM_LEVELS))
    omega = inputs.expect["omega"]
    for n, r in enumerate(rows):
        # clock level n reads hbar^2*omega/(m^2 c^4) * (n + 1/2)
        exact = omega * (n + HALF)
        _require(int(r["n"]) == n and float(r["abs_error"]) <= 1e-6
                 and abs(float(r["t_n"]) - exact) <= 1e-6,
                 "level %s clock %s, expected %r" % (r["n"], r["t_n"], exact))


def _check_suites(inputs, texts):
    for suite, text in zip(SUITES, texts):
        rows = _rows(text)
        _require(rows, "suite %s printed no rows" % suite)
        failed = [r["name"] for r in rows if r["status"] != "pass"]
        _require(not failed, "suite %s failed %s" % (suite, failed))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    subcommand: str   # whose --help start-up is the set-up time
    reference: str    # reference.py kind that runs the same kernel
    build: Callable[[int, Path], Inputs]
    check: Callable[[Inputs, list], None]  # raises OutputError


WORKLOADS = {w.name: w for w in (
    Workload("subspace-dense",
             "dense composite build and SVD at dim 2048, the cost of the "
             "kernel solve",
             "subspace", "dense-svd", _subspace, _check_subspace),
    Workload("run-long",
             "400-step scenario on 128x64: many small eigensolves on the "
             "separable route, no SVD",
             "run", "small-eigh", _run_long, _check_run),
    Workload("spectrum-large",
             "16 clock levels on a 1024-point grid: few large eigensolves",
             "spectrum", "dense-eigh", _spectrum, _check_spectrum),
    Workload("check-suites",
             "constraint2, generalized and ladder suites: the other kernel "
             "routes and the checks layer",
             "check", "mixed", _suites, _check_suites),
)}


def outcome(workload, inputs, exit_codes):
    """None when every command exited 0 and its output checks, else why not."""
    for argv, code in zip(inputs.commands, exit_codes):
        if code != 0:
            return "exit %d from chronos %s" % (code, " ".join(argv[:3]))
    try:
        texts = [Path(p).read_text(encoding="utf-8") for p in inputs.outputs]
        workload.check(inputs, texts)
    except (OSError, KeyError, ValueError, OutputError) as exc:
        return "%s: %s" % (type(exc).__name__, exc)
    return None
