"""Scenarios: the values a scenario is made of, and the strict JSON
document format parsed into them.

A Scenario holds a model, the time grid it runs on, an InitialState, its
Steps and two tolerances; each value refuses, when it is made, what it
can judge on its own, and dynamics.run_scenario runs it.  A scenario
document has exactly the top-level keys constants, preset, model,
initial, steps, and optionally tolerances.  Unknown keys anywhere are
rejected by name, and so is a key an object gives twice; every number
must be finite, and an explicit grid must keep every scale it derives
in the float range.  Nothing here imports the step maps or the
constraint solver.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
import json
import math

import numpy as np

from .axes import (
    POSITION,
    TIME,
    AxisGrid,
    PhysicalConstants,
    band_edge,
    energy_aligned_grids,
    grid_overflow,
    positive_finite,
    time_aligned_grids,
)
from .exceptions import ScenarioSyntaxError, ScenarioValidationError
from .linalg import DEFAULT_TOL
from .models import DEFAULT_RETAINED_LEVELS, KINDS, ModelSpec

PRESETS = ("energy-aligned", "time-aligned")

TOP_KEYS = ("constants", "preset", "model", "initial", "steps", "tolerances")
CONSTANT_KEYS = ("hbar", "mass", "c", "omega")
GRID_KEYS = ("n", "origin", "spacing")
# largest grid a scenario may ask for: an n x n complex operator on it
# takes 1 GiB
MAX_GRID_N = 8192
# the default bound on the eigenbasis defect that run certifies
EIGEN_TOL = 1e-9


@dataclass(frozen=True)
class Step:
    """One scenario step: either an evolution or an energy jump."""

    kind: str
    dt: float | None = None
    from_level: int | None = None
    to_level: int | None = None
    at_time: float | None = None

    def __post_init__(self):
        if self.kind == "evolve":
            if self.dt is None or not np.isfinite(self.dt):
                raise ValueError("evolve step needs a finite duration")
        elif self.kind == "jump":
            for name in ("from_level", "to_level", "at_time"):
                if getattr(self, name) is None:
                    raise ValueError("jump step needs %s" % name)
            if self.from_level == self.to_level:
                raise ValueError("jump levels must differ")
        else:
            raise ValueError("unknown step kind %r" % (self.kind,))


@dataclass(frozen=True)
class InitialState:
    """Starting state: an eigenlevel, a target energy, or raw amplitudes."""

    kind: str
    level: int | None = None
    energy: float | None = None
    amplitudes: tuple | None = None

    def __post_init__(self):
        if self.kind not in ("level", "energy", "amplitudes"):
            raise ValueError("unknown initial kind %r" % (self.kind,))
        if getattr(self, self.kind) is None:
            raise ValueError("%s initial state needs %s"
                             % (self.kind, self.kind))
        if self.kind == "amplitudes":
            amp = np.asarray(self.amplitudes, dtype=np.complex128)
            if not np.all(np.isfinite(amp)):
                raise ScenarioValidationError("amplitudes must be finite",
                                              field="initial.amplitudes")
            if not np.any(amp):
                raise ScenarioValidationError("amplitudes are all zero",
                                              field="initial.amplitudes")


@dataclass(frozen=True)
class Scenario:
    """A model, the time grid it runs on, a start, the steps to take and
    two tolerances, each refused unless it is positive and finite."""

    model: ModelSpec
    t_grid: AxisGrid
    initial: InitialState
    steps: tuple
    constraint_tol: float = DEFAULT_TOL
    eigen_tol: float = EIGEN_TOL

    def __post_init__(self):
        for key in ("constraint_tol", "eigen_tol"):
            value = getattr(self, key)
            if not (np.isfinite(value) and value > 0.0):
                raise ScenarioValidationError(
                    "must be positive and finite, got %r" % (value,),
                    field="tolerances." + key)
        # the time grid's energies reach the band edge, hbar w_top;
        # the energy operator sums n of them and a run squares their gaps
        # to the model's energies, so both must stay in the float range
        edge = band_edge(self.t_grid, self.model.constants)
        for scale in (lambda: self.t_grid.n * edge,
                      lambda: (edge + self.model.energy_bound) ** 2):
            if not positive_finite(scale):
                raise ScenarioValidationError(
                    "the band edge %.6g leaves the float range for these "
                    "constants and this model" % edge,
                    field="preset.t.spacing")


def _fail(message, field):
    raise ScenarioValidationError(message, field=field)


class _Object(dict):
    """A JSON object, and the keys the document gives it more than once."""

    def __init__(self, pairs):
        super().__init__(pairs)
        counts = Counter(key for key, _ in pairs)
        self.duplicates = [key for key in self if counts[key] > 1]


def _fields(value, field, allowed, required=(), one_of=False):
    # value as an object whose keys are all allowed and given once, that
    # holds every required key, and, with one_of, exactly one key
    if not isinstance(value, dict):
        _fail("expected an object", field)
    for key in value:
        if key not in allowed:
            _fail("unknown key %r" % (key,), field)
    for key in getattr(value, "duplicates", ()):
        _fail("key given more than once",
              key if field == "<document>" else "%s.%s" % (field, key))
    for key in required:
        if key not in value:
            _fail("missing key %r" % (key,), field)
    if one_of and len(value) != 1:
        _fail("exactly one of %s is required" % ", ".join(allowed), field)
    return value


def _number(value, field, *, positive=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail("expected a number", field)
    try:
        value = float(value)
    except OverflowError:  # an integer literal beyond the float range
        value = math.inf
    if not math.isfinite(value):
        _fail("number must be finite", field)
    if positive and value <= 0.0:
        _fail("number must be positive", field)
    return value


def _json_integer(literal):
    # past int()'s digit limit a literal is far past the float range too
    try:
        return int(literal)
    except ValueError:
        return math.inf


def _integer(value, field, *, low=None, high=None):
    if isinstance(value, bool) or not isinstance(value, int):
        _fail("expected an integer", field)
    if low is not None and value < low:
        _fail("must be >= %d" % low, field)
    if high is not None and value >= high:
        _fail("must be < %d" % high, field)
    return value


def _parse_constants(value):
    obj = _fields(value, "constants", CONSTANT_KEYS, CONSTANT_KEYS)
    return PhysicalConstants(**{
        key: _number(obj[key], "constants.%s" % key, positive=True)
        for key in CONSTANT_KEYS})


def _parse_grid(value, field, label):
    obj = _fields(value, field, GRID_KEYS, GRID_KEYS)
    n = _integer(obj["n"], field + ".n", low=2, high=MAX_GRID_N + 1)
    if n % 2 != 0:
        _fail("grid size must be even", field + ".n")
    origin = _number(obj["origin"], field + ".origin")
    spacing = _number(obj["spacing"], field + ".spacing", positive=True)
    fault = grid_overflow(n, origin, spacing)
    if fault is not None:
        _fail("puts the grid's %s out of the float range" % fault[1],
              "%s.%s" % (field, fault[0]))
    return AxisGrid(n=n, origin=origin, spacing=spacing, label=label)


def _parse_preset(value, constants):
    if isinstance(value, str):
        if value == "energy-aligned":
            qg, tg = energy_aligned_grids(constants)
        elif value == "time-aligned":
            qg, tg = time_aligned_grids(constants)
        else:
            _fail("unknown preset %r (expected one of %s or explicit grids)"
                  % (value, ", ".join(PRESETS)), "preset")
        return qg, tg
    obj = _fields(value, "preset", ("q", "t"), ("q", "t"))
    return (_parse_grid(obj["q"], "preset.q", POSITION),
            _parse_grid(obj["t"], "preset.t", TIME))


def _parse_initial(value, n_q, n_t):
    obj = _fields(value, "initial", ("level", "energy", "amplitudes"),
                  one_of=True)
    if "level" in obj:
        level = _integer(obj["level"], "initial.level", low=0,
                         high=DEFAULT_RETAINED_LEVELS)
        return InitialState("level", level=level)
    if "energy" in obj:
        return InitialState("energy",
                            energy=_number(obj["energy"], "initial.energy"))
    raw = obj["amplitudes"]
    if not isinstance(raw, list):
        _fail("expected a list of [re, im] pairs", "initial.amplitudes")
    if len(raw) != n_q * n_t:
        _fail("expected %d amplitude pairs, got %d"
              % (n_q * n_t, len(raw)), "initial.amplitudes")
    amplitudes = []
    for i, pair in enumerate(raw):
        where = "initial.amplitudes[%d]" % i
        if not isinstance(pair, list) or len(pair) != 2:
            _fail("expected a [re, im] pair", where)
        amplitudes.append(complex(_number(pair[0], where),
                                  _number(pair[1], where)))
    return InitialState("amplitudes", amplitudes=tuple(amplitudes))


def _parse_steps(value):
    if not isinstance(value, list):
        _fail("expected a list", "steps")
    steps = []
    for i, raw in enumerate(value):
        where = "steps[%d]" % i
        obj = _fields(raw, where, ("evolve", "jump"), one_of=True)
        if "evolve" in obj:
            steps.append(Step("evolve",
                              dt=_number(obj["evolve"], where + ".evolve")))
            continue
        jump = _fields(obj["jump"], where + ".jump", ("from", "to", "at"),
                       ("from", "to", "at"))
        from_level = _integer(jump["from"], where + ".jump.from", low=0,
                              high=DEFAULT_RETAINED_LEVELS)
        to_level = _integer(jump["to"], where + ".jump.to", low=0,
                            high=DEFAULT_RETAINED_LEVELS)
        if from_level == to_level:
            _fail("jump levels must differ", where + ".jump")
        steps.append(Step("jump", from_level=from_level, to_level=to_level,
                          at_time=_number(jump["at"], where + ".jump.at")))
    return tuple(steps)


def _parse_tolerances(value):
    # only the keys the document gives: Scenario holds the defaults and
    # refuses a tolerance that is not positive
    obj = _fields({} if value is None else value, "tolerances",
                  ("constraint_tol", "eigen_tol"))
    return {key: _number(number, "tolerances." + key)
            for key, number in obj.items()}


def parse_scenario(text):
    """Parse and fully validate a scenario document.

    Raises ScenarioSyntaxError (with line and column) for malformed JSON
    and ScenarioValidationError (with the offending key path) for schema
    violations.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ScenarioSyntaxError("not valid UTF-8: %s" % exc) from exc

    def reject_constant(name):
        _fail("non-finite number %s" % name, "<document>")

    try:
        doc = json.loads(text, parse_constant=reject_constant,
                         parse_int=_json_integer,
                         object_pairs_hook=_Object)
    except json.JSONDecodeError as exc:
        raise ScenarioSyntaxError(exc.msg, line=exc.lineno,
                                  column=exc.colno) from exc
    _fields(doc, "<document>", TOP_KEYS, TOP_KEYS[:-1])  # all but tolerances
    try:
        constants = _parse_constants(doc["constants"])
    except ValueError as exc:
        raise ScenarioValidationError(str(exc), field="constants") from None
    try:
        q_grid, t_grid = _parse_preset(doc["preset"], constants)
    except ValueError as exc:
        raise ScenarioValidationError(str(exc), field="preset") from None
    model_kind = doc["model"]
    if model_kind not in KINDS:
        _fail("unknown model %r (expected one of %s)"
              % (model_kind, ", ".join(KINDS)), "model")
    initial = _parse_initial(doc["initial"], q_grid.n, t_grid.n)
    steps = _parse_steps(doc["steps"])
    try:
        model = ModelSpec(model_kind, constants, q_grid)
    except ValueError as exc:
        raise ScenarioValidationError(str(exc), field="model") from None
    return Scenario(model=model, t_grid=t_grid, initial=initial, steps=steps,
                    **_parse_tolerances(doc.get("tolerances")))

