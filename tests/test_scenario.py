"""Scenario document format: strict parsing, and round trips through the
canonical writer in the test oracles."""

import json
import math
import re
import warnings
from pathlib import Path

import pytest

from chronos.axes import (
    TIME,
    AxisGrid,
    PhysicalConstants,
    band_edge,
    energy_aligned_grids,
    time_aligned_grids,
)
from chronos.cli import main
from chronos.dynamics import run_scenario
from chronos.exceptions import ScenarioSyntaxError, ScenarioValidationError
from chronos.scenario import MAX_GRID_N, InitialState, Step, parse_scenario

import oracles

BUNDLED = Path(__file__).resolve().parents[1] / "scenarios" \
    / "oscillator_jump.json"


def base_doc(**overrides):
    doc = {
        "constants": {"hbar": 1.0, "mass": 1.0, "c": 1.0, "omega": 1.0},
        "preset": {
            "q": {"n": 32, "origin": -8.0, "spacing": 0.5},
            "t": {"n": 16, "origin": 0.0, "spacing": 0.7853981633974483},
        },
        "model": "oscillator",
        "initial": {"level": 0},
        "steps": [{"evolve": 1.0}],
    }
    doc.update(overrides)
    return doc


def test_parse_explicit_grids():
    sc = parse_scenario(json.dumps(base_doc()))
    assert sc.model.grid.n == 32
    assert sc.model.grid.label == "position"
    assert sc.t_grid.n == 16
    assert sc.t_grid.label == "time"
    assert sc.model.kind == "oscillator"
    assert sc.model.constants == PhysicalConstants()
    assert sc.initial == InitialState("level", level=0)
    assert sc.steps == (Step("evolve", dt=1.0),)
    assert sc.constraint_tol == 1e-6


def test_parse_named_presets():
    for name, builder in (("energy-aligned", energy_aligned_grids),
                          ("time-aligned", time_aligned_grids)):
        sc = parse_scenario(json.dumps(base_doc(preset=name)))
        q_grid, t_grid = builder(sc.model.constants)
        assert sc.model.grid == q_grid
        assert sc.t_grid == t_grid


def test_parse_accepts_bytes():
    sc = parse_scenario(json.dumps(base_doc()).encode("utf-8"))
    assert sc.model.grid.n == 32
    with pytest.raises(ScenarioSyntaxError):
        parse_scenario(b"\xff\xfe{}")


def test_parse_reports_line_and_column():
    with pytest.raises(ScenarioSyntaxError) as info:
        parse_scenario('{\n  "constants": [,]\n}')
    message = str(info.value)
    assert "line 2" in message
    assert info.value.line == 2
    assert info.value.column is not None


def test_parse_rejects_non_finite_numbers():
    text = json.dumps(base_doc()).replace("1.0", "NaN", 1)
    with pytest.raises((ScenarioSyntaxError, ScenarioValidationError)):
        parse_scenario(text)
    text = json.dumps(base_doc(steps=[{"evolve": 1.0}])).replace(
        '{"evolve": 1.0}', '{"evolve": Infinity}')
    with pytest.raises((ScenarioSyntaxError, ScenarioValidationError)):
        parse_scenario(text)


def test_parse_rejects_unknown_keys():
    with pytest.raises(ScenarioValidationError) as info:
        parse_scenario(json.dumps(base_doc(extra=1)))
    assert "extra" in str(info.value)
    doc = base_doc()
    doc["constants"]["planck"] = 6.6e-34
    with pytest.raises(ScenarioValidationError) as info:
        parse_scenario(json.dumps(doc))
    assert "constants" in str(info.value)


DELETE = object()
JUMP = {"from": 0, "to": 1, "at": 0.5}
OBJECT = "expected an object"
INITIAL_ONE = "exactly one of level, energy, amplitudes is required"
STEP_ONE = "exactly one of evolve, jump is required"

# (path into base_doc, new value or DELETE, field, message): a non-object,
# an unknown key and a missing key at every object the parser checks, and
# zero and two keys where exactly one is required
FIELD_CASES = [
    ((), [], "<document>", OBJECT),
    (("extra",), 1, "<document>", "unknown key 'extra'"),
    (("steps",), DELETE, "<document>", "missing key 'steps'"),
    (("constants",), [1.0], "constants", OBJECT),
    (("constants", "planck"), 1.0, "constants", "unknown key 'planck'"),
    (("constants", "omega"), DELETE, "constants", "missing key 'omega'"),
    (("preset",), [], "preset", OBJECT),
    (("preset", "r"), {}, "preset", "unknown key 'r'"),
    (("preset", "t"), DELETE, "preset", "missing key 't'"),
    (("preset", "q"), 3, "preset.q", OBJECT),
    (("preset", "q", "step"), 1, "preset.q", "unknown key 'step'"),
    (("preset", "q", "spacing"), DELETE, "preset.q", "missing key 'spacing'"),
    (("preset", "t"), "t", "preset.t", OBJECT),
    (("preset", "t", "step"), 1, "preset.t", "unknown key 'step'"),
    (("preset", "t", "n"), DELETE, "preset.t", "missing key 'n'"),
    (("initial",), "level", "initial", OBJECT),
    (("initial",), {"spin": 1}, "initial", "unknown key 'spin'"),
    (("initial",), {}, "initial", INITIAL_ONE),
    (("initial",), {"level": 0, "energy": 0.5}, "initial", INITIAL_ONE),
    (("steps", 1), 2.0, "steps[1]", OBJECT),
    (("steps", 1), {"pause": 1.0}, "steps[1]", "unknown key 'pause'"),
    (("steps", 1), {}, "steps[1]", STEP_ONE),
    (("steps", 1), {"evolve": 1.0, "jump": JUMP}, "steps[1]", STEP_ONE),
    (("steps", 1), {"jump": [0, 1]}, "steps[1].jump", OBJECT),
    (("steps", 1), {"jump": dict(JUMP, by=2)}, "steps[1].jump",
     "unknown key 'by'"),
    (("steps", 1), {"jump": {"from": 0, "to": 1}}, "steps[1].jump",
     "missing key 'at'"),
    (("tolerances",), 1e-6, "tolerances", OBJECT),
    (("tolerances",), {"slack": 1.0}, "tolerances", "unknown key 'slack'"),
]


def edited_doc(path, value):
    """base_doc, with two steps, after one edit at a key path."""
    doc = base_doc(steps=[{"evolve": 1.0}, {"jump": dict(JUMP)}])
    if not path:
        return value
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    if value is DELETE:
        del target[last]
    else:
        target[last] = value
    return doc


@pytest.mark.parametrize("path,value,field,message", FIELD_CASES,
                         ids=["%s-%d" % (c[2].strip("<>"), i)
                              for i, c in enumerate(FIELD_CASES)])
def test_parse_reports_field_and_message(path, value, field, message):
    with pytest.raises(ScenarioValidationError) as info:
        parse_scenario(json.dumps(edited_doc(path, value)))
    assert info.value.field == field
    assert str(info.value) == "%s: %s" % (field, message)


# (a key and value that the two-step document holds once, what it is given
# twice as, field): JSON keeps the last value, the parser refuses both
TWICE_CASES = [
    ('"model": "oscillator"', '"model": "free_particle"', "model"),
    ('"n": 32', '"n": 32', "preset.q.n"),
    ('"to": 1', '"to": 2', "steps[1].jump.to"),
]


@pytest.mark.parametrize("given, again, field", TWICE_CASES,
                         ids=[c[2] for c in TWICE_CASES])
def test_parse_refuses_a_key_given_twice(given, again, field):
    text = json.dumps(base_doc(steps=[{"evolve": 1.0}, {"jump": JUMP}]))
    assert text.count(given) == 1
    with pytest.raises(ScenarioValidationError) as info:
        parse_scenario(text.replace(given, given + ", " + again))
    assert info.value.field == field
    assert str(info.value) == field + ": key given more than once"


def test_cli_refuses_a_constant_given_twice(tmp_path, capsys):
    config = tmp_path / "twice.json"
    config.write_text(json.dumps(base_doc()).replace(
        '"omega": 1.0', '"omega": 1.0, "omega": 2.0'), encoding="utf-8")
    assert main(["subspace", "--config", str(config)]) == 2
    assert capsys.readouterr() \
        == ("", "error: constants.omega: key given more than once\n")


HUGE =10 ** 400  # an integer literal beyond the float range
# past the digit limit of int(str), where json.loads itself would raise
LONG = "1" + "0" * 5000


def amplitudes_with(index, pair):
    doc = base_doc(initial={"amplitudes": [[1.0, 0.0]] * (32 * 16)})
    doc["initial"]["amplitudes"][index] = pair
    return doc


@pytest.mark.parametrize("doc, field", [
    (edited_doc(("constants", "hbar"), HUGE), "constants.hbar"),
    (edited_doc(("constants", "mass"), -HUGE), "constants.mass"),
    (edited_doc(("steps", 0), {"evolve": HUGE}), "steps[0].evolve"),
    (edited_doc(("steps", 0), {"evolve": LONG}), "steps[0].evolve"),
    (edited_doc(("steps", 1, "jump", "at"), -HUGE), "steps[1].jump.at"),
    (amplitudes_with(3, [0.5, HUGE]), "initial.amplitudes[3]"),
    (edited_doc(("preset", "q", "origin"), -HUGE), "preset.q.origin"),
], ids=["hbar", "mass", "evolve", "evolve-5001-digits", "jump-at",
        "amplitude", "origin"])
def test_parse_refuses_integers_beyond_the_float_range(tmp_path, capsys,
                                                       doc, field):
    text = json.dumps(doc).replace('"%s"' % LONG, LONG)
    with pytest.raises(ScenarioValidationError) as info:
        parse_scenario(text)
    assert info.value.field == field
    assert str(info.value) == "%s: number must be finite" % field
    config = tmp_path / "huge.json"
    config.write_text(text, encoding="utf-8")
    assert main(["run", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert field in err and "Traceback" not in err


def test_parse_rejects_missing_top_key():
    doc = base_doc()
    del doc["model"]
    with pytest.raises(ScenarioValidationError):
        parse_scenario(json.dumps(doc))


def refused_by_cli(tmp_path, capsys, doc, argv):
    """Exit code and stderr of `chronos ARGV --config` on doc."""
    config = tmp_path / "refused.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    code = main([*argv, "--config", str(config)])
    return code, capsys.readouterr().err


# positive finite constants whose derived scales overflow or underflow:
# hbar^2 in the time quantum, m^2 and c^4 in m^2 c^4
@pytest.mark.parametrize("name, value, scale", [
    ("hbar", 1e300, "time_quantum"),
    ("mass", 1e-300, "m^2 c^4"),
    ("c", 1e-100, "m^2 c^4"),
])
@pytest.mark.parametrize("argv", [["run"], ["spectrum"],
                                  ["check", "--suite", "ladder"],
                                  ["check", "--suite", "constraint2"]],
                         ids=["run", "spectrum", "ladder", "constraint2"])
def test_cli_refuses_constants_with_unusable_scales(tmp_path, capsys, name,
                                                    value, scale, argv):
    with pytest.raises(ScenarioValidationError) as info:
        parse_scenario(json.dumps(edited_doc(("constants", name), value)))
    assert info.value.field == "constants"
    code, err = refused_by_cli(tmp_path, capsys,
                               edited_doc(("constants", name), value), argv)
    assert code == 2
    assert "constants: %s is not positive and finite" % scale in err
    assert "Traceback" not in err


@pytest.mark.parametrize("axis", ["q", "t"])
@pytest.mark.parametrize("n", [MAX_GRID_N + 2, 10 ** 400])
def test_cli_refuses_a_grid_above_the_size_limit(tmp_path, capsys, axis, n):
    field = "preset.%s.n" % axis
    doc = edited_doc(("preset", axis, "n"), n)
    with pytest.raises(ScenarioValidationError) as info:
        parse_scenario(json.dumps(doc))
    assert info.value.field == field
    assert str(info.value) == "%s: must be < %d" % (field, MAX_GRID_N + 1)
    code, err = refused_by_cli(tmp_path, capsys, doc, ["run"])
    assert code == 2 and field in err and "Traceback" not in err


# a grid whose period, top frequency or Fourier phases leave the float range
@pytest.mark.parametrize("axis, key, value, scale", [
    ("q", "spacing", 1e308, "period"),
    ("q", "spacing", 5e-324, "top frequency"),
    ("t", "spacing", 1e-308, "top frequency"),
    ("t", "spacing", 1e308, "period"),
    ("t", "origin", -1e308, "largest Fourier phase"),
])
@pytest.mark.parametrize("argv", [["run"], ["subspace"]],
                         ids=["run", "subspace"])
def test_cli_refuses_a_grid_whose_scales_overflow(tmp_path, capsys, axis,
                                                  key, value, scale, argv):
    field = "preset.%s.%s" % (axis, key)
    doc = edited_doc(("preset", axis, key), value)
    with pytest.raises(ScenarioValidationError) as info:
        parse_scenario(json.dumps(doc))
    assert info.value.field == field
    assert str(info.value) == "%s: puts the grid's %s out of the float " \
        "range" % (field, scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, err = refused_by_cli(tmp_path, capsys, doc, argv)
    assert code == 2 and field in err and "Traceback" not in err


# grids and constants each usable alone whose Hamiltonian is not: the
# potential's omega^2 or x^2, the kinetic (hbar w)^2, or the clock operator
# hbar / (m^2 c^4) times the energies leaves the float range
@pytest.mark.parametrize("path, value, scale", [
    (("constants", "omega"), 2.4e178, "energy bound squared"),
    (("preset", "q", "origin"), -2e285, "energy bound squared"),
    (("preset", "q", "spacing"), 1e-289, "n (hbar w)^2"),
    (("constants", "mass"), 1e-150, "clock bound"),
], ids=["omega", "q-origin", "q-spacing", "mass"])
@pytest.mark.parametrize("argv", [["run"], ["spectrum"], ["subspace"]])
def test_cli_refuses_a_model_whose_scales_overflow(tmp_path, capsys, path,
                                                   value, scale, argv):
    doc = edited_doc(path, value)
    with pytest.raises(ScenarioValidationError) as info:
        parse_scenario(json.dumps(doc))
    assert info.value.field == "model"
    assert str(info.value) == "model: %s is not positive and finite for " \
        "the oscillator on this grid" % scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, err = refused_by_cli(tmp_path, capsys, doc, argv)
    assert code == 2 and "model: " in err and "Traceback" not in err


@pytest.mark.parametrize("hbar, spacing, edge", [
    (1e70, 1e-240, "inf"),  # the band edge hbar pi / spacing itself
    (1.0, 1e-160, "3.14159e+160"),  # its square, in a run's residual
])
@pytest.mark.parametrize("argv", [["run"], ["spectrum"], ["subspace"]])
def test_cli_refuses_a_band_edge_that_overflows(tmp_path, capsys, hbar,
                                                spacing, edge, argv):
    # grid, constants and model each usable alone: hbar = 1e70 on the
    # 32-point position grid keeps the energies near 1e140
    doc = edited_doc(("preset", "t", "spacing"), spacing)
    doc["constants"]["hbar"] = hbar
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, err = refused_by_cli(tmp_path, capsys, doc, argv)
    assert code == 2
    assert "preset.t.spacing: the band edge %s leaves the float range" \
        % edge in err


def test_band_edge_refusal_uses_the_band_edge_of_the_run(tmp_path, capsys):
    # the refusal squares band_edge, hbar times the top frequency, the edge
    # the run tests energies against.  On this 26-point grid that edge is
    # the first float whose square overflows (hbar pi / spacing rounds one
    # ulp below it, to a float whose square does not), so the grid is
    # refused when it is parsed, and by every command
    doc = base_doc(preset={"q": {"n": 32, "origin": -8.0, "spacing": 0.5},
                           "t": {"n": 26, "origin": 0.0,
                                 "spacing": 2.34310684491081e-154}})
    with pytest.raises(ScenarioValidationError) as info:
        parse_scenario(json.dumps(doc))
    assert info.value.field == "preset.t.spacing"
    grid = AxisGrid(n=26, origin=0.0, spacing=2.34310684491081e-154,
                    label=TIME)
    edge = band_edge(grid, PhysicalConstants())
    assert edge == math.nextafter(1.3407807929942596e+154, math.inf)
    assert math.isinf(edge * edge)
    code, err = refused_by_cli(tmp_path, capsys, doc, ["run"])
    assert code == 2 and "preset.t.spacing" in err


def test_check_accepts_the_top_lattice_energy(tmp_path, capsys):
    # hbar 1000 on the energy-aligned grids puts the lattice's top energy
    # at 8000, which tolerance 5000 pairs with a level; the suite builds
    # its eigenvector, inside the band since the band edge is that energy
    doc = base_doc(preset="energy-aligned",
                   tolerances={"constraint_tol": 5000.0})
    doc["constants"]["hbar"] = 1000.0
    code, err = refused_by_cli(tmp_path, capsys, doc,
                               ["check", "--suite", "constraint1"])
    assert (code, err) == (0, "")


@pytest.mark.parametrize("suite", ["constraint1", "ladder", "commutators"])
def test_check_refuses_constants_its_suite_cannot_grid(tmp_path, capsys,
                                                       suite):
    # the document's explicit grids hold omega = 1e-308, but the suites'
    # energy-aligned time grid, of period 4 pi / omega, does not
    doc = edited_doc(("constants", "omega"), 1e-308)
    parse_scenario(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, err = refused_by_cli(tmp_path, capsys, doc,
                                   ["check", "--suite", suite])
    assert code == 2
    assert err.startswith("error: constants: grid spacing ")


def test_parse_accepts_a_grid_at_the_size_limit():
    # parsed only: the grids hold no array until one is asked for
    for axis in ("q", "t"):
        sc = parse_scenario(json.dumps(
            edited_doc(("preset", axis, "n"), MAX_GRID_N)))
        grid = sc.model.grid if axis == "q" else sc.t_grid
        assert grid.n == MAX_GRID_N


@pytest.mark.parametrize("initial, field", [
    ({"level": 0}, "initial.level"),
    ({"energy": 29.874122633}, "initial.energy"),
])
def test_run_refuses_a_start_beyond_the_time_band(tmp_path, capsys, initial,
                                                  field):
    # on two position samples the lowest level sits near 29.87, far past
    # the 16-point time grid's band edge of 4
    doc = base_doc(initial=initial, tolerances={"constraint_tol": 1e-3})
    doc["preset"]["q"]["n"] = 2
    code, err = refused_by_cli(tmp_path, capsys, doc, ["run"])
    assert code == 2
    assert "%s: level energy 29.8741 outside the time grid's band" % field \
        in err
    assert "Traceback" not in err


@pytest.mark.parametrize("doc, field, message", [
    (edited_doc(("constants", "omega"), "1"), "constants.omega",
     "expected a number"),
    (base_doc(initial={"level": -1}), "initial.level", "must be >= 0"),
    (base_doc(initial={"amplitudes": 5}), "initial.amplitudes",
     "expected a list of [re, im] pairs"),
    (amplitudes_with(0, [1.0]), "initial.amplitudes[0]",
     "expected a [re, im] pair"),
    (base_doc(initial={"amplitudes": [[0.0, 0.0]] * (32 * 16)}),
     "initial.amplitudes", "amplitudes are all zero"),
    # the energy-aligned period 4 pi / omega overflows
    (base_doc(constants={"hbar": 1, "mass": 1, "c": 1, "omega": 1e-308},
              preset="energy-aligned"),
     "preset", "grid spacing must be positive, got inf"),
], ids=["omega-string", "level-negative", "amplitudes-number",
        "amplitude-short-pair", "amplitudes-zero", "preset-spacing-inf"])
def test_run_refuses_an_unusable_field(tmp_path, capsys, doc, field,
                                       message):
    code, err = refused_by_cli(tmp_path, capsys, doc, ["run"])
    assert code == 2
    assert "%s: %s" % (field, message) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [["spectrum"], ["subspace"],
                                  ["check", "--suite", "ladder"]],
                         ids=["spectrum", "subspace", "check"])
def test_every_command_refuses_an_all_zero_start(tmp_path, capsys, argv):
    # as run does: the refusal is InitialState's, made by the parser
    doc = base_doc(initial={"amplitudes": [[0.0, 0.0]] * (32 * 16)})
    code, err = refused_by_cli(tmp_path, capsys, doc, argv)
    assert (code, err) == (
        2, "error: initial.amplitudes: amplitudes are all zero\n")


def test_run_refuses_an_off_lattice_jump_before_the_first_step(tmp_path,
                                                               capsys):
    # on two time samples level 0's energy 0.5 lies 0.5 from the nearest
    # lattice energy: the jump is refused as a field before any step runs,
    # so no CSV row is written
    doc = json.loads(BUNDLED.read_text(encoding="utf-8"))
    doc["preset"]["t"]["n"] = 2
    config = tmp_path / "coarse.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["run", "--config", str(config)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert "steps[1].jump: from-level energy 0.5 misses the frequency " \
        "lattice by 0.5" in err
    assert "Traceback" not in err


def test_parse_rejects_bad_grid():
    doc = base_doc()
    doc["preset"]["q"]["n"] = 33  # odd
    with pytest.raises(ScenarioValidationError) as info:
        parse_scenario(json.dumps(doc))
    assert "preset.q" in str(info.value)
    doc = base_doc()
    doc["preset"]["t"]["spacing"] = -0.5
    with pytest.raises(ScenarioValidationError):
        parse_scenario(json.dumps(doc))
    doc = base_doc()
    doc["preset"]["q"]["n"] = True  # bool is not an integer here
    with pytest.raises(ScenarioValidationError):
        parse_scenario(json.dumps(doc))


def test_parse_rejects_unknown_preset_and_model():
    with pytest.raises(ScenarioValidationError):
        parse_scenario(json.dumps(base_doc(preset="galaxy-aligned")))
    with pytest.raises(ScenarioValidationError) as info:
        parse_scenario(json.dumps(base_doc(model="rigid_rotor")))
    assert info.value.field == "model"


def test_parse_initial_variants():
    sc = parse_scenario(json.dumps(base_doc(initial={"energy": 2.5})))
    assert sc.initial == InitialState("energy", energy=2.5)
    amp = [[0.0, 0.0]] * (32 * 16)
    amp[0] = [1.0, 0.0]
    sc = parse_scenario(json.dumps(base_doc(initial={"amplitudes": amp})))
    assert sc.initial.kind == "amplitudes"
    assert sc.initial.amplitudes[0] == 1.0 + 0.0j
    with pytest.raises(ScenarioValidationError):
        parse_scenario(json.dumps(base_doc(initial={})))
    with pytest.raises(ScenarioValidationError):
        parse_scenario(json.dumps(base_doc(initial={"level": 0,
                                                    "energy": 1.0})))
    with pytest.raises(ScenarioValidationError):
        parse_scenario(json.dumps(base_doc(initial={"level": 99})))
    with pytest.raises(ScenarioValidationError) as info:
        parse_scenario(json.dumps(base_doc(
            initial={"amplitudes": [[1.0, 0.0]]})))
    assert "amplitudes" in str(info.value)


def test_parse_steps_variants():
    sc = parse_scenario(json.dumps(base_doc(steps=[
        {"evolve": 0.5},
        {"jump": {"from": 0, "to": 1, "at": 0.5}},
    ])))
    assert sc.steps[1] == Step("jump", from_level=0, to_level=1, at_time=0.5)
    with pytest.raises(ScenarioValidationError) as info:
        parse_scenario(json.dumps(base_doc(steps=[
            {"jump": {"from": 2, "to": 2, "at": 0.5}}])))
    assert "steps[0].jump" in str(info.value)
    with pytest.raises(ScenarioValidationError):
        parse_scenario(json.dumps(base_doc(steps=[{"pause": 1.0}])))
    with pytest.raises(ScenarioValidationError):
        parse_scenario(json.dumps(base_doc(steps=[
            {"jump": {"from": 0, "to": 1}}])))
    with pytest.raises(ScenarioValidationError):
        parse_scenario(json.dumps(base_doc(steps="soon")))


def test_parse_tolerances():
    sc = parse_scenario(json.dumps(base_doc(
        tolerances={"constraint_tol": 1e-8})))
    assert sc.constraint_tol == 1e-8
    # a key the document leaves out keeps Scenario's default
    sc = parse_scenario(json.dumps(base_doc(tolerances={})))
    assert sc.constraint_tol == 1e-6
    with pytest.raises(ScenarioValidationError) as info:
        parse_scenario(json.dumps(base_doc(
            tolerances={"constraint_tol": 0.0})))
    assert str(info.value) == \
        "tolerances.constraint_tol: must be positive and finite, got 0.0"
    with pytest.raises(ScenarioValidationError):
        parse_scenario(json.dumps(base_doc(tolerances={"slack": 1.0})))


def test_serialize_round_trip_explicit():
    sc = parse_scenario(json.dumps(base_doc(steps=[
        {"evolve": 0.1},
        {"jump": {"from": 1, "to": 0, "at": 1.5}},
        {"evolve": math.pi},
    ])))
    text = oracles.serialize_scenario(sc)
    assert text.endswith("\n")
    assert parse_scenario(text) == sc


def test_serialize_round_trip_preset():
    # the writer states the preset's grids explicitly
    sc = parse_scenario(json.dumps(base_doc(preset="energy-aligned")))
    assert parse_scenario(oracles.serialize_scenario(sc)) == sc


def test_serialize_round_trip_amplitudes():
    amp = [[0.0, 0.0]] * (32 * 16)
    amp[3] = [0.6, 0.0]
    amp[5] = [0.0, 0.8]
    sc = parse_scenario(json.dumps(base_doc(initial={"amplitudes": amp})))
    assert parse_scenario(oracles.serialize_scenario(sc)) == sc


def test_serialize_is_canonical():
    sc = parse_scenario(json.dumps(base_doc()))
    text = oracles.serialize_scenario(sc)
    assert text == oracles.serialize_scenario(parse_scenario(text))
    doc = json.loads(text)
    assert list(doc.keys()) == sorted(doc.keys())
    assert "tolerances" in doc


def test_bundled_scenario_parses():
    sc = parse_scenario(BUNDLED.read_bytes())
    assert sc.model.kind == "oscillator"
    assert len(sc.steps) == 3


def test_readme_json_examples_parse_and_run():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    blocks = re.findall(r"^```json\n(.*?)^```", readme.read_text("utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert blocks
    for block in blocks:
        sc = parse_scenario(block)
        records = run_scenario(sc)
        assert len(records) == len(sc.steps) + 1
    # the worked example is the bundled file as it is, and ends one level
    # up, at energy 3/2
    worked = BUNDLED.read_text("utf-8")
    assert worked in blocks
    records = run_scenario(parse_scenario(worked))
    assert records[-1].energy_mean == pytest.approx(1.5, abs=1e-9)
