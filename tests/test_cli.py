"""Command-line surface: table formats, exit codes, reproducibility."""

import io
import json
import os
import shutil
import subprocess
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import chronos
from chronos.cli import DEFAULT_DOCUMENT, ResultTable, main
from chronos.models import free_particle_time_level
from chronos.axes import PhysicalConstants
from chronos.linalg import DEFAULT_TOL, CirculantPlusDiagonal

import oracles


SMALL_DOC = {
    "constants": {"hbar": 1.0, "mass": 1.0, "c": 1.0, "omega": 1.0},
    "preset": {
        "q": {"n": 32, "origin": -8.0, "spacing": 0.5},
        "t": {"n": 16, "origin": 0.0, "spacing": 0.7853981633974483},
    },
    "model": "oscillator",
    "initial": {"level": 0},
    "steps": [{"evolve": 1.0}, {"jump": {"from": 0, "to": 1, "at": 0.5}}],
}


@pytest.fixture()
def small_config(tmp_path):
    path = tmp_path / "small.json"
    path.write_text(json.dumps(SMALL_DOC), encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_result_table_formats_each_value_type():
    table = ResultTable(["flag", "count", "missing", "value"])
    table.add(True, 3, float("nan"), 0.1)
    assert table.render() \
        == "flag,count,missing,value\nTrue,3,nan,0.10000000000000001\n"


def test_result_table_formats_a_repeated_cell_once(monkeypatch):
    import chronos.cli as cli
    formatted = []
    format_value = cli._format_value

    def counted(value):
        formatted.append(value)
        return format_value(value)

    monkeypatch.setattr(cli, "_format_value", counted)
    x, y = 0.1, 2.0 / 3.0
    z = y * 1.0  # equal to y, but another object
    assert z == y and z is not y
    table = ResultTable(["a", "b", "c"])
    table.add(1, x, y)
    table.add(2, x, y)  # the same objects as the row above
    table.add(3, x, z)
    table.add(4, y, x)  # the same objects, in other columns
    assert table.render() == (
        "a,b,c\n"
        "1,0.10000000000000001,0.66666666666666663\n"
        "2,0.10000000000000001,0.66666666666666663\n"
        "3,0.10000000000000001,0.66666666666666663\n"
        "4,0.66666666666666663,0.10000000000000001\n")
    assert formatted == [1, x, y, 2, 3, z, 4, y, x]
    assert formatted[5] is z


def test_spectrum_table_shape(capsys, small_config):
    code, out, err = run_cli(capsys, "spectrum", "--config", small_config,
                             "--levels", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,E_n,t_n,t_n_predicted,abs_error"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == pytest.approx(0.5, abs=1e-7)
    assert float(first[4]) < 1e-6


def test_spectrum_zero_levels_keeps_header(capsys, small_config):
    code, out, _ = run_cli(capsys, "spectrum", "--config", small_config,
                           "--levels", "0")
    assert code == 0
    assert out == "n,E_n,t_n,t_n_predicted,abs_error\n"


def test_spectrum_level_bounds(capsys, small_config):
    code, _, err = run_cli(capsys, "spectrum", "--config", small_config,
                           "--levels", "-2")
    assert code == 2
    assert "levels" in err
    code, _, err = run_cli(capsys, "spectrum", "--config", small_config,
                           "--levels", "9999")
    assert code == 2


def test_spectrum_free_particle_prediction(capsys, tmp_path):
    doc = dict(SMALL_DOC)
    doc["model"] = "free_particle"
    path = tmp_path / "free.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run_cli(capsys, "spectrum", "--config", str(path),
                           "--levels", "3")
    assert code == 0
    k = PhysicalConstants()
    for line in out.splitlines()[1:]:
        cells = line.split(",")
        energy = float(cells[1])
        assert float(cells[3]) == pytest.approx(
            free_particle_time_level(max(energy, 0.0), k), rel=1e-12)


def test_spectrum_forms_no_eigenvectors(capsys, monkeypatch):
    # `spectrum` reads the Hamiltonian's values alone, so the n x n vectors
    # of its reflection-split solve are never formed
    built = []
    build = chronos.models.hamiltonian
    monkeypatch.setattr(chronos.models, "hamiltonian",
                        lambda model: built.append(build(model)) or built[-1])
    assert run_cli(capsys, "spectrum", "--levels", "3")[0] == 0
    system = vars(built[0])["eigensystem"]
    assert system._split is not None
    assert "vectors" not in vars(system)


@pytest.mark.parametrize("argv, formed", [
    (["spectrum"], 0), (["spectrum", "--levels", "3"], 0),
    (["run", "--config", "scenarios/oscillator_jump.json"], 0),
    (["subspace"], 1)], ids=["spectrum", "spectrum-levels", "run", "subspace"])
def test_commands_form_the_hamiltonian_matrix_as_needed(
        capsys, formed_matrices, argv, formed):
    # the Hamiltonian keeps its closed form: `spectrum` reads its values
    # from rows 0 .. n/2 alone and `run` its eigensystem alone, while
    # `subspace` reads the n x n matrix, formed once
    root = Path(__file__).resolve().parents[1]
    argv = [str(root / a) if a.startswith("scenarios/") else a for a in argv]
    assert run_cli(capsys, *argv)[0] == 0
    assert len(formed_matrices) == formed


SPLIT = ("CirculantPlusDiagonal", True, False)
# SMALL_DOC with its q grid offset by 0.3 of a step, so no sample mirrors
OFFSET_DOC = dict(SMALL_DOC, preset=dict(
    SMALL_DOC["preset"], q={"n": 32, "origin": -7.85, "spacing": 0.5}))


@pytest.mark.parametrize("argv, routes", [
    (["spectrum"], [(64, *SPLIT)]),
    (["spectrum", "--config", "offset.json"],
     [(32, "CirculantPlusDiagonal", False, True)]),
    (["subspace"], [(64, *SPLIT)]),
    (["run", "--config", "scenarios/oscillator_jump.json"], [(32, *SPLIT)]),
    (["check", "--suite", "commutators"], []),
    (["check", "--suite", "constraint1"], [(64, *SPLIT), (32, *SPLIT)]),
    (["check", "--suite", "constraint2"], [(64, *SPLIT)]),
    (["check", "--suite", "generalized"], [(32, *SPLIT)]),
    (["check", "--suite", "uncertainty"], []),
    (["check", "--suite", "ladder"], [(64, *SPLIT)]),
], ids=["spectrum", "spectrum-offset", "subspace", "run", "commutators",
        "constraint1", "constraint2", "generalized", "uncertainty", "ladder"])
def test_each_command_solves_on_its_route(capsys, monkeypatch, tmp_path,
                                          argv, routes):
    # (order, input type, split, matrix formed by the solve) of every
    # eig_hermitian call a command makes.  Every Hamiltonian and clock on a
    # mirrored grid splits from its closed form and forms no matrix, and
    # the sample and Fourier operators keep their pairs, so no command
    # solves a matrix whole there; a Hamiltonian on an offset grid is
    # formed and solved whole
    root = Path(__file__).resolve().parents[1]
    offset = tmp_path / "offset.json"
    offset.write_text(json.dumps(OFFSET_DOC), encoding="utf-8")
    argv = [str(root / a) if a.startswith("scenarios/")
            else str(offset) if a == "offset.json" else a for a in argv]
    calls = []
    eig_hermitian = chronos.linalg.eig_hermitian

    def recorded(op):
        unformed = isinstance(op, CirculantPlusDiagonal) \
            and "matrix" not in vars(op)
        system = eig_hermitian(op)
        calls.append((op.dim, type(op).__name__, system._split is not None,
                      unformed and "matrix" in vars(op)))
        return system

    monkeypatch.setattr(chronos.linalg, "eig_hermitian", recorded)
    assert run_cli(capsys, *argv)[0] == 0
    assert calls == routes


def test_check_suite_table(capsys):
    code, out, _ = run_cli(capsys, "check", "--suite", "ladder")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "name,measured,bound,status"
    assert all(line.endswith(",pass") for line in lines[1:])


def test_check_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "check", "--suite", "nope")
    assert code == 2
    assert "unknown suite" in err


def test_check_reports_failure_with_exit_one(capsys, monkeypatch):
    import chronos.checks as checks
    from chronos.checks import CheckRow

    def fake_run_suite(name, constants=None, constraint_tol=None):
        rows = [CheckRow("synthetic_gap", 2.0, 1.0, "<=")]
        return rows, False

    # check reads run_suite from its module when it runs
    monkeypatch.setattr(checks, "run_suite", fake_run_suite)
    code, out, _ = run_cli(capsys, "check", "--suite", "ladder")
    assert code == 1
    assert "synthetic_gap,2,1,fail" in out


def test_run_trajectory_csv(capsys, small_config):
    code, out, _ = run_cli(capsys, "run", "--config", small_config)
    assert code == 0
    lines = out.splitlines()
    head = "step_index,kind,q_mean,p_mean,energy_mean,residual1,subspace_weight"
    assert lines[0].startswith(head)
    tail = lines[0][len(head):]
    assert tail.startswith(",p0,p1")
    assert len(lines) == 4  # init + two steps
    assert lines[1].split(",")[1] == "init"
    assert lines[2].split(",")[1] == "evolve"
    assert lines[3].split(",")[1] == "jump"


def test_run_writes_out_file_with_lf(tmp_path, capsys, small_config):
    out_path = tmp_path / "run.csv"
    code, out, _ = run_cli(capsys, "run", "--config", small_config,
                           "--out", str(out_path))
    assert code == 0
    assert out == ""
    data = out_path.read_bytes()
    assert b"\r" not in data
    assert data.decode("utf-8").splitlines()[0].startswith("step_index,")


def test_run_aborts_with_partial_csv(capsys, tmp_path):
    # initial state just inside tolerance, then a long evolve: the
    # equivalence guard trips and the CSV must keep the prefix + marker
    from chronos.axes import energy_aligned_grids, energy_eigenvector
    from chronos.constraints import separable_first
    from chronos.scenario import InitialState, Scenario, Step
    from chronos.models import OSCILLATOR, ModelSpec, energy_eigensystem

    k = PhysicalConstants()
    q_grid, t_grid = energy_aligned_grids(k, n_q=32, n_t=16)
    model = ModelSpec(OSCILLATOR, k, q_grid)
    es = energy_eigensystem(model)
    solution = separable_first((float(es.values[0]), es.vector(0)), t_grid, k)
    stray = np.outer(es.vector(0), energy_eigenvector(t_grid, 1.0, k))
    amps = np.asarray(solution.amplitudes) + 1.6e-6 * stray.ravel()
    sc = Scenario(
        model=model, t_grid=t_grid,
        initial=InitialState(kind="amplitudes", amplitudes=tuple(amps)),
        steps=(Step(kind="evolve", dt=2.0),))
    path = tmp_path / "doomed.json"
    path.write_text(oracles.serialize_scenario(sc), encoding="utf-8")
    code, out, err = run_cli(capsys, "run", "--config", str(path))
    assert code == 1
    lines = out.splitlines()
    assert lines[0].startswith("step_index,")
    assert lines[1].split(",")[1] == "init"
    assert lines[-1].startswith("# aborted: ")
    assert "error" in err


# a level-0 solution evolved by 1e300: the rounding of the phase rows
# opens a gap of 0.399 between the two evolution operators
FAR_EVOLVE_DOC = {"constants": {"hbar": 1.0, "mass": 1, "c": 1, "omega": 1},
                  "model": "oscillator", "preset": "energy-aligned",
                  "initial": {"level": 0}, "steps": [{"evolve": 1e300}]}


def test_run_refuses_an_evolve_whose_operators_disagree(capsys, tmp_path):
    path = tmp_path / "far.json"
    path.write_text(json.dumps(FAR_EVOLVE_DOC), encoding="utf-8")
    code, out, err = run_cli(capsys, "run", "--config", str(path))
    assert code == 1
    assert out.splitlines()[-1].startswith("# aborted: ")
    assert "evolution operators disagree by 3.990e-01" in err


@pytest.mark.parametrize("doc, dt", [
    # dt / hbar overflows
    ({"constants": {"hbar": 1e-10, "mass": 1, "c": 1, "omega": 1},
      "model": "oscillator", "preset": "energy-aligned",
      "initial": {"level": 0}, "steps": [{"evolve": 1e300}]}, "1e+300"),
    # dt times the band edge pi / 0.001 overflows
    ({"constants": {"hbar": 1, "mass": 1, "c": 1, "omega": 1},
      "model": "oscillator",
      "preset": {"q": {"n": 16, "origin": -4, "spacing": 0.5},
                 "t": {"n": 16, "origin": 0, "spacing": 0.001}},
      "initial": {"amplitudes": [[1, 0]] + [[0, 0]] * 255},
      "steps": [{"evolve": 1e306}]}, "1e+306"),
], ids=["hbar", "band"])
def test_run_refuses_an_evolve_whose_phases_overflow(capsys, tmp_path, doc,
                                                     dt):
    # refused as a field before any step: no CSV, and no numpy warning
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "run", "--config", str(path))
    assert (code, out) == (2, "")
    assert err == "error: steps[0].evolve: the phases of an evolve by %s " \
        "overflow\n" % dt


def test_subspace_table(capsys, small_config):
    code, out, _ = run_cli(capsys, "subspace", "--config", small_config)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "index,label,residual"
    labels = [float(line.split(",")[1]) for line in lines[1:]]
    assert labels == sorted(labels)
    assert labels[0] == pytest.approx(0.5, abs=1e-6)
    for line in lines[1:]:
        assert float(line.split(",")[2]) < 1e-6


def test_subspace_solves_only_the_hamiltonian(monkeypatch, capsys):
    # the energy operator keeps the Fourier pair it is built from, so the
    # one eigensolve of `subspace` is the Hamiltonian's
    solves = []
    eig_hermitian = chronos.linalg.eig_hermitian
    monkeypatch.setattr(chronos.linalg, "eig_hermitian",
                        lambda op: solves.append(op) or eig_hermitian(op))
    assert run_cli(capsys, "subspace")[0] == 0
    assert len(solves) == 1


# on and beside the smallest gaps |kappa_k - E_m| of the default document,
# where rounding decides which pairs count
@pytest.mark.parametrize("tol", [1e-16, 4.440892098500626e-16, 1e-15,
                                 0.5000000000000004])
def test_subspace_lists_one_row_per_run_column(capsys, tmp_path, tol):
    doc = dict(json.loads(DEFAULT_DOCUMENT),
               tolerances={"constraint_tol": tol})
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run_cli(capsys, "subspace", "--config", str(path))
    assert code == 0
    rows = len(out.splitlines()) - 1
    code, out, _ = run_cli(capsys, "run", "--config", str(path))
    assert code == 0
    header = out.splitlines()[0].split(",")
    assert rows == len([c for c in header if c[0] == "p" and c[1:].isdigit()])
    _, out, _ = run_cli(capsys, "check", "--suite", "constraint1",
                        "--config", str(path))
    assert "level_count_gap,0,0,pass" in out.splitlines()


# the free particle on a 0.001-spaced q grid has levels up to about
# 4.9e6; its eigenbasis is certified relative to that scale, by the
# eigensolve, so the document runs with no tolerance of its own
STIFF_DOC = {
    "constants": {"hbar": 1.0, "mass": 1.0, "c": 1.0, "omega": 1.0},
    "preset": {
        "q": {"n": 128, "origin": -0.064, "spacing": 0.001},
        "t": {"n": 64, "origin": 0.0, "spacing": 4.0 * np.pi / 64},
    },
    "model": "free_particle",
    "initial": {"level": 0},
    "steps": [],
}


def test_stiff_hamiltonian_runs_with_no_tolerances(capsys, tmp_path):
    assert "tolerances" not in STIFF_DOC
    path = tmp_path / "stiff.json"
    path.write_text(json.dumps(STIFF_DOC), encoding="utf-8")
    code, out, err = run_cli(capsys, "run", "--config", str(path))
    assert (code, err) == (0, "")
    assert out.startswith("step_index,kind,")
    assert out.splitlines()[1].startswith("0,init,")


def test_eigen_tol_is_an_unknown_key(capsys, tmp_path):
    # run keeps no certificate of its own, so it takes no bound for one
    path = tmp_path / "eigen_tol.json"
    path.write_text(json.dumps(dict(SMALL_DOC,
                                    tolerances={"eigen_tol": 1e-7})),
                    encoding="utf-8")
    for argv in (["run"], ["subspace"], ["spectrum"]):
        code, out, err = run_cli(capsys, *argv, "--config", str(path))
        assert (code, out) == (2, "")
        assert err == "error: tolerances: unknown key 'eigen_tol'\n"


def far_origin_doc(origin):
    """The default document's constants and 64-point q grid, with a
    32-point time grid of period 4 pi starting at origin."""
    return dict(json.loads(DEFAULT_DOCUMENT), preset={
        "q": {"n": 64, "origin": -10.0, "spacing": 20.0 / 64},
        "t": {"n": 32, "origin": origin, "spacing": 4.0 * np.pi / 32}})


@pytest.mark.parametrize("command", ["run", "subspace"])
@pytest.mark.parametrize("origin, code", [
    (0.0, 0), (1e4, 0), (1e5, 0), (1e6, 3), (1e9, 3)])
def test_far_origin_time_grid_is_refused_by_every_fourier_reader(
        capsys, tmp_path, command, origin, code):
    # the Fourier map's phases lose digits as the origin grows: its
    # unitary defect is about 3e-11 at 1e5, 2.2e-10 at 1e6 and 2.8e-7 at
    # 1e9.  At 1e9 the first constraint's 8 members would miss
    # constraint_tol, with residuals of 1.1e-6 to 2.4e-6
    path = tmp_path / "far.json"
    path.write_text(json.dumps(far_origin_doc(origin)), encoding="utf-8")
    got, out, err = run_cli(capsys, command, "--config", str(path))
    assert got == code
    if code == 3:
        assert out == ""
        assert err.startswith(
            "error: the time grid's Fourier map has unitary defect ")
        assert err.endswith(", above 1e-10\n")
        return
    assert err == ""
    rows = out.splitlines()[1:]
    if command == "subspace":
        assert len(rows) == 8
        assert all(float(row.split(",")[2]) <= DEFAULT_TOL for row in rows)
    else:
        assert rows[0].startswith("0,init,")


def scaled_constants(constants, a, b, c):
    """constants in units of length, time and mass scaled by 2^a, 2^b and
    2^c, each multiplied by its power of two, exactly."""
    powers = {"hbar": c + 2 * a - b, "mass": c, "c": a - b, "omega": -b}
    return {name: np.ldexp(value, powers[name])
            for name, value in constants.items()}


def change_units(doc, a, b, c):
    """doc, which gives no tolerances, in units of length, time and mass
    scaled by 2^a, 2^b and 2^c: every number, and the default
    constraint_tol as an energy, multiplied by its power of two, exactly."""
    energy = c + 2 * a - 2 * b
    return dict(
        doc,
        constants=scaled_constants(doc["constants"], a, b, c),
        preset={axis: {key: value if key == "n" else np.ldexp(value, e)
                       for key, value in doc["preset"][axis].items()}
                for axis, e in (("q", a), ("t", b))},
        steps=[{"evolve": np.ldexp(step["evolve"], b)} if "evolve" in step
               else {"jump": dict(step["jump"],
                                  at=np.ldexp(step["jump"]["at"], b))}
               for step in doc["steps"]],
        tolerances={"constraint_tol": np.ldexp(DEFAULT_TOL, energy)})


FREE_EVOLVE_DOC = dict(SMALL_DOC, model="free_particle",
                       steps=[{"evolve": 1.0}, {"evolve": -0.375}])


@pytest.mark.parametrize("name, a, b, c", [
    ("free", 3, -7, 4), ("jump", 1, -1, 2), ("jump", -2, 5, -3)])
def test_run_keeps_its_output_under_a_change_of_units(capsys, tmp_path,
                                                      name, a, b, c):
    # every cell scales by exactly its power of two: positions by 2^a,
    # momenta by 2^(c+a-b), energies and residuals by 2^(c+2a-2b), and
    # weights and probabilities not at all
    root = Path(__file__).resolve().parents[1]
    doc = FREE_EVOLVE_DOC if name == "free" else json.loads(
        (root / "scenarios" / "oscillator_jump.json").read_text("utf-8"))
    factors = {"q_mean": a, "p_mean": c + a - b,
               "energy_mean": c + 2 * a - 2 * b,
               "residual1": c + 2 * a - 2 * b}
    outputs = []
    for d in (doc, change_units(doc, a, b, c)):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(d), encoding="utf-8")
        outputs.append(run_cli(capsys, "run", "--config", str(path)))
    (code, out, err), (scaled_code, scaled_out, scaled_err) = outputs
    assert (scaled_code, scaled_err) == (code, err) == (0, "")
    rows = [line.split(",") for line in out.splitlines()]
    scaled_rows = [line.split(",") for line in scaled_out.splitlines()]
    assert len(scaled_rows) == len(rows) == len(doc["steps"]) + 2
    assert scaled_rows[0] == rows[0]
    for row, scaled_row in zip(rows[1:], scaled_rows[1:]):
        assert scaled_row[:2] == row[:2]
        for column, cell, scaled in zip(rows[0][2:], row[2:], scaled_row[2:]):
            assert float(scaled) == np.ldexp(float(cell),
                                             factors.get(column, 0)), column


@pytest.mark.parametrize("a, b, c", [(0, 0, 0), (1, -1, 2), (-2, 5, -3),
                                     (3, -7, 4), (0, 20, 0), (20, 0, 0)])
def test_constraint1_passes_under_a_change_of_units(capsys, tmp_path,
                                                    a, b, c):
    # constraint_tol is an energy, scaled as one; the span rows compare a
    # dimensionless gap with a dimensionless bound, so neither the
    # tolerance nor the unit system changes their verdict
    doc = json.loads(DEFAULT_DOCUMENT)
    constants = scaled_constants(doc["constants"], a, b, c)
    path = tmp_path / "doc.json"
    for tol in (DEFAULT_TOL, 1e-300, 0.5):
        tolerances = {"constraint_tol": np.ldexp(tol, c + 2 * a - 2 * b)}
        path.write_text(json.dumps(dict(doc, constants=constants,
                                        tolerances=tolerances)),
                        encoding="utf-8")
        code, out, err = run_cli(capsys, "check", "--suite", "constraint1",
                                 "--config", str(path))
        assert (code, err) == (0, ""), (tol, out)


def test_subspace_has_no_tolerance_option(capsys):
    # the document's constraint_tol is the one source of the tolerance
    code, out, _ = run_cli(capsys, "subspace", "--help")
    assert code == 0 and "--tol" not in out
    code, out, err = run_cli(capsys, "subspace", "--tol", "1e-3")
    assert code == 2
    assert out == ""
    assert "--tol" in err


# 16 points of 0.9: the grid's levels miss the lattice by 1e-6 to 0.05
COARSE_DOC = dict(SMALL_DOC, steps=[], preset={
    "q": {"n": 16, "origin": -7.2, "spacing": 0.9},
    "t": SMALL_DOC["preset"]["t"]})


def _subspace_of(capsys, tmp_path, text):
    path = tmp_path / "subspace.json"
    path.write_text(text, encoding="utf-8")
    return run_cli(capsys, "subspace", "--config", str(path))


def _subspace_rows(capsys, tmp_path, doc):
    code, out, err = _subspace_of(capsys, tmp_path, json.dumps(doc))
    assert (code, err) == (0, "")
    return out.splitlines()[1:]


def test_subspace_takes_its_tolerance_from_the_document(capsys, tmp_path):
    from chronos.constraints import (
        first_constraint_operator,
        physical_subspace,
    )
    from chronos.models import hamiltonian
    from chronos.scenario import parse_scenario
    doc = dict(COARSE_DOC, tolerances={"constraint_tol": 0.05})
    sc = parse_scenario(json.dumps(doc))
    basis = physical_subspace(first_constraint_operator(
        hamiltonian(sc.model), sc.t_grid, sc.model.constants), 0.05)
    assert basis.count == 4
    assert _subspace_rows(capsys, tmp_path, doc) == [
        "%d,%.17g,%.17g" % (i, label, residual) for i, (label, residual)
        in enumerate(zip(basis.labels, basis.residuals))]
    # the default 1e-6 admits none of these levels
    assert _subspace_rows(capsys, tmp_path, COARSE_DOC) == []


def _subspace_with_tolerance(capsys, tmp_path, token):
    # token is the constraint_tol exactly as the file spells it
    text = json.dumps(dict(SMALL_DOC, tolerances={"constraint_tol": "TOL"}))
    return _subspace_of(capsys, tmp_path, text.replace('"TOL"', token))


def test_subspace_tolerance_guard(capsys, tmp_path):
    # Scenario refuses the document's tolerance; the command has no check
    for token in ("0", "-1e-6"):
        code, out, err = _subspace_with_tolerance(capsys, tmp_path, token)
        assert code == 2
        assert out == ""
        assert "tolerances.constraint_tol" in err


@pytest.mark.parametrize("tol", ["NaN", "1e999", "-1e999"],
                         ids=["nan", "inf", "-inf"])
def test_subspace_rejects_non_finite_tolerance(capsys, tmp_path, tol):
    # nan once slipped past the sign check and printed an empty table;
    # inf listed every product pair
    code, out, err = _subspace_with_tolerance(capsys, tmp_path, tol)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "finite" in err


def test_usage_errors(capsys):
    assert run_cli(capsys, )[0] == 2
    assert run_cli(capsys, "warp")[0] == 2
    assert run_cli(capsys, "run")[0] == 2  # --config is required


def test_missing_config_is_io_error(capsys):
    code, _, err = run_cli(capsys, "run", "--config", "/nonexistent.json")
    assert code == 1
    assert "error" in err


def test_malformed_config_is_usage_error(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{", encoding="utf-8")
    code, _, err = run_cli(capsys, "run", "--config", str(path))
    assert code == 2


def test_config_that_is_not_utf8_is_usage_error(capsys, tmp_path):
    path = tmp_path / "latin.json"
    path.write_bytes(b'{"constants": \xff}')
    code, out, err = run_cli(capsys, "spectrum", "--config", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: not valid UTF-8: ")
    assert err.count("\n") == 1


# level starts that miss the energy lattice: level 1 of a 32-point box by
# 2.84e-9, level 0 on the time-aligned preset by 0.089
OFF_LATTICE_STARTS = {
    "near": dict(SMALL_DOC, preset={
        "q": {"n": 32, "origin": -10.0, "spacing": 0.625},
        "t": {"n": 16, "origin": 0.0, "spacing": 0.7853981633974483}},
        initial={"level": 1},
        steps=[{"evolve": 1.0}, {"jump": {"from": 1, "to": 3, "at": 1.5}}]),
    "far": dict(SMALL_DOC, preset="time-aligned", steps=[{"evolve": 1.0}]),
}


@pytest.mark.parametrize("name", sorted(OFF_LATTICE_STARTS))
def test_run_of_an_off_lattice_start_writes_nothing_to_stderr(tmp_path, name):
    # the CSV's residual1 and subspace_weight report the miss; a fresh
    # interpreter, so no warning registry hides a repeat
    path = tmp_path / "start.json"
    path.write_text(json.dumps(OFF_LATTICE_STARTS[name]), encoding="utf-8")
    child = subprocess.run(
        [sys.executable, "-m", "chronos", "run", "--config", str(path)],
        capture_output=True, text=True, env=_child_env())
    assert (child.returncode, child.stderr) == (0, "")
    row0 = child.stdout.splitlines()[1].split(",")
    residual1, weight = float(row0[5]), float(row0[6])
    if name == "near":
        assert residual1 < 1e-6 and weight == pytest.approx(1.0)
    else:
        assert residual1 > 0.1 and weight == 0.0


def test_invalid_schema_reports_field(capsys, tmp_path):
    doc = dict(SMALL_DOC)
    doc["initial"] = {"level": 99}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run_cli(capsys, "run", "--config", str(path))
    assert code == 2
    assert "initial.level" in err


def _console_script_spec():
    """The ``module:attr`` target of the ``chronos`` console script.

    Read from ``[project.scripts]`` in this checkout's pyproject.toml.
    Python 3.10 has no ``tomllib``: there the installed distribution's
    entry-point metadata is used, and without one the ``tomli`` backport.
    """
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        from importlib import metadata
        try:
            dist = metadata.distribution("chronos")
        except metadata.PackageNotFoundError:
            tomllib = pytest.importorskip("tomli")
        else:
            for ep in dist.entry_points:
                if ep.group == "console_scripts" and ep.name == "chronos":
                    return ep.value
            pytest.fail("installed chronos declares no 'chronos' script")
    with pyproject.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["chronos"]


def _child_env():
    """Environment whose PYTHONPATH puts the package under test first."""
    root = str(Path(chronos.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    path = root if not inherited else os.pathsep.join([root, inherited])
    return dict(os.environ, PYTHONPATH=path)


@pytest.mark.parametrize("doc, argv, code", [
    (SMALL_DOC, ["spectrum", "--levels", "2"], 0),
    (FAR_EVOLVE_DOC, ["run"], 1),
    (dict(SMALL_DOC, initial={"level": -1}), ["run"], 2),
    (dict(SMALL_DOC, preset=dict(SMALL_DOC["preset"], t=dict(
        SMALL_DOC["preset"]["t"], origin=1e9))), ["run"], 3),
], ids=["spectrum", "aborted-run", "invalid-document", "far-origin"])
def test_console_script_and_module_entry_agree(tmp_path, doc, argv, code):
    # each exit, including the flush of a partial CSV and its diagnostic
    # after the entry point has frozen the heap
    config = tmp_path / "doc.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    args = [*argv, "--config", str(config)]
    env = _child_env()
    module_name, _, attr = _console_script_spec().partition(":")
    # the same call pip's generated console-script wrapper makes
    wrapper = (f"import sys; from {module_name} import {attr}; "
               f"sys.exit({attr}())")
    module = subprocess.run([sys.executable, "-m", "chronos", *args],
                            capture_output=True, text=True, env=env)
    assert module.returncode == code, module.stderr
    if code == 1:
        assert module.stdout.startswith("step_index,kind,")
        assert module.stdout.splitlines()[-1].startswith("# aborted: ")
    elif code == 3:
        assert module.stdout == ""
        assert module.stderr.startswith(
            "error: the time grid's Fourier map has unitary defect ")
    runs = {"entry point": [sys.executable, "-c", wrapper, *args]}
    installed = shutil.which("chronos")
    if installed is not None:
        runs["installed script " + installed] = [installed, *args]
    for label, cmd in runs.items():
        child = subprocess.run(cmd, capture_output=True, text=True, env=env)
        assert (child.returncode, child.stdout, child.stderr) \
            == (module.returncode, module.stdout, module.stderr), label


def test_package_import_loads_no_submodule_and_no_numpy():
    # the entry point pins BLAS threads only while numpy is not yet loaded
    probe = ("import sys, chronos; print(sorted(m for m in sys.modules "
             "if m.startswith('chronos.') or m == 'numpy'))")
    child = subprocess.run([sys.executable, "-c", probe],
                           capture_output=True, text=True, env=_child_env())
    assert child.returncode == 0, child.stderr
    assert child.stdout == "[]\n"


def _modules_loaded(*argv):
    """Exit code and the modules `python -m chronos *argv` imports, as
    listed by -X importtime."""
    child = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "chronos", *argv],
        capture_output=True, text=True, env=_child_env())
    names = {line.rpartition("|")[2].strip()
             for line in child.stderr.splitlines()
             if line.startswith("import time:")}
    return child.returncode, names


@pytest.mark.parametrize("argv, code", [
    (["spectrum", "--help"], 0), (["check", "--help"], 0),
    (["run", "--help"], 0), (["subspace", "--help"], 0),
    (["run"], 2),  # --config missing
], ids=["spectrum-help", "check-help", "run-help", "subspace-help",
        "usage-error"])
def test_parsing_loads_no_numpy_and_no_command_module(argv, code):
    exit_code, names = _modules_loaded(*argv)
    assert exit_code == code
    assert "numpy" not in names
    assert {n for n in names if n.startswith("chronos.")} \
        == {"chronos.cli", "chronos.exceptions"}


@pytest.mark.parametrize("argv, unused", [
    (["spectrum"], {"constraints", "dynamics", "checks"}),
    (["subspace"], {"dynamics", "checks"}),
    (["run", "--config", "scenarios/oscillator_jump.json"], {"checks"}),
], ids=["spectrum", "subspace", "run"])
def test_each_command_loads_only_its_own_modules(argv, unused):
    root = Path(__file__).resolve().parents[1]
    argv = [str(root / a) if a.startswith("scenarios/") else a for a in argv]
    code, names = _modules_loaded(*argv)
    assert code == 0
    assert "numpy" in names
    assert not names & {"chronos." + m for m in unused}


def test_importing_entry_module_runs_nothing():
    child = subprocess.run([sys.executable, "-c", "import chronos.__main__"],
                           capture_output=True, text=True, env=_child_env())
    assert (child.returncode, child.stdout, child.stderr) == (0, "", "")


# in a child, so that this process's heap is never frozen
FREEZE_PROBE = """
import contextlib, gc, io, sys
caller, sys.argv = sys.argv[1], ["chronos", *sys.argv[2:]]
if caller == "library":
    from chronos.cli import main
    call = lambda: main(sys.argv[1:])
else:
    from chronos.__main__ import main as call
with contextlib.redirect_stdout(io.StringIO()), \\
        contextlib.redirect_stderr(io.StringIO()):
    code = call()
print(code, gc.get_freeze_count() > 0)
"""


@pytest.mark.parametrize("caller, argv, code, frozen", [
    ("library", ["check", "--suite", "ladder"], 0, False),
    ("entry", ["check", "--suite", "ladder"], 0, True),
    ("entry", ["run"], 2, True),  # --config missing
], ids=["library", "entry-success", "entry-usage-error"])
def test_only_the_entry_point_freezes_the_heap(caller, argv, code, frozen):
    child = subprocess.run(
        [sys.executable, "-c", FREEZE_PROBE, caller, *argv],
        capture_output=True, text=True, env=_child_env())
    assert (child.returncode, child.stderr) == (0, "")
    assert child.stdout == "%d %s\n" % (code, frozen)


@pytest.mark.parametrize("suite", ["constraint1", "ladder"])
def test_check_defaults_match_default_config(capsys, tmp_path, suite):
    doc = dict(SMALL_DOC, constants=asdict(PhysicalConstants()),
               tolerances={"constraint_tol": DEFAULT_TOL})
    path = tmp_path / "defaults.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    bare = run_cli(capsys, "check", "--suite", suite)
    configured = run_cli(capsys, "check", "--suite", suite,
                         "--config", str(path))
    assert bare[0] == 0
    assert configured == bare


def test_diagnostic_is_one_plain_line_on_a_tty(capsys, monkeypatch):
    class Terminal(io.StringIO):
        def isatty(self):
            return True

    terminal = Terminal()
    monkeypatch.setattr(sys, "stderr", terminal)
    assert main(["check", "--suite", "nope"]) == 2
    assert capsys.readouterr().out == ""
    lines = terminal.getvalue().split("\n")
    assert len(lines) == 2 and lines[1] == ""
    assert lines[0].startswith("error: ") and "nope" in lines[0]
    assert "\x1b" not in lines[0]


def test_result_table_refuses_a_short_row():
    with pytest.raises(ValueError, match="row width 1, table width 2"):
        ResultTable(["a", "b"]).add(1)
