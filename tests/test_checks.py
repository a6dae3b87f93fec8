"""The bundled verification suites must all pass on their own grids."""

import ast
import dataclasses
import itertools
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import chronos.linalg
from chronos import checks
from chronos.axes import (
    TIME,
    AxisGrid,
    CompositeState,
    PhysicalConstants,
    energy_aligned_grids,
    time_aligned_grids,
)
from chronos.checks import SUITES, run_suite
from chronos.cli import main
from chronos.constraints import generalized_constraint_operator
from chronos.exceptions import UnknownSuiteError
from chronos.linalg import EigenSystem
from chronos.models import (
    OSCILLATOR,
    ModelSpec,
    clock_scale,
    harmonic_hamiltonian,
)

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def test_suite_registry_names():
    assert set(SUITES) == {
        "commutators", "constraint1", "constraint2",
        "generalized", "uncertainty", "ladder",
    }


def test_unknown_suite_is_refused():
    with pytest.raises(UnknownSuiteError):
        run_suite("resonance")


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_passes(name):
    rows, all_passed = run_suite(name)
    assert rows, "suite %s produced no rows" % name
    failing = [(r.name, r.measured, r.bound) for r in rows if not r.passed]
    assert all_passed and not failing, failing


def test_rows_have_stable_shape():
    rows, _ = run_suite("commutators")
    names = [r.name for r in rows]
    assert len(names) == len(set(names))
    for row in rows:
        assert row.relation in ("<=", ">=")
        assert isinstance(row.measured, float)
        assert isinstance(row.bound, float)


def test_constraint1_passes_at_wide_tolerance(tmp_path, capsys):
    # at tol 0.6 each level meets three lattice energies, one of them the
    # band edge; every pair must be counted and solved at its lattice energy.
    # The same holds for the other kernel suites: constraint2 counts
    # (level, sample) pairs and the detuned generalized kernel is no longer
    # empty, at 0.6 and at 1.2
    for suite in ("constraint1", "constraint2", "generalized"):
        for tol in (0.6, 1.2):
            rows, all_passed = run_suite(suite, constraint_tol=tol)
            failing = [(r.name, r.measured, r.bound)
                       for r in rows if not r.passed]
            assert all_passed and not failing, (suite, tol, failing)
    config = tmp_path / "wide.json"
    config.write_text(json.dumps({
        "constants": {"hbar": 1.0, "mass": 1.0, "c": 1.0, "omega": 1.0},
        "preset": "energy-aligned", "model": "oscillator",
        "initial": {"level": 0}, "steps": [],
        "tolerances": {"constraint_tol": 0.6}}))
    code = main(["check", "--suite", "constraint1", "--config", str(config)])
    out = capsys.readouterr().out
    assert code == 0, out
    assert ",fail" not in out


def _floor():
    # the rounding floor of constraint1's residual rows, default constants
    k = PhysicalConstants()
    return checks.RESIDUAL_ROUNDING_EPS * np.finfo(float).eps \
        * ModelSpec(OSCILLATOR, k, energy_aligned_grids(k)[0]).energy_bound


@pytest.mark.parametrize("tol", [1e-16, 0.5000000000000004])
def test_constraint1_residuals_carry_a_rounding_floor(tol):
    # the energy-aligned pairs' residuals carry about 4e-14 of rounding, so
    # at 1e-16 the bare tolerance failed them though every level was
    # counted; at 0.5000000000000004 a pair 0.5 apart measured
    # 0.5000000000000053.  Each bound is tol plus the one rounding floor
    rows, all_passed = run_suite("constraint1", constraint_tol=tol)
    assert all_passed, [(r.name, r.measured, r.bound) for r in rows]
    bounds = {r.name: r.bound for r in rows}
    assert bounds["separable_residual_max"] == tol + _floor()
    assert bounds["member_residual_max"] == tol + _floor()


def _member_row(monkeypatch, suite, tol, residual):
    # the suite's member_residual_max row, and whether the suite passed,
    # with one member's residual in every basis raised to `residual`
    real = checks.physical_subspace

    def missing(*args):
        basis = real(*args)
        residuals = (basis.residuals[:1] + (residual,)
                     + basis.residuals[2:])
        return dataclasses.replace(basis, residuals=residuals)

    monkeypatch.setattr(checks, "physical_subspace", missing)
    rows, all_passed = run_suite(suite, constraint_tol=tol)
    return {r.name: r for r in rows}["member_residual_max"], all_passed


@pytest.mark.parametrize("miss, passed", [(0.5, True), (1.5, False)])
def test_constraint1_member_beyond_the_floor_fails(monkeypatch, miss,
                                                   passed):
    # one member's residual raised to tol plus miss rounding floors
    tol, floor = 1e-16, _floor()
    row, all_passed = _member_row(monkeypatch, "constraint1", tol,
                                  tol + miss * floor)
    assert row.measured == tol + miss * floor
    assert row.passed == all_passed == passed


def _clock_floor():
    # the rounding floor of constraint2's member row, default constants:
    # eps of the larger of the clock bound and the time grid's reach
    k = PhysicalConstants()
    qg, tg = time_aligned_grids(k, n_t=16)
    model = ModelSpec(OSCILLATOR, k, qg)
    return checks.RESIDUAL_ROUNDING_EPS * np.finfo(float).eps * float(
        np.maximum(clock_scale(model) * model.energy_bound, tg.reach))


@pytest.mark.parametrize("tol", [1e-16, 4.44e-16, 1e-15, 0.5000000000000004])
def test_constraint2_members_carry_a_rounding_floor(tol):
    # the clock members' residuals carry about 4e-14 of rounding, so at the
    # three smallest tolerances the bare 2 tol failed them though every
    # level was counted.  The bound is tol plus the one rounding floor
    rows, all_passed = run_suite("constraint2", constraint_tol=tol)
    assert all_passed, [(r.name, r.measured, r.bound) for r in rows]
    bounds = {r.name: r.bound for r in rows}
    assert bounds["member_residual_max"] == tol + _clock_floor()


@pytest.mark.parametrize("miss, passed", [(0.5, True), (1.5, False)])
def test_constraint2_member_beyond_the_floor_fails(monkeypatch, miss,
                                                   passed):
    tol, floor = 1e-16, _clock_floor()
    row, all_passed = _member_row(monkeypatch, "constraint2", tol,
                                  tol + miss * floor)
    assert row.measured == tol + miss * floor
    assert row.passed == all_passed == passed


@pytest.mark.parametrize("name, limit_mb", [("constraint1", 4.0),
                                            ("generalized", 1.5)])
def test_suite_allocation_peak(name, limit_mb):
    # subspaces are compared through their member matrices: two dense
    # 2048 x 2048 projectors took 129 MB in constraint1, and two 512 x 512
    # ones with their difference 12.9 MB in generalized, and four 512 x 512
    # lifts of its system factors another 1.1 MB there; comparing them in
    # 128-row blocks of the difference still took 3.3 MB, and in square
    # tiles under 1 MB
    tracemalloc.start()
    try:
        run_suite(name)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit_mb * 2 ** 20


def test_probes_see_a_relative_change_in_coeff_s():
    # the reduction rows compare residuals on the fixed probes against a
    # 1e-12 bound; a 1e-9 relative change of c_s must show on every probe
    k = PhysicalConstants()
    qg = AxisGrid(n=32, origin=-8.0, spacing=0.5, label="position")
    period = 4.0 * np.pi / k.omega
    tg = AxisGrid(n=16, origin=0.0, spacing=period / 16, label=TIME)
    h = harmonic_hamiltonian(ModelSpec(OSCILLATOR, k, qg))
    a = generalized_constraint_operator(1.0, 0.0, h, tg, k)
    b = generalized_constraint_operator(1.0 + 1e-9, 0.0, h, tg, k)
    probes = list(checks._probe_states(qg.n * tg.n))
    assert len(probes) == 20
    for probe in probes:
        assert np.linalg.norm(probe) == pytest.approx(1.0, abs=1e-15)
        assert abs(a.residual(probe) - b.residual(probe)) > 1e-12


def test_constraint1_span_gap_keeps_its_bits():
    # SubspaceBasis.span_gaps stacks the separable solutions as the suite
    # stacked them itself, so the measured cell keeps every bit; the child
    # pins BLAS to one thread through the entry point
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-m", "chronos", "check", "--suite", "constraint1"],
        env=env, check=True, capture_output=True, text=True).stdout
    assert "span_gap_max,1.4621493111199743e-15,1e-08,pass" \
        in out.splitlines()


def test_generalized_suite_loads_no_random_module():
    code = ("import sys\n"
            "from chronos.checks import run_suite\n"
            "assert run_suite('generalized')[1]\n"
            "print('numpy.random' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


@pytest.mark.parametrize("name, solves", [
    ("constraint1", 2), ("constraint2", 1), ("generalized", 1), ("ladder", 1),
    ("commutators", 0), ("uncertainty", 0)])
def test_suite_solves_each_eigensystem_once(monkeypatch, name, solves):
    # every operator a suite diagonalizes keeps its eigensystem, and the
    # model keeps its Hamiltonian: the generalized suite solves H once for
    # its four constraints and the energy eigensystem.  An energy operator,
    # and a time-axis factor c_s s_op, keeps the Fourier pair it is built
    # from, and a time operator its samples, so constraint1 solves only its
    # two Hamiltonians and constraint2 only its clock
    calls = []
    eig_hermitian = chronos.linalg.eig_hermitian

    def counted(op):
        calls.append(op)
        return eig_hermitian(op)

    for module in [m for n, m in sys.modules.items()
                   if n == "chronos" or n.startswith("chronos.")]:
        if getattr(module, "eig_hermitian", None) is eig_hermitian:
            monkeypatch.setattr(module, "eig_hermitian", counted)
    assert run_suite(name)[1]
    assert len(calls) == solves


@pytest.mark.parametrize("suite, kind, rows", [
    ("constraint1", "first", {"span_gap_max"}),
    ("generalized", "generalized",
     {"reduction_span_gap", "tolerance_nesting_gap"}),
])
def test_nan_in_a_basis_fails_the_rows_that_read_it(monkeypatch, suite, kind,
                                                    rows):
    # the bases poisoned are those of the operators the suite builds with
    # its `kind` builder
    name = kind + "_constraint_operator"
    build, built = getattr(checks, name), []

    def recorded(*args):
        built.append(build(*args))
        return built[-1]

    solve = checks.physical_subspace

    def poisoned(op, tol):
        basis = solve(op, tol)
        if not any(op is b for b in built) or not basis.count:
            return basis
        return _nan_member(basis, 0)

    monkeypatch.setattr(checks, name, recorded)
    monkeypatch.setattr(checks, "physical_subspace", poisoned)
    measured, all_passed = run_suite(suite)
    failing = {r.name for r in measured if not r.passed}
    assert not all_passed and rows <= failing
    assert all(math.isnan(r.measured) for r in measured if r.name in rows)


def _nan_state(state):
    amplitudes = np.array(state.amplitudes)
    amplitudes[len(amplitudes) // 2] = np.nan
    return CompositeState(amplitudes, state.n_q, state.n_t, normalized=False)


def _nan_second_residual(basis):
    residuals = basis.residuals[:1] + (math.nan,) + basis.residuals[2:]
    return dataclasses.replace(basis, residuals=residuals)


def _nan_member(basis, i):
    # the same basis with the middle amplitude of member i set to NaN
    vectors = np.array(basis.vectors)
    member = vectors.reshape(-1, basis.count)[:, i]
    member[member.size // 2] = np.nan
    return dataclasses.replace(basis, vectors=vectors)


def _nan_second_member(basis):
    return _nan_member(basis, 1)


def _nan_fourth_probe(probes):
    for i, probe in enumerate(probes):
        if i == 3:
            probe = np.array(probe)
            probe[len(probe) // 2] = np.nan
        yield probe


# (suite, row, name in checks, call that is poisoned, poison): each NaN
# enters one measurement that is not the first one the row folds
NAN_SOURCES = [
    ("constraint1", "separable_residual_max", "separable_first", 2,
     _nan_state),
    ("constraint1", "member_residual_max", "physical_subspace", 1,
     _nan_second_residual),
    ("constraint1", "span_gap_max", "separable_first", 2, _nan_state),
    ("constraint2", "member_residual_max", "physical_subspace", 1,
     _nan_second_residual),
    ("generalized", "first_reduction_gap", "_probe_states", 1,
     _nan_fourth_probe),
    ("generalized", "second_reduction_gap", "_probe_states", 1,
     _nan_fourth_probe),
    # the second subspace solve is basis_first's, whose members are compared
    # with basis_gen's span; the third is the one at the tighter tolerance
    ("generalized", "reduction_span_gap", "physical_subspace", 2,
     _nan_second_member),
    ("generalized", "tolerance_nesting_gap", "physical_subspace", 3,
     _nan_second_member),
    ("ladder", "up_coefficient_gap", "ladder_step_up", 4,
     lambda step: (step[0], math.nan)),
    ("ladder", "down_coefficient_gap", "ladder_step_down", 4,
     lambda step: (step[0], math.nan)),
    ("ladder", "up_overlap_min", "ladder_step_up", 4,
     lambda step: (_nan_state(step[0]), step[1])),
]


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("suite, row, name, call, poison", NAN_SOURCES,
                         ids=["%s-%s" % case[:2] for case in NAN_SOURCES])
def test_nan_in_a_later_measurement_fails_its_row(monkeypatch, suite, row,
                                                  name, call, poison):
    real = getattr(checks, name)
    calls = itertools.count(1)

    def poisoned(*args):
        out = real(*args)
        return poison(out) if next(calls) == call else out

    monkeypatch.setattr(checks, name, poisoned)
    rows, all_passed = run_suite(suite)
    measured = {r.name: r for r in rows}[row]
    assert math.isnan(measured.measured)
    assert not measured.passed and not all_passed


def test_nan_in_a_later_level_fails_the_commutator_identity(monkeypatch):
    # every level also feeds the ladder steps, so the fourth level turns NaN
    # only once the suite builds the operators for [a, a^dagger] = 1
    armed = []
    eigensystem, ladder_operators = (checks.energy_eigensystem,
                                     checks.ladder_operators)

    class LateNaN(EigenSystem):
        def vector(self, i):
            v = super().vector(i)
            return v * np.nan if armed and i == 3 else v

    def arm(es):
        armed.append(True)
        return ladder_operators(es)

    monkeypatch.setattr(checks, "energy_eigensystem",
                        lambda model: LateNaN(*dataclasses.astuple(
                            eigensystem(model))))
    monkeypatch.setattr(checks, "ladder_operators", arm)
    rows, all_passed = run_suite("ladder")
    failing = [r for r in rows if not r.passed]
    assert [r.name for r in failing] == ["commutator_identity_gap"]
    assert math.isnan(failing[0].measured) and not all_passed


def test_checks_and_dynamics_call_no_builtin_max_or_min():
    # builtin max/min drop a NaN that is not the first value; np.max,
    # np.min and np.maximum carry it
    for module in ("checks.py", "dynamics.py"):
        tree = ast.parse((SRC / "chronos" / module).read_text())
        calls = [(module, node.lineno) for node in ast.walk(tree)
                 if isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Name)
                 and node.func.id in ("max", "min")]
        assert not calls, calls
