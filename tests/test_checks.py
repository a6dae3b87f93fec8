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

from chronos import checks
from chronos.axes import (
    TIME,
    AxisGrid,
    CompositeState,
    PhysicalConstants,
    lift_system,
)
from chronos.checks import SUITES, run_suite
from chronos.cli import main
from chronos.constraints import (
    FIRST,
    GENERALIZED,
    generalized_constraint_operator,
)
from chronos.exceptions import UnknownSuiteError
from chronos.linalg import EigenSystem
from chronos.models import OSCILLATOR, ModelSpec, harmonic_hamiltonian

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
    # band edge; every pair must be counted and solved at its lattice energy
    rows, all_passed = run_suite("constraint1", constraint_tol=0.6)
    failing = [(r.name, r.measured, r.bound) for r in rows if not r.passed]
    assert all_passed and not failing, failing
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


@pytest.mark.parametrize("name, limit_mb", [("constraint1", 4.0),
                                            ("generalized", 6.0)])
def test_suite_allocation_peak(name, limit_mb):
    # subspaces are compared through their member matrices: two dense
    # 2048 x 2048 projectors took 129 MB in constraint1, and two 512 x 512
    # ones with their difference 12.9 MB in generalized
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
    f = lift_system(harmonic_hamiltonian(ModelSpec(OSCILLATOR, k, qg)), tg.n)
    a = generalized_constraint_operator(1.0, 0.0, f, tg, k)
    b = generalized_constraint_operator(1.0 + 1e-9, 0.0, f, tg, k)
    probes = list(checks._probe_states(qg.n * tg.n))
    assert len(probes) == 20
    for probe in probes:
        assert np.linalg.norm(probe) == pytest.approx(1.0, abs=1e-15)
        assert abs(a.residual(probe) - b.residual(probe)) > 1e-12


def test_generalized_suite_loads_no_random_module():
    code = ("import sys\n"
            "from chronos.checks import run_suite\n"
            "assert run_suite('generalized')[1]\n"
            "print('numpy.random' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


@pytest.mark.parametrize("suite, kind, rows", [
    ("constraint1", FIRST, {"span_gap_max"}),
    ("generalized", GENERALIZED,
     {"reduction_projector_gap", "tolerance_nesting_gap"}),
])
def test_nan_in_a_basis_fails_the_rows_that_read_it(monkeypatch, suite, kind,
                                                    rows):
    solve = checks.physical_subspace

    def poisoned(op, tol):
        basis = solve(op, tol)
        if op.kind != kind or not basis.count:
            return basis
        first = np.array(basis.members[0].amplitudes)
        first[len(first) // 2] = np.nan
        member = CompositeState(first, op.n_q, op.n_t, normalized=False)
        return dataclasses.replace(
            basis, members=(member,) + basis.members[1:])

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


def _nan_second_member(basis):
    members = basis.members[:1] + (_nan_state(basis.members[1]),) \
        + basis.members[2:]
    return dataclasses.replace(basis, members=members)


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
    # the third subspace solve is the one at the tighter tolerance
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
