"""Shared fixtures.

The grids, models, constraint operators and extracted bases at composite
dimension 2048 are built once per session and handed to every module that
needs them.  The exact subspace extraction takes milliseconds; what stays
costly is the dense oracle on the same operator, so each cached operator
keeps its materialized composite for every test that compares against it.
"""

import functools

import numpy as np
import pytest

from chronos.axes import (
    PhysicalConstants,
    default_position_grid,
    energy_aligned_grids,
    time_aligned_grids,
)
from chronos.constraints import (
    first_constraint_operator,
    physical_subspace,
    second_constraint_operator,
)
from chronos.linalg import CirculantPlusDiagonal
from chronos.models import (
    OSCILLATOR,
    ModelSpec,
    energy_eigensystem,
    hamiltonian,
    oscillator_clock_operator,
)


@pytest.fixture(scope="session")
def unit_constants():
    return PhysicalConstants()


@pytest.fixture(scope="session")
def default_grid(unit_constants):
    return default_position_grid(unit_constants)


@pytest.fixture(scope="session")
def energy_bundle(unit_constants):
    """Oscillator + first constraint on the energy-aligned grid pair."""
    q_grid, t_grid = energy_aligned_grids(unit_constants)
    model = ModelSpec(OSCILLATOR, unit_constants, q_grid)
    ham = hamiltonian(model)
    constraint = first_constraint_operator(ham, t_grid, unit_constants)
    basis = physical_subspace(constraint)
    return {
        "constants": unit_constants,
        "q_grid": q_grid,
        "t_grid": t_grid,
        "model": model,
        "hamiltonian": ham,
        "constraint": constraint,
        "basis": basis,
        "eigensystem": energy_eigensystem(model),
    }


@pytest.fixture(scope="session")
def time_bundle(unit_constants):
    """Oscillator + second constraint on the time-aligned grid pair."""
    q_grid, t_grid = time_aligned_grids(unit_constants, n_t=16)
    model = ModelSpec(OSCILLATOR, unit_constants, q_grid)
    clock = oscillator_clock_operator(model)
    constraint = second_constraint_operator(clock, t_grid)
    basis = physical_subspace(constraint)
    return {
        "constants": unit_constants,
        "q_grid": q_grid,
        "t_grid": t_grid,
        "model": model,
        "clock": clock,
        "constraint": constraint,
        "basis": basis,
        "eigensystem": energy_eigensystem(model),
    }


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture()
def eigh_shapes(monkeypatch):
    """Shape of every np.linalg.eigh call the test makes, in call order."""
    shapes = []
    eigh = np.linalg.eigh

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    return shapes


@pytest.fixture()
def formed_matrices(monkeypatch):
    """Order of every CirculantPlusDiagonal whose matrix the test forms."""
    formed = []
    form = CirculantPlusDiagonal.matrix.func
    matrix = functools.cached_property(
        lambda op: formed.append(op.dim) or form(op))
    matrix.__set_name__(CirculantPlusDiagonal, "matrix")
    monkeypatch.setattr(CirculantPlusDiagonal, "matrix", matrix)
    return formed


ACCEPTANCE_LABELS = {
    "test_c1_clock_spectrum_matches_half_integers": "clock spectrum",
    "test_c2_ladder_coefficients": "ladder coefficients",
    "test_c3_stationary_subspace_complete": "stationary subspace",
    "test_c4_generalized_reductions": "generalized reductions",
    "test_c5_evolution_equivalence": "evolution equivalence",
    "test_c6_energy_jump": "energy jump",
    "test_c7_commutator_pairs": "commutator pairs",
    "test_c8_uncertainty_floor": "uncertainty floor",
    "test_c9_reproducible_run": "reproducible run",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    rows = {}
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, ()):
            name = report.nodeid.rsplit("::", 1)[-1].split("[")[0]
            if name in ACCEPTANCE_LABELS:
                status = "PASS" if outcome == "passed" else "FAIL"
                rows[name] = status
    if not rows:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for index, (name, label) in enumerate(ACCEPTANCE_LABELS.items(), start=1):
        status = rows.get(name, "SKIP")
        terminalreporter.write_line("criterion %d (%s): %s" % (index, label, status))
