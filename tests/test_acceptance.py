"""Top-level acceptance gate: nine numbered criteria, one test each.

The terminal summary prints one pass/fail line per criterion (see
conftest.pytest_terminal_summary).  Bounds and time budgets are part of
the criteria and are asserted, not just observed.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from chronos.axes import (
    AxisGrid,
    PhysicalConstants,
    default_position_grid,
    energy_aligned_grids,
    gaussian_state,
    lift_system,
    lift_time,
    momentum_operator,
    position_operator,
    time_aligned_grids,
    time_operator,
    energy_operator,
)
from chronos.constraints import (
    first_constraint_operator,
    generalized_constraint_operator,
    physical_subspace,
    second_constraint_operator,
    separable_first,
    separable_second,
    uncertainty_product,
)
from chronos.dynamics import (
    energy_jump,
    ladder_step_down,
    ladder_step_up,
    time_translation,
)
from chronos.linalg import eig_hermitian, maxnorm, unitary_exp
from chronos.models import (
    OSCILLATOR,
    ModelSpec,
    energy_eigensystem,
    hamiltonian,
    oscillator_clock_operator,
    predicted_time_level,
)

import oracles

REPO = Path(__file__).resolve().parent.parent


def test_c1_clock_spectrum_matches_half_integers():
    # lowest eight clock eigenvalues on the default grid, within 1e-7
    started = time.monotonic()
    k = PhysicalConstants()
    model = ModelSpec(OSCILLATOR, k, default_position_grid(k))
    clock_values = eig_hermitian(oscillator_clock_operator(model)).values
    for n in range(8):
        assert abs(clock_values[n] - predicted_time_level(n, k)) <= 1e-7
    assert time.monotonic() - started < 5.0


def test_c2_ladder_coefficients():
    # sqrt(n+1) up and sqrt(n) down, 1e-6 relative, levels through 14
    started = time.monotonic()
    k = PhysicalConstants()
    q_grid, t_grid = time_aligned_grids(k)
    model = ModelSpec(OSCILLATOR, k, q_grid)
    es = energy_eigensystem(model)

    def aligned_solution(n):
        state, miss = separable_second((t_grid.samples[n], es.vector(n)),
                                       t_grid)
        assert miss == 0.0
        return state

    for n in range(15):
        _, coeff = ladder_step_up(aligned_solution(n), model, t_grid)
        want = oracles.ladder_matrix_elements(n, "up")
        assert abs(coeff - want) <= 1e-6 * want
    for n in range(1, 15):
        _, coeff = ladder_step_down(aligned_solution(n), model, t_grid)
        want = oracles.ladder_matrix_elements(n, "down")
        assert abs(coeff - want) <= 1e-6 * want
    zero_image, zero_coeff = ladder_step_down(aligned_solution(0), model,
                                              t_grid)
    assert zero_coeff == 0.0
    assert np.linalg.norm(zero_image.amplitudes) == 0.0
    assert time.monotonic() - started < 10.0


def test_c3_stationary_subspace_complete():
    # every lattice-matched level solves to 1e-6 and the extracted basis
    # has exactly the dimension an independent Gram eigendecomposition gives
    started = time.monotonic()
    k = PhysicalConstants()
    q_grid, t_grid = energy_aligned_grids(k)
    model = ModelSpec(OSCILLATOR, k, q_grid)
    ham = hamiltonian(model)
    op = first_constraint_operator(ham, t_grid, k)
    assert op.dim <= 4096
    es = energy_eigensystem(model)
    for n in range(8):
        state = separable_first((n + 0.5, es.vector(n)), t_grid, k)
        assert op.residual(state) <= 1e-6
    basis = physical_subspace(op, 1e-6)
    expected = oracles.small_singular_count(op.composite.matrix, 1e-6)
    assert basis.count == expected
    assert time.monotonic() - started < 60.0


def test_c4_generalized_reductions():
    # coefficient choices (1,0,F=H(x)I) and (0,1,F=G(x)I), given by their
    # system factors H and G, must reproduce the dedicated first/second
    # residuals on random states to 1e-12
    k = PhysicalConstants()
    q_grid, t_grid = energy_aligned_grids(k)
    model = ModelSpec(OSCILLATOR, k, q_grid)
    ham = hamiltonian(model)
    clock = oscillator_clock_operator(model)
    first = first_constraint_operator(ham, t_grid, k)
    first_reduced = generalized_constraint_operator(1.0, 0.0, ham, t_grid, k)
    second = second_constraint_operator(clock, t_grid)
    second_reduced = generalized_constraint_operator(0.0, 1.0, clock, t_grid,
                                                     k)
    rng = np.random.default_rng(42)
    for _ in range(100):
        state = rng.standard_normal(q_grid.n * t_grid.n) \
            + 1j * rng.standard_normal(q_grid.n * t_grid.n)
        state /= np.linalg.norm(state)
        assert abs(first.residual(state)
                   - first_reduced.residual(state)) <= 1e-12
        assert abs(second.residual(state)
                   - second_reduced.residual(state)) <= 1e-12


def test_c5_evolution_equivalence(energy_bundle):
    # on solutions the lifted Hamiltonian exponential equals the lifted
    # clock translation; far from solutions they visibly disagree
    bundle = energy_bundle
    k = bundle["constants"]
    t_grid = bundle["t_grid"]
    ham = bundle["hamiltonian"]
    basis = bundle["basis"]
    assert basis.count > 0
    for dt in (0.1, 1.0, math.pi):
        translator = time_translation(t_grid, dt)
        evolver = unitary_exp(ham, dt / k.hbar)
        for member in basis.vectors.transpose(2, 0, 1).copy():
            shifted = member @ translator.matrix.T
            evolved = evolver.matrix @ member
            assert float(np.linalg.norm(evolved - shifted)) <= 1e-6
        rng = np.random.default_rng(7)
        stray = rng.standard_normal(bundle["constraint"].dim) \
            + 1j * rng.standard_normal(bundle["constraint"].dim)
        stray /= np.linalg.norm(stray)
        stray_m = stray.reshape(bundle["q_grid"].n, t_grid.n)
        gap = float(np.linalg.norm(
            evolver.matrix @ stray_m - stray_m @ translator.matrix.T))
        assert gap > 1e-2


def test_c6_energy_jump(energy_bundle):
    bundle = energy_bundle
    k, t_grid = bundle["constants"], bundle["t_grid"]
    es = bundle["eigensystem"]
    start = separable_first((0.5, es.vector(0)), t_grid, k)
    jumped = energy_jump(start, 0, 1, bundle["model"], t_grid)
    target = separable_first((1.5, es.vector(1)), t_grid, k)
    assert abs(jumped.overlap(target)) >= 1.0 - 1e-8
    assert bundle["constraint"].residual(jumped) <= 1e-6
    returned = energy_jump(jumped, 1, 0, bundle["model"], t_grid)
    assert abs(returned.overlap(start)) >= 1.0 - 1e-9


def test_c7_commutator_pairs():
    k = PhysicalConstants()
    q_grid = default_position_grid(k)
    q_op = position_operator(q_grid).matrix
    p_op = momentum_operator(q_grid, k).matrix
    length = k.oscillator_length
    for sigma in (0.65 * length, 0.8 * length, 0.9 * length):
        psi = gaussian_state(q_grid, 0.0, sigma)
        image = q_op @ (p_op @ psi) - p_op @ (q_op @ psi)
        assert np.linalg.norm(image - 1j * k.hbar * psi) <= 1e-6 * k.hbar

    t_grid = AxisGrid(n=128, origin=0.0,
                      spacing=(4.0 * math.pi / k.omega) / 128, label="time")
    t_op = time_operator(t_grid).matrix
    s_op = energy_operator(t_grid, k).matrix
    mid = t_grid.period / 2.0
    for sigma in (0.45 / k.omega, 0.55 / k.omega):
        phi = gaussian_state(t_grid, mid, sigma)
        image = t_op @ (s_op @ phi) - s_op @ (t_op @ phi)
        assert np.linalg.norm(image + 1j * k.hbar * phi) <= 1e-6 * k.hbar

    # lifted operators from different factors commute to rounding
    small_q = AxisGrid(n=16, origin=-4.0, spacing=0.5, label="position")
    small_t = AxisGrid(n=16, origin=0.0, spacing=0.25, label="time")
    for sys_op in (position_operator(small_q), momentum_operator(small_q, k)):
        for time_side in (time_operator(small_t),
                          energy_operator(small_t, k)):
            left = lift_system(sys_op, 16)
            right = lift_time(time_side, 16)
            comm = left.matrix @ right.matrix - right.matrix @ left.matrix
            assert maxnorm(comm) <= 1e-14


def test_c8_uncertainty_floor():
    k = PhysicalConstants()
    total = 32.0 / k.omega
    n = 256
    t_grid = AxisGrid(n=n, origin=0.0, spacing=total / n, label="time")
    low = 4.0 * t_grid.spacing
    high = total / 16.0
    for sigma in np.geomspace(low, high, 7):
        phi = gaussian_state(t_grid, total / 2.0, float(sigma))
        _, _, product = uncertainty_product(phi, t_grid, k)
        assert product >= 0.49 * k.hbar
    phi = gaussian_state(t_grid, total / 2.0, 1.0 / k.omega)
    _, _, product = uncertainty_product(phi, t_grid, k)
    assert abs(product - 0.5 * k.hbar) <= 0.01 * 0.5 * k.hbar


def test_c9_reproducible_run(tmp_path):
    # byte-identical CSV across three consecutive runs and across host
    # thread settings; the entry point pins the BLAS knobs itself
    config = str(REPO / "scenarios" / "oscillator_jump.json")
    outputs = []
    for i in range(3):
        out = tmp_path / ("run_%d.csv" % i)
        proc = subprocess.run(
            [sys.executable, "-m", "chronos", "run", "--config", config,
             "--out", str(out)],
            capture_output=True, text=True, cwd=str(REPO))
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    for threads in ("1", "4"):
        env = dict(os.environ)
        env["OMP_NUM_THREADS"] = threads
        env["OPENBLAS_NUM_THREADS"] = threads
        out = tmp_path / ("run_t%s.csv" % threads)
        proc = subprocess.run(
            [sys.executable, "-m", "chronos", "run", "--config", config,
             "--out", str(out)],
            capture_output=True, text=True, env=env, cwd=str(REPO))
        assert proc.returncode == 0, proc.stderr
        assert out.read_bytes() == outputs[0]
