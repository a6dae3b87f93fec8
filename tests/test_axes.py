"""Grids, conjugate operator pairs, composite states, preset geometries."""

import math

import numpy as np
import pytest

from chronos.axes import (
    AxisGrid,
    CompositeState,
    PhysicalConstants,
    band_edge,
    default_position_grid,
    energy_aligned_grids,
    energy_eigenvector,
    energy_lattice,
    energy_operator,
    gaussian_state,
    lift_system,
    lift_time,
    momentum_operator,
    nearest_lattice_energy,
    position_operator,
    tensor_state,
    time_aligned_grids,
    time_operator,
)
from chronos.exceptions import (
    DimensionMismatchError,
    OutOfBandError,
    WrongAxisError,
)
from chronos.linalg import (
    ORTHONORMAL_ATOL,
    eig_hermitian,
    hermitian_defect,
    maxnorm,
    operator,
    unitary_defect,
)

import oracles


def test_constants_validation():
    k = PhysicalConstants(hbar=2.0, mass=3.0, c=1.5, omega=0.5)
    assert k.oscillator_length == pytest.approx(math.sqrt(2.0 / (3.0 * 0.5)))
    assert k.time_quantum == pytest.approx(4.0 * 0.5 / (9.0 * 1.5 ** 4))
    with pytest.raises(ValueError):
        PhysicalConstants(hbar=0.0)
    with pytest.raises(ValueError):
        PhysicalConstants(mass=-1.0)


def test_grid_shape_rules():
    grid = AxisGrid(n=8, origin=-2.0, spacing=0.5, label="position")
    assert grid.period == pytest.approx(4.0)
    assert grid.samples[0] == -2.0
    assert np.allclose(np.diff(grid.samples), 0.5)
    with pytest.raises(ValueError):
        AxisGrid(n=7, origin=0.0, spacing=0.5, label="position")
    with pytest.raises(ValueError):
        AxisGrid(n=8, origin=0.0, spacing=-0.25, label="time")
    with pytest.raises(WrongAxisError):
        AxisGrid(n=8, origin=0.0, spacing=0.5, label="space")


def test_fourier_map_matches_entrywise_oracle():
    grid = AxisGrid(n=8, origin=-1.0, spacing=0.25, label="time")
    expected = oracles.dft_columns(grid.samples, grid.frequencies)
    assert maxnorm(grid.fourier_map - expected) < 1e-14
    gram = grid.fourier_map.conj().T @ grid.fourier_map
    assert maxnorm(gram - np.eye(8)) < 1e-13


def assert_keeps_sample_pair(op, grid):
    # a sample operator keeps its pair when it is built: the samples,
    # ascending since spacing > 0, and the identity columns, bit for bit
    # what an eigensolve of its matrix returns
    assert "eigensystem" in vars(op)
    kept, solved = op.eigensystem, eig_hermitian(op.matrix)
    assert np.array_equal(kept.values, grid.samples)
    assert kept.values.tobytes() == solved.values.tobytes()
    assert kept.vectors.tobytes() == solved.vectors.tobytes()


def test_position_operator_is_sample_diagonal():
    grid = AxisGrid(n=16, origin=-4.0, spacing=0.5, label="position")
    q = position_operator(grid)
    assert_keeps_sample_pair(q, grid)
    assert np.count_nonzero(q.matrix - np.diag(np.diag(q.matrix))) == 0
    assert np.allclose(np.diag(q.matrix), grid.samples)
    with pytest.raises(WrongAxisError):
        position_operator(AxisGrid(n=8, origin=0.0, spacing=0.5, label="time"))


def test_momentum_eigenvectors_are_plane_waves():
    k = PhysicalConstants()
    grid = AxisGrid(n=16, origin=-4.0, spacing=0.5, label="position")
    p = momentum_operator(grid, k)
    assert hermitian_defect(p.matrix) == 0.0
    for idx in (0, 3, 9, 15):
        wave = grid.fourier_map[:, idx]
        image = p.matrix @ wave
        assert np.linalg.norm(image - k.hbar * grid.frequencies[idx] * wave) < 1e-12


def test_momentum_differentiates_band_limited_function():
    k = PhysicalConstants()
    grid = AxisGrid(n=32, origin=0.0, spacing=2.0 * math.pi / 32, label="position")
    x = grid.samples
    f = np.sin(3.0 * x) + 0.5 * np.cos(5.0 * x)
    df = 3.0 * np.cos(3.0 * x) - 2.5 * np.sin(5.0 * x)
    p = momentum_operator(grid, k)
    assert np.linalg.norm(p.matrix @ f - (-1j) * k.hbar * df) < 1e-11


def test_energy_operator_sign_convention():
    # the time-side generator carries the opposite symbol to momentum
    k = PhysicalConstants()
    grid = AxisGrid(n=16, origin=0.0, spacing=0.25, label="time")
    s = energy_operator(grid, k)
    assert hermitian_defect(s.matrix) == 0.0
    for idx in (1, 7, 12):
        wave = grid.fourier_map[:, idx]
        image = s.matrix @ wave
        assert np.linalg.norm(image + k.hbar * grid.frequencies[idx] * wave) < 1e-12


# a spectral operator keeps the pair it is built from, (symbol, Phi) in
# ascending order, with no eigensolve; an eigensolve of its matrix agrees
# with it within rounding (largest gaps seen: 2.1e-14 in the values, 4.3e-14
# in a projector)
@pytest.mark.parametrize("n", [16, 32, 64, 128, 256])
@pytest.mark.parametrize("origin", [0.0, -2.0 * math.pi])
def test_spectral_operators_keep_their_fourier_pair(n, origin):
    k = PhysicalConstants()
    for label, build, sign in (("time", energy_operator, -1.0),
                               ("position", momentum_operator, 1.0)):
        grid = AxisGrid(n=n, origin=origin, spacing=4.0 * math.pi / n,
                        label=label)
        op = build(grid, k)
        symbol = sign * k.hbar * grid.frequencies
        order = np.argsort(symbol)
        kept = op.eigensystem
        assert np.array_equal(kept.values, symbol[order])
        assert np.array_equal(kept.vectors, grid.fourier_map[:, order])
        assert unitary_defect(kept.vectors) <= ORTHONORMAL_ATOL
        solved = eig_hermitian(op)
        assert maxnorm(kept.values - solved.values) <= 1e-12
        for a, b in zip(kept.vectors.T, solved.vectors.T):
            assert maxnorm(np.outer(a, a.conj()) - np.outer(b, b.conj())) \
                <= 1e-12


def test_time_operator_is_sample_diagonal():
    grid = AxisGrid(n=8, origin=0.5, spacing=1.0, label="time")
    t = time_operator(grid)
    assert_keeps_sample_pair(t, grid)
    assert np.count_nonzero(t.matrix - np.diag(np.diag(t.matrix))) == 0
    assert np.allclose(np.diag(t.matrix), grid.samples)


def test_energy_lattice_structure():
    k = PhysicalConstants()
    grid = AxisGrid(n=16, origin=0.0, spacing=0.5, label="time")
    lattice = energy_lattice(grid, k)
    assert lattice.shape == (16,)
    assert np.all(np.diff(lattice) > 0)
    step = 2.0 * math.pi * k.hbar / grid.period
    assert np.allclose(np.diff(lattice), step)
    edge = band_edge(grid, k)
    assert edge == pytest.approx(k.hbar * math.pi / grid.spacing)
    # the asymmetric endpoint rule: +edge is a lattice point, -edge is not
    assert np.min(np.abs(lattice - edge)) < 1e-12
    assert np.min(np.abs(lattice + edge)) > step / 2


@pytest.mark.parametrize("hbar", [0.3, 1.0, 7.0, 1000.0])
@pytest.mark.parametrize("n, period", [
    (2, 1.0), (16, 8.0), (26, 4.0 * math.pi), (32, 4.0 * math.pi),
    (64, 4.0 * math.pi / 1.1)])
def test_band_edge_is_the_largest_lattice_energy(hbar, n, period):
    # band_edge takes the lattice's own operations, so the top energy is
    # inside the band exactly, on every grid
    k = PhysicalConstants(hbar=hbar)
    grid = AxisGrid(n=n, origin=0.0, spacing=period / n, label="time")
    lattice = energy_lattice(grid, k)
    assert band_edge(grid, k) == np.max(np.abs(lattice)) == lattice[-1]
    energy_eigenvector(grid, lattice[-1], k)


def test_nearest_lattice_energy():
    k = PhysicalConstants()
    grid = AxisGrid(n=8, origin=0.0, spacing=0.5, label="time")
    lattice = energy_lattice(grid, k)
    value, miss = nearest_lattice_energy(grid, lattice[3] + 0.1, k)
    assert value == pytest.approx(lattice[3])
    assert miss == pytest.approx(0.1)
    value, miss = nearest_lattice_energy(grid, lattice[5], k)
    assert value == lattice[5]
    assert miss == 0.0


def test_energy_eigenvector_property():
    k = PhysicalConstants()
    grid = AxisGrid(n=16, origin=0.0, spacing=0.5, label="time")
    s = energy_operator(grid, k)
    for e in energy_lattice(grid, k)[[0, 4, 11, 15]]:
        vec = energy_eigenvector(grid, e, k)
        assert np.linalg.norm(vec) == pytest.approx(1.0)
        assert np.linalg.norm(s.matrix @ vec - e * vec) < 1e-12


def test_energy_eigenvector_guards():
    k = PhysicalConstants()
    grid = AxisGrid(n=8, origin=0.0, spacing=0.5, label="time")
    for energy in (band_edge(grid, k) * 1.5, math.nan):
        with pytest.raises(OutOfBandError):
            energy_eigenvector(grid, energy, k)


def test_lifts_match_kron_oracle(rng):
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    a = operator(0.5 * (a + a.conj().T), hermitian=True)
    eye4 = np.eye(4)
    left = lift_system(a, 4)
    assert maxnorm(left.matrix - oracles.kron_by_index(a.matrix, eye4)) < 1e-14
    right = lift_time(a, 4)
    assert maxnorm(right.matrix - oracles.kron_by_index(eye4, a.matrix)) < 1e-14


def test_composite_state_normalization_guard(rng):
    amps = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    with pytest.raises(ValueError):
        CompositeState(amplitudes=tuple(amps), n_q=3, n_t=4)
    state = CompositeState(amps, 3, 4, normalized=False)
    assert state.norm == pytest.approx(np.linalg.norm(amps))
    unit = CompositeState(amps / state.norm, 3, 4)
    assert unit.norm == pytest.approx(1.0)
    with pytest.raises(DimensionMismatchError):
        CompositeState(amps, 3, 5)
    # a NaN norm must fail the unit-norm check, not pass it by default
    with pytest.raises(ValueError):
        CompositeState(np.full(4, np.nan), 2, 2)


def test_factored_expectations_match_dense_kron(rng):
    n_q, n_t = 4, 3
    amps = rng.standard_normal(n_q * n_t) + 1j * rng.standard_normal(n_q * n_t)
    amps /= np.linalg.norm(amps)
    state = CompositeState(amps, n_q, n_t)
    a = rng.standard_normal((n_q, n_q)) + 1j * rng.standard_normal((n_q, n_q))
    a = operator(0.5 * (a + a.conj().T), hermitian=True)
    dense_a = oracles.kron_by_index(a.matrix, np.eye(n_t))
    want_a = np.real(np.vdot(amps, dense_a @ amps))
    assert oracles.expectation_left(state, a) \
        == pytest.approx(want_a, abs=1e-13)
    d = operator(np.diag(rng.standard_normal(n_q)), hermitian=True)
    dense_d = oracles.kron_by_index(d.matrix, np.eye(n_t))
    want_d = np.real(np.vdot(amps, dense_d @ amps))
    assert oracles.expectation_left(state, d) \
        == pytest.approx(want_d, abs=1e-13)


def test_tensor_state_is_outer_product(rng):
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    phi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    state = tensor_state(psi, phi)
    assert state.norm == pytest.approx(1.0)
    outer = np.outer(psi / np.linalg.norm(psi), phi / np.linalg.norm(phi))
    assert maxnorm(state.matrix - outer) < 1e-13


def test_gaussian_state_moments():
    grid = AxisGrid(n=128, origin=-8.0, spacing=0.125, label="time")
    sigma = 0.7
    center = -1.0
    phi = gaussian_state(grid, center, sigma)
    assert np.linalg.norm(phi) == pytest.approx(1.0)
    density = np.abs(phi) ** 2
    mean = float(np.dot(grid.samples, density))
    var = float(np.dot((grid.samples - mean) ** 2, density))
    assert mean == pytest.approx(center, abs=1e-12)
    want = oracles.gaussian_moment(grid.samples, grid.spacing, center, sigma, 2)
    assert var == pytest.approx(want, rel=1e-10)
    assert var == pytest.approx(sigma ** 2, rel=1e-8)


@pytest.mark.parametrize("sigma", [0.0, math.nan])
def test_gaussian_state_refuses_non_positive_sigma(sigma):
    grid = AxisGrid(n=16, origin=-2.0, spacing=0.25, label="time")
    with pytest.raises(ValueError):
        gaussian_state(grid, 0.0, sigma)


def test_default_position_grid_geometry():
    k = PhysicalConstants()
    grid = default_position_grid(k)
    assert grid.n == 128
    assert grid.label == "position"
    assert grid.period == pytest.approx(20.0 * k.oscillator_length)
    center = grid.samples.mean()
    assert abs(center + grid.spacing / 2) < 1e-12 or abs(center) < 1e-12


def test_energy_aligned_grids_geometry():
    k = PhysicalConstants()
    q_grid, t_grid = energy_aligned_grids(k)
    assert (q_grid.n, t_grid.n) == (64, 32)
    assert t_grid.period == pytest.approx(4.0 * math.pi / k.omega)
    lattice = energy_lattice(t_grid, k)
    # lattice step hbar*omega/2 puts every half-integer level on a point
    assert np.allclose(np.diff(lattice), 0.5 * k.hbar * k.omega)
    for n in range(8):
        level = k.hbar * k.omega * (n + 0.5)
        assert np.min(np.abs(lattice - level)) < 1e-12


def test_time_aligned_grids_geometry():
    k = PhysicalConstants(hbar=1.0, mass=1.0, c=1.0, omega=1.0)
    q_grid, t_grid = time_aligned_grids(k)
    quantum = k.hbar ** 2 * k.omega / (k.mass ** 2 * k.c ** 4)
    assert t_grid.spacing == pytest.approx(quantum)
    # samples sit exactly on the half-integer clock readings
    assert np.allclose(t_grid.samples, quantum * (np.arange(t_grid.n) + 0.5))


@pytest.mark.parametrize("refused, match", [
    (lambda: AxisGrid(n=8, origin=np.nan, spacing=0.5, label="time"),
     "origin must be finite"),
    (lambda: tensor_state(np.zeros(4), np.ones(2)), "zero factors"),
], ids=["grid-origin-nan", "tensor-zero-factor"])
def test_axes_refusals(refused, match):
    with pytest.raises(ValueError, match=match):
        refused()
