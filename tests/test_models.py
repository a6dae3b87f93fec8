"""Hamiltonians, clock operators, spectra, ladder construction."""

import tracemalloc

import numpy as np
import pytest

import chronos.linalg
from chronos.axes import (
    TIME,
    AxisGrid,
    PhysicalConstants,
    default_position_grid,
    energy_operator,
    lift_system,
    momentum_operator,
    position_operator,
    time_operator,
)
from chronos.dynamics import time_translation
from chronos.exceptions import WrongKindError
from chronos.linalg import eig_hermitian, identity, kron, maxnorm
from chronos.models import (
    DEFAULT_RETAINED_LEVELS,
    FREE_PARTICLE,
    OSCILLATOR,
    ModelSpec,
    clock_operator,
    clock_scale,
    energy_eigensystem,
    free_particle_clock_operator,
    free_particle_hamiltonian,
    free_particle_time_level,
    hamiltonian,
    harmonic_hamiltonian,
    ladder_operators,
    oscillator_clock_operator,
    predicted_time_level,
)

import oracles


def oscillator_model(n=128):
    k = PhysicalConstants()
    return ModelSpec(OSCILLATOR, k, default_position_grid(k, n=n))


def test_model_spec_validation():
    k = PhysicalConstants()
    grid = default_position_grid(k)
    with pytest.raises(WrongKindError):
        ModelSpec("rigid_rotor", k, grid)
    time_grid = AxisGrid(n=8, origin=0.0, spacing=0.5, label="time")
    with pytest.raises(Exception):
        ModelSpec(OSCILLATOR, k, time_grid)


def test_oscillator_spectrum_half_integer():
    model = oscillator_model()
    system = eig_hermitian(harmonic_hamiltonian(model))
    k = model.constants
    expected = k.hbar * k.omega * (np.arange(12) + 0.5)
    assert np.max(np.abs(system.values[:12] - expected)) < 1e-9


def test_oscillator_matches_jacobi_on_small_grid():
    # full cross-check of the discretized operator against cyclic Jacobi
    model = oscillator_model(n=16)
    ham = harmonic_hamiltonian(model)
    mine = eig_hermitian(ham).values
    reference = oracles.jacobi_spectrum(ham.matrix)
    assert np.max(np.abs(mine - reference)) < 1e-9


def test_oscillator_scales_with_constants():
    k = PhysicalConstants(hbar=0.5, mass=2.0, c=1.0, omega=3.0)
    model = ModelSpec(OSCILLATOR, k, default_position_grid(k))
    system = eig_hermitian(harmonic_hamiltonian(model))
    expected = k.hbar * k.omega * (np.arange(6) + 0.5)
    assert np.max(np.abs(system.values[:6] - expected)) < 1e-8


def test_free_particle_plane_wave_energies():
    k = PhysicalConstants()
    grid = AxisGrid(n=32, origin=-8.0, spacing=0.5, label="position")
    model = ModelSpec(FREE_PARTICLE, k, grid)
    ham = free_particle_hamiltonian(model)
    for idx in (0, 5, 17, 31):
        wave = grid.fourier_map[:, idx]
        want = (k.hbar * grid.frequencies[idx]) ** 2 / (2.0 * k.mass)
        assert np.linalg.norm(ham.matrix @ wave - want * wave) < 1e-11


def test_hamiltonian_dispatch():
    model = oscillator_model(n=32)
    assert maxnorm(hamiltonian(model).matrix
                   - harmonic_hamiltonian(model).matrix) == 0.0
    k = model.constants
    free = ModelSpec(FREE_PARTICLE, k, model.grid)
    assert maxnorm(hamiltonian(free).matrix
                   - free_particle_hamiltonian(free).matrix) == 0.0
    with pytest.raises(WrongKindError):
        harmonic_hamiltonian(free)
    with pytest.raises(WrongKindError):
        free_particle_hamiltonian(model)


@pytest.mark.parametrize("kind", [OSCILLATOR, FREE_PARTICLE])
@pytest.mark.parametrize("k, grid", [
    (PhysicalConstants(), AxisGrid(n=64, origin=-8.0, spacing=0.25,
                                   label="position")),
    (PhysicalConstants(hbar=2.0, mass=3.0, c=1.5, omega=0.7),
     AxisGrid(n=48, origin=-2.3, spacing=0.31, label="position")),
])
def test_hamiltonian_is_real_circulant_of_momentum_square(kind, k, grid):
    ham = hamiltonian(ModelSpec(kind, k, grid)).matrix
    assert not np.any(ham.imag)
    p = momentum_operator(grid, k).matrix
    omega = k.omega if kind == OSCILLATOR else 0.0
    want = p @ p / (2.0 * k.mass) \
        + np.diag(0.5 * k.mass * omega ** 2 * grid.samples ** 2)
    assert maxnorm(ham - want) <= 1e-12 * maxnorm(want)


@pytest.mark.parametrize("kind", [OSCILLATOR, FREE_PARTICLE])
@pytest.mark.parametrize("k, grid", [
    pytest.param(PhysicalConstants(),
                 AxisGrid(n=256, origin=-20.0, spacing=40.0 / 256,
                          label="position"), id="centred"),
    pytest.param(PhysicalConstants(hbar=2.0, mass=3.0, c=1.5, omega=0.7),
                 AxisGrid(n=48, origin=-2.3, spacing=0.31, label="position"),
                 id="off_centre"),
    pytest.param(PhysicalConstants(hbar=0.3, mass=0.45, omega=1.7),
                 AxisGrid(n=130, origin=1.25, spacing=0.07,
                          label="position"), id="positive_origin"),
])
def test_hamiltonian_matches_index_oracle(kind, k, grid):
    # the Toeplitz-window build reproduces the index-array gather and its
    # (C + C^T)/2 symmetrization bit for bit
    ham = hamiltonian(ModelSpec(kind, k, grid)).matrix
    omega = k.omega if kind == OSCILLATOR else 0.0
    want = oracles.circulant_hamiltonian_by_index(ModelSpec(kind, k, grid),
                                                  omega)
    assert ham.dtype == want.dtype
    assert ham.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", [OSCILLATOR, FREE_PARTICLE])
def test_hamiltonian_allocation_peak(kind):
    model = ModelSpec(kind, PhysicalConstants(), centred_grid(1024))
    tracemalloc.start()
    try:
        ham = hamiltonian(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the matrix itself and O(n) scratch: no n x n index array, no
    # symmetrizing temporary and no second copy when it is stored
    assert peak <= 1.25 * ham.matrix.nbytes


def centred_grid(n):
    # origin -L/2 with exact binary samples, so x_{n-j} == -x_j exactly
    return AxisGrid(n=n, origin=-20.0, spacing=40.0 / n, label="position")


@pytest.mark.parametrize("kind", [OSCILLATOR, FREE_PARTICLE])
@pytest.mark.parametrize("n", [128, 1024])
def test_reflection_split_matches_full_eigh(kind, n, eigh_shapes):
    ham = hamiltonian(ModelSpec(kind, PhysicalConstants(), centred_grid(n)))
    system = eig_hermitian(ham)
    assert eigh_shapes == [(n // 2 + 1,) * 2, (n // 2 - 1,) * 2]
    again = eig_hermitian(ham)
    assert system.values.tobytes() == again.values.tobytes()
    assert system.vectors.tobytes() == again.vectors.tobytes()
    values, vectors = np.linalg.eigh(ham.matrix)
    scale = np.max(np.abs(values))
    assert np.max(np.abs(system.values - values)) <= 1e-11 * scale
    for mine, want in zip(
            oracles.eigenspace_projectors(system.values, system.vectors, 16),
            oracles.eigenspace_projectors(values, vectors, 16)):
        assert maxnorm(mine - want) <= 1e-9


@pytest.mark.parametrize("k, grid", [
    pytest.param(PhysicalConstants(),
                 AxisGrid(n=128, origin=-7.0, spacing=0.125,
                          label="position"), id="off_centre"),
    # centred on zero, but the samples do not mirror exactly in floating
    # point, so neither does the potential
    pytest.param(PhysicalConstants(omega=0.9),
                 default_position_grid(PhysicalConstants(omega=0.9)),
                 id="asymmetric_potential"),
])
def test_oscillator_without_exact_reflection_takes_full_eigh(k, grid,
                                                             eigh_shapes):
    eig_hermitian(hamiltonian(ModelSpec(OSCILLATOR, k, grid)))
    assert eigh_shapes == [(grid.n, grid.n)]


def test_degenerate_free_particle_levels_are_standing_waves():
    n = 64
    es = hamiltonian(ModelSpec(FREE_PARTICLE, PhysicalConstants(),
                               centred_grid(n))).eigensystem
    parity = oracles.reflection_parities(es.vectors)
    # the constant and the Nyquist wave are even; every +-w pair between
    # them is one exactly even and one exactly odd standing wave
    assert parity[0] == parity[-1] == 1
    for a in range(1, n - 1, 2):
        assert es.values[a + 1] - es.values[a] <= 1e-12 * es.values[-1]
        assert sorted(parity[a:a + 2]) == [-1, 1]


def dtype_cases():
    k = PhysicalConstants()
    qg = AxisGrid(n=16, origin=-4.0, spacing=0.5, label="position")
    tg = AxisGrid(n=8, origin=0.0, spacing=0.5, label=TIME)
    osc = ModelSpec(OSCILLATOR, k, qg)
    free = ModelSpec(FREE_PARTICLE, k, qg)
    real = {
        "position": lambda: position_operator(qg).matrix,
        "time": lambda: time_operator(tg).matrix,
        "harmonic": lambda: harmonic_hamiltonian(osc).matrix,
        "free": lambda: free_particle_hamiltonian(free).matrix,
        "oscillator_clock": lambda: oscillator_clock_operator(osc).matrix,
        "free_clock": lambda: free_particle_clock_operator(free).matrix,
        "identity": lambda: identity(4).matrix,
        "kron": lambda: kron(time_operator(tg), identity(3)).matrix,
        "lift_system": lambda: lift_system(hamiltonian(osc), 4).matrix,
        "eig_vectors": lambda: hamiltonian(osc).eigensystem.vectors,
    }
    complex_ = {
        "momentum": lambda: momentum_operator(qg, k).matrix,
        "energy": lambda: energy_operator(tg, k).matrix,
        "fourier_map": lambda: tg.fourier_map,
        "time_translation": lambda: time_translation(tg, 0.3).matrix,
        "eig_vectors_complex":
            lambda: eig_hermitian(energy_operator(tg, k)).vectors,
    }
    return [pytest.param(build, dtype, id=name)
            for cases, dtype in ((real, np.float64), (complex_, np.complex128))
            for name, build in cases.items()]


@pytest.mark.parametrize("build, dtype", dtype_cases())
def test_storage_dtype_rule(build, dtype):
    # real operators and their eigenvectors are stored float64; operators
    # with a genuine imaginary part, and every unitary, stay complex128
    assert build().dtype == dtype


def test_clock_operator_is_scaled_hamiltonian():
    model = oscillator_model(n=64)
    k = model.constants
    scale = k.hbar / (k.mass ** 2 * k.c ** 4)
    gap = clock_operator(model).matrix - scale * hamiltonian(model).matrix
    assert maxnorm(gap) < 1e-15
    values = eig_hermitian(oscillator_clock_operator(model)).values
    quantum = k.time_quantum
    assert np.max(np.abs(values[:8] - quantum * (np.arange(8) + 0.5))) < 1e-9


@pytest.mark.parametrize("kind", [OSCILLATOR, FREE_PARTICLE])
@pytest.mark.parametrize("k", [
    PhysicalConstants(),
    PhysicalConstants(hbar=2.0, mass=3.0, c=1.5, omega=0.7),
])
def test_clock_values_are_scaled_energies(kind, k):
    grid = AxisGrid(n=48, origin=-6.0, spacing=0.25, label="position")
    model = ModelSpec(kind, k, grid)
    scaled = clock_scale(model) * hamiltonian(model).eigensystem.values
    clock = eig_hermitian(clock_operator(model)).values
    assert np.max(np.abs(scaled - clock)) <= 1e-12 * np.max(np.abs(clock))


@pytest.mark.parametrize("kind", [OSCILLATOR, FREE_PARTICLE])
def test_clock_splits_its_own_closed_form(formed_matrices, kind):
    # the clock is the Hamiltonian's closed form scaled by s > 0, so its
    # values come from the reflection split with no matrix formed, its own
    # or the Hamiltonian's.  Each solve is backward stable, its values
    # within a few eps ||A||_2 of exact (Weyl), ||s H||_2 is at most the
    # clock bound s energy_bound, and the scaled entries round once more:
    # 16 eps of that bound holds both sides (largest seen: 6.7 eps, n <= 512)
    k = PhysicalConstants(mass=0.7)
    grid = AxisGrid(n=64, origin=-8.0, spacing=0.25, label="position")
    model = ModelSpec(kind, k, grid)
    system = clock_operator(model).eigensystem
    assert system._split is not None
    scale = clock_scale(model)
    scaled = scale * hamiltonian(model).eigensystem.values
    assert formed_matrices == []
    bound = 16.0 * np.finfo(float).eps * scale * model.energy_bound
    assert np.max(np.abs(system.values - scaled)) <= bound


def test_time_level_formulas():
    k = PhysicalConstants(hbar=2.0, mass=3.0, c=1.5, omega=0.7)
    quantum = k.time_quantum
    assert quantum == pytest.approx(2.0 ** 2 * 0.7 / (3.0 ** 2 * 1.5 ** 4))
    assert predicted_time_level(4, k) == pytest.approx(quantum * 4.5)
    assert free_particle_time_level(5.0, k) == pytest.approx(
        2.0 * 2.0 * 5.0 / (3.0 ** 2 * 1.5 ** 4))


def test_free_particle_clock_matches_formula():
    k = PhysicalConstants()
    grid = AxisGrid(n=32, origin=-8.0, spacing=0.5, label="position")
    model = ModelSpec(FREE_PARTICLE, k, grid)
    clock = free_particle_clock_operator(model)
    for idx in (3, 11):
        wave = grid.fourier_map[:, idx]
        energy = (k.hbar * grid.frequencies[idx]) ** 2 / (2.0 * k.mass)
        want = free_particle_time_level(energy, k)
        assert np.linalg.norm(clock.matrix @ wave - want * wave) < 1e-12


def test_energy_eigensystem_truncation():
    model = oscillator_model(n=64)
    system = energy_eigensystem(model)
    assert system.count == DEFAULT_RETAINED_LEVELS
    assert np.all(np.diff(system.values) > 0)
    full = hamiltonian(model).eigensystem
    assert full.count == 64
    assert system.values.tobytes() \
        == full.values[:DEFAULT_RETAINED_LEVELS].tobytes()
    # a grid of fewer points keeps every level
    assert energy_eigensystem(oscillator_model(n=8)).count == 8


def test_each_eigensystem_is_computed_once_by_its_owner(monkeypatch):
    # the model keeps its Hamiltonian and the Hamiltonian its
    # eigensystem; an equal model is a separate owner
    solves = []
    eig_hermitian = chronos.linalg.eig_hermitian
    monkeypatch.setattr(chronos.linalg, "eig_hermitian",
                        lambda op: solves.append(op) or eig_hermitian(op))
    model = oscillator_model(n=32)
    ham = hamiltonian(model)
    assert harmonic_hamiltonian(model) is ham
    es = energy_eigensystem(model)
    assert ham.eigensystem is hamiltonian(model).eigensystem
    assert es.vectors.tobytes() \
        == ham.eigensystem.vectors[:, :DEFAULT_RETAINED_LEVELS].tobytes()
    assert solves == [ham]
    # the clock operator is a new closed form with an eigensystem of its own
    clock = clock_operator(model)
    assert clock.eigensystem is clock.eigensystem
    assert solves == [ham, clock]
    other = oscillator_model(n=32)
    assert other == model and hamiltonian(other) is not ham


def test_ladder_matrix_elements_match_oracle():
    model = oscillator_model()
    system = hamiltonian(model).eigensystem.truncated(12)
    lower, raiser = ladder_operators(system)
    for n in range(11):
        up = raiser.matrix @ system.vector(n)
        coeff = np.vdot(system.vector(n + 1), up)
        assert abs(coeff - oracles.ladder_matrix_elements(n, "up")) < 1e-10
    for n in range(1, 12):
        down = lower.matrix @ system.vector(n)
        coeff = np.vdot(system.vector(n - 1), down)
        assert abs(coeff - oracles.ladder_matrix_elements(n, "down")) < 1e-10


def test_ladder_annihilates_ground_state():
    model = oscillator_model()
    system = hamiltonian(model).eigensystem.truncated(6)
    lower, _ = ladder_operators(system)
    assert np.linalg.norm(lower.matrix @ system.vector(0)) < 1e-10


def test_ladder_commutator_on_retained_levels():
    model = oscillator_model()
    system = hamiltonian(model).eigensystem.truncated(12)
    lower, raiser = ladder_operators(system)
    comm = lower.matrix @ raiser.matrix - raiser.matrix @ lower.matrix
    # identity on every retained level except the truncation boundary
    for n in range(11):
        vec = system.vector(n)
        assert np.linalg.norm(comm @ vec - vec) < 1e-9


def test_ladder_requires_two_levels():
    model = oscillator_model(n=32)
    system = hamiltonian(model).eigensystem.truncated(1)
    with pytest.raises(WrongKindError):
        ladder_operators(system)


@pytest.mark.parametrize("refused", [
    lambda: predicted_time_level(-1, PhysicalConstants()),
    lambda: free_particle_time_level(-1.0, PhysicalConstants()),
], ids=["oscillator-level", "free-particle-energy"])
def test_time_level_refusals(refused):
    with pytest.raises(ValueError, match="nonnegative"):
        refused()
