"""Constraint operators, physical subspaces, measurements, uncertainty."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from chronos import checks
from chronos.axes import (
    AxisGrid,
    CompositeState,
    PhysicalConstants,
    default_position_grid,
    energy_aligned_grids,
    energy_lattice,
    energy_operator,
    gaussian_state,
    time_aligned_grids,
    time_operator,
)
from chronos.constraints import (
    MATERIALIZE_LIMIT,
    ConstraintOperator,
    SubspaceBasis,
    first_constraint_operator,
    generalized_constraint_operator,
    physical_subspace,
    second_constraint_operator,
    separable_first,
    separable_second,
    uncertainty_product,
)
from chronos.exceptions import (
    DimensionMismatchError,
    EmptyBasisError,
    NotHermitianError,
    OutOfRangeError,
)
from chronos.linalg import (
    DEFAULT_TOL,
    OperatorMatrix,
    identity,
    maxnorm,
    near_null_space,
)
from chronos.models import (
    OSCILLATOR,
    ModelSpec,
    hamiltonian,
    oscillator_clock_operator,
)

import oracles


def small_setup(n_q=6, n_t=4):
    k = PhysicalConstants()
    q_grid = AxisGrid(n=n_q, origin=-1.5, spacing=0.5, label="position")
    t_grid = AxisGrid(n=n_t, origin=0.0, spacing=0.5, label="time")
    model = ModelSpec(OSCILLATOR, k, q_grid)
    return k, q_grid, t_grid, model


def dense_first(ham, t_grid, k):
    s_mat = energy_operator(t_grid, k).matrix
    eye_q = np.eye(ham.dim)
    eye_t = np.eye(t_grid.n)
    return (oracles.kron_by_index(eye_q, s_mat)
            - oracles.kron_by_index(ham.matrix, eye_t))


def test_first_constraint_matches_dense_kron(rng):
    k, q_grid, t_grid, model = small_setup()
    ham = hamiltonian(model)
    op = first_constraint_operator(ham, t_grid, k)
    dense = dense_first(ham, t_grid, k)
    assert maxnorm(op.composite.matrix - dense) < 1e-12
    state = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
    factored = op.apply_matrix(state.reshape(op.n_q, op.n_t)).ravel()
    assert np.linalg.norm(factored - dense @ state) < 1e-12
    want = np.linalg.norm(dense @ state) / np.linalg.norm(state)
    assert op.residual(state) == pytest.approx(want, rel=1e-12)


def test_second_constraint_matches_dense_kron(rng):
    k, q_grid, t_grid, model = small_setup()
    clock = oscillator_clock_operator(model)
    op = second_constraint_operator(clock, t_grid)
    t_mat = time_operator(t_grid).matrix
    dense = (oracles.kron_by_index(np.eye(clock.dim), t_mat)
             - oracles.kron_by_index(clock.matrix, np.eye(t_grid.n)))
    assert maxnorm(op.composite.matrix - dense) < 1e-12
    state = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
    factored = op.apply_matrix(state.reshape(op.n_q, op.n_t)).ravel()
    assert np.linalg.norm(factored - dense @ state) < 1e-12
    want = np.linalg.norm(dense @ state) / np.linalg.norm(state)
    assert op.residual(state) == pytest.approx(want, rel=1e-12)


def test_generalized_constraint_matches_dense_kron(rng):
    k, q_grid, t_grid, model = small_setup()
    ham = hamiltonian(model)
    op = generalized_constraint_operator(0.7, -0.3, ham, t_grid, k)
    s_mat = energy_operator(t_grid, k).matrix
    t_mat = time_operator(t_grid).matrix
    eye_q = np.eye(ham.dim)
    dense = (0.7 * oracles.kron_by_index(eye_q, s_mat)
             - 0.3 * oracles.kron_by_index(eye_q, t_mat)
             - oracles.kron_by_index(ham.matrix, np.eye(t_grid.n)))
    assert maxnorm(op.composite.matrix - dense) < 1e-12
    state = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
    factored = op.apply_matrix(state.reshape(op.n_q, op.n_t)).ravel()
    assert np.linalg.norm(factored - dense @ state) < 1e-11


def test_builders_reject_unverified_hermitian():
    k, q_grid, t_grid, model = small_setup()
    raw = np.triu(np.ones((q_grid.n, q_grid.n)))
    # a wrapped matrix is measured too, not trusted
    for lopsided in (raw, OperatorMatrix(raw)):
        with pytest.raises(NotHermitianError):
            first_constraint_operator(lopsided, t_grid, k)
        with pytest.raises(NotHermitianError):
            second_constraint_operator(lopsided, t_grid)
        with pytest.raises(NotHermitianError):
            generalized_constraint_operator(1.0, 0.0, lopsided, t_grid, k)


def test_builders_keep_the_operator_they_are_handed():
    # a constraint is its two factors; the system factor is the very
    # operator handed in, so the eigensystem it keeps is solved once
    k, q_grid, t_grid, model = small_setup()
    h = hamiltonian(model)
    assert [f.name for f in dataclasses.fields(ConstraintOperator)] \
        == ["system_op", "axis_op"]
    for op in (first_constraint_operator(h, t_grid, k),
               second_constraint_operator(h, t_grid),
               generalized_constraint_operator(1.0, 0.0, h, t_grid, k)):
        assert op.system_op is h
    raw = second_constraint_operator(h.matrix, t_grid).system_op
    assert raw is not h and raw.matrix.tobytes() == h.matrix.tobytes()


def test_composite_refuses_to_materialize_above_cap():
    k = PhysicalConstants()
    q_grid = default_position_grid(k)
    t_grid = AxisGrid(n=64, origin=0.0, spacing=0.2, label="time")
    op = first_constraint_operator(hamiltonian(
        ModelSpec(OSCILLATOR, k, q_grid)), t_grid, k)
    assert op.dim == 128 * 64 > MATERIALIZE_LIMIT
    with pytest.raises(DimensionMismatchError):
        op.composite


def test_separable_first_solves_constraint(energy_bundle):
    bundle = energy_bundle
    system = bundle["eigensystem"]
    op = bundle["constraint"]
    for n in (0, 3, 7):
        state = separable_first((system.values[n], system.vector(n)),
                                bundle["t_grid"], bundle["constants"])
        assert op.residual(state) < 1e-10


def test_separable_second_rounding(time_bundle):
    bundle = time_bundle
    system = bundle["eigensystem"]
    t_grid = bundle["t_grid"]
    clock_value = t_grid.samples[3]
    state, miss = separable_second((clock_value + 0.1 * t_grid.spacing,
                                    system.vector(3)), t_grid)
    assert miss == pytest.approx(0.1 * t_grid.spacing)
    assert bundle["constraint"].residual(state) < 1e-8 + miss
    exact, zero_miss = separable_second((clock_value, system.vector(3)), t_grid)
    assert zero_miss == 0.0
    assert bundle["constraint"].residual(exact) < 1e-10
    with pytest.raises(OutOfRangeError):
        separable_second((t_grid.samples[-1] + t_grid.spacing, system.vector(0)),
                         t_grid)


def test_first_subspace_count_matches_dense_oracle(energy_bundle):
    bundle = energy_bundle
    basis = bundle["basis"]
    expected = oracles.small_singular_count(bundle["constraint"].composite.matrix, 1e-6)
    assert basis.count == expected == 8
    assert [round(float(l), 6) for l in basis.labels] == \
        [round(n + 0.5, 6) for n in range(8)]
    assert max(basis.residuals) < 1e-6


def test_first_subspace_members_orthonormal(energy_bundle):
    basis = energy_bundle["basis"]
    block = basis.vectors.reshape(-1, basis.count)
    gram = block.conj().T @ block
    assert maxnorm(gram - np.eye(basis.count)) < 1e-10


def test_second_subspace_count_matches_dense_oracle(time_bundle):
    bundle = time_bundle
    basis = bundle["basis"]
    expected = oracles.small_singular_count(bundle["constraint"].composite.matrix, 1e-6)
    assert basis.count == expected == bundle["t_grid"].n
    assert max(basis.residuals) < 1e-6


def test_second_subspace_labels_are_clock_readings(time_bundle):
    bundle = time_bundle
    labels = np.array([float(l) for l in bundle["basis"].labels])
    assert np.allclose(np.sort(labels), bundle["t_grid"].samples, atol=1e-9)


def test_detuned_grid_has_empty_subspace():
    # stretching the time period pushes every lattice point off the spectrum
    k = PhysicalConstants()
    q_grid = default_position_grid(k, n=32)
    t_grid = AxisGrid(n=16, origin=0.0,
                      spacing=1.1 * 4.0 * math.pi / 16, label="time")
    op = first_constraint_operator(
        hamiltonian(ModelSpec(OSCILLATOR, k, q_grid)), t_grid, k)
    basis = physical_subspace(op)
    assert basis.count == 0
    assert oracles.small_singular_count(op.composite.matrix, 1e-6) == 0


def test_generalized_solve_reduces_to_first(energy_bundle):
    # the (1, 0) reduction keeps the energy operator's own pair, so both
    # solves give the same members bit for bit, at any tolerance
    bundle = energy_bundle
    reduced = generalized_constraint_operator(
        1.0, 0.0, bundle["hamiltonian"], bundle["t_grid"],
        bundle["constants"])
    for tol in (1e-16, DEFAULT_TOL, 0.3):
        first = physical_subspace(bundle["constraint"], tol)
        basis = physical_subspace(reduced, tol)
        assert basis.labels == first.labels
        assert np.array_equal(basis.vectors, first.vectors)


# with c_t == 0 the time-axis factor is c_s s_op and keeps c_s times the
# energy operator's pair, ascending; with c_t != 0 it is solved
@pytest.mark.parametrize("coeff_s", [1.0, 2.5, -0.75])
def test_generalized_axis_factor_keeps_the_scaled_energy_pair(coeff_s):
    k, _, t_grid, model = small_setup(n_t=16)
    pair = energy_operator(t_grid, k).eigensystem
    kept = generalized_constraint_operator(
        coeff_s, 0.0, hamiltonian(model), t_grid, k).axis_op.eigensystem
    step = -1 if coeff_s < 0 else 1
    assert np.array_equal(kept.values, coeff_s * pair.values[::step])
    assert np.array_equal(kept.vectors, pair.vectors[:, ::step])
    assert np.all(np.diff(kept.values) > 0)
    mixed = generalized_constraint_operator(coeff_s, 0.5, hamiltonian(model),
                                            t_grid, k).axis_op
    assert not np.array_equal(mixed.eigensystem.vectors,
                              pair.vectors[:, ::step])


@pytest.mark.parametrize("tol", [0.0, -1e-6, math.nan])
def test_physical_subspace_requires_positive_tolerance(energy_bundle, tol):
    with pytest.raises(ValueError):
        physical_subspace(energy_bundle["constraint"], tol)


def oscillator_32x16(kind):
    k = PhysicalConstants()
    if kind == "first":
        q_grid = default_position_grid(k, n=32)
        t_grid = AxisGrid(n=16, origin=0.0, spacing=4.0 * math.pi / 16,
                          label="time")
        model = ModelSpec(OSCILLATOR, k, q_grid)
        return first_constraint_operator(hamiltonian(model), t_grid, k)
    q_grid, t_grid = time_aligned_grids(k, n_q=32, n_t=16)
    model = ModelSpec(OSCILLATOR, k, q_grid)
    return second_constraint_operator(oscillator_clock_operator(model),
                                      t_grid)


@pytest.mark.parametrize("kind", ["first", "second"])
@pytest.mark.parametrize("tol", [1e-6, 0.3, 0.6])
def test_subspace_matches_dense_oracle_at_wide_tolerance(kind, tol):
    # every pair (m, k) within tol is a kernel vector, not only the
    # nearest axis eigenvalue per level
    op = oscillator_32x16(kind)
    basis = physical_subspace(op, tol)
    dense = near_null_space(op.composite, tol)
    assert basis.count == len(dense) \
        == oracles.small_singular_count(op.composite.matrix, tol)
    if kind == "first" and tol == 0.6:
        assert basis.count == 13
    block = np.column_stack(dense)
    gap = maxnorm(oracles.dense_projector(basis) - block @ block.conj().T)
    assert gap < 1e-10
    assert set(basis.labels) <= set(op.system_op.eigensystem.values.tolist())
    assert list(basis.labels) == sorted(basis.labels)
    assert max(basis.residuals) <= tol


def test_large_separable_route_matches_product_count():
    # above the materialization cap the count must still be the number of
    # pairs with |E_m - s_l| <= tol, the exact singular values of the sum
    k = PhysicalConstants()
    q_grid = default_position_grid(k, n=96)
    t_grid = AxisGrid(n=48, origin=0.0, spacing=4.0 * math.pi / 48,
                      label="time")
    model = ModelSpec(OSCILLATOR, k, q_grid)
    ham = hamiltonian(model)
    op = first_constraint_operator(ham, t_grid, k)
    assert op.dim > MATERIALIZE_LIMIT
    energies = np.linalg.eigvalsh(ham.matrix)
    lattice = energy_lattice(t_grid, k)
    for tol in (1e-6, 0.6):
        basis = physical_subspace(op, tol)
        expected = int(np.count_nonzero(
            np.abs(energies[:, None] - lattice[None, :]) <= tol))
        assert basis.count == expected > 0
        assert max(basis.residuals) <= tol


def test_generalized_lifted_system_solved_above_cap():
    # F = H (x) I above the cap is the first constraint in disguise; the
    # builder takes H itself, so neither the build nor the solve forms a
    # composite-sized matrix (the 4608 x 4608 lift of H is 162 MB)
    k = PhysicalConstants()
    q_grid = default_position_grid(k, n=48)
    t_grid = AxisGrid(n=96, origin=0.0, spacing=4.0 * math.pi / 96,
                      label="time")
    ham = hamiltonian(ModelSpec(OSCILLATOR, k, q_grid))
    first = physical_subspace(first_constraint_operator(ham, t_grid, k))
    tracemalloc.start()
    try:
        op = generalized_constraint_operator(1.0, 0.0, ham, t_grid, k)
        basis = physical_subspace(op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2 ** 20
    assert op.dim > MATERIALIZE_LIMIT
    assert basis.count == first.count > 0
    assert basis.labels == first.labels
    assert max(basis.residuals) <= DEFAULT_TOL


def random_basis(rng, n_q, n_t, count):
    # count orthonormal members from a QR factorization
    shape = (n_q * n_t, count)
    q, _ = np.linalg.qr(rng.standard_normal(shape)
                        + 1j * rng.standard_normal(shape))
    return SubspaceBasis(np.ascontiguousarray(q).reshape(n_q, n_t, count),
                         (None,) * count, (0.0,) * count)


def with_nan(basis, row):
    # the same basis with its first member's amplitude at row set to NaN
    vectors = np.array(basis.vectors)
    vectors.reshape(-1, basis.count)[row, 0] = np.nan
    return dataclasses.replace(basis, vectors=vectors)


def unit_states(rng, basis, n):
    # n unit states as the columns of a (dim, n) array, every second one
    # inside the span, so that gaps near 1 and near 0 are both compared
    b = basis.vectors.reshape(-1, basis.count)
    states = rng.standard_normal((b.shape[0], n)) \
        + 1j * rng.standard_normal((b.shape[0], n))
    states[:, 1::2] = b @ states[:basis.count, 1::2]
    return states / np.linalg.norm(states, axis=0)


# two dims are not multiples of the 128-row tile, and 128, 129 and 300
# states cross the edges of the linalg.TILE-state stacks
@pytest.mark.parametrize("n_q, n_t, count", [(32, 16, 4), (30, 10, 7),
                                             (128, 16, 16), (129, 1, 1)])
def test_span_gaps_match_dense_oracle(rng, n_q, n_t, count):
    # both sides form (I - B B^H) s for a unit s from inner products of at
    # most n = dim + count terms of vectors of norm at most 1, each within
    # gamma_n, about n eps, of exact (Higham, Accuracy and Stability of
    # Numerical Algorithms, sec. 3.1); 4 n eps bounds the difference of the
    # gaps in any summation order (it measures below 5e-16)
    basis = random_basis(rng, n_q, n_t, count)
    n = n_q * n_t + count
    bound = 4.0 * n * np.finfo(float).eps
    for size in (1, 128, 129, 300):
        states = unit_states(rng, basis, size)
        gaps = basis.span_gaps(states.T)
        assert gaps.shape == (size,)
        assert np.max(np.abs(gaps - oracles.span_gaps(basis, states))) \
            <= bound


# states 127, 128 and 256 sit on the edges of the linalg.TILE-state stacks
@pytest.mark.parametrize("row", [0, 127, 128, 200, 256, 299])
def test_span_gaps_propagate_nan(rng, row):
    basis = random_basis(rng, 30, 10, 3)
    states = unit_states(rng, basis, 300)
    # a NaN anywhere in the basis reaches every gap
    assert np.isnan(with_nan(basis, row).span_gaps(states.T)).all()
    # a NaN in one state reaches its own gap alone, and fails the row
    states[row, row] = np.nan
    gaps = basis.span_gaps(states.T)
    assert np.array_equal(np.isnan(gaps), np.arange(300) == row)
    assert not checks._le("span_gap_max", gaps, checks.SPAN_GAP).passed


def test_span_gaps_read_each_state_by_the_shape_rule(energy_bundle):
    # a member lies in the span, read as its matrix, its amplitudes or a
    # CompositeState
    basis = energy_bundle["basis"]
    n_q, n_t, _ = basis.vectors.shape
    member = basis.vectors[:, :, -1]
    gaps = basis.span_gaps([member, member.ravel(),
                            CompositeState(member, n_q, n_t)])
    assert gaps[0] <= 1e-14
    assert gaps[0] == gaps[1] == gaps[2]


def test_empty_basis_has_no_span_gaps(energy_bundle):
    basis = energy_bundle["basis"]
    n_q, n_t, _ = basis.vectors.shape
    empty = SubspaceBasis(np.zeros((n_q, n_t, 0), complex), (), ())
    with pytest.raises(EmptyBasisError):
        empty.span_gaps([basis.vectors[:, :, 0]])


@pytest.mark.parametrize("method", ["span_gaps"])
def test_state_of_another_shape_is_refused(energy_bundle, method):
    # a state whose length matches but whose shape does not is refused,
    # by the one shape rule the constraint operator applies too
    basis = energy_bundle["basis"]
    n_q, n_t, _ = basis.vectors.shape
    swapped = CompositeState(basis.vectors[:, :, 0], n_t, n_q)
    with pytest.raises(DimensionMismatchError):
        energy_bundle["constraint"].residual(swapped)
    with pytest.raises(DimensionMismatchError):
        getattr(basis, method)([swapped])


def test_physical_subspace_holds_its_members_once(unit_constants):
    # the basis holds count * dim complex amplitudes once, and measuring a
    # state's span gap copies none of them
    q_grid, t_grid = energy_aligned_grids(unit_constants, n_q=128, n_t=64)
    ham = hamiltonian(ModelSpec(OSCILLATOR, unit_constants, q_grid))
    op = first_constraint_operator(ham, t_grid, unit_constants)
    # both factors keep their eigensystems, which are not part of the basis
    op.system_op.eigensystem, op.axis_op.eigensystem
    state = np.ones(op.dim, dtype=complex)
    tracemalloc.start()
    try:
        basis = physical_subspace(op)
        gaps = basis.span_gaps([state])
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert gaps.shape == (1,)
    assert basis.count == 16
    assert held <= 1.25 * basis.count * op.dim * 16


def test_physical_subspace_peaks_near_its_basis(unit_constants):
    # kronecker_null_space fills the (n_q, n_t, count) array in place and
    # each residual reads a copy of one member, so no second copy of the
    # basis is ever held (it peaked at twice the basis when the members
    # were built count-first and transposed into place)
    q_grid, t_grid = energy_aligned_grids(unit_constants, n_q=256, n_t=128)
    ham = hamiltonian(ModelSpec(OSCILLATOR, unit_constants, q_grid))
    op = first_constraint_operator(ham, t_grid, unit_constants)
    # both factors keep their eigensystems, which are not part of the basis
    op.system_op.eigensystem, op.axis_op.eigensystem
    state = np.ones(op.dim, dtype=complex)
    tracemalloc.start()
    try:
        basis = physical_subspace(op)
        basis.span_gaps([state])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert basis.count == 32
    assert peak <= 1.25 * basis.vectors.nbytes


def test_uncertainty_product_gaussian():
    k = PhysicalConstants()
    t_grid = AxisGrid(n=256, origin=0.0, spacing=32.0 / 256, label="time")
    sigma = 1.0
    phi = gaussian_state(t_grid, 16.0, sigma)
    dt, ds, product = uncertainty_product(phi, t_grid, k)
    assert dt == pytest.approx(sigma, rel=1e-6)
    assert ds == pytest.approx(k.hbar / (2.0 * sigma), rel=1e-6)
    assert product == pytest.approx(k.hbar / 2.0, rel=1e-6)


def test_uncertainty_requires_normalized_state():
    k = PhysicalConstants()
    t_grid = AxisGrid(n=32, origin=0.0, spacing=0.25, label="time")
    # a NaN norm must fail the unit-norm check, not pass it by default;
    # the check is NORM_ATOL's, so a norm of 1 + 1e-9 fails it too
    for phi in (np.ones(32), np.full(32, np.nan),
                np.full(32, (1.0 + 1e-9) / np.sqrt(32.0))):
        with pytest.raises(ValueError):
            uncertainty_product(phi, t_grid, k)


def _first_small():
    k, _, t_grid, model = small_setup()
    return first_constraint_operator(hamiltonian(model), t_grid, k)


@pytest.mark.parametrize("refused, error", [
    (lambda: _first_small().residual(np.ones(7)), DimensionMismatchError),
    (lambda: _first_small().residual(np.zeros(24)), ValueError),
    (lambda: uncertainty_product(np.ones(3) / np.sqrt(3.0),
                                 small_setup()[2], PhysicalConstants()),
     DimensionMismatchError),
], ids=["residual-length", "residual-zero", "uncertainty-length"])
def test_constraint_refusals(refused, error):
    with pytest.raises(error):
        refused()


def test_array_holding_values_compare_and_hash_by_identity():
    # their fields are arrays, whose == has no single truth value
    cop = _first_small()
    basis = physical_subspace(cop, 0.6)
    state = CompositeState(basis.vectors[..., 0], cop.n_q, cop.n_t)
    for value, twin in ((identity(3), identity(3)),
                        (cop.system_op.eigensystem,
                         dataclasses.replace(cop.system_op.eigensystem)),
                        (cop, dataclasses.replace(cop)),
                        (basis, dataclasses.replace(basis)),
                        (state, dataclasses.replace(state))):
        assert value == value and value != twin
        assert len({value, value, twin}) == 2
