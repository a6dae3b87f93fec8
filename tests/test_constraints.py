"""Constraint operators, physical subspaces, measurements, uncertainty."""

import dataclasses
import math

import numpy as np
import pytest

from chronos.axes import (
    AxisGrid,
    CompositeState,
    PhysicalConstants,
    default_position_grid,
    energy_lattice,
    energy_operator,
    gaussian_state,
    lift_system,
    position_operator,
    time_aligned_grids,
    time_operator,
)
from chronos.constraints import (
    MATERIALIZE_LIMIT,
    SubspaceBasis,
    first_constraint_operator,
    first_constraint_residual,
    generalized_constraint_operator,
    measurement_probabilities,
    physical_subspace,
    second_constraint_operator,
    second_constraint_residual,
    separable_first,
    separable_second,
    uncertainty_product,
)
from chronos.exceptions import (
    DimensionMismatchError,
    EmptyBasisError,
    NotHermitianError,
    OffLatticeWarning,
    OutOfRangeError,
    ZeroOverlapError,
)
from chronos.linalg import kron, maxnorm, near_null_space, operator
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


def test_generalized_constraint_matches_dense_kron(rng):
    k, q_grid, t_grid, model = small_setup()
    ham = hamiltonian(model)
    extra = kron(ham, operator(np.eye(t_grid.n), hermitian=True, unitary=True))
    op = generalized_constraint_operator(0.7, -0.3, extra, t_grid, k)
    s_mat = energy_operator(t_grid, k).matrix
    t_mat = time_operator(t_grid).matrix
    eye_q = np.eye(ham.dim)
    dense = (0.7 * oracles.kron_by_index(eye_q, s_mat)
             - 0.3 * oracles.kron_by_index(eye_q, t_mat)
             - extra.matrix)
    assert maxnorm(op.composite.matrix - dense) < 1e-12
    state = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
    factored = op.apply_matrix(state.reshape(op.n_q, op.n_t)).ravel()
    assert np.linalg.norm(factored - dense @ state) < 1e-11


def test_builders_reject_unverified_hermitian():
    k, q_grid, t_grid, model = small_setup()
    lopsided = np.triu(np.ones((q_grid.n, q_grid.n)))
    with pytest.raises(NotHermitianError):
        first_constraint_operator(lopsided, t_grid, k)
    with pytest.raises(NotHermitianError):
        second_constraint_operator(lopsided, t_grid)


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


def test_separable_first_warns_off_lattice(energy_bundle):
    bundle = energy_bundle
    system = bundle["eigensystem"]
    with pytest.warns(OffLatticeWarning):
        separable_first((system.values[0] + 0.01, system.vector(0)),
                        bundle["t_grid"], bundle["constants"])


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
    block = np.column_stack([np.asarray(m.amplitudes) for m in basis.members])
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
    bundle = energy_bundle
    ham = bundle["hamiltonian"]
    t_grid = bundle["t_grid"]
    eye_t = operator(np.eye(t_grid.n), hermitian=True, unitary=True)
    lifted = kron(ham, eye_t)
    basis = physical_subspace(generalized_constraint_operator(
        1.0, 0.0, lifted, t_grid, bundle["constants"]))
    reference = bundle["basis"]
    assert basis.count == reference.count
    gap = maxnorm(oracles.dense_projector(basis)
                  - oracles.dense_projector(reference))
    assert gap < 1e-8


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
    assert set(basis.labels) <= set(op.system_eigensystem.values.tolist())
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
    # F = H (x) I above the cap is the first constraint in disguise
    k = PhysicalConstants()
    q_grid = default_position_grid(k, n=48)
    t_grid = AxisGrid(n=96, origin=0.0, spacing=4.0 * math.pi / 96,
                      label="time")
    ham = hamiltonian(ModelSpec(OSCILLATOR, k, q_grid))
    first = physical_subspace(first_constraint_operator(ham, t_grid, k))
    op = generalized_constraint_operator(1.0, 0.0, lift_system(ham, t_grid.n),
                                         t_grid, k)
    assert op.dim > MATERIALIZE_LIMIT
    basis = physical_subspace(op)
    assert basis.count == first.count > 0
    assert basis.labels == (None,) * basis.count
    assert max(basis.residuals) <= basis.tol


def coupled_extra(n_q, n_t, k, time_part="samples"):
    # H (x) I plus a position-time coupling Q (x) B: Hermitian but not
    # A (x) I.  B = t_op makes the diagonal time blocks differ; B = s_op
    # without its diagonal keeps them equal and fills the others.
    q_grid = default_position_grid(k, n=n_q)
    t_grid = AxisGrid(n=n_t, origin=0.0, spacing=4.0 * math.pi / n_t,
                      label="time")
    ham = hamiltonian(ModelSpec(OSCILLATOR, k, q_grid))
    if time_part == "samples":
        b = time_operator(t_grid).matrix
    else:
        b = energy_operator(t_grid, k).matrix.copy()
        np.fill_diagonal(b, 0.0)
    coupling = np.kron(position_operator(q_grid).matrix, b)
    extra = operator(lift_system(ham, n_t).matrix + 1e-3 * coupling,
                     hermitian=True)
    return extra, t_grid


@pytest.mark.parametrize("time_part", ["samples", "hopping"])
def test_generalized_non_kronecker_extra_is_refused(time_part):
    # the generalized F must be a lifted system operator A (x) I; a
    # coupled F is refused when the operator is built, not when solved
    k = PhysicalConstants()
    extra, t_grid = coupled_extra(16, 8, k, time_part)
    with pytest.raises(DimensionMismatchError, match="lifted system"):
        generalized_constraint_operator(1.0, 0.0, extra, t_grid, k)


def test_generalized_non_kronecker_extra_refused_above_cap():
    # above the materialization cap the refusal is the same: the coupled F
    # is rejected at construction, before any composite would be formed
    k = PhysicalConstants()
    extra, t_grid = coupled_extra(66, 64, k)
    assert extra.dim > MATERIALIZE_LIMIT
    with pytest.raises(DimensionMismatchError, match="lifted system"):
        generalized_constraint_operator(1.0, 0.0, extra, t_grid, k)


def test_measurement_on_basis_member(energy_bundle):
    basis = energy_bundle["basis"]
    pairs, weight = measurement_probabilities(basis.members[2], basis)
    assert weight == pytest.approx(1.0, abs=1e-10)
    probs = dict((label, p) for label, p in pairs)
    assert probs[basis.labels[2]] == pytest.approx(1.0, abs=1e-10)


def test_measurement_of_mixture(energy_bundle):
    basis = energy_bundle["basis"]
    a = np.asarray(basis.members[0].amplitudes)
    b = np.asarray(basis.members[1].amplitudes)
    mix = (math.sqrt(0.25) * a + math.sqrt(0.75) * b)
    from chronos.axes import composite_state
    state = composite_state(mix, basis.members[0].n_q, basis.members[0].n_t)
    pairs, weight = measurement_probabilities(state, basis)
    phased = 1j * np.exp(0.3j) * mix
    want = [np.vdot(m.amplitudes, phased) for m in basis.members]
    assert np.max(np.abs(basis.coefficients(phased) - want)) < 1e-14
    probs = dict(pairs)
    assert probs[basis.labels[0]] == pytest.approx(0.25, abs=1e-9)
    assert probs[basis.labels[1]] == pytest.approx(0.75, abs=1e-9)
    assert weight == pytest.approx(1.0, abs=1e-9)


def test_measurement_guards(energy_bundle, rng):
    basis = energy_bundle["basis"]
    empty = SubspaceBasis((), (), (), basis.kind, basis.tol)
    with pytest.raises(EmptyBasisError):
        measurement_probabilities(basis.members[0], empty)
    with pytest.raises(EmptyBasisError):
        empty.coefficients(basis.members[0])
    # build a state orthogonal to every member
    block = np.column_stack([np.asarray(m.amplitudes) for m in basis.members])
    vec = rng.standard_normal(block.shape[0]) \
        + 1j * rng.standard_normal(block.shape[0])
    vec -= block @ (block.conj().T @ vec)
    vec -= block @ (block.conj().T @ vec)
    vec /= np.linalg.norm(vec)
    from chronos.axes import composite_state
    state = composite_state(vec, basis.members[0].n_q, basis.members[0].n_t)
    with pytest.raises(ZeroOverlapError):
        measurement_probabilities(state, basis)


def test_measurement_refuses_a_nan_weight(energy_bundle):
    # a NaN amplitude makes the subspace weight NaN, which is no weight
    basis = energy_bundle["basis"]
    member = basis.members[1]
    amplitudes = np.array(member.amplitudes)
    amplitudes[len(amplitudes) // 2] = np.nan
    state = CompositeState(amplitudes, member.n_q, member.n_t,
                           normalized=False)
    with pytest.raises(ZeroOverlapError, match="nan"):
        measurement_probabilities(state, basis)


def random_basis(rng, n_q, n_t, count, near=None):
    # count orthonormal members from a QR factorization; near=B gives a
    # span about 1e-6 away from B's
    shape = (n_q * n_t, count)
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if near is not None:
        raw = oracles.member_matrix(near) + 1e-6 * raw
    q, _ = np.linalg.qr(raw)
    return SubspaceBasis(tuple(CompositeState(v, n_q, n_t) for v in q.T),
                         (None,) * count, (0.0,) * count, "generalized",
                         1e-6)


def with_nan(basis, row):
    # the same basis with its first member's amplitude at row set to NaN
    first = np.array(basis.members[0].amplitudes)
    first[row] = np.nan
    members = (CompositeState(first, basis.members[0].n_q,
                              basis.members[0].n_t, normalized=False),)
    return dataclasses.replace(basis, members=members + basis.members[1:])


# two dims are not multiples of the 128-row tile.  The comparison is bit
# for bit, so it rests on BLAS giving a block of rows of B B^H the same
# bits as the whole product does: true of OpenBLAS 0.3.31 (Haswell
# kernels, one and two threads), but a BLAS whose edge kernels or thread
# split differ between the two shapes may round a last bit apart
@pytest.mark.parametrize("n_q, n_t, count", [(32, 16, 4), (30, 10, 7),
                                             (128, 16, 16), (129, 1, 1)])
def test_projector_gap_matches_dense_oracle(rng, n_q, n_t, count):
    basis = random_basis(rng, n_q, n_t, count)
    for other in (random_basis(rng, n_q, n_t, count),
                  random_basis(rng, n_q, n_t, count, near=basis)):
        dense = oracles.dense_projector(basis)
        dense -= oracles.dense_projector(other)
        want = maxnorm(dense)
        del dense
        assert basis.projector_gap(other).hex() == want.hex()


@pytest.mark.parametrize("row", [0, 200, 299])
def test_projector_gap_propagates_nan_from_either_basis(rng, row):
    a, b = random_basis(rng, 30, 10, 3), random_basis(rng, 30, 10, 3)
    assert math.isnan(with_nan(a, row).projector_gap(b))
    assert math.isnan(a.projector_gap(with_nan(b, row)))


def test_project_matches_dense_projector(rng, energy_bundle):
    for basis in (energy_bundle["basis"], random_basis(rng, 30, 10, 7)):
        dense = oracles.dense_projector(basis)
        dim = dense.shape[0]
        for _ in range(3):
            state = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            gap = np.linalg.norm(basis.project(state) - dense @ state)
            assert gap <= 1e-15 * np.linalg.norm(state)
        # a member projects onto itself, and a CompositeState is projected
        # like its amplitudes
        member = basis.members[-1]
        assert np.linalg.norm(basis.project(member)
                              - member.amplitudes) <= 1e-14
        assert np.array_equal(basis.project(member),
                              basis.project(member.amplitudes))


def test_empty_basis_has_no_projection(energy_bundle):
    basis = energy_bundle["basis"]
    empty = SubspaceBasis((), (), (), basis.kind, basis.tol)
    with pytest.raises(EmptyBasisError):
        empty.project(basis.members[0])
    with pytest.raises(EmptyBasisError):
        empty.projector_gap(basis)
    with pytest.raises(EmptyBasisError):
        basis.projector_gap(empty)


def test_projector_gap_refuses_other_dimensions(rng):
    with pytest.raises(DimensionMismatchError):
        random_basis(rng, 30, 10, 2).projector_gap(random_basis(rng, 30, 9, 2))


def test_residual_functions_match_operator(energy_bundle, rng):
    bundle = energy_bundle
    op = bundle["constraint"]
    vec = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
    vec /= np.linalg.norm(vec)
    direct = first_constraint_residual(vec, bundle["hamiltonian"],
                                       bundle["t_grid"], bundle["constants"])
    assert direct == pytest.approx(op.residual(vec), rel=1e-12)


def test_second_residual_function(time_bundle, rng):
    bundle = time_bundle
    op = bundle["constraint"]
    vec = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
    vec /= np.linalg.norm(vec)
    direct = second_constraint_residual(vec, bundle["clock"], bundle["t_grid"])
    assert direct == pytest.approx(op.residual(vec), rel=1e-12)


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
    # a NaN norm must fail the unit-norm check, not pass it by default
    for phi in (np.ones(32), np.full(32, np.nan)):
        with pytest.raises(ValueError):
            uncertainty_product(phi, t_grid, k)
