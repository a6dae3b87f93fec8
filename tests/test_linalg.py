"""Dense linear-algebra kernel: flags, eigensolves, products, null spaces."""

import dataclasses

import numpy as np
import pytest

from chronos.exceptions import (
    ConvergenceError,
    NotHermitianError,
    NotUnitaryError,
)
from chronos.linalg import (
    UNITARY_ATOL,
    OperatorMatrix,
    canonical_phase,
    eig_hermitian,
    hermitian_defect,
    identity,
    kron,
    kronecker_null_space,
    maxnorm,
    near_null_space,
    operator,
    unitary_defect,
    unitary_exp,
)

import oracles


def random_hermitian(rng, n):
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (raw + raw.conj().T)


def random_unitary(rng, n):
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(raw)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_maxnorm_and_defects():
    m = np.array([[1.0, 2.0], [3.0, -4.0]])
    assert maxnorm(m) == 4.0
    assert hermitian_defect(np.eye(3)) == 0.0
    assert unitary_defect(np.eye(3)) == 0.0
    skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert hermitian_defect(skew) == 2.0


def test_operator_flag_verification(rng):
    herm = random_hermitian(rng, 6)
    op = operator(herm, hermitian=True)
    assert op.hermitian
    with pytest.raises(NotHermitianError):
        operator(herm + 1e-6 * 1j * np.eye(6), hermitian=True)
    uni = random_unitary(rng, 6)
    # unitarity is verified but not stored: the only flag is hermitian
    wrapped = operator(uni, unitary=True)
    assert unitary_defect(wrapped.matrix) <= UNITARY_ATOL
    assert not wrapped.hermitian
    assert [f.name for f in dataclasses.fields(OperatorMatrix)] \
        == ["matrix", "hermitian"]
    with pytest.raises(NotUnitaryError):
        operator(2.0 * uni, unitary=True)


def non_finite_matrices():
    # a NaN matrix, and an inf off-diagonal pair that looks symmetric
    pair = np.zeros((3, 3))
    pair[0, 1] = pair[1, 0] = np.inf
    return [np.full((3, 3), np.nan), pair]


@pytest.mark.parametrize("index", [0, 1])
def test_flags_refuse_non_finite_matrices(index):
    # every defect comparison must fail on NaN, not pass by default
    m = non_finite_matrices()[index]
    with np.errstate(invalid="ignore"):
        with pytest.raises(NotHermitianError):
            operator(m, hermitian=True, unitary=True)
        with pytest.raises(NotUnitaryError):
            operator(m, unitary=True)
        with pytest.raises(NotHermitianError):
            eig_hermitian(m)


def test_eig_matches_jacobi_oracle(rng):
    # cross-check the LAPACK-backed path against cyclic Jacobi rotations
    for n in (4, 9, 16):
        herm = random_hermitian(rng, n)
        system = eig_hermitian(operator(herm, hermitian=True))
        reference = oracles.jacobi_spectrum(herm)
        assert np.max(np.abs(system.values - reference)) < 1e-10


def test_eig_reconstruction_property(rng):
    for _ in range(5):
        herm = random_hermitian(rng, 12)
        system = eig_hermitian(operator(herm, hermitian=True))
        v = system.vectors
        rebuilt = (v * system.values) @ v.conj().T
        assert maxnorm(rebuilt - herm) < 1e-11 * maxnorm(herm)
        gram = v.conj().T @ v
        assert maxnorm(gram - np.eye(12)) < 1e-12


def test_eig_phase_convention(rng):
    herm = random_hermitian(rng, 8)
    system = eig_hermitian(operator(herm, hermitian=True))
    for i in range(system.count):
        column = system.vector(i)
        peak = np.max(np.abs(column))
        pivots = np.nonzero(np.abs(column) > 1e-8 * peak)[0]
        lead = column[pivots[0]]
        assert lead.imag == 0.0
        assert lead.real > 0.0


def test_eig_deterministic_on_degenerate_spectrum():
    # twofold degeneracy: ordering inside the tie must be reproducible
    base = np.diag([1.0, 1.0, 2.0]).astype(np.complex128)
    rot = np.array([
        [np.cos(0.7), -np.sin(0.7), 0.0],
        [np.sin(0.7), np.cos(0.7), 0.0],
        [0.0, 0.0, 1.0],
    ])
    herm = rot @ base @ rot.T
    first = eig_hermitian(operator(herm, hermitian=True))
    second = eig_hermitian(operator(herm, hermitian=True))
    assert np.array_equal(first.values, second.values)
    assert np.array_equal(first.vectors, second.vectors)


def random_symmetric(rng, n):
    raw = rng.standard_normal((n, n))
    return 0.5 * (raw + raw.T)


def test_eig_solves_real_input_in_real_arithmetic(rng, monkeypatch):
    seen = []
    eigh = np.linalg.eigh

    def spy(a, *args, **kwargs):
        seen.append(a.dtype)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    sym = random_symmetric(rng, 8)
    eig_hermitian(operator(sym, hermitian=True))
    eig_hermitian(sym)
    eig_hermitian(sym.astype(np.complex128))
    eig_hermitian(operator(random_hermitian(rng, 8), hermitian=True))
    assert seen == [np.float64, np.float64, np.float64, np.complex128]


def test_eig_real_path_vectors_are_real(rng):
    system = eig_hermitian(operator(random_symmetric(rng, 10),
                                    hermitian=True))
    assert system.vectors.dtype == np.complex128
    assert not np.any(system.vectors.imag)


def test_eig_real_and_complex_paths_agree(rng):
    # a diagonal phase similarity D S D^H keeps the spectrum of a real
    # symmetric S, moves it onto the complex path and maps each
    # eigenprojector P to D P D^H
    sym = random_symmetric(rng, 12)
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 12))
    real = eig_hermitian(operator(sym, hermitian=True))
    herm = (phases[:, None] * sym) * phases.conj()[None, :]
    cplx = eig_hermitian(operator(herm, hermitian=True))
    scale = np.max(np.abs(real.values))
    assert np.max(np.abs(real.values - cplx.values)) <= 1e-12 * scale
    assert np.min(np.diff(real.values)) > 1e-6 * scale
    for i in range(real.count):
        u = phases * real.vector(i)
        v = cplx.vector(i)
        assert maxnorm(np.outer(u, u.conj()) - np.outer(v, v.conj())) < 1e-10


@pytest.mark.parametrize("real", [True, False])
def test_eig_checks_run_on_both_paths(rng, monkeypatch, real):
    m = random_symmetric(rng, 6) if real else random_hermitian(rng, 6)
    eigh = np.linalg.eigh
    with pytest.raises(NotHermitianError):
        eig_hermitian(m + np.triu(np.full((6, 6), 1e-3), 1))
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda a: (eigh(a)[0], 2.0 * eigh(a)[1]))
    with pytest.raises(ConvergenceError, match="orthonormality"):
        eig_hermitian(m)
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda a: (eigh(a)[0] + 1.0, eigh(a)[1]))
    with pytest.raises(ConvergenceError, match="reconstruct"):
        eig_hermitian(m)


@pytest.mark.parametrize("real", [True, False])
def test_eig_checks_refuse_nan_output(rng, monkeypatch, real):
    m = random_symmetric(rng, 6) if real else random_hermitian(rng, 6)
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda a: (eigh(a)[0], np.full_like(eigh(a)[1],
                                                            np.nan)))
    with np.errstate(invalid="ignore"):
        with pytest.raises(ConvergenceError, match="orthonormality"):
            eig_hermitian(m)
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda a: (np.full_like(eigh(a)[0], np.nan),
                                   eigh(a)[1]))
    with np.errstate(invalid="ignore"):
        with pytest.raises(ConvergenceError, match="reconstruct"):
            eig_hermitian(m)


def test_canonical_phase_keeps_real_columns_real(rng):
    block = rng.standard_normal((6, 3))
    fixed = canonical_phase(block)
    assert fixed.dtype == np.float64
    assert np.array_equal(np.abs(fixed), np.abs(block))


def test_canonical_phase_idempotent(rng):
    block = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    once = canonical_phase(block)
    twice = canonical_phase(once)
    assert np.array_equal(once, twice)
    # phase fixing never changes the physical ray
    overlaps = np.abs(np.sum(once.conj() * block, axis=0))
    norms = np.linalg.norm(block, axis=0) * np.linalg.norm(once, axis=0)
    assert np.allclose(overlaps, norms)


def test_kron_matches_index_oracle(rng):
    a = random_hermitian(rng, 3)
    b = random_hermitian(rng, 4)
    built = kron(operator(a, hermitian=True), operator(b, hermitian=True))
    assert built.hermitian
    assert maxnorm(built.matrix - oracles.kron_by_index(a, b)) < 1e-14


def test_kron_flag_rules(rng):
    # hermitian survives only when both factors carry it
    u = operator(random_unitary(rng, 2), unitary=True)
    h = operator(random_hermitian(rng, 3), hermitian=True)
    assert not kron(u, h).hermitian
    assert kron(h, h).hermitian
    assert identity(4).hermitian and kron(identity(2), h).hermitian


def test_unitary_exp_against_eigis(rng):
    herm = random_hermitian(rng, 7)
    theta = 0.83
    u = unitary_exp(operator(herm, hermitian=True), theta)
    assert unitary_defect(u.matrix) <= UNITARY_ATOL
    w, v = np.linalg.eigh(herm)
    expected = (v * np.exp(-1j * theta * w)) @ v.conj().T
    assert maxnorm(u.matrix - expected) < 1e-12


def test_unitary_exp_diagonal_fast_path():
    # a diagonal input takes the general eigensolve path and still comes
    # back as the entrywise exponential, with nothing off the diagonal
    values = np.array([0.5, -1.25, 2.0])
    u = unitary_exp(operator(np.diag(values), hermitian=True), 1.7)
    assert unitary_defect(u.matrix) <= UNITARY_ATOL
    assert maxnorm(u.matrix - np.diag(np.exp(-1.7j * values))) < 1e-13


def test_unitary_exp_group_property(rng):
    herm = random_hermitian(rng, 5)
    op = operator(herm, hermitian=True)
    ab = unitary_exp(op, 0.4).matrix @ unitary_exp(op, 0.9).matrix
    assert maxnorm(ab - unitary_exp(op, 1.3).matrix) < 1e-12


def test_near_null_space_known_kernel(rng):
    # plant an exact 3-dimensional kernel inside a well-conditioned matrix
    n = 20
    u = random_unitary(rng, n)
    v = random_unitary(rng, n)
    singulars = np.concatenate([np.zeros(3), rng.uniform(0.5, 2.0, n - 3)])
    m = (u * singulars) @ v.conj().T
    vectors = near_null_space(m, 1e-8)
    assert len(vectors) == 3
    for vec in vectors:
        assert np.linalg.norm(m @ vec) < 1e-8
    block = np.column_stack(vectors)
    gram = block.conj().T @ block
    assert maxnorm(gram - np.eye(3)) < 1e-10


def test_near_null_space_count_matches_gram_oracle(rng):
    n = 24
    u = random_unitary(rng, n)
    v = random_unitary(rng, n)
    singulars = np.concatenate([np.full(4, 1e-12), rng.uniform(0.3, 1.5, n - 4)])
    m = (u * singulars) @ v.conj().T
    tol = 1e-8
    assert len(near_null_space(m, tol)) == oracles.small_singular_count(m, tol)


def hermitian_with_spectrum(rng, values):
    u = random_unitary(rng, len(values))
    m = (u * np.asarray(values, dtype=float)) @ u.conj().T
    return 0.5 * (m + m.conj().T)


def projector(vectors):
    block = np.column_stack(vectors)
    return block @ block.conj().T


# spectra on a half-integer lattice keep every gap |kappa_k - a_m| at a
# multiple of 1/2, far from both tolerances, so rounding cannot flip a pair
@pytest.mark.parametrize("a_values, k_values", [
    ((-1.0, -0.5, 0.5, 1.5, 2.0, 3.0), (-0.5, 0.0, 1.5, 2.5)),
    ((0.0, 0.0, 0.5, 0.5, 0.5, 1.0, 2.0, 2.0), (0.0, 0.5, 0.5, 2.0, 3.0, 3.5)),
    ((1.0, 1.0, 1.0), (1.0, 1.0, 4.0, 4.0, -2.0)),
    ((-3.0, -2.0, 4.0, 5.0), (0.0, 1.0)),
])
@pytest.mark.parametrize("tol", [1e-8, 0.6])
def test_kronecker_null_space_matches_dense_svd(rng, a_values, k_values, tol):
    a = hermitian_with_spectrum(rng, a_values)
    kk = hermitian_with_spectrum(rng, k_values)
    left = eig_hermitian(operator(a, hermitian=True))
    right = eig_hermitian(operator(kk, hermitian=True))
    found = kronecker_null_space(left, right, tol)
    composite = (oracles.kron_by_index(np.eye(len(a_values)), kk)
                 - oracles.kron_by_index(a, np.eye(len(k_values))))
    dense = near_null_space(composite, tol)
    assert len(found) == len(dense) \
        == oracles.small_singular_count(composite, tol)
    pairs = [(m, k) for m, k, _ in found]
    assert pairs == sorted(pairs)
    for m, k, vector in found:
        assert abs(right.values[k] - left.values[m]) <= tol
        assert np.linalg.norm(composite @ vector) <= tol
    if dense:
        block = np.column_stack([v for _, _, v in found])
        assert maxnorm(block @ block.conj().T - projector(dense)) < 1e-10
        assert maxnorm(block.conj().T @ block - np.eye(len(dense))) < 1e-12
        assert np.array_equal(canonical_phase(block), block)

