"""Dense linear-algebra kernel: symmetry checks, eigensolves, products, null
spaces."""

import dataclasses
import inspect
import tracemalloc

import numpy as np
import pytest

from chronos import linalg
from chronos.axes import AxisGrid, PhysicalConstants, lift_system
from chronos.exceptions import (
    ConvergenceError,
    DimensionMismatchError,
    NotHermitianError,
    NotUnitaryError,
)
from chronos.linalg import (
    UNITARY_ATOL,
    CirculantPlusDiagonal,
    OperatorMatrix,
    canonical_phase,
    eig_hermitian,
    hermitian_defect,
    identity,
    kron,
    kronecker_null_pairs,
    kronecker_null_space,
    maxnorm,
    near_null_space,
    operator,
    spectral_exp,
    unitary_defect,
    unitary_exp,
)
from chronos.models import FREE_PARTICLE, OSCILLATOR, ModelSpec, hamiltonian

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


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_maxnorm_propagates_nan_from_any_entry(dtype):
    # a real array is reduced by its max and min without an |a| temporary;
    # NaN in any position must still come out as NaN, and so fail every
    # check written `not defect <= tol`
    for index in np.ndindex(3, 4):
        a = np.arange(-6.0, 6.0).reshape(3, 4).astype(dtype)
        a[index] = np.nan
        assert np.isnan(maxnorm(a))
    assert maxnorm(np.zeros((2, 2), dtype=dtype)) == 0.0
    assert str(maxnorm(np.zeros((2, 2), dtype=dtype))) == "0.0"
    assert maxnorm(np.array([-3.0, 2.0], dtype=dtype)) == 3.0
    assert maxnorm(np.array([], dtype=dtype)) == 0.0


def test_operator_flag_verification(rng):
    # the hermitian keyword is measured and refused, never stored
    herm = random_hermitian(rng, 6)
    assert operator(herm, hermitian=True).matrix.tobytes() == herm.tobytes()
    with pytest.raises(NotHermitianError):
        operator(herm + 1e-6 * 1j * np.eye(6), hermitian=True)
    v, values = random_unitary(rng, 6), rng.standard_normal(6)
    # unitarity is verified where a unitary is built, by spectral_exp, but
    # not stored either: an operator is its matrix, the only keyword is
    # hermitian
    wrapped = spectral_exp(v, values, 0.7)
    assert unitary_defect(wrapped.matrix) <= UNITARY_ATOL
    assert [f.name for f in dataclasses.fields(OperatorMatrix)] == ["matrix"]
    assert list(inspect.signature(operator).parameters) \
        == ["matrix", "hermitian"]
    # sqrt(2) V diag(phases) sqrt(2) V^H is twice a unitary
    with pytest.raises(NotUnitaryError):
        spectral_exp(np.sqrt(2.0) * v, values, 0.7)


def test_operator_matrix_copies_unless_handed_a_frozen_array(rng):
    mutable = random_symmetric(rng, 4)
    op = OperatorMatrix(mutable)
    mutable[0, 0] += 1.0
    assert op.matrix[0, 0] == mutable[0, 0] - 1.0
    assert not op.matrix.flags.writeable
    frozen = random_symmetric(rng, 4)
    frozen.setflags(write=False)
    assert OperatorMatrix(frozen).matrix is frozen
    # a read-only view of a writable array is still copied
    view = mutable[:, :]
    view.setflags(write=False)
    assert OperatorMatrix(view).matrix is not view


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
            operator(m, hermitian=True)
        # m m^H, whose defect is NaN
        with pytest.raises(NotUnitaryError):
            spectral_exp(m, np.zeros(3), 0.0)
        with pytest.raises(NotHermitianError):
            eig_hermitian(m)


@pytest.mark.parametrize("shape", [(2, 3), (3,), (1, 2, 2)])
def test_raw_matrix_that_is_not_square_is_refused(shape):
    # the shape is checked before any hermitian check reads the matrix
    with pytest.raises(DimensionMismatchError, match="must be square"):
        operator(np.ones(shape), hermitian=True)
    with pytest.raises(DimensionMismatchError, match="must be square"):
        eig_hermitian(np.ones(shape))


def defect_inputs(rng, n, dtype):
    # a far-from-Hermitian matrix, an exactly Hermitian one, and one off
    # by a single entry in the last row
    raw = 100.0 * rng.standard_normal((n, n))
    if dtype == np.complex128:
        raw = raw + 100j * rng.standard_normal((n, n))
    raw = raw.astype(dtype)
    herm = raw + raw.conj().T
    near = herm.copy()
    if n:
        near[n - 1, 0] += 1
    return raw, herm, near


@pytest.mark.parametrize("dtype", [np.float64, np.complex128, np.int64])
@pytest.mark.parametrize("n", [0, 1, 2, 127, 128, 129, 300])
def test_hermitian_defect_matches_dense_oracle(rng, dtype, n):
    for m in defect_inputs(rng, n, dtype):
        got = hermitian_defect(m)
        assert type(got) is float
        assert np.float64(got).tobytes() \
            == np.float64(oracles.dense_hermitian_defect(m)).tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("index", [(5, 7), (5, 200), (200, 5), (290, 150)],
                         ids=["diagonal", "upper", "lower", "lower_edge"])
def test_hermitian_defect_propagates_nan_from_any_tile(rng, dtype, index):
    m = random_symmetric(rng, 300).astype(dtype)
    m[index] = np.nan
    with np.errstate(invalid="ignore"):
        assert np.isnan(hermitian_defect(m))
        assert np.isnan(oracles.dense_hermitian_defect(m))


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
    # complex-typed input takes the complex path even with a zero
    # imaginary part: eigh gets the stored dtype, nothing is re-detected
    eig_hermitian(sym.astype(np.complex128))
    eig_hermitian(operator(random_hermitian(rng, 8), hermitian=True))
    assert seen == [np.float64, np.float64, np.complex128, np.complex128]


def test_eig_real_path_vectors_are_real(rng):
    system = eig_hermitian(operator(random_symmetric(rng, 10),
                                    hermitian=True))
    assert system.vectors.dtype == np.float64
    assert system.values.dtype == np.float64


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


def reflected(a):
    # a + P a P for the reflection P: j -> (n - j) mod n, exactly invariant
    flip = -np.arange(a.shape[0]) % a.shape[0]
    return a + a[np.ix_(flip, flip)]


def mirrored_closed_form(rng, n):
    # a random closed form exactly invariant under the reflection, the one
    # input the split takes
    return CirculantPlusDiagonal(*next(closed_form_cases(rng, n)))


@pytest.mark.parametrize("n", [4, 10, 64])
def test_eig_reflection_split_matches_full_eigh(rng, eigh_shapes, n):
    column, diagonal = next(closed_form_cases(rng, n))
    op = CirculantPlusDiagonal(column, diagonal)
    system = eig_hermitian(op)
    # an even block of n/2 + 1 and an odd block of n/2 - 1, no full solve
    assert eigh_shapes == [(n // 2 + 1,) * 2, (n // 2 - 1,) * 2]
    again = eig_hermitian(CirculantPlusDiagonal(column, diagonal))
    assert system.values.tobytes() == again.values.tobytes()
    assert system.vectors.tobytes() == again.vectors.tobytes()
    values, vectors = np.linalg.eigh(op.matrix)
    scale = np.max(np.abs(values))
    assert np.max(np.abs(system.values - values)) <= 1e-11 * scale
    for mine, want in zip(
            oracles.eigenspace_projectors(system.values, system.vectors, n),
            oracles.eigenspace_projectors(values, vectors, n)):
        assert maxnorm(mine - want) <= 1e-9
    assert sorted(oracles.reflection_parities(system.vectors)) \
        == [-1] * (n // 2 - 1) + [1] * (n // 2 + 1)


@pytest.mark.parametrize("build", [
    pytest.param(lambda rng: reflected(random_symmetric(rng, 9)), id="odd"),
    pytest.param(lambda rng: reflected(random_hermitian(rng, 8)),
                 id="complex"),
    pytest.param(lambda rng: random_symmetric(rng, 8), id="unreflected"),
    # a dense matrix is solved whole even when it is real and exactly
    # reflection-invariant: the split is the closed form's route alone
    pytest.param(lambda rng: reflected(random_symmetric(rng, 8)),
                 id="reflected"),
    pytest.param(lambda rng: OperatorMatrix(
        reflected(random_symmetric(rng, 8))), id="reflected_operator"),
    pytest.param(lambda rng: mirrored_closed_form(rng, 9), id="closed_odd"),
    pytest.param(lambda rng: mirrored_closed_form(rng, 2), id="closed_n2"),
])
def test_eig_full_route_outside_the_split(rng, eigh_shapes, build):
    m = build(rng)
    system = eig_hermitian(m)
    assert eigh_shapes == [np.shape(getattr(m, "matrix", m))]
    assert system._split is None


@pytest.mark.parametrize("perturb, match", [
    ("vector", "orthonormality"),
    ("odd_value", "reconstruct"),
    ("odd_vector", "orthonormality"),
    ("duplicate", "orthonormality"),
])
def test_eig_checks_certify_the_split(rng, monkeypatch, perturb, match):
    m = mirrored_closed_form(rng, 12)
    eigh = np.linalg.eigh
    shapes = []

    def perturbed(a):
        shapes.append(a.shape)
        values, vectors = eigh(a)
        if perturb == "vector":
            vectors[0, 0] += 1e-6
        elif perturb == "odd_vector" and a.shape == (5, 5):
            vectors[2, 1] += 1e-6
        elif perturb == "duplicate" and a.shape == (7, 7):
            # two merged columns equal, each still exactly even
            vectors[:, 3] = vectors[:, 2]
        elif perturb == "odd_value" and a.shape == (5, 5):
            values[0] += 1e-3
        return values, vectors

    monkeypatch.setattr(np.linalg, "eigh", perturbed)
    with pytest.raises(ConvergenceError, match=match):
        eig_hermitian(m)
    assert shapes == [(7, 7), (5, 5)]
    assert "matrix" not in vars(m)


@pytest.mark.parametrize("where", ["even_row_0", "even_row_h", "odd",
                                   "value"])
def test_eig_split_checks_refuse_one_nan(rng, monkeypatch, where):
    # one NaN on rows 0 or n/2 of an even column passes the exact parity
    # test, so the half-size Gram products must still refuse it
    column, diagonal = next(closed_form_cases(rng, 12))
    eigh = np.linalg.eigh

    def poisoned(a):
        values, vectors = eigh(a)
        if where == "value" and a.shape == (7, 7):
            values[2] = np.nan
        elif where == "odd" and a.shape == (5, 5):
            vectors[1, 3] = np.nan
        elif where.startswith("even") and a.shape == (7, 7):
            vectors[0 if where == "even_row_0" else 6, 4] = np.nan
        return values, vectors

    monkeypatch.setattr(np.linalg, "eigh", poisoned)
    match = "reconstruct" if where == "value" else "orthonormality"
    with np.errstate(invalid="ignore"):
        with pytest.raises(ConvergenceError, match=match):
            eig_hermitian(CirculantPlusDiagonal(column, diagonal))
        # entries (3, 5), (5, 3), (9, 7) and (7, 9), with every other pair
        # at offsets 2 and 10
        column[2] = column[10] = np.nan
        with pytest.raises(NotHermitianError):
            eig_hermitian(CirculantPlusDiagonal(column, diagonal))


@pytest.mark.parametrize("parity, row", [(1, 4), (-1, 4)])
def test_eig_broken_mirror_is_caught_when_vectors_are_formed(rng, monkeypatch,
                                                              parity, row):
    # the split keeps the even block on rows 0 .. n/2 and the odd block on
    # rows 1 .. n/2 - 1; an entry of either that is off breaks its block's
    # product, so the solve refuses it before any vectors are formed.  An
    # odd column's rows 0 and n/2, its own mirrors, are not kept but
    # written as zeros when the vectors are formed, so none can break
    m = mirrored_closed_form(rng, 12)
    split = linalg._eigh

    def broken(a):
        values, even, odd, order = split(a)
        (even if parity > 0 else odd)[row - (parity < 0), 1] += 1e-4
        return values, even, odd, order

    monkeypatch.setattr(linalg, "_eigh", broken)
    with pytest.raises(ConvergenceError, match="orthonormality"):
        eig_hermitian(m)


@pytest.mark.parametrize("n", [1, 2, 6, 7, 12])
def test_reflection_test_reads_every_entry(rng, n):
    # the dense reference for CirculantPlusDiagonal.reflection_invariant
    # must see a one-ulp change in any entry that is not its own mirror
    flip = -np.arange(n) % n
    m = reflected(random_symmetric(rng, n))
    assert oracles.dense_reflection_invariant(m)
    for index in np.ndindex(n, n):
        changed = m.copy()
        changed[index] = np.nextafter(changed[index], np.inf)
        assert oracles.dense_reflection_invariant(changed) \
            == (index == (flip[index[0]], flip[index[1]]))


def split_result(m):
    # the split's values, even block and the rest as eig_hermitian checks
    # them: the odd block, the merge order and the odd columns' zeros
    values, even, odd, order = linalg._eigh(m)
    linalg._fix_phase(even)
    split = odd, order, 0.0 * linalg._fix_phase(odd)
    linalg._order_degenerate(values, even, split)
    return values, even, split


def formed(even, split):
    return linalg.EigenSystem(np.zeros(split[1].shape), even, split).vectors


@pytest.mark.parametrize("n", [4, 6, 12, 130, 512, 1024])
def test_quarter_reconstruction_matches_full_product(rng, n):
    # rows 0 .. n/2 go TILE rows at a time: 130 fits one partial tile,
    # 512 and 1024 end on a one-row tile
    m = mirrored_closed_form(rng, n)
    values, even, split = split_result(m)
    assert m.reflection_invariant()
    vectors = formed(even, split)
    shifted = values.copy()
    shifted[n // 3] += 1e-6
    for w in (values, shifted):
        quarter = linalg._reconstruction_defect(w, even, split, m)
        full = oracles.dense_reconstruction_defect(w, vectors, m.matrix)
        assert abs(quarter - full) <= 1e-13 * maxnorm(m.matrix)


def test_eig_quarter_reconstruction_refuses_a_wrong_value(rng, monkeypatch):
    m = mirrored_closed_form(rng, 12)
    split = linalg._eigh
    seen = []
    invariant = CirculantPlusDiagonal.reflection_invariant

    def spy(self):
        seen.append(invariant(self))
        return seen[-1]

    def shifted(a):
        values, even, odd, order = split(a)
        values[3] += 1e-3
        return values, even, odd, order

    monkeypatch.setattr(CirculantPlusDiagonal, "reflection_invariant", spy)
    monkeypatch.setattr(linalg, "_eigh", shifted)
    with pytest.raises(ConvergenceError, match="reconstruct"):
        eig_hermitian(m)
    # one test routes the solve, one the reconstruction: both split
    assert seen == [True, True]


def test_eig_reconstruction_reads_rows_below_the_quarter(rng, monkeypatch):
    # a closed form changed only in row 9 of 12, on its diagonal: still
    # Hermitian but no longer reflection-invariant.  Handed the unchanged
    # split result by a route that took it for mirrored, rows 0 .. n/2
    # agree, so only the certificate's own reflection test and its full
    # product can refuse it
    column, diagonal = next(closed_form_cases(rng, 12))
    base = CirculantPlusDiagonal(column, diagonal)
    diagonal = diagonal.copy()
    diagonal[9] += 1e-3
    changed = CirculantPlusDiagonal(column, diagonal)
    assert np.array_equal(changed.rows(0, 7), base.rows(0, 7))
    result = linalg._eigh(base)
    monkeypatch.setattr(linalg, "_eigh",
                        lambda a: tuple(part.copy() for part in result))
    eig_hermitian(base)
    routed = []
    invariant = CirculantPlusDiagonal.reflection_invariant

    def mirrored_once(self):
        # the route's test, the first call, passes; the certificate's is
        # the real one
        routed.append(self)
        return len(routed) == 1 or invariant(self)

    monkeypatch.setattr(CirculantPlusDiagonal, "reflection_invariant",
                        mirrored_once)
    with pytest.raises(ConvergenceError, match="reconstruct"):
        eig_hermitian(changed)
    assert routed == [changed, changed]


def test_eig_nan_below_the_quarter_is_refused(rng):
    column, diagonal = next(closed_form_cases(rng, 12))
    values, even, split = split_result(
        CirculantPlusDiagonal(column, diagonal))
    diagonal[9] = np.nan
    changed = CirculantPlusDiagonal(column, diagonal)
    with np.errstate(invalid="ignore"):
        assert np.isnan(
            linalg._reconstruction_defect(values, even, split, changed))
        with pytest.raises(NotHermitianError):
            eig_hermitian(changed)


def centred_hamiltonian(kind, n):
    # origin -L/2 with exact binary samples, so both models mirror exactly
    return hamiltonian(ModelSpec(
        kind, PhysicalConstants(),
        AxisGrid(n=n, origin=-20.0, spacing=40.0 / n, label="position")))


def eigh_blocks(monkeypatch):
    # every (values, vectors) np.linalg.eigh returns, as it returned them
    blocks = []
    eigh = np.linalg.eigh

    def spy(a):
        values, vectors = eigh(a)
        blocks.append((values.copy(), vectors.copy()))
        return values, vectors

    monkeypatch.setattr(np.linalg, "eigh", spy)
    return blocks


SPLIT_INPUTS = [
    pytest.param(lambda rng, n=n: mirrored_closed_form(rng, n), id="n%d" % n)
    for n in (4, 12, 64)] + [
    pytest.param(lambda rng: centred_hamiltonian(FREE_PARTICLE, 256),
                 id="free_particle"),
    pytest.param(lambda rng: centred_hamiltonian(OSCILLATOR, 256),
                 id="oscillator"),
]


@pytest.mark.parametrize("build", SPLIT_INPUTS)
def test_eigh_merge_matches_scatter_oracle(rng, monkeypatch, build):
    # the blocks as eigh returned them, scaled onto the vectors' rows, and
    # the merge order: formed with plain zeros, no phase fixed, they are the
    # oracle's scatter of each block column into its ascending place
    m = build(rng)
    h = m.dim // 2
    blocks = eigh_blocks(monkeypatch)
    values, even, odd, order = linalg._eigh(m)
    assert len(blocks) == 2
    want_values, want_vectors = oracles.scatter_merge(*blocks)
    assert values.tobytes() == want_values.tobytes()
    place = np.argsort(order)
    assert even.tobytes() == want_vectors[:h + 1, place[:h + 1]].tobytes()
    assert odd.tobytes() == want_vectors[1:h, place[h + 1:]].tobytes()
    assert [-1 if k > h else 1 for k in order] \
        == oracles.reflection_parities(want_vectors)
    split = odd, order, np.zeros(h - 1)
    assert formed(even, split).tobytes() == want_vectors.tobytes()
    if not m.diagonal.any():  # the free particle's standing-wave pairs
        assert np.count_nonzero(values[1:] == values[:-1]) >= 10


@pytest.mark.parametrize("build", SPLIT_INPUTS[:3] + [
    pytest.param(lambda rng: mirrored_closed_form(rng, 512), id="n512")]
    + SPLIT_INPUTS[3:])
def test_formed_vectors_match_take_merge_oracle(rng, monkeypatch, build):
    # the n x n vectors formed from the kept rows on first read, bit for
    # bit those of merging both blocks in full, then fixing phases and
    # ordering ties on the full array
    m = build(rng)
    blocks = eigh_blocks(monkeypatch)
    system = eig_hermitian(m)
    assert "vectors" not in vars(system)
    want_values, want_vectors = oracles.eig_by_take_merge(*blocks)
    assert system.values.tobytes() == want_values.tobytes()
    assert system.vectors.tobytes() == want_vectors.tobytes()
    assert system.vectors is system.vectors
    assert not system.vectors.flags.writeable
    # once formed, the array is held alone, the blocks dropped
    assert system.rows is system.vectors and system._split is None
    assert "matrix" not in vars(m)


def test_eig_allocation_peak(rng):
    m = random_symmetric(rng, 512)
    tracemalloc.start()
    try:
        eig_hermitian(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the vectors, V diag(w) and its product with V^T in the
    # reconstruction check: three inputs' worth, where holding every
    # check temporary at once took five
    assert peak <= 3.5 * m.nbytes


def test_spectrum_values_allocation_peak():
    # the values of the spectrum-large document's 1024-point Hamiltonian,
    # as `chronos spectrum` reads them, traced from before the Hamiltonian
    # is built.  It is kept in closed form, and the split generates rows
    # 0 .. n/2 of the matrix, half of its n x n size, drops them once the
    # blocks are built, and keeps the values and both block eigensystems
    # where eigh returned them, a quarter of the matrix each.  At its peak
    # the reconstruction also holds both blocks' symmetric products and the
    # odd block's scaled copy, a quarter each: 1.28 of the matrix's size.
    # Gathering the even and odd columns out of an (n/2 + 1) x n scatter of
    # both blocks peaked at 1.45
    model = ModelSpec(OSCILLATOR, PhysicalConstants(),
                      AxisGrid(n=1024, origin=-20.0, spacing=40.0 / 1024,
                               label="position"))
    n = model.grid.n
    size = n * n * 8
    np.fft.irfft  # numpy imports its fft module on first use, not traced
    tracemalloc.start()
    try:
        hamiltonian(model).eigensystem.values
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.35 * size
    # both blocks, and room for eight length-n float arrays
    h = n // 2
    assert held <= ((h + 1) ** 2 + (h - 1) ** 2) * 8 + 8 * n * 8
    assert "matrix" not in vars(hamiltonian(model))


def closed_form_hamiltonian(kind, n, shift=0.0):
    # a box of about 40 with an exact binary spacing, so origin -L/2 mirrors
    # the samples exactly; shift moves the origin by that fraction of a step
    spacing = 2.0 ** -np.round(np.log2(n / 40.0))
    return hamiltonian(ModelSpec(kind, PhysicalConstants(), AxisGrid(
        n=n, origin=(shift - n / 2) * spacing, spacing=spacing,
        label="position")))


@pytest.mark.parametrize("kind", [OSCILLATOR, FREE_PARTICLE])
@pytest.mark.parametrize("n, shift", [(4, 0.0), (6, 0.0), (64, 0.0),
                                      (1024, 0.0), (2048, 0.0), (64, 0.3)],
                         ids=["n4", "n6", "n64", "n1024", "n2048",
                              "n64-offset"])
def test_closed_form_eigensystem_matches_formed_matrix(monkeypatch, kind, n,
                                                       shift):
    # the Hamiltonian solved from its closed form.  A split never forms the
    # matrix, and its values, blocks, merge order and formed vectors are
    # bit for bit the take-merge oracle of the two blocks eigh returned; the
    # oscillator on an offset grid is not reflection-invariant (the free
    # particle has no potential to break the mirror), so it is formed and
    # solved whole, bit for bit the solve of its formed matrix
    ham = closed_form_hamiltonian(kind, n, shift)
    assert isinstance(ham, CirculantPlusDiagonal)
    blocks = eigh_blocks(monkeypatch)
    closed = eig_hermitian(ham)
    split = not (kind == OSCILLATOR and shift != 0.0)
    assert (closed._split is not None) == split
    assert ("matrix" in vars(ham)) != split
    if split:
        h = n // 2
        want_values, want_vectors = oracles.eig_by_take_merge(*blocks)
        assert closed.values.tobytes() == want_values.tobytes()
        odd, order, zeros = closed._split
        place = np.argsort(order)
        for block, rows, columns in ((closed.rows, slice(0, h + 1),
                                      place[:h + 1]),
                                     (odd, slice(1, h), place[h + 1:]),
                                     (zeros, 0, place[h + 1:]),
                                     (zeros, h, place[h + 1:])):
            assert block.tobytes() == want_vectors[rows, columns].tobytes()
        assert [-1 if k > h else 1 for k in order] \
            == oracles.reflection_parities(want_vectors)
        assert closed.vectors.tobytes() == want_vectors.tobytes()
        return
    dense = eig_hermitian(ham.matrix)
    for name in ("values", "rows", "vectors"):
        assert getattr(closed, name).tobytes() \
            == getattr(dense, name).tobytes(), name
    assert dense._split is None


def closed_form_cases(rng, n):
    # (column, diagonal) pairs: mirrored, with an asymmetric column, an
    # unmirrored diagonal, and a NaN or an infinity in either array
    column = rng.standard_normal(n)
    column = column + column[-np.arange(n) % n]
    diagonal = rng.standard_normal(n)
    diagonal = diagonal + diagonal[-np.arange(n) % n]
    yield column, diagonal
    yield column + 1e-9 * rng.standard_normal(n), diagonal
    yield column, rng.standard_normal(n)
    for where in (0, n // 2, n - 1):
        for bad in (np.nan, np.inf, -np.inf):
            for target in (0, 1):
                pair = [column.copy(), diagonal.copy()]
                pair[target][where] = bad
                yield pair


@pytest.mark.parametrize("n", [1, 2, 5, 8, 300])
def test_closed_form_checks_are_the_formed_matrix_checks(rng, n):
    # the O(n) hermitian defect, maxnorm and reflection test read the same
    # numbers as the tile tests on the formed matrix, NaN for NaN; a NaN
    # fails the closed form's reflection test even at entry (0, 0), which
    # is its own mirror and which the matrix test never reads
    with np.errstate(invalid="ignore"):
        for column, diagonal in closed_form_cases(rng, n):
            op = CirculantPlusDiagonal(column, diagonal)
            m = op.matrix
            assert repr(op.hermitian_defect()) == repr(hermitian_defect(m))
            assert repr(op.maxnorm()) == repr(maxnorm(m))
            finite = np.isfinite(column).all() and np.isfinite(diagonal).all()
            if finite or np.isnan(m).any():
                assert op.reflection_invariant() == (
                    finite and oracles.dense_reflection_invariant(m))


@pytest.mark.parametrize("n", [1, 2, 6, 7])
def test_closed_form_reflection_test_reads_every_entry(rng, n):
    column, diagonal = next(closed_form_cases(rng, n))
    flip = -np.arange(n) % n
    base = CirculantPlusDiagonal(column, diagonal)
    assert base.reflection_invariant()
    for target in (0, 1):
        for j in range(n):
            pair = [column.copy(), diagonal.copy()]
            pair[target][j] = np.nextafter(pair[target][j], np.inf)
            op = CirculantPlusDiagonal(*pair)
            # the column's entry 0 is on the diagonal, with every diagonal
            # entry, so it moves them all alike; a one-ulp step of the
            # diagonal can round away in the entry column[0] + diagonal[j]
            mirrored = flip[j] == j or (target == 0 and j == 0)
            moved = not np.array_equal(op.matrix, base.matrix)
            assert op.reflection_invariant() == (mirrored or not moved)


@pytest.mark.parametrize("n", [1, 4, 7, 300])
def test_closed_form_rows_are_rows_of_the_formed_matrix(rng, n):
    op = CirculantPlusDiagonal(rng.standard_normal(n), rng.standard_normal(n))
    for start in range(0, n, 3):
        for stop in (start, start + 1, min(start + 129, n), n):
            assert op.rows(start, stop).tobytes() \
                == op.matrix[start:stop].tobytes()
    assert op.dim == n and op.shape == (n, n)
    assert not op.matrix.flags.writeable
    with pytest.raises(DimensionMismatchError):
        CirculantPlusDiagonal(np.ones(n), np.ones(n + 1))


def test_closed_form_refusals_match_the_formed_matrix(rng):
    # an asymmetric column beyond HERMITIAN_RTOL, and a NaN in the
    # potential, are refused by the closed form with the very error the
    # formed matrix gets, and nothing is formed: also where the route would
    # form the matrix, off the mirror or at an odd order
    ham = closed_form_hamiltonian(OSCILLATOR, 64)
    column = ham.column.copy()
    column[3] *= 1.0 + 1e-9
    diagonal = ham.diagonal.copy()
    diagonal[10] = np.nan
    unmirrored = ham.diagonal.copy()
    unmirrored[5] += 1.0
    for op in (CirculantPlusDiagonal(column, ham.diagonal),
               CirculantPlusDiagonal(ham.column, diagonal),
               CirculantPlusDiagonal(column, unmirrored),
               CirculantPlusDiagonal(column[:63], ham.diagonal[:63])):
        with pytest.raises(NotHermitianError) as closed:
            eig_hermitian(op)
        assert "matrix" not in vars(op)
        with pytest.raises(NotHermitianError) as dense:
            eig_hermitian(op.matrix)
        assert str(closed.value) == str(dense.value)


def test_closed_form_with_an_unmirrored_potential_takes_the_full_route(
        eigh_shapes):
    ham = closed_form_hamiltonian(OSCILLATOR, 64)
    diagonal = ham.diagonal.copy()
    diagonal[5] = np.nextafter(diagonal[5], np.inf)
    op = CirculantPlusDiagonal(ham.column, diagonal)
    system = eig_hermitian(op)
    assert eigh_shapes == [(64, 64)] and system._split is None
    assert "matrix" in vars(op)
    assert system.values.tobytes() == eig_hermitian(op.matrix).values.tobytes()


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


def phase_cases(rng):
    real = rng.standard_normal((40, 9))
    real[:, 2] = 0.0
    real[:, 3] = -0.0
    # pivots that sit after entries below the 1e-8 threshold, of either sign
    real[:4, 5] = [1e-12, -3e-11, 0.0, -2.0]
    real[:3, 6] = [0.0, -0.0, 5e-10]
    cplx = real + 1j * rng.standard_normal((40, 9))
    cplx[:, 2] = 0.0
    cplx[:, 3] = complex(-0.0, -0.0)
    cplx[:4, 5] = [1e-12j, -3e-11 + 1e-12j, 0.0, -2.0 + 1.0j]
    cplx[:3, 6] = [0.0, -0.0j, 5e-10 - 5e-10j]
    return {"real": real, "complex": cplx}


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_canonical_phase_matches_loop_oracle(rng, kind):
    block = phase_cases(rng)[kind]
    before = block.copy()
    fixed = canonical_phase(block)
    want = oracles.phase_fixed_by_loop(block)
    assert fixed.dtype == want.dtype
    assert fixed.tobytes() == want.tobytes()
    assert block.tobytes() == before.tobytes()  # the input is not touched


def tie_shuffled(values, vectors, rng):
    # each run of exactly equal values with its columns permuted
    shuffled = np.array(vectors, copy=True)
    runs = np.concatenate(([0], np.cumsum(values[1:] != values[:-1])))
    for run in np.unique(runs):
        cols = np.flatnonzero(runs == run)
        shuffled[:, cols] = shuffled[:, rng.permutation(cols)]
    return shuffled


def test_order_degenerate_matches_tuple_oracle_on_free_particle(rng):
    n = 256
    model = ModelSpec(FREE_PARTICLE, PhysicalConstants(),
                      AxisGrid(n=n, origin=-20.0, spacing=40.0 / n,
                               label="position"))
    system = eig_hermitian(hamiltonian(model))
    values = system.values
    assert np.count_nonzero(values[1:] == values[:-1]) >= 10
    shuffled = tie_shuffled(values, system.vectors, rng)
    ordered = linalg._order_degenerate(values, shuffled.copy())
    assert ordered.tobytes() \
        == oracles.ordered_by_tuples(values, shuffled).tobytes()
    assert ordered.tobytes() == system.vectors.tobytes()
    # random tied blocks, real and complex, drawn from a few entries with
    # -0.0 among them, so ties also break late or never
    pool = np.array([-1.0, -0.0, 0.0, 1.0])
    for _ in range(200):
        values = np.sort(rng.integers(0, 3, 9)).astype(np.float64)
        real, imag = rng.choice(pool, (2, 4, 9))
        mixed = real.astype(np.complex128)
        mixed.imag = imag
        for vectors in (real, mixed):
            shuffled = tie_shuffled(values, vectors, rng)
            ordered = linalg._order_degenerate(values, shuffled.copy())
            assert ordered.tobytes() \
                == oracles.ordered_by_tuples(values, shuffled).tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_order_degenerate_matches_tuple_oracle_on_blocks(rng, dtype):
    # ties that break at the first component, deep inside the column, on
    # the imaginary part only, across a -0.0 / 0.0 pair, and not at all
    values = np.array([0.0, 0.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 3.0,
                       4.0, 4.0])
    vectors = rng.standard_normal((10, 12)).astype(dtype)
    if dtype == np.complex128:
        vectors += 1j * rng.standard_normal((10, 12))
        vectors[:, 6] = vectors[:, 5]
        vectors[4, 6] += 1j
    else:
        vectors[:6, 6] = vectors[:6, 5]
    vectors[:, 2] = vectors[:, 4]
    vectors[:8, 7] = vectors[:8, 8]
    vectors[0, 0], vectors[0, 1] = -0.0, 0.0
    vectors[1:, 1] = vectors[1:, 0]
    vectors[:, 10:] = vectors[::-1, 10:]
    for _ in range(4):
        shuffled = tie_shuffled(values, vectors, rng)
        ordered = linalg._order_degenerate(values, shuffled.copy())
        assert ordered.tobytes() \
            == oracles.ordered_by_tuples(values, shuffled).tobytes()


def test_kron_matches_index_oracle(rng):
    a = random_hermitian(rng, 3)
    b = random_hermitian(rng, 4)
    built = kron(operator(a, hermitian=True), operator(b, hermitian=True))
    assert maxnorm(built.matrix - oracles.kron_by_index(a, b)) < 1e-14


@pytest.mark.parametrize("kinds", [("real", "real"), ("complex", "complex"),
                                   ("real", "complex"), ("complex", "real")])
def test_kron_matches_numpy_bit_for_bit(rng, kinds):
    a, b = (random_symmetric(rng, n) if kind == "real"
            else random_hermitian(rng, n) for kind, n in zip(kinds, (3, 4)))
    built = kron(a, b).matrix
    want = np.kron(a, b)
    assert built.dtype == want.dtype
    assert built.tobytes() == want.tobytes()
    assert built.base is None and not built.flags.writeable


def test_lift_system_allocates_only_its_result(rng):
    op = operator(random_symmetric(rng, 64), hermitian=True)
    tracemalloc.start()
    try:
        lifted = lift_system(op, 32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * lifted.matrix.nbytes


def test_eig_hermitian_measures_every_product(rng):
    # no symmetry is carried through kron or identity: the eigensolve
    # measures each product it is handed
    u = spectral_exp(random_unitary(rng, 2), rng.standard_normal(2), 0.9)
    h = operator(random_hermitian(rng, 3), hermitian=True)
    with pytest.raises(NotHermitianError):
        eig_hermitian(kron(u, h))
    for product in (kron(h, h), identity(4), kron(identity(2), h)):
        system = eig_hermitian(product)
        assert maxnorm((system.vectors * system.values)
                       @ system.vectors.conj().T - product.matrix) < 1e-12


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
    m, k, vectors = kronecker_null_space(left, right, tol)
    composite = (oracles.kron_by_index(np.eye(len(a_values)), kk)
                 - oracles.kron_by_index(a, np.eye(len(k_values))))
    dense = near_null_space(composite, tol)
    assert m.size == k.size == vectors.shape[2] == len(dense) \
        == oracles.small_singular_count(composite, tol)
    assert vectors.shape == (len(a_values), len(k_values), m.size)
    assert vectors.dtype == np.complex128 and vectors.flags.c_contiguous
    pairs = list(zip(m.tolist(), k.tolist()))
    assert pairs == sorted(pairs)
    block = vectors.reshape(composite.shape[0], m.size)
    for i, (mi, ki) in enumerate(pairs):
        assert abs(right.values[ki] - left.values[mi]) <= tol
        assert np.linalg.norm(composite @ block[:, i]) <= tol
        # the batched build gives the bits of the pair's own product
        product = np.outer(left.vector(mi), right.vector(ki)).reshape(-1, 1)
        assert np.array_equal(block[:, i], canonical_phase(product)[:, 0])
    if dense:
        assert maxnorm(block @ block.conj().T - projector(dense)) < 1e-10
        assert maxnorm(block.conj().T @ block - np.eye(len(dense))) < 1e-12
        assert np.array_equal(canonical_phase(block), block)


def test_kronecker_null_space_real_factors_stay_real(rng):
    # real eigenvectors are multiplied and phase-fixed in real arithmetic:
    # the imaginary parts are exactly zero and each sign is exact
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    a = (q * [0.0, 1.0, 1.0, 2.0]) @ q.T
    kk = np.diag([2.0, 1.0, 0.0])
    left = eig_hermitian(operator(0.5 * (a + a.T), hermitian=True))
    right = eig_hermitian(operator(kk, hermitian=True))
    m, k, vectors = kronecker_null_space(left, right, 1e-8)
    assert m.size == 4
    assert not np.any(vectors.imag)
    for i in range(m.size):
        product = np.outer(left.vector(m[i]), right.vector(k[i]))
        want = canonical_phase(product.reshape(-1, 1)).reshape(product.shape)
        assert want.dtype == np.float64
        assert np.array_equal(vectors[:, :, i].real, want)


def test_kronecker_null_pairs_follow_ascending_k_values():
    # k_values unsorted: each m's pairs come by ascending value, ties in
    # index order
    m, k = kronecker_null_pairs((0.0, 1.0, 2.0), (2.0, 0.0, 1.0, 0.0), 0.1)
    assert m.dtype == k.dtype == np.intp
    assert m.tolist() == [0, 0, 1, 2]
    assert k.tolist() == [1, 3, 2, 0]


def test_kronecker_null_pairs_empty_are_two_empty_index_arrays():
    m, k = kronecker_null_pairs((0.0, 1.0), (5.0, 7.0), 0.1)
    assert m.dtype == k.dtype == np.intp
    assert m.shape == k.shape == (0,)


@pytest.mark.parametrize("refused", [
    lambda: linalg.EigenSystem(np.zeros(3), np.eye(4)),
    lambda: linalg.EigenSystem(np.zeros(4), np.eye(4)).truncated(0),
    lambda: linalg.EigenSystem(np.zeros(4), np.eye(4)).truncated(5),
], ids=["values-vectors", "truncated-0", "truncated-5"])
def test_eigensystem_refusals(refused):
    with pytest.raises(DimensionMismatchError):
        refused()
