"""Dense complex linear algebra kernels.

Immutable operator values, each a matrix and one verified hermitian flag,
plus the primitives everything else is built from: Kronecker products,
Hermitian eigendecomposition with a fixed phase and ordering convention,
unitary exponentials, and the exact near-null space of a Kronecker sum
I (x) K - A (x) I.  Unitarity is checked where a unitary is built, not
stored.  near_null_space, a dense SVD of a materialized matrix, is the
oracle the exact solver is tested against; no solver route calls it.
Matrices are dense complex128; intended sizes are a few hundred rows per
factor space and a few thousand for composites.  A Hermitian matrix whose
imaginary part is exactly zero is diagonalized in real arithmetic.  Every
hermitian, unitary and decomposition check is written so that a NaN
defect fails it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import (
    ConvergenceError,
    DimensionMismatchError,
    NotHermitianError,
    NotUnitaryError,
)

HERMITIAN_RTOL = 1e-12
UNITARY_ATOL = 1e-10
ORTHONORMAL_ATOL = 1e-10
RECONSTRUCT_RTOL = 1e-9

# components below this fraction of the column peak are ignored when
# picking the phase-fixing pivot
PHASE_PIVOT_RTOL = 1e-8


def maxnorm(a):
    """Largest absolute entry of an array (0.0 for an empty one)."""
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def _frozen(a, dtype=np.complex128):
    out = np.array(a, dtype=dtype, copy=True, order="C")
    out.setflags(write=False)
    return out


def hermitian_defect(matrix):
    """max |A_ij - conj(A_ji)|, the distance from exact Hermitian symmetry."""
    matrix = np.asarray(matrix)
    return maxnorm(matrix - matrix.conj().T)


def unitary_defect(matrix):
    """max-norm of A^H A - I."""
    matrix = np.asarray(matrix)
    eye = np.eye(matrix.shape[0])
    return maxnorm(matrix.conj().T @ matrix - eye)


@dataclass(frozen=True)
class OperatorMatrix:
    """A square operator and whether it is Hermitian.

    The hermitian flag is trusted by downstream code, so it is only set by
    constructors that either verify it numerically (`operator`) or
    guarantee it by construction (spectral builders, `kron` of two
    Hermitian factors, `identity`).
    """

    matrix: np.ndarray
    hermitian: bool = False

    def __post_init__(self):
        m = np.asarray(self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatchError(
                "operator matrix must be square, got shape %r" % (m.shape,))
        object.__setattr__(self, "matrix", _frozen(m))

    @property
    def dim(self):
        return self.matrix.shape[0]


def operator(matrix, *, hermitian=False, unitary=False):
    """Wrap a square matrix, verifying every property that is claimed.

    hermitian: max |A_ij - conj(A_ji)| <= 1e-12 * maxnorm(A); stored as
               the operator's flag
    unitary:   maxnorm(A^H A - I) <= 1e-10; verified, not stored
    """
    m = np.asarray(matrix, dtype=np.complex128)
    if hermitian:
        defect = hermitian_defect(m)
        if not defect <= HERMITIAN_RTOL * max(maxnorm(m), 1e-300):
            raise NotHermitianError(
                "hermitian defect %.3e exceeds %.1e of maxnorm %.3e"
                % (defect, HERMITIAN_RTOL, maxnorm(m)))
    if unitary:
        defect = unitary_defect(m)
        if not defect <= UNITARY_ATOL:
            raise NotUnitaryError(
                "unitary defect %.3e exceeds %.1e" % (defect, UNITARY_ATOL))
    return OperatorMatrix(m, hermitian=hermitian)


def identity(dim):
    return OperatorMatrix(np.eye(dim), hermitian=True)


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues ascending with matching orthonormal eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen(self.values, np.float64))
        object.__setattr__(self, "vectors", _frozen(self.vectors))
        if self.values.shape[0] != self.vectors.shape[1]:
            raise DimensionMismatchError(
                "%d eigenvalues for %d eigenvectors"
                % (self.values.shape[0], self.vectors.shape[1]))

    @property
    def dim(self):
        return self.vectors.shape[0]

    @property
    def count(self):
        return self.values.shape[0]

    def truncated(self, n):
        """Keep the lowest n eigenpairs."""
        if not 0 < n <= self.count:
            raise DimensionMismatchError(
                "cannot keep %d of %d eigenpairs" % (n, self.count))
        return EigenSystem(self.values[:n], self.vectors[:, :n])

    def vector(self, i):
        return self.vectors[:, i]


def canonical_phase(vectors):
    """Rotate each column so its first significant component is real positive.

    The pivot is the first component whose magnitude exceeds a small
    fraction of the column peak, which keeps the choice stable against
    rounding in components that are essentially zero.  Real columns stay
    real: their phase is an exact sign.
    """
    dtype = np.float64 if np.isrealobj(vectors) else np.complex128
    vectors = np.array(vectors, dtype=dtype, copy=True)
    for j in range(vectors.shape[1]):
        col = vectors[:, j]
        mags = np.abs(col)
        peak = mags.max()
        if peak == 0.0:
            continue
        pivot = int(np.argmax(mags > PHASE_PIVOT_RTOL * peak))
        phase = col[pivot] / mags[pivot]
        col *= np.conj(phase)
        col[pivot] = col[pivot].real  # exact by convention
        vectors[:, j] = col
    return vectors


def _lexicographic_key(column):
    # interleave real and imaginary parts so comparison is componentwise
    parts = np.empty(2 * column.shape[0])
    parts[0::2] = column.real
    parts[1::2] = column.imag
    return tuple(parts)


def _order_degenerate(values, vectors):
    # eigh gives ascending values; inside exact ties fix the column order
    # lexicographically so equal inputs always produce equal outputs
    n = values.shape[0]
    start = 0
    while start < n:
        stop = start + 1
        while stop < n and values[stop] == values[start]:
            stop += 1
        if stop - start > 1:
            block = vectors[:, start:stop]
            order = sorted(range(stop - start),
                           key=lambda j: _lexicographic_key(block[:, j]))
            vectors[:, start:stop] = block[:, order]
        start = stop
    return vectors


def eig_hermitian(op):
    """Full eigendecomposition of a verified Hermitian operator.

    Values come back ascending; each eigenvector column has its first
    significant component rotated real positive, and exactly degenerate
    eigenvalues get their columns ordered lexicographically, so the result
    is a deterministic function of the input matrix.  Input whose imaginary
    part is exactly zero is real symmetric: it is diagonalized by LAPACK's
    real solver, its phases are exact signs and its checks are real
    products; the eigenvectors are stored complex like any others.
    """
    if isinstance(op, OperatorMatrix):
        if not op.hermitian:
            raise NotHermitianError("operator is not flagged hermitian")
        m = op.matrix
    else:
        m = np.asarray(op, dtype=np.complex128)
    if not np.any(m.imag):
        m = np.ascontiguousarray(m.real)
    defect = hermitian_defect(m)
    if not defect <= HERMITIAN_RTOL * max(maxnorm(m), 1e-300):
        raise NotHermitianError(
            "hermitian defect %.3e exceeds %.1e of maxnorm"
            % (defect, HERMITIAN_RTOL))
    try:
        values, vectors = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError("eigendecomposition failed: %s" % exc) from exc
    vectors = canonical_phase(vectors)
    vectors = _order_degenerate(values, vectors)

    gram = vectors.conj().T @ vectors
    if not maxnorm(gram - np.eye(values.shape[0])) <= ORTHONORMAL_ATOL:
        raise ConvergenceError("eigenvectors lost orthonormality")
    recon = (vectors * values) @ vectors.conj().T
    if not maxnorm(recon - m) <= RECONSTRUCT_RTOL * max(maxnorm(m), 1e-300):
        raise ConvergenceError("eigendecomposition does not reconstruct input")
    return EigenSystem(values, vectors)


def kron(a, b):
    """Kronecker product; Hermitian iff both factors are flagged Hermitian."""
    if not isinstance(a, OperatorMatrix):
        a = OperatorMatrix(a)
    if not isinstance(b, OperatorMatrix):
        b = OperatorMatrix(b)
    return OperatorMatrix(np.kron(a.matrix, b.matrix),
                          hermitian=a.hermitian and b.hermitian)


def unitary_exp(op, theta):
    """exp(-i * theta * A) for Hermitian A, via its eigendecomposition.

    The result is verified unitary to 1e-10 before it is returned.
    """
    es = eig_hermitian(op)
    return spectral_exp(es.vectors, es.values, theta)


def spectral_exp(vectors, values, theta):
    """exp(-i * theta * A) for A = V diag(values) V^H with V unitary.

    The result is verified unitary to 1e-10 before it is returned.
    """
    phases = np.exp(-1j * float(theta) * np.asarray(values))
    return operator((vectors * phases) @ vectors.conj().T, unitary=True)


def near_null_space(op, tol):
    """Orthonormal basis of the singular directions with sigma <= tol.

    A dense SVD of the materialized matrix: the oracle that
    kronecker_null_space is tested against.  Returns a list of vectors
    ordered by ascending singular value, each phase-fixed like an
    eigenvector column.  Empty list when the smallest singular value
    exceeds tol.
    """
    if isinstance(op, OperatorMatrix):
        m = op.matrix
    else:
        m = np.asarray(op, dtype=np.complex128)
    try:
        _, sigma, vh = np.linalg.svd(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError("singular value decomposition failed: %s"
                               % exc) from exc
    keep = np.nonzero(sigma <= tol)[0]
    if keep.size == 0:
        return []
    # numpy orders sigma descending, so the kept block reversed is ascending
    rows = vh[keep[::-1], :]
    cols = canonical_phase(rows.conj().T)
    return [cols[:, j].copy() for j in range(cols.shape[1])]


def kronecker_null_space(left, right, tol):
    """Near-null basis of the Kronecker sum I (x) K - A (x) I, exactly.

    left and right are the eigensystems of A and K.  The sum is diagonal
    in the product basis psi_m (x) chi_k with eigenvalue kappa_k - a_m, so
    its singular values are exactly |kappa_k - a_m| (Horn & Johnson,
    Topics in Matrix Analysis, sec. 4.4).  Returns (m, k, vector) for
    every pair with |kappa_k - a_m| <= tol, ordered by m and then by k;
    each vector is phase-fixed like an eigenvector column.
    """
    out = []
    for m, k in kronecker_null_pairs(left.values, right.values, tol):
        product = np.outer(left.vector(m), right.vector(k)).reshape(-1, 1)
        out.append((m, k, canonical_phase(product)[:, 0]))
    return out


def kronecker_null_pairs(a_values, k_values, tol):
    """Index pairs (m, k) with |k_values[k] - a_values[m]| <= tol.

    Ordered by m and then by ascending k_values[k], the order in which
    kronecker_null_space returns its vectors; k_values need not be sorted.
    """
    order = np.argsort(k_values, kind="stable")
    gaps = np.abs(np.asarray(k_values)[order][None, :]
                  - np.asarray(a_values)[:, None])
    # np.nonzero walks the gap table row-major: m, then ascending k_values
    m, j = np.nonzero(gaps <= tol)
    return list(zip(m.tolist(), order[j].tolist()))
