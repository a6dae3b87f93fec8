"""Dense linear algebra kernels.

Immutable operator values, each a matrix and the eigensystem it keeps,
plus the primitives everything else is built from: Kronecker products,
Hermitian eigendecomposition with a fixed phase and ordering convention,
unitary exponentials, and the exact near-null space of a Kronecker sum
I (x) K - A (x) I, as two pair index arrays and one array of its product
members.  Neither symmetry is stored: hermitian symmetry is measured by
require_hermitian wherever it is relied on (operator(..., hermitian=True),
eig_hermitian, the constraint builders), and unitarity by spectral_exp,
which builds every unitary.  near_null_space, a dense SVD of a
materialized matrix, is the oracle the exact solver is tested against; no
solver route calls it.
Matrices are dense, stored float64 when real and complex128 otherwise, so
a real symmetric matrix is solved in real arithmetic, whole, by one
np.linalg.eigh; intended sizes are a few hundred rows per factor space
and a few thousand for composites.  An operator built from a known
eigenpair, a sample or Fourier operator, keeps that pair as its
eigensystem (OperatorMatrix.kept); every other eigendecomposition is
certified on every route by the input's hermitian defect, orthonormality
and reconstruction against the caller's full matrix (eig_hermitian).  A
real circulant plus a diagonal, a Hamiltonian or clock, is kept in closed
form (CirculantPlusDiagonal), its matrix formed on first read; eig_hermitian
measures its symmetry, scale and invariance under the grid reflection
j -> (n - j) mod n in O(n), and splits one of even order that is exactly
invariant into two half-size even and odd blocks from its rows 0 .. n/2,
so its values never form the matrix.  The split keeps both block
eigensystems where eigh returns them, each certified at a quarter of the
n^3 cost, and one merge order; EigenSystem.vectors forms the n x n array
on first read.  The hermitian defect, the phase convention's magnitudes
and the split's reconstruction are taken TILE rows at a time; every
hermitian, unitary and decomposition check fails on NaN.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import as_strided

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

# rows and columns of a tile of a matrix too large to form at once
TILE = 128


def maxnorm(a):
    """Largest absolute entry of an array (0.0 for an empty one, NaN if
    any entry is NaN)."""
    a = np.asarray(a)
    if not a.size:
        return 0.0
    if a.dtype.kind == "f":
        # no |a| temporary; np.maximum, unlike max(), propagates NaN
        return abs(float(np.maximum(a.max(), -a.min())))
    return float(np.max(np.abs(a)))


def _owned_maxnorm(a):
    # maxnorm of a temporary the caller drops: a complex one is overwritten
    # by its |a| in place rather than given an n x n companion
    if np.iscomplexobj(a):
        a = np.abs(a, out=a).real
    return maxnorm(a)


def _tiled_maxnorm(tiles):
    """Largest maxnorm over an iterable of temporary tiles, each one
    overwritten in place; np.maximum, unlike max(), carries a NaN in any
    tile to the result (0.0 for no tiles)."""
    norm = 0.0
    for tile in tiles:
        norm = np.maximum(norm, _owned_maxnorm(tile))
    return float(norm)


def _hermitian_tiles(n):
    """(rows, columns) slices of the TILE x TILE tiles of an n x n matrix
    on and above its diagonal, row by row; with their mirrors, every entry."""
    for i in range(0, n, TILE):
        for j in range(i, n, TILE):
            yield slice(i, i + TILE), slice(j, j + TILE)


def _stored(a):
    # the one dtype rule: real input is float64, anything else complex128
    a = np.asarray(a)
    return a.astype(np.float64 if np.isrealobj(a) else np.complex128,
                    copy=False)


def _square(a):
    # the one shape rule of every operator entry point
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(
            "operator matrix must be square, got shape %r" % (a.shape,))
    return a


def _frozen(a):
    a = _stored(a)
    # an array that owns its memory and was made read-only by the builder
    # that filled it is kept as it is; anything else is copied
    if a.base is None and not a.flags.writeable and a.flags.c_contiguous:
        return a
    out = np.array(a, copy=True, order="C")
    out.setflags(write=False)
    return out


def hermitian_defect(matrix):
    """max |A_ij - conj(A_ji)|, the distance from exact Hermitian symmetry.

    Each of _hermitian_tiles is compared with the conjugate transpose of
    its mirror, bit-identical to the dense difference; a NaN in any tile
    carries to the result.
    """
    matrix = _square(np.asarray(matrix))
    return _tiled_maxnorm(matrix[r, c] - matrix[c, r].conj().T
                          for r, c in _hermitian_tiles(matrix.shape[0]))


def require_hermitian(m):
    """Refuse m unless hermitian to 1e-12 of maxnorm(m), which is returned.

    m is a matrix, or a CirculantPlusDiagonal measured in closed form.
    """
    if isinstance(m, CirculantPlusDiagonal):
        defect, scale = m.hermitian_defect(), m.maxnorm()
    else:
        defect, scale = hermitian_defect(m), maxnorm(m)
    if not defect <= HERMITIAN_RTOL * max(scale, 1e-300):
        raise NotHermitianError(
            "hermitian defect %.3e exceeds %.1e of maxnorm %.3e"
            % (defect, HERMITIAN_RTOL, scale))
    return scale


def unitary_defect(matrix):
    """max-norm of A^H A - I; A may be tall, its columns are what is tested."""
    matrix = _stored(matrix)
    gram = matrix.conj().T @ matrix
    gram.flat[::gram.shape[0] + 1] -= 1.0
    return _owned_maxnorm(gram)


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """A square operator and, once requested, its eigensystem.

    No symmetry is stored: whatever relies on it measures it, through
    require_hermitian.  The matrix is stored read-only: as a copy, unless
    the array handed in owns its memory and is read-only already, so the
    operator keeps its eigensystem once it is computed.
    """

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix",
                           _frozen(_square(np.asarray(self.matrix))))

    @property
    def dim(self):
        return self.matrix.shape[0]

    @cached_property
    def eigensystem(self):
        """The pair a builder kept (see kept), or else eig_hermitian of
        this operator, on first request."""
        return eig_hermitian(self)

    def kept(self, values, vectors):
        """This operator, keeping the eigenpair it was built from."""
        vars(self)["eigensystem"] = EigenSystem(values, vectors)
        return self


class CirculantPlusDiagonal(OperatorMatrix):
    """A real operator C + diag(diagonal) kept in closed form, its two
    length-n arrays: C is the circulant whose entry (j, l) is
    column[(l - j) mod n] (Golub & Van Loan, Matrix Computations, sec. 4.7).

    matrix is formed on first read, and rows(start, stop) forms any of its
    rows on their own, bit for bit.  eig_hermitian takes the closed form in
    place of the matrix: its hermitian defect, maxnorm and reflection test
    are measured in O(n), exactly the numbers the formed matrix gives, and
    the split solve, its route alone, reads rows 0 .. n/2 only.
    """

    def __init__(self, column, diagonal):
        column, diagonal = (_frozen(np.asarray(a, dtype=np.float64))
                            for a in (column, diagonal))
        if column.ndim != 1 or column.shape != diagonal.shape:
            raise DimensionMismatchError(
                "column %r and diagonal %r are not one length"
                % (column.shape, diagonal.shape))
        object.__setattr__(self, "column", column)
        object.__setattr__(self, "diagonal", diagonal)

    def __repr__(self):
        return "CirculantPlusDiagonal(dim=%d)" % self.dim

    @property
    def dim(self):
        return self.column.shape[0]

    @property
    def shape(self):
        return self.dim, self.dim

    @cached_property
    def matrix(self):
        m = self.rows(0, self.dim)
        m.setflags(write=False)
        return m

    def rows(self, start, stop):
        """Rows start .. stop - 1 of the matrix, as a new array.

        Row j is column[(l - j) mod n] over l, the window of the doubled
        column that starts at n - j, so the rows are one copy of a Toeplitz
        window view (rows one element apart, backwards), with O(n) scratch
        and no index array; then the diagonal is added in place.
        """
        n = self.dim
        doubled = np.concatenate((self.column, self.column))
        out = as_strided(doubled[n - start:], shape=(stop - start, n),
                         strides=(-doubled.itemsize, doubled.itemsize)).copy()
        out.flat[start::n + 1] += self.diagonal[start:stop]
        return out

    def _entries(self):
        # every entry of the matrix once: off the diagonal column[1:],
        # each offset d = (l - j) mod n occurring, and the diagonal itself
        return self.column[1:], self.column[0] + self.diagonal

    def hermitian_defect(self):
        """hermitian_defect of the matrix: |column[d] - column[n - d]| off
        the diagonal and 0 on it, or NaN where an entry is not finite."""
        off, on = self._entries()
        return _tiled_maxnorm((off - off[::-1], on - on))

    def maxnorm(self):
        """maxnorm of the matrix."""
        return float(np.maximum(*map(maxnorm, self._entries())))

    def reflection_invariant(self):
        """Whether the matrix is exactly invariant under the reflection
        j -> (n - j) mod n: entry (j, l) depends on (l - j) mod n, and on j
        alone on the diagonal, so each of both arrays must equal its own
        mirror; a NaN fails."""
        off, on = self._entries()
        return np.array_equal(off, off[::-1]) \
            and np.array_equal(on, np.roll(on[::-1], 1))


def operator(matrix, *, hermitian=False):
    """Wrap a square matrix, measuring its symmetry if it is claimed.

    hermitian: max |A_ij - conj(A_ji)| <= 1e-12 * maxnorm(A), refused
               otherwise; nothing is stored
    """
    m = _square(_stored(matrix))
    if hermitian:
        require_hermitian(m)
    return OperatorMatrix(m)


def identity(dim):
    return OperatorMatrix(np.eye(dim))


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Eigenvalues ascending with matching orthonormal eigenvector columns.

    rows holds the vectors, or, from a reflection-split solve of order n
    (eig_hermitian), rows 0 .. n/2 of the exactly even vectors, with _split
    holding rows 1 .. n/2 - 1 of the exactly odd ones, the merge order
    (the column of [even | odd] of each value) and the odd columns' zeros
    on rows 0 and n/2, signed by their phases.  vectors is then formed on
    first read (_formed), and the system keeps it alone.
    """

    values: np.ndarray
    rows: np.ndarray
    _split: tuple | None = None

    def __post_init__(self):
        for name in ("values", "rows"):  # eig_hermitian freezes _split
            object.__setattr__(self, name, _frozen(getattr(self, name)))
        count = len(self._split[1]) if self._split else self.rows.shape[1]
        if self.values.shape[0] != count:
            raise DimensionMismatchError(
                "%d eigenvalues for %d eigenvectors"
                % (self.values.shape[0], count))

    @cached_property
    def vectors(self):
        if self._split is None:
            return self.rows
        vectors = _formed(self.rows, self._split)
        vectors.setflags(write=False)
        vars(self).update(rows=vectors, _split=None)
        return vectors

    @property
    def dim(self):
        return self.count if self._split is not None else self.rows.shape[0]

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
    real: their phase is an exact sign.  An all-zero column is left as it
    is.
    """
    vectors = np.array(_stored(vectors), copy=True)
    _fix_phase(vectors)
    return vectors


def _fix_phase(vectors):
    # canonical_phase in place on an array the caller owns: one pivot per
    # column from the thresholded magnitudes, then one row of phases, which
    # is returned.  The magnitudes are taken TILE rows at a time
    if not vectors.size:
        return np.ones(vectors.shape[1], dtype=vectors.dtype)
    n, count = vectors.shape
    peak = np.zeros(count)
    for i in range(0, n, TILE):  # np.maximum carries a NaN to its column
        peak = np.maximum(peak, np.abs(vectors[i:i + TILE]).max(axis=0))
    above = np.empty(vectors.shape, dtype=bool)
    for i in range(0, n, TILE):
        np.greater(np.abs(vectors[i:i + TILE]), PHASE_PIVOT_RTOL * peak,
                   out=above[i:i + TILE])
    live = peak != 0.0
    pivot = np.argmax(above, axis=0), np.arange(count)
    del above
    phase = np.divide(vectors[pivot], np.abs(vectors[pivot]), where=live,
                      out=np.ones(count, dtype=vectors.dtype))
    np.multiply(vectors, phase.conj(), out=vectors, where=live)
    pivot = pivot[0][live], pivot[1][live]
    vectors[pivot] = vectors[pivot].real  # exact by convention
    return phase


def _order_degenerate(values, vectors, split=None):
    # eigh gives ascending values; inside exact ties fix the column order
    # lexicographically, real part before imaginary and row by row, so
    # equal inputs always produce equal outputs.  One lexsort orders all
    # tied columns; its last key, which leads, is the tie group.  Given a
    # split (EigenSystem), tied columns are _formed for the keys and the
    # merge order is permuted.
    rises = values[1:] != values[:-1]
    if rises.all():
        return vectors
    group = np.concatenate(([0], np.cumsum(rises)))
    tied = np.flatnonzero(np.bincount(group)[group] > 1)
    block = vectors[:, tied] if split is None \
        else _formed(vectors, split, tied)
    parts = (block.real, block.imag) if np.iscomplexobj(block) else (block,)
    keys = np.stack(parts, axis=1).reshape(-1, tied.size)[::-1]
    moved = tied[np.lexsort(np.vstack((keys, group[tied])))]
    columns = vectors if split is None else split[1][None]  # order, a row
    columns[:, tied] = columns[:, moved]
    return vectors


def _formed(even, split, columns=slice(None)):
    # the n x n vectors, or those columns, exactly: column k is column
    # order[k] of [even | odd], an odd one its signed zeros on rows 0 and
    # n/2, and rows n/2 + 1 .. n - 1 are rows n/2 - 1 .. 1, negated if odd
    (odd, order, zeros), h = split, even.shape[0] - 1
    top = np.concatenate((even, np.vstack((zeros, odd, zeros))), axis=1)
    order = order[columns]
    vectors = np.empty((2 * h, order.size))
    np.take(top, order, axis=1, out=vectors[:h + 1])
    np.multiply(vectors[h - 1:0:-1], np.where(order > h, -1.0, 1.0),
                out=vectors[h + 1:])
    return vectors


def _eigh(m):
    # (values, vectors, None, None) from np.linalg.eigh of a matrix m, or,
    # for the closed form that eig_hermitian hands over only when it is
    # exactly invariant under the reflection j -> (n - j) mod n, of even
    # order n >= 4, the split into two half-size blocks (Golub & Van Loan,
    # Matrix Computations, sec. 8.1): on the basis e_0, (e_j + e_{n-j})/
    # sqrt(2), e_{n/2} of even vectors and (e_j - e_{n-j})/sqrt(2) of odd
    # ones, for 0 < j < n/2, built from rows 0 .. n/2 of m, generated and
    # dropped before the solves.  It returns the values ascending, both
    # blocks' vectors, on rows 0 .. n/2 and 1 .. n/2 - 1, and the merge
    # order, and forms no n x n array.
    if not isinstance(m, CirculantPlusDiagonal):
        return (*np.linalg.eigh(m), None, None)
    h = m.dim // 2
    r = np.sqrt(0.5)
    top = m.rows(0, h + 1)
    # even[a, b] = m[a, b] + m[a, n - b], scaled by sqrt(1/2) on each side
    # that is a fixed point (0 or h) of the reflection
    even = np.empty((h + 1, h + 1))
    np.add(top[:, 0], top[:, 0], out=even[:, 0])
    np.add(top[:, 1:h + 1], top[:, :h - 1:-1], out=even[:, 1:])
    odd = np.subtract(top[1:h, 1:h], top[1:h, :h:-1])
    del top
    even[::h] *= r
    even[:, ::h] *= r
    even_values, even_vectors = np.linalg.eigh(even)
    del even
    odd_values, odd_vectors = np.linalg.eigh(odd)
    del odd
    even_vectors[1:h] *= r
    odd_vectors *= r
    values = np.concatenate((even_values, odd_values))
    order = np.argsort(values, kind="stable")
    return values[order], even_vectors, odd_vectors, order


def _orthonormality_defect(vectors, split):
    # maxnorm(V^H V - I).  Given a split, V is _formed of both blocks, even
    # and odd columns orthogonal term by term: the defect is each block's
    # own, rows 1 .. n/2 - 1 (repeated as n/2 + 1 .. n - 1) weighted sqrt(2).
    if split is None:
        return unitary_defect(vectors)
    odd = unitary_defect(np.sqrt(2.0) * split[0])
    even = vectors.copy()
    even[1:-1] *= np.sqrt(2.0)
    return np.maximum(unitary_defect(even), odd)


def _symmetric_product(block, w):
    # block diag(w) block^T as W W^T, W = block |w|^(1/2), less the same for
    # w < 0: numpy solves X @ X.T by a symmetric rank-k update, half a gemm
    scaled = block * np.sqrt(np.abs(w))
    if not (w < 0).any():
        return scaled @ scaled.T
    pos, neg = scaled[:, ~(w < 0)], scaled[:, w < 0]
    return pos @ pos.T - neg @ neg.T


def _reconstruction_defect(values, vectors, split, m):
    # maxnorm(V diag(w) V^H - m).  Given a split, V as in
    # _orthonormality_defect and m a closed form that is exactly
    # reflection-invariant, tested here again whatever routed the solve,
    # V diag(w) V^T - m is exactly invariant under the reflection too and
    # its rows 0 .. n/2 hold a representative of every entry.  Only those
    # are formed, TILE rows at a time, the rows of m less both blocks'
    # products; columns n/2 + 1 .. n - 1 are the reflected columns
    # 1 .. n/2 - 1, the even part plus and the odd part minus.  Any other m
    # gets the full product of the formed vectors, differenced in place
    # from the matrix, formed if m is a closed form that fails the test.
    h = m.shape[0] // 2
    if split is not None and not m.reflection_invariant():
        vectors, split, m = _formed(vectors, split), None, m.matrix
    if split is None:
        recon = (vectors * values) @ vectors.conj().T
        recon -= m
        return _owned_maxnorm(recon)
    w = np.empty_like(values)
    w[split[1]] = values  # each block column's value
    even = _symmetric_product(vectors, w[:h + 1])
    odd = _symmetric_product(split[0], w[h + 1:])

    def tiles():
        for i in range(0, h + 1, TILE):  # each tile of m - V diag(w) V^T
            top = m.rows(i, min(i + TILE, h + 1))
            top[:, :h + 1] -= even[i:i + TILE]
            top[:, h + 1:] -= even[i:i + TILE, h - 1:0:-1]
            a, b = max(i, 1), min(i + TILE, h)  # the tile's odd rows
            top[a - i:b - i, 1:h] -= odd[a - 1:b - 1]
            top[a - i:b - i, :h:-1] += odd[a - 1:b - 1]
            yield top
    return _tiled_maxnorm(tiles())


def eig_hermitian(op):
    """Full eigendecomposition of a Hermitian operator or square matrix.

    Values come back ascending; each eigenvector column has its first
    significant component rotated real positive, and exactly degenerate
    eigenvalues get their columns ordered lexicographically, so the result
    is a deterministic function of the input matrix.  eigh gets the stored
    dtype, so real input is solved in real arithmetic into real vectors,
    whole, by one eigh.  Only a CirculantPlusDiagonal of even order n >= 4
    exactly invariant under the reflection j -> (n - j) mod n, as a
    Hamiltonian or clock on a mirrored grid is, is split into two half-size
    blocks from its rows 0 .. n/2; each vector comes back exactly even or
    odd, v[(n - j) % n] == +-v[j], degenerate eigenspaces included.  The
    two block eigensystems are kept, and phases fixed on each, as eigh
    returns them, and ties ordered in one merge order; EigenSystem.vectors
    forms the n x n array on first read, so reading values never pays.

    Three checks run on every route, each written so that NaN fails it:
    - the input's hermitian defect, O(n^2), tile by tile, or O(n) from
      a CirculantPlusDiagonal's two arrays, which stand in for its matrix
      on every route that does not form it;
    - orthonormality of the phase-fixed and ordered vectors,
      maxnorm(V^H V - I) <= 1e-10: on the split route each block's own
      product, a quarter of the n^3 cost;
    - reconstruction against the caller's full matrix, maxnorm(V diag(w)
      V^H - A) <= 1e-9 maxnorm(A), so it certifies the split too: when
      the closed form is exactly reflection-invariant, tested again in
      O(n), every entry of the difference equals one in its rows
      0 .. n/2, formed from the two blocks TILE rows at a time at a
      quarter of the n^3 cost; otherwise the full product of the vectors.
    A matrix that is not square raises DimensionMismatchError.
    """
    if isinstance(op, CirculantPlusDiagonal):
        m = op  # its closed form stands in for the matrix
    elif isinstance(op, OperatorMatrix):
        m = op.matrix
    else:
        m = _square(_stored(op))
    scale = require_hermitian(m)
    if isinstance(m, CirculantPlusDiagonal) and (
            m.dim % 2 or m.dim < 4 or not m.reflection_invariant()):
        m = m.matrix  # solved whole; below n = 4 a split saves nothing
    try:
        values, vectors, odd, order = _eigh(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError("eigendecomposition failed: %s" % exc) from exc
    _fix_phase(vectors)
    split = None if odd is None else (odd, order, 0.0 * _fix_phase(odd))
    _order_degenerate(values, vectors, split)
    if not _orthonormality_defect(vectors, split) <= ORTHONORMAL_ATOL:
        raise ConvergenceError("eigenvectors lost orthonormality")
    if not _reconstruction_defect(values, vectors, split, m) \
            <= RECONSTRUCT_RTOL * max(scale, 1e-300):
        raise ConvergenceError("eigendecomposition does not reconstruct input")
    for a in (vectors,) + (split or ()):
        a.setflags(write=False)  # stored by EigenSystem without a copy
    return EigenSystem(values, vectors, split)


def kron(a, b):
    """Kronecker product of two operators or square matrices."""
    if not isinstance(a, OperatorMatrix):
        a = OperatorMatrix(a)
    if not isinstance(b, OperatorMatrix):
        b = OperatorMatrix(b)
    na, nb = a.dim, b.dim
    # np.kron's own broadcast product, written into one array this call
    # owns and freezes, so OperatorMatrix keeps it without a copy
    out = np.empty((na * nb, na * nb),
                   dtype=np.result_type(a.matrix, b.matrix))
    np.multiply(a.matrix[:, None, :, None], b.matrix[None, :, None, :],
                out=out.reshape(na, nb, na, nb))
    out.setflags(write=False)
    return OperatorMatrix(out)


def unitary_exp(op, theta):
    """exp(-i * theta * A) for a Hermitian operator A, via the
    eigensystem it keeps.

    The result is verified unitary to 1e-10 before it is returned.
    """
    return spectral_exp(op.eigensystem.vectors, op.eigensystem.values, theta)


def spectral_exp(vectors, values, theta):
    """exp(-i * theta * A) for A = V diag(values) V^H with V unitary.

    The result is verified unitary, maxnorm(U^H U - I) <= 1e-10, before it
    is returned.
    """
    phases = np.exp(-1j * float(theta) * np.asarray(values))
    u = (vectors * phases) @ vectors.conj().T
    defect = unitary_defect(u)
    if not defect <= UNITARY_ATOL:
        raise NotUnitaryError(
            "unitary defect %.3e exceeds %.1e" % (defect, UNITARY_ATOL))
    return operator(u)


def near_null_space(op, tol):
    """Orthonormal basis of the singular directions with sigma <= tol.

    A dense SVD of the materialized matrix: the oracle that
    kronecker_null_space is tested against.  Returns a list of vectors
    ordered by ascending singular value, each phase-fixed like an
    eigenvector column.  Empty list when the smallest singular value
    exceeds tol.
    """
    m = op.matrix if isinstance(op, OperatorMatrix) else _stored(op)
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
    Topics in Matrix Analysis, sec. 4.4).  Returns (m, k, vectors): the
    pairs of kronecker_null_pairs and a C-ordered (n_a, n_k, count)
    complex128 array whose [:, :, i] is outer(psi_m[i], chi_k[i]),
    phase-fixed like an eigenvector.  The array is filled and phase-fixed
    in place, as its (n_a n_k, count) reshape, so the call holds little
    beyond the array it returns.
    """
    m, k = kronecker_null_pairs(left.values, right.values, tol)
    vectors = np.zeros((left.dim, right.dim, m.size), dtype=np.complex128)
    # real factors are multiplied and phase-fixed in the real part: exact signs
    real = np.isrealobj(left.vectors) and np.isrealobj(right.vectors)
    fill = vectors.real if real else vectors
    np.multiply(left.vectors[:, m][:, None, :], right.vectors[:, k][None],
                out=fill)
    _fix_phase(fill.reshape(left.dim * right.dim, m.size))
    return m, k, vectors


# the default near-null threshold of the pair test below: the constraint
# solve, the scenario's constraint_tol and the jump's lattice test
DEFAULT_TOL = 1e-6


def kronecker_null_pairs(a_values, k_values, tol):
    """Index arrays (m, k) of the pairs |k_values[k] - a_values[m]| <= tol.

    Ordered by m and then by ascending k_values[k], the order in which
    kronecker_null_space returns its members; k_values need not be sorted.
    """
    order = np.argsort(k_values, kind="stable")
    gaps = np.abs(np.asarray(k_values)[order][None, :]
                  - np.asarray(a_values)[:, None])
    # np.nonzero walks the gap table row-major: m, then ascending k_values
    m, j = np.nonzero(gaps <= tol)
    return m, order[j]
