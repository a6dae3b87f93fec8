"""Independent reference implementations used to pin expected values.

Everything here deliberately avoids the code paths under test: the Jacobi
solver touches no LAPACK eigenroutine, the Kronecker builder indexes entry
by entry, the shift oracle is a plain np.roll, the jump is formed as the
two dense unitaries that energy_jump applies without forming, the
reflection test reads a formed matrix, and scenarios are written back to
the JSON that parse_scenario reads.  Slow is fine, these run on small
inputs only.
"""

import json
import math

import numpy as np


def _rotate(a, p, q):
    # one Jacobi rotation zeroing a[p, q] on a real symmetric matrix
    app, aqq, apq = a[p, p], a[q, q], a[p, q]
    phi = 0.5 * math.atan2(2.0 * apq, aqq - app)
    c, s = math.cos(phi), math.sin(phi)
    rows = a[[p, q], :].copy()
    a[p, :] = c * rows[0] - s * rows[1]
    a[q, :] = s * rows[0] + c * rows[1]
    cols = a[:, [p, q]].copy()
    a[:, p] = c * cols[:, 0] - s * cols[:, 1]
    a[:, q] = s * cols[:, 0] + c * cols[:, 1]


def jacobi_spectrum(matrix, eps=1e-14, max_sweeps=60):
    """Eigenvalues of a Hermitian matrix by cyclic Jacobi rotations.

    Complex input is embedded as the real symmetric [[re, -im], [im, re]]
    whose spectrum doubles every eigenvalue; adjacent sorted pairs are then
    averaged back down.  Real input is rotated as it is.  Returns
    eigenvalues in ascending order.
    """
    m = np.asarray(matrix)
    real = np.isrealobj(m)
    n = m.shape[0]
    a = np.array(m, dtype=float) if real \
        else np.block([[m.real, -m.imag], [m.imag, m.real]])
    a = 0.5 * (a + a.T)
    size = a.shape[0]
    scale = max(np.abs(a).max(), 1.0)
    for _ in range(max_sweeps):
        off = 0.0
        for p in range(size):
            for q in range(p + 1, size):
                if abs(a[p, q]) > eps * scale:
                    _rotate(a, p, q)
        for p in range(size):
            off += np.abs(a[p, p + 1:]).sum()
        if off <= eps * scale * n:
            break
    values = np.sort(np.diag(a))
    return values if real else values.reshape(-1, 2).mean(axis=1)


def eigenspace_projectors(values, vectors, count, rtol=1e-9):
    """Projector onto each of the lowest `count` eigenspaces.

    Ascending levels closer than rtol of the largest |value| share one
    eigenspace, so a projector does not depend on the basis an eigensolver
    picks inside a degenerate level.
    """
    values = np.asarray(values)
    gaps = np.diff(values) > rtol * np.max(np.abs(values))
    edges = np.concatenate(([0], np.flatnonzero(gaps) + 1, [values.size]))
    return [vectors[:, a:b] @ vectors[:, a:b].conj().T
            for a, b in zip(edges[:count], edges[1:count + 1])]


def reflection_parities(vectors):
    """+1 for each exactly even column, v[(n - j) % n] == v[j], -1 for each
    exactly odd one, 0 for any other."""
    mirrored = vectors[-np.arange(vectors.shape[0]) % vectors.shape[0]]
    return [int(np.array_equal(w, v)) - int(np.array_equal(w, -v))
            for w, v in zip(mirrored.T, vectors.T)]


def dense_reflection_invariant(matrix):
    """Whether matrix[(n - i) % n, (n - j) % n] == matrix[i, j] for every
    entry, tested exactly on views: the reference for
    CirculantPlusDiagonal.reflection_invariant.  Row 0 is its own mirror;
    rows 1 .. h, h = n // 2, are compared with their mirrors n - 1 .. n - h,
    which covers every other equation once and reads every entry."""
    m = np.asarray(matrix)
    h = m.shape[0] // 2
    return np.array_equal(m[0, 1:], m[0, :0:-1]) \
        and np.array_equal(m[1:h + 1, 0], m[:-h - 1:-1, 0]) \
        and np.array_equal(m[1:h + 1, 1:], m[:-h - 1:-1, :0:-1])


def kron_by_index(a, b):
    """Kronecker product assembled entry by entry from the index formula."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    na, nb = a.shape[0], b.shape[0]
    out = np.zeros((na * nb, na * nb), dtype=np.complex128)
    for i in range(na):
        for j in range(na):
            for k in range(nb):
                for l in range(nb):
                    out[i * nb + k, j * nb + l] = a[i, j] * b[k, l]
    return out


def dft_columns(samples, freqs):
    """Normalized plane-wave columns built one entry at a time."""
    n = len(samples)
    out = np.zeros((n, n), dtype=np.complex128)
    for j in range(n):
        for k in range(n):
            out[j, k] = np.exp(1j * freqs[k] * samples[j]) / math.sqrt(n)
    return out


def rolled(values, steps):
    """Cyclic shift moving entry j to entry j - steps (f(t) -> f(t + dt))."""
    return np.roll(np.asarray(values), -steps)


def gaussian_moment(samples, spacing, center, sigma, power):
    """Riemann-sum moment <(x - center)^power> of a normalized Gaussian."""
    x = np.asarray(samples, dtype=float)
    density = np.exp(-((x - center) ** 2) / (2.0 * sigma ** 2))
    density /= density.sum() * spacing
    return float(((x - center) ** power * density).sum() * spacing)


def small_singular_count(matrix, tol):
    """Count singular values at or below tol via a Hermitian eigensolve.

    The embedding [[0, M], [M^H, 0]] has eigenvalues +-sigma_i for each
    singular value of M, plus |rows - cols| zeros, so each sigma is
    resolved to about eps * ||M|| rather than the eps * ||M||^2 of the Gram
    matrix M^H M.  An exactly Hermitian M needs no embedding: its singular
    values are its |eigenvalues|, and the embedding is similar to
    M (+) -M.  A sigma that rounding splits across tol is refused.
    """
    m = np.asarray(matrix, dtype=np.complex128)
    rows, cols = m.shape
    if rows == cols and np.array_equal(m, m.conj().T):
        return int(np.count_nonzero(np.abs(np.linalg.eigvalsh(m)) <= tol))
    embedding = np.zeros((rows + cols, rows + cols), dtype=np.complex128)
    embedding[:rows, rows:] = m
    embedding[rows:, :rows] = m.conj().T
    w = np.linalg.eigvalsh(embedding)
    count = int(np.count_nonzero(np.abs(w) <= tol)) - abs(rows - cols)
    if count % 2:
        raise ValueError("a singular value sits at tol within rounding")
    return count // 2


def ladder_matrix_elements(level, direction):
    """Exact oscillator ladder coefficients: sqrt(n+1) up, sqrt(n) down."""
    if direction == "up":
        return math.sqrt(level + 1.0)
    if direction == "down":
        return math.sqrt(float(level))
    raise ValueError("direction must be 'up' or 'down'")


def phase_fixed_by_loop(vectors):
    """canonical_phase one column at a time: the first component above
    1e-8 of the column peak is rotated real positive; a zero column is
    skipped."""
    vectors = np.array(vectors, copy=True)
    for j in range(vectors.shape[1]):
        col = vectors[:, j]
        mags = np.abs(col)
        peak = mags.max()
        if peak == 0.0:
            continue
        pivot = int(np.argmax(mags > 1e-8 * peak))
        phase = col[pivot] / mags[pivot]
        col *= np.conj(phase)
        col[pivot] = col[pivot].real
        vectors[:, j] = col
    return vectors


def dense_projector(basis):
    """The dim x dim orthogonal projector B B^H onto a basis's span."""
    b = basis.vectors.reshape(-1, basis.count)
    return b @ b.conj().T


def span_gaps(basis, states):
    """Column norms of (I - B B^H) S, S the states as the columns of a
    (dim, n) array, through the dense projector."""
    complement = -dense_projector(basis)
    complement[np.diag_indices_from(complement)] += 1.0
    return np.linalg.norm(complement @ states, axis=0)


def member_coefficients(basis, amplitudes):
    """B^H s, the coefficients <member_i | s> of a state's amplitudes."""
    return basis.vectors.reshape(-1, basis.count).conj().T @ amplitudes


def _interleaved_key(column):
    parts = np.empty(2 * column.shape[0])
    parts[0::2] = column.real
    parts[1::2] = column.imag
    return tuple(parts)


def ordered_by_tuples(values, vectors):
    """Columns inside each run of exactly equal values sorted by a Python
    tuple of their interleaved real and imaginary parts, stably."""
    vectors = np.array(vectors, copy=True)
    n = values.shape[0]
    start = 0
    while start < n:
        stop = start + 1
        while stop < n and values[stop] == values[start]:
            stop += 1
        block = vectors[:, start:stop]
        order = sorted(range(stop - start),
                       key=lambda j: _interleaved_key(block[:, j]))
        vectors[:, start:stop] = block[:, order]
        start = stop
    return vectors


def circulant_hamiltonian_by_index(model, omega):
    """p^2/(2m) + m*omega^2*q^2/2 gathered through an n x n index array of
    (j - l) mod n and symmetrized as (C + C^T)/2."""
    k, grid = model.constants, model.grid
    n = grid.n
    w = 2.0 * np.pi * np.arange(n // 2 + 1) / grid.period
    column = np.fft.irfft((k.hbar * w) ** 2, n) / (2.0 * k.mass)
    j = np.arange(n)
    m = column[(j[:, None] - j[None, :]) % n]
    m = 0.5 * (m + m.T)
    m[j, j] += 0.5 * k.mass * omega ** 2 * grid.samples ** 2
    return m


def dense_hermitian_defect(matrix):
    """max |A_ij - conj(A_ji)| from one dense difference with the
    transpose: 0.0 for an empty matrix, NaN when any entry is NaN."""
    difference = np.abs(matrix - matrix.conj().T)
    return float(difference.max()) if difference.size else 0.0


def scatter_merge(even, odd):
    """Values and full-length vectors of the reflection split, from the
    (values, vectors) that eigh returned for the even block of order
    n/2 + 1 and the odd block of order n/2 - 1.  Each block column is
    scattered into its ascending-order column of a zero n x n matrix, an
    even one onto rows 0 .. n/2 and mirrored onto n/2 + 1 .. n - 1, an
    odd one onto rows 1 .. n/2 - 1 and mirrored negated."""
    (even_values, even_vectors), (odd_values, odd_vectors) = even, odd
    h = even_vectors.shape[0] - 1
    n = 2 * h
    r = np.sqrt(0.5)
    even_vectors = np.array(even_vectors, copy=True)
    even_vectors[1:h] *= r
    odd_vectors = odd_vectors * r
    values = np.concatenate((even_values, odd_values))
    order = np.argsort(values, kind="stable")
    column = np.empty(n, dtype=np.intp)
    column[order] = np.arange(n)
    even_column, odd_column = column[:h + 1], column[h + 1:]
    vectors = np.zeros((n, n))
    vectors[:h + 1, even_column] = even_vectors
    vectors[:h:-1, even_column] = even_vectors[1:h]
    vectors[1:h, odd_column] = odd_vectors
    vectors[:h:-1, odd_column] = -odd_vectors
    return values[order], vectors


def take_merge(even, odd):
    """scatter_merge by a second route: both blocks laid side by side,
    [even | odd], in an (n/2 + 1) x n array, gathered into ascending order
    by one np.take, and rows n/2 + 1 .. n - 1 filled as rows n/2 - 1 .. 1
    times +1 in an even column and -1 in an odd one."""
    (even_values, even_vectors), (odd_values, odd_vectors) = even, odd
    h = even_vectors.shape[0] - 1
    n = 2 * h
    r = np.sqrt(0.5)
    top = np.empty((h + 1, n))
    top[:, :h + 1] = even_vectors
    top[1:h, :h + 1] *= r
    top[::h, h + 1:] = 0.0
    top[1:h, h + 1:] = odd_vectors * r
    values = np.concatenate((even_values, odd_values))
    order = np.argsort(values, kind="stable")
    sign = np.ones(n)
    sign[h + 1:] = -1.0
    vectors = np.empty((n, n))
    vectors[:h + 1] = np.take(top, order, axis=1)
    vectors[h + 1:] = vectors[h - 1:0:-1] * sign[order]
    return values[order], vectors


def eig_by_take_merge(even, odd):
    """eig_hermitian's values and vectors of an exactly reflected real
    matrix, from the (values, vectors) eigh returned for its two blocks:
    take_merge, then phase_fixed_by_loop and ordered_by_tuples on the
    full n x n vectors."""
    values, vectors = take_merge(even, odd)
    return values, ordered_by_tuples(values, phase_fixed_by_loop(vectors))


def dense_reconstruction_defect(values, vectors, matrix):
    """max |V diag(values) V^H - A| from one full product."""
    return float(np.abs((vectors * values) @ vectors.conj().T
                        - matrix).max())


def _unitary(u):
    # a dense unitary, checked to the library's 1e-10 bound on U^H U - I
    defect = np.abs(u.conj().T @ u - np.eye(u.shape[1])).max()
    assert defect <= 1e-10, "unitary defect %.3e" % defect
    return u


def energy_shift(tg, d_energy, constants):
    """Diagonal unitary of phases e^{-i dE t_j / hbar}, which maps the
    sampled energy eigenvector at E to the one at E + dE."""
    phases = np.exp(-1j * float(d_energy) * tg.samples / constants.hbar)
    return _unitary(np.diag(phases))


def eigen_swap_unitary(i, j, es):
    """Two-level swap of eigenvectors i and j, identity elsewhere: the
    Hermitian involution I - v_i v_i^H - v_j v_j^H + v_j v_i^H + v_i v_j^H."""
    vi, vj = es.vector(i), es.vector(j)
    u = np.eye(es.dim, dtype=np.complex128)
    u -= np.outer(vi, vi.conj()) + np.outer(vj, vj.conj())
    u += np.outer(vj, vi.conj()) + np.outer(vi, vj.conj())
    return _unitary(u)


def expectation_left(state, op):
    """<A (x) I> of a composite state, from its (n_q, n_t) matrix."""
    m = state.matrix
    am = getattr(op, "matrix", op) @ m
    return float(np.real(np.vdot(m, am))) / state.norm ** 2


def _grid_document(grid):
    return {"n": grid.n, "origin": grid.origin, "spacing": grid.spacing}


def serialize_scenario(sc):
    """Canonical JSON for a Scenario: sorted keys, every tolerance
    written out, and parse_scenario of it equal to sc."""
    if sc.initial.kind == "level":
        initial = {"level": sc.initial.level}
    elif sc.initial.kind == "energy":
        initial = {"energy": sc.initial.energy}
    else:
        initial = {"amplitudes": [[a.real, a.imag]
                                  for a in sc.initial.amplitudes]}
    steps = []
    for step in sc.steps:
        if step.kind == "evolve":
            steps.append({"evolve": step.dt})
        else:
            steps.append({"jump": {"from": step.from_level,
                                   "to": step.to_level,
                                   "at": step.at_time}})
    k = sc.model.constants
    doc = {
        "constants": {"hbar": k.hbar, "mass": k.mass, "c": k.c,
                      "omega": k.omega},
        "preset": {"q": _grid_document(sc.model.grid),
                   "t": _grid_document(sc.t_grid)},
        "model": sc.model.kind,
        "initial": initial,
        "steps": steps,
        "tolerances": {"constraint_tol": sc.constraint_tol},
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def momentum_in_basis(vectors, grid, constants):
    """V^H P V for the spectral momentum P = D diag(hbar w) D^H, with the
    plane waves D built entry by entry and P formed densely."""
    d = dft_columns(grid.samples, grid.frequencies)
    p = (d * (constants.hbar * grid.frequencies)) @ d.conj().T
    v = np.asarray(vectors, dtype=np.complex128)
    return v.conj().T @ p @ v
