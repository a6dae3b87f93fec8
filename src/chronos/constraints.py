"""Constraint equations on the composite space and their solution subspaces.

Three constraint operators are supported, each the difference of lifted
Hermitian pieces on the (system (x) time) product:

  first:        (I (x) s_op)  -  (H (x) I)
  second:       (I (x) t_op)  -  (G (x) I)
  generalized:  c_s (I (x) s_op) + c_t (I (x) t_op)  -  F

where s_op/t_op are the conjugate/sample operators of the time axis, H is
a Hamiltonian, G a clock operator, and F an arbitrary Hermitian composite.
States in the near-kernel of a constraint operator form the physical
subspace; measurement statistics are renormalized inside it.

Each operator of the form I (x) K - A (x) I is a Kronecker sum: the first
and second kinds always, the generalized kind whenever F = A (x) I.  Its
near-kernel is solved exactly from one eigendecomposition of each factor.
Applications are Kronecker-factored throughout; the composite matrix is
materialized only for a generalized F that is not A (x) I, which is solved
by dense SVD and only up to a size cap.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .axes import (
    TIME,
    AxisGrid,
    CompositeState,
    PhysicalConstants,
    energy_eigenvector,
    energy_operator,
    require_label,
    time_operator,
    tensor_state,
)
from .exceptions import (
    DimensionMismatchError,
    EmptyBasisError,
    NotHermitianError,
    OutOfRangeError,
    ZeroOverlapError,
)
from .linalg import (
    OperatorMatrix,
    eig_hermitian,
    identity,
    kron,
    kronecker_null_space,
    near_null_space,
    operator,
)

FIRST = "first"
SECOND = "second"
GENERALIZED = "generalized"

# largest composite dimension for which the dense solve is materialized
MATERIALIZE_LIMIT = 4096

ZERO_WEIGHT = 1e-14
DEFAULT_TOL = 1e-6


@dataclass(frozen=True)
class ConstraintOperator:
    """One of the three constraint operators, kept in factored form."""

    kind: str
    n_q: int
    time_grid: AxisGrid
    constants: PhysicalConstants | None
    system_op: OperatorMatrix | None
    coeff_s: float
    coeff_t: float
    extra: OperatorMatrix | None

    @property
    def n_t(self):
        return self.time_grid.n

    @property
    def dim(self):
        return self.n_q * self.n_t

    @cached_property
    def _s_op(self):
        return energy_operator(self.time_grid, self.constants)

    @cached_property
    def _t_samples(self):
        return self.time_grid.samples

    @cached_property
    def kronecker_factors(self):
        """(A, K) with this operator equal to I (x) K - A (x) I, or None.

        The first and second kinds always factor; the generalized kind
        factors when F = A (x) I exactly, with K = c_s s_op + c_t t_op.
        """
        if self.kind == FIRST:
            return self.system_op, self._s_op
        if self.kind == SECOND:
            return self.system_op, time_operator(self.time_grid)
        a = _system_factor(self.extra.matrix, self.n_q, self.n_t)
        if a is None:
            return None
        k = np.zeros((self.n_t, self.n_t), dtype=np.complex128)
        if self.coeff_s != 0.0:
            k = k + self.coeff_s * self._s_op.matrix
        if self.coeff_t != 0.0:
            k = k + np.diag(self.coeff_t * self._t_samples)
        return operator(a, hermitian=True), operator(k, hermitian=True)

    @cached_property
    def system_eigensystem(self):
        """Eigensystem of the system factor A of kronecker_factors."""
        return eig_hermitian(self.kronecker_factors[0])

    def apply_matrix(self, m):
        """Constraint image of a state given as its (n_q, n_t) matrix."""
        if self.kind == FIRST:
            return m @ self._s_op.matrix.T - self.system_op.matrix @ m
        if self.kind == SECOND:
            return m * self._t_samples[None, :] - self.system_op.matrix @ m
        out = np.zeros_like(m)
        if self.coeff_s != 0.0:
            out = out + self.coeff_s * (m @ self._s_op.matrix.T)
        if self.coeff_t != 0.0:
            out = out + self.coeff_t * (m * self._t_samples[None, :])
        return out - (self.extra.matrix @ m.ravel()).reshape(m.shape)

    def residual(self, state):
        """||D s|| / ||s|| via factored application."""
        m, norm = _state_matrix(state, self.n_q, self.n_t)
        if norm == 0.0:
            raise ValueError("residual of the zero state is undefined")
        return float(np.linalg.norm(self.apply_matrix(m))) / norm

    @cached_property
    def composite(self):
        """The materialized composite matrix; only below the size cap."""
        if self.dim > MATERIALIZE_LIMIT:
            raise DimensionMismatchError(
                "composite dimension %d exceeds the materialization cap %d; "
                "use the factored application" % (self.dim, MATERIALIZE_LIMIT))
        i_q = identity(self.n_q)
        if self.kind == FIRST:
            m = kron(i_q, self._s_op).matrix - kron(self.system_op,
                                                    identity(self.n_t)).matrix
        elif self.kind == SECOND:
            m = kron(i_q, time_operator(self.time_grid)).matrix \
                - kron(self.system_op, identity(self.n_t)).matrix
        else:
            m = -self.extra.matrix
            if self.coeff_s != 0.0:
                m = m + self.coeff_s * kron(i_q, self._s_op).matrix
            if self.coeff_t != 0.0:
                m = m + self.coeff_t * kron(
                    i_q, time_operator(self.time_grid)).matrix
        return operator(m, hermitian=True)


def _state_matrix(state, n_q, n_t):
    if isinstance(state, CompositeState):
        if (state.n_q, state.n_t) != (n_q, n_t):
            raise DimensionMismatchError(
                "state is %d x %d, constraint is %d x %d"
                % (state.n_q, state.n_t, n_q, n_t))
        return state.matrix, state.norm
    a = np.asarray(state, dtype=np.complex128).ravel()
    if a.shape[0] != n_q * n_t:
        raise DimensionMismatchError(
            "state has %d amplitudes, constraint space has %d"
            % (a.shape[0], n_q * n_t))
    return a.reshape(n_q, n_t), float(np.linalg.norm(a))


def _system_factor(f, n_q, n_t):
    """A when the composite matrix f equals A (x) I_{n_t} exactly, else None.

    The time blocks of f are compared in place, so no composite-sized
    temporary is built.
    """
    blocks = f.reshape(n_q, n_t, n_q, n_t)
    a = blocks[:, 0, :, 0]
    for k in range(1, n_t):
        if not np.array_equal(blocks[:, k, :, k], a):
            return None
    # with equal diagonal blocks, every other entry of f must be zero
    if np.count_nonzero(f) != n_t * np.count_nonzero(a):
        return None
    return a


def _verified_hermitian(candidate, what):
    # raw matrices are accepted but the symmetry claim is verified here
    if isinstance(candidate, OperatorMatrix):
        if not candidate.hermitian:
            raise NotHermitianError("%s must carry a verified hermitian "
                                    "flag" % what)
        return candidate
    return operator(candidate, hermitian=True)


def first_constraint_operator(hamiltonian_op, tg, constants):
    require_label(tg, TIME, "first constraint")
    hamiltonian_op = _verified_hermitian(hamiltonian_op, "hamiltonian")
    return ConstraintOperator(FIRST, hamiltonian_op.dim, tg, constants,
                              hamiltonian_op, 1.0, 0.0, None)


def second_constraint_operator(clock_op, tg):
    require_label(tg, TIME, "second constraint")
    clock_op = _verified_hermitian(clock_op, "clock operator")
    return ConstraintOperator(SECOND, clock_op.dim, tg, None,
                              clock_op, 0.0, 1.0, None)


def generalized_constraint_operator(coeff_s, coeff_t, extra, tg, constants):
    require_label(tg, TIME, "generalized constraint")
    extra = _verified_hermitian(extra, "extra operator")
    n_q, rem = divmod(extra.dim, tg.n)
    if rem != 0 or n_q < 1:
        raise DimensionMismatchError(
            "composite dim %d is not a multiple of the time dim %d"
            % (extra.dim, tg.n))
    return ConstraintOperator(GENERALIZED, n_q, tg, constants, None,
                              float(coeff_s), float(coeff_t), extra)


def first_constraint_residual(state, hamiltonian_op, tg, constants):
    """||(I(x)s_op - H(x)I) state|| / ||state||, never materialized."""
    return first_constraint_operator(hamiltonian_op, tg,
                                     constants).residual(state)


def second_constraint_residual(state, clock_op, tg):
    """||(I(x)t_op - G(x)I) state|| / ||state||, never materialized."""
    return second_constraint_operator(clock_op, tg).residual(state)


def generalized_residual(state, coeff_s, coeff_t, extra, tg, constants):
    """Residual of the two-coefficient constraint c_s*s_op + c_t*t_op = F."""
    op = generalized_constraint_operator(coeff_s, coeff_t, extra, tg,
                                         constants)
    return op.residual(state)


def separable_first(pair, tg, constants):
    """Product solution of the first constraint from an energy eigenpair.

    pair is (E, psi_E); the result is psi_E (x) energy_eigenvector(E),
    normalized.  Off-band energies are refused, off-lattice ones warned
    about by the eigenvector constructor.
    """
    energy, system_vector = pair
    chi = energy_eigenvector(tg, energy, constants)
    return tensor_state(system_vector, chi)


def separable_second(pair, tg):
    """Product solution of the second constraint from a clock eigenpair.

    pair is (t, psi_t); t is rounded to the nearest time sample and the
    result is psi_t (x) (grid delta there).  Returns (state, rounding
    distance); values outside the sampled range are refused.
    """
    require_label(tg, TIME, "separable second solution")
    t_value, system_vector = pair
    t_value = float(t_value)
    samples = tg.samples
    half = tg.spacing / 2.0
    if not samples[0] - half <= t_value <= samples[-1] + half:
        raise OutOfRangeError(
            "time %.6g outside sampled range [%.6g, %.6g]"
            % (t_value, samples[0] - half, samples[-1] + half))
    j = int(np.argmin(np.abs(samples - t_value)))
    delta = np.zeros(tg.n, dtype=np.complex128)
    delta[j] = 1.0
    return tensor_state(system_vector, delta), float(abs(samples[j] - t_value))


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal near-kernel basis with system eigenvalue labels.

    labels holds one entry per member: the system eigenvalue a_m of its
    product factor, repeated across a degenerate level, or None for every
    member of a generalized-constraint basis.
    """

    members: tuple
    labels: tuple
    residuals: tuple
    kind: str
    tol: float

    @property
    def count(self):
        return len(self.members)

    def __len__(self):
        return len(self.members)

    @cached_property
    def _matrix(self):
        if not self.members:
            return np.zeros((0, 0), dtype=np.complex128)
        return np.stack([m.amplitudes for m in self.members], axis=1)

    def coefficients(self, state):
        """Projection coefficients <member_i | state>."""
        if isinstance(state, CompositeState):
            state = state.amplitudes
        state = np.asarray(state, dtype=np.complex128).ravel()
        if self.count and state.shape[0] != self._matrix.shape[0]:
            raise DimensionMismatchError(
                "state length %d, basis lives in dimension %d"
                % (state.shape[0], self._matrix.shape[0]))
        # conjugating the state, not the matrix, copies no member matrix
        return (state.conj() @ self._matrix).conj()

    def projector(self):
        """Dense orthogonal projector onto the spanned subspace."""
        if not self.members:
            raise EmptyBasisError("projector of an empty basis")
        b = self._matrix
        return operator(b @ b.conj().T, hermitian=True)


def physical_subspace(op, tol=DEFAULT_TOL):
    """Near-kernel basis of a constraint operator with eigenvalue labels.

    When the operator is a Kronecker sum I (x) K - A (x) I (see
    kronecker_factors) the basis is exact: every product eigenvector
    psi_m (x) chi_k with |kappa_k - a_m| <= tol, ordered by system level and
    then by axis eigenvalue, labelled a_m.  A generalized F that is not
    A (x) I falls back to a dense SVD of the composite, which refuses to
    materialize above MATERIALIZE_LIMIT.  Generalized members carry no
    label.  Every residual is measured against the full operator.
    """
    if tol <= 0.0:
        raise ValueError("tolerance must be positive")
    factors = op.kronecker_factors
    if factors is None:
        vectors = near_null_space(op.composite, tol)
    else:
        system = op.system_eigensystem
        found = kronecker_null_space(system, eig_hermitian(factors[1]), tol)
        vectors = [v for _, _, v in found]
        labels = [float(system.values[m]) for m, _, _ in found]
    if op.kind == GENERALIZED:
        labels = [None] * len(vectors)
    members = tuple(CompositeState(v, op.n_q, op.n_t) for v in vectors)
    residuals = tuple(op.residual(m) for m in members)
    return SubspaceBasis(members, tuple(labels), residuals, op.kind,
                         float(tol))


def generalized_solve(coeff_s, coeff_t, extra, tg, constants,
                      tol=DEFAULT_TOL):
    """Near-kernel basis of the generalized constraint; labels omitted."""
    op = generalized_constraint_operator(coeff_s, coeff_t, extra, tg,
                                         constants)
    return physical_subspace(op, tol)


def measurement_probabilities(state, basis):
    """Outcome distribution of the level measurement inside the subspace.

    Probabilities are |<member_i|state>|^2 renormalized over the basis;
    the pre-normalization subspace weight is returned alongside, so the
    caller can judge how much of the state was physical to begin with.
    """
    if basis.count == 0:
        raise EmptyBasisError("measurement against an empty basis")
    coeffs = basis.coefficients(state)
    weight = float(np.sum(np.abs(coeffs) ** 2))
    if weight < ZERO_WEIGHT:
        raise ZeroOverlapError(
            "subspace weight %.3e below %.1e" % (weight, ZERO_WEIGHT))
    probabilities = np.abs(coeffs) ** 2 / weight
    pairs = [(basis.labels[i], float(probabilities[i]))
             for i in range(basis.count)]
    return pairs, weight


def uncertainty_product(phi, tg, constants):
    """(spread of t_op, spread of s_op, their product) on a time-space state."""
    require_label(tg, TIME, "uncertainty product")
    phi = np.asarray(phi, dtype=np.complex128).ravel()
    if phi.shape[0] != tg.n:
        raise DimensionMismatchError(
            "state length %d does not match grid size %d"
            % (phi.shape[0], tg.n))
    norm = np.linalg.norm(phi)
    if abs(norm - 1.0) > 1e-8:
        raise ValueError("state must be normalized, got norm %.12g" % norm)
    density = np.abs(phi) ** 2
    t = tg.samples
    t_mean = float(np.dot(t, density))
    # centered norms avoid the cancellation of <x^2> - <x>^2 near eigenstates
    dt = float(np.sqrt(np.dot((t - t_mean) ** 2, density)))
    s_phi = energy_operator(tg, constants).matrix @ phi
    s_mean = float(np.real(np.vdot(phi, s_phi)))
    ds = float(np.linalg.norm(s_phi - s_mean * phi))
    return dt, ds, dt * ds
