"""Constraint equations on the composite space and their solution subspaces.

Every constraint operator is a Kronecker sum on the (system (x) time)
product, a system operator A and a time-axis operator K lifted apart:

  first:        I (x) s_op                  -  H (x) I
  second:       I (x) t_op                  -  G (x) I
  generalized:  I (x) (c_s s_op + c_t t_op)  -  F,   F = A (x) I

where s_op/t_op are the conjugate/sample operators of the time axis, H is
a Hamiltonian and G a clock operator.  In the generalized equation the
time and energy operators couple to the system only through F, so F must
be a lifted system operator; its factor A is read off once, when the
operator is built, and any other F is refused.  States in the near-kernel
of a constraint operator form the physical subspace; measurement
statistics are renormalized inside it.

The near-kernel is solved exactly from one eigendecomposition of each
factor, and applications are Kronecker-factored throughout.  The
materialized composite is kept, below a size cap, only as a dense oracle.
Projection onto a physical subspace is factored too: it goes through the
basis members, and no dense projector is formed.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .axes import (
    TIME,
    AxisGrid,
    CompositeState,
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
    TILE,
    OperatorMatrix,
    eig_hermitian,
    identity,
    kron,
    kronecker_null_space,
    operator,
    tiled_maxnorm,
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
    """The constraint operator I (x) K - A (x) I, kept in factored form.

    system_op is A on the system factor; axis_op is K on the time axis:
    the energy operator for the first kind, the time operator for the
    second and c_s s_op + c_t t_op for the generalized kind.
    """

    kind: str
    time_grid: AxisGrid
    system_op: OperatorMatrix
    axis_op: OperatorMatrix

    @property
    def n_q(self):
        return self.system_op.dim

    @property
    def n_t(self):
        return self.time_grid.n

    @property
    def dim(self):
        return self.n_q * self.n_t

    @cached_property
    def system_eigensystem(self):
        """Eigensystem of the system factor A."""
        return eig_hermitian(self.system_op)

    def apply_matrix(self, m):
        """Constraint image of a state given as its (n_q, n_t) matrix."""
        return m @ self.axis_op.matrix.T - self.system_op.matrix @ m

    def residual(self, state):
        """||D s|| / ||s|| via factored application."""
        m, norm = _state_matrix(state, self.n_q, self.n_t)
        if norm == 0.0:
            raise ValueError("residual of the zero state is undefined")
        return float(np.linalg.norm(self.apply_matrix(m))) / norm

    @cached_property
    def composite(self):
        """The materialized composite matrix, a dense oracle for tests.

        Refused above MATERIALIZE_LIMIT; no solver route builds it.
        """
        if self.dim > MATERIALIZE_LIMIT:
            raise DimensionMismatchError(
                "composite dimension %d exceeds the materialization cap %d; "
                "use the factored application" % (self.dim, MATERIALIZE_LIMIT))
        m = kron(identity(self.n_q), self.axis_op).matrix \
            - kron(self.system_op, identity(self.n_t)).matrix
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
    return ConstraintOperator(FIRST, tg, hamiltonian_op,
                              energy_operator(tg, constants))


def second_constraint_operator(clock_op, tg):
    require_label(tg, TIME, "second constraint")
    clock_op = _verified_hermitian(clock_op, "clock operator")
    return ConstraintOperator(SECOND, tg, clock_op, time_operator(tg))


def generalized_constraint_operator(coeff_s, coeff_t, extra, tg, constants):
    """The constraint c_s (I (x) s_op) + c_t (I (x) t_op) - F.

    extra is the composite F, which must be a lifted system operator
    F = A (x) I (see axes.lift_system): the paper's form, in which the time
    and energy operators couple to the system only through A.  A is read
    off F here, once; an F that is not A (x) I raises
    DimensionMismatchError.  The result is I (x) K - A (x) I with
    K = c_s s_op + c_t t_op.
    """
    require_label(tg, TIME, "generalized constraint")
    extra = _verified_hermitian(extra, "extra operator")
    n_q, rem = divmod(extra.dim, tg.n)
    if rem != 0 or n_q < 1:
        raise DimensionMismatchError(
            "composite dim %d is not a multiple of the time dim %d"
            % (extra.dim, tg.n))
    a = _system_factor(extra.matrix, n_q, tg.n)
    if a is None:
        raise DimensionMismatchError(
            "F must be a lifted system operator A (x) I; this %d-dim F "
            "couples the system to the %d-point time axis" % (extra.dim, tg.n))
    k = float(coeff_s) * energy_operator(tg, constants).matrix \
        + np.diag(float(coeff_t) * tg.samples)
    return ConstraintOperator(GENERALIZED, tg, operator(a, hermitian=True),
                              operator(k, hermitian=True))


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
    member of a generalized-constraint basis.  Projection is done in
    factored form, through the dim x count member matrix B: a state is
    projected as B (B^H s), and two subspaces are compared by the largest
    entry of B B^H - B' B'^H, formed a few rows at a time.  No dim x dim
    projector is built.
    """

    members: tuple
    labels: tuple
    residuals: tuple
    kind: str
    tol: float

    @property
    def count(self):
        return len(self.members)

    @cached_property
    def _matrix(self):
        return np.stack([m.amplitudes for m in self.members], axis=1)

    def coefficients(self, state):
        """Projection coefficients <member_i | state>."""
        if not self.members:
            raise EmptyBasisError("coefficients against an empty basis")
        if isinstance(state, CompositeState):
            state = state.amplitudes
        state = np.asarray(state, dtype=np.complex128).ravel()
        if state.shape[0] != self._matrix.shape[0]:
            raise DimensionMismatchError(
                "state length %d, basis lives in dimension %d"
                % (state.shape[0], self._matrix.shape[0]))
        # conjugating the state, not the matrix, copies no member matrix
        return (state.conj() @ self._matrix).conj()

    def project(self, state):
        """Orthogonal projection B (B^H s) of a state onto the span."""
        # coefficients first: they refuse an empty basis, which has no B
        coefficients = self.coefficients(state)
        return self._matrix @ coefficients

    def projector_gap(self, other):
        """max |B B^H - B' B'^H|, the distance between the two projectors.

        The difference is formed linalg.TILE rows at a time, so no dim x dim
        projector is built; a NaN in either basis carries to the result.
        """
        if not self.members or not other.members:
            raise EmptyBasisError("projector gap against an empty basis")
        a, b = self._matrix, other._matrix
        if a.shape[0] != b.shape[0]:
            raise DimensionMismatchError(
                "bases live in dimensions %d and %d"
                % (a.shape[0], b.shape[0]))
        a_h, b_h = a.conj().T, b.conj().T

        def rows():
            for i in range(0, a.shape[0], TILE):
                tile = a[i:i + TILE] @ a_h
                tile -= b[i:i + TILE] @ b_h
                yield tile

        return tiled_maxnorm(rows())


def physical_subspace(op, tol=DEFAULT_TOL):
    """Near-kernel basis of a constraint operator with eigenvalue labels.

    The operator is the Kronecker sum I (x) K - A (x) I, so the basis is
    exact: every product eigenvector psi_m (x) chi_k with
    |kappa_k - a_m| <= tol, ordered by system level and then by axis
    eigenvalue, labelled a_m.  Generalized members carry no label.  Every
    residual is measured against the full operator.  tol must be positive.
    """
    if not tol > 0.0:
        raise ValueError("tolerance must be positive, got %r" % (tol,))
    system = op.system_eigensystem
    found = kronecker_null_space(system, eig_hermitian(op.axis_op), tol)
    vectors = [v for _, _, v in found]
    if op.kind == GENERALIZED:
        labels = [None] * len(vectors)
    else:
        labels = [float(system.values[m]) for m, _, _ in found]
    members = tuple(CompositeState(v, op.n_q, op.n_t) for v in vectors)
    residuals = tuple(op.residual(m) for m in members)
    return SubspaceBasis(members, tuple(labels), residuals, op.kind,
                         float(tol))


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
    if not weight >= ZERO_WEIGHT:
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
    if not abs(norm - 1.0) <= 1e-8:
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
