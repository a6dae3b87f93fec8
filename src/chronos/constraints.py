"""Constraint equations on the composite space and their solution subspaces.

Every constraint operator is a Kronecker sum on the (system (x) time)
product, a system operator A and a time-axis operator K lifted apart:

  first:        I (x) s_op                  -  H (x) I
  second:       I (x) t_op                  -  G (x) I
  generalized:  I (x) (c_s s_op + c_t t_op)  -  F,   F = A (x) I

where s_op/t_op are the conjugate/sample operators of the time axis, H is
a Hamiltonian and G a clock operator.  In the generalized equation the
time and energy operators act on the time factor alone and reach the
system only through F = A (x) I, so every builder takes the system factor
A itself, never a composite; it measures A's hermitian defect and keeps
the very operator it is handed.  A constraint operator is its two
factors and nothing else.  States in the near-kernel of a constraint
operator form the physical subspace, each member labelled with its
system eigenvalue; measurement statistics are renormalized inside it.
A product state from an energy off the lattice is built as asked, and
its residual, judged against the one constraint_tol, shows the miss.

The near-kernel is solved exactly from the eigensystem each factor
keeps, and applications are Kronecker-factored throughout.  The
materialized composite is kept, below a size cap, only as a dense oracle.
A state's distance from a physical subspace goes through the basis's one
member array, so no dense projector is formed.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .axes import (
    NORM_ATOL,
    TIME,
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
    OutOfRangeError,
)
from .linalg import (
    DEFAULT_TOL,
    TILE,
    OperatorMatrix,
    identity,
    kron,
    kronecker_null_space,
    operator,
    require_hermitian,
)

# largest composite dimension for which the dense solve is materialized
MATERIALIZE_LIMIT = 4096


@dataclass(frozen=True, eq=False)
class ConstraintOperator:
    """The constraint operator I (x) K - A (x) I, kept in factored form.

    system_op is A on the system factor; axis_op is K on the time axis:
    the energy operator for the first constraint, the time operator for
    the second and c_s s_op + c_t t_op for the generalized one.
    """

    system_op: OperatorMatrix
    axis_op: OperatorMatrix

    @property
    def n_q(self):
        return self.system_op.dim

    @property
    def n_t(self):
        return self.axis_op.dim

    @property
    def dim(self):
        return self.n_q * self.n_t

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
        return OperatorMatrix(
            kron(identity(self.n_q), self.axis_op).matrix
            - kron(self.system_op, identity(self.n_t)).matrix)


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


def _verified_hermitian(candidate):
    # the system factor, measured; an OperatorMatrix is returned as it is,
    # with the eigensystem it keeps
    if not isinstance(candidate, OperatorMatrix):
        candidate = operator(candidate)
    require_hermitian(candidate.matrix)
    return candidate


def first_constraint_operator(hamiltonian_op, tg, constants):
    require_label(tg, TIME, "first constraint")
    return ConstraintOperator(_verified_hermitian(hamiltonian_op),
                              energy_operator(tg, constants))


def second_constraint_operator(clock_op, tg):
    require_label(tg, TIME, "second constraint")
    return ConstraintOperator(_verified_hermitian(clock_op),
                              time_operator(tg))


def generalized_constraint_operator(coeff_s, coeff_t, system_op, tg,
                                    constants):
    """The constraint c_s (I (x) s_op) + c_t (I (x) t_op) - A (x) I.

    system_op is the system factor A of the paper's F = A (x) I: the time
    and energy operators couple to the system only through it.  The
    result is I (x) K - A (x) I with K = c_s s_op + c_t t_op.
    """
    require_label(tg, TIME, "generalized constraint")
    system_op = _verified_hermitian(system_op)
    s_op = energy_operator(tg, constants)
    k = operator(float(coeff_s) * s_op.matrix
                 + np.diag(float(coeff_t) * tg.samples), hermitian=True)
    if coeff_t == 0:  # K = c_s s_op keeps c_s times s_op's pair, ascending
        es, step = s_op.eigensystem, -1 if coeff_s < 0 else 1
        k.kept(float(coeff_s) * es.values[::step], es.vectors[:, ::step])
    return ConstraintOperator(system_op, k)


def separable_first(pair, tg, constants):
    """Product solution of the first constraint from an energy eigenpair.

    pair is (E, psi_E); the result is psi_E (x) energy_eigenvector(E),
    normalized.  It solves the constraint exactly only when E sits on the
    time grid's frequency lattice; nearest_lattice_energy returns the
    miss.  Off-band energies are refused.
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


@dataclass(frozen=True, eq=False)
class SubspaceBasis:
    """Orthonormal near-kernel basis with system eigenvalue labels.

    vectors holds the members once, as one (n_q, n_t, count) array whose
    reshape to (dim, count) is the member matrix B.  labels holds one
    entry per member, on every constraint: the system eigenvalue a_m of
    its product factor, repeated across a degenerate level.  A state is
    compared with the span in factored form, as s - B (B^H s), so no
    dim x dim projector is built.
    """

    vectors: np.ndarray
    labels: tuple
    residuals: tuple

    @property
    def count(self):
        return self.vectors.shape[2]

    def span_gaps(self, states):
        """||s - B (B^H s)|| of each state, its distance from the span.

        Each state is read by the constraint operator's shape rule, and
        linalg.TILE states are stacked for one product each; a NaN in the
        basis or in a state carries to that state's gap.
        """
        if not self.count:
            raise EmptyBasisError("span gaps against an empty basis")
        n_q, n_t, count = self.vectors.shape
        b = self.vectors.reshape(-1, count)
        gaps = np.empty(len(states))
        for i in range(0, len(states), TILE):
            s = np.stack([_state_matrix(state, n_q, n_t)[0].ravel()
                          for state in states[i:i + TILE]], axis=1)
            gaps[i:i + TILE] = np.linalg.norm(
                s - b @ (s.conj().T @ b).conj().T, axis=0)
        return gaps


def physical_subspace(op, tol=DEFAULT_TOL):
    """Near-kernel basis of a constraint operator with eigenvalue labels.

    The operator is the Kronecker sum I (x) K - A (x) I, so the basis is
    exact: every product eigenvector psi_m (x) chi_k with
    |kappa_k - a_m| <= tol, ordered by system level and then by axis
    eigenvalue, labelled a_m, from the eigensystems A and K keep.  The
    generalized constraint reduces to the first two, so its members are
    labelled the same way.  The members are stored once, in the read-only
    C-ordered SubspaceBasis.vectors that kronecker_null_space fills in
    place; every residual is measured against the full operator on a
    contiguous copy of one member matrix at a time.  tol must be positive.
    """
    if not tol > 0.0:
        raise ValueError("tolerance must be positive, got %r" % (tol,))
    system = op.system_op.eigensystem
    m, _, vectors = kronecker_null_space(system, op.axis_op.eigensystem, tol)
    labels = tuple(system.values[m].tolist())
    residuals = tuple(op.residual(np.ascontiguousarray(vectors[:, :, i]))
                      for i in range(m.size))
    vectors.setflags(write=False)
    return SubspaceBasis(vectors, labels, residuals)


def uncertainty_product(phi, tg, constants):
    """(spread of t_op, spread of s_op, their product) on a time-space state."""
    require_label(tg, TIME, "uncertainty product")
    phi = np.asarray(phi, dtype=np.complex128).ravel()
    if phi.shape[0] != tg.n:
        raise DimensionMismatchError(
            "state length %d does not match grid size %d"
            % (phi.shape[0], tg.n))
    norm = np.linalg.norm(phi)
    if not abs(norm - 1.0) <= NORM_ATOL:
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
