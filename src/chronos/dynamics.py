"""Unitary dynamics and the scenario engine.

Covers the four unitaries of the formalism (time translation, energy
shift, ladder-with-translation steps, eigenvector swap) plus a small
declarative driver that chains evolve/jump steps and records observables
after each one.  All composite applications are Kronecker-factored.
Each unitary is closed-form: translations from the time grid's Fourier
map, evolution and level swaps from the model's one shared eigensystem.
The driver holds its state in the Hamiltonian eigenbasis times the time
grid's Fourier basis, where both sides of the first constraint are
diagonal, so no step builds an operator.  An evolve is a row of phases,
O(n_q n_t), and its record repeats the previous observables, which a
column phase leaves exactly unchanged.  A jump is a row swap and a
time-domain phase kick reached by FFT, O(n_q n_t log n_t); it permutes the
system density C C^H kept across the run, so its moments cost O(n_q^2).
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .axes import (
    NORM_ATOL,
    TIME,
    AxisGrid,
    CompositeState,
    PhysicalConstants,
    band_edge,
    energy_operator,
    momentum_operator,
    nearest_lattice_energy,
    require_label,
)
from .constraints import DEFAULT_TOL, ZERO_WEIGHT, separable_first
from .exceptions import (
    ChronosError,
    ConvergenceError,
    IndexOutOfRangeError,
    NotUnitaryError,
    OffLatticeError,
    ScenarioStepError,
    ScenarioValidationError,
    TruncationTopError,
    WrongKindError,
)
from .linalg import kronecker_null_pairs, operator, spectral_exp
from .models import (
    OSCILLATOR,
    ModelSpec,
    clock_scale,
    energy_eigensystem,
    hamiltonian,
    hamiltonian_eigensystem,
    ladder_operators,
    oscillator_time_quantum,
)

EIGEN_TOL = 1e-9
EQUIVALENCE_TOL = 1e-6


def time_translation(tg, constants, dt):
    """Unitary shifting sampled functions f(t) -> f(t + dt).

    exp(-i dt s_op / hbar) for the energy operator s_op = Phi diag(-hbar w)
    Phi^H, in closed form Phi diag(e^{i w dt}) Phi^H from the grid's Fourier
    map Phi and frequencies w (hbar cancels).  Integer-step shifts act as
    exact cyclic permutations of band-limited samples.
    """
    require_label(tg, TIME, "time translation")
    return spectral_exp(tg.fourier_map, tg.frequencies, -float(dt))


def energy_shift(tg, d_energy, constants):
    """Diagonal unitary of phases e^{-i dE t_j / hbar}.

    Maps the sampled energy eigenvector at E to the one at E + dE exactly,
    lattice or not, since the phases multiply pointwise.
    """
    return operator(np.diag(_shift_phases(tg, d_energy, constants)),
                    unitary=True)


def _shift_phases(tg, d_energy, constants):
    return np.exp(-1j * float(d_energy) * tg.samples / constants.hbar)


def _translation_phases(tg, dt):
    # e^{i w dt}: the translation by dt in the time grid's Fourier basis
    return np.exp(1j * float(dt) * tg.frequencies)


def _time_kick(c, tg, phases):
    """C Phi^T diag(phases) conj(Phi): a pointwise product with phases in
    the time domain, taken on the Fourier-basis columns of C.

    Phi[j, k] = o_k (-1)^j e^{2 pi i jk/n} / sqrt(n) with o = e^{i t_0 w},
    so the two dense products are an inverse and a forward FFT along the
    time axis, in which the (-1)^j and sqrt(n) factors cancel.
    """
    o = np.exp(1j * tg.origin * tg.frequencies)
    samples = np.fft.ifft(c * o, axis=1)
    samples *= phases
    out = np.fft.fft(samples, axis=1)
    out *= o.conj()
    return out


def _swap_levels(i, j, es):
    # the eigenvectors of two distinct retained levels
    i, j = int(i), int(j)
    if i == j:
        raise ValueError("swap levels must differ, got %d" % i)
    if not (0 <= i < es.count and 0 <= j < es.count):
        raise IndexOutOfRangeError(
            "levels (%d, %d) outside retained range 0..%d"
            % (i, j, es.count - 1))
    return es.vector(i), es.vector(j)


def eigen_swap_unitary(i, j, es):
    """Two-level swap of eigenvectors i and j, identity elsewhere.

    Hermitian involution; the minimal unitary rotating level i into level
    j with all phase freedom fixed to +1.
    """
    vi, vj = _swap_levels(i, j, es)
    u = np.eye(es.dim, dtype=np.complex128)
    u -= np.outer(vi, vi.conj()) + np.outer(vj, vj.conj())
    u += np.outer(vj, vi.conj()) + np.outer(vi, vj.conj())
    return operator(u, hermitian=True, unitary=True)


def _ladder_step(state, model, grids, up):
    if model.kind != OSCILLATOR:
        raise WrongKindError("ladder steps are defined for the oscillator")
    qg, tg = grids
    if state.n_q != qg.n or state.n_t != tg.n:
        raise ValueError("state does not live on the given grids")
    es = energy_eigensystem(model)
    # the dominant retained level of the system factor
    n = int(np.argmax(np.sum(np.abs(es.vectors.conj().T @ state.matrix) ** 2,
                             axis=1)))
    if up and n >= es.count - 1:
        raise TruncationTopError(
            "raising applied at the top retained level %d" % n)
    if not up and n == 0:
        zero = np.zeros(state.n_q * state.n_t, dtype=np.complex128)
        return CompositeState(zero, state.n_q, state.n_t,
                              normalized=False), 0.0
    a, a_dag = ladder_operators(es)
    tau = oscillator_time_quantum(model.constants)
    t_u = time_translation(tg, model.constants, -tau if up else tau)
    new = (a_dag if up else a).matrix @ state.matrix @ t_u.matrix.T
    coefficient = float(np.linalg.norm(new))
    out = CompositeState(new.ravel(), state.n_q, state.n_t, normalized=False)
    return out, coefficient


def ladder_step_up(state, model, grids):
    """One rung up: raising operator joint with a backward time translation.

    Returns the unnormalized image and its norm; on the clock-aligned
    solution at level n the norm is sqrt(n+1) and the normalized image is
    the solution at level n+1.
    """
    return _ladder_step(state, model, grids, up=True)


def ladder_step_down(state, model, grids):
    """One rung down: lowering operator joint with a forward time translation.

    Norm of the image is sqrt(n); the ground level is annihilated to the
    exact zero vector with coefficient 0.
    """
    return _ladder_step(state, model, grids, up=False)


def energy_jump(state, i, j, model, grids, tol=DEFAULT_TOL):
    """Swap the system between levels i and j with the matching phase kick.

    Applies (two-level swap) (x) (energy shift by E_j - E_i).  Both level
    energies must sit on the time grid's frequency lattice within tol, or
    the jump is refused; the result keeps the first-constraint residual of
    a solution and the norm is preserved.  The swap acts as the rank-2
    update M + (v_j - v_i)(v_i^H M - v_j^H M) and the shift as a row of
    phases, so neither unitary is formed.
    """
    qg, tg = grids
    es = energy_eigensystem(model)
    vi, vj = _swap_levels(i, j, es)
    e_from, e_to = _jump_energies(i, j, es, tg, model.constants, tol)
    m = state.matrix
    new = m + np.outer(vj - vi, vi.conj() @ m - vj.conj() @ m)
    new *= _shift_phases(tg, e_to - e_from, model.constants)
    return CompositeState(new.ravel(), state.n_q, state.n_t)


def _jump_energies(i, j, es, tg, constants, tol):
    # (E_i, E_j) of two retained levels, both inside the band and on the
    # time grid's frequency lattice within tol
    _swap_levels(i, j, es)
    energies = float(es.values[i]), float(es.values[j])
    edge = band_edge(tg, constants)
    for name, value in zip(("from", "to"), energies):
        if not abs(value) <= edge:
            raise OffLatticeError(
                "%s-level energy %.6g beyond the band edge %.6g"
                % (name, value, edge))
        _, miss = nearest_lattice_energy(tg, value, constants)
        if not miss <= tol:
            raise OffLatticeError(
                "%s-level energy %.6g misses the frequency lattice by %.3g"
                % (name, value, miss))
    return energies


@dataclass(frozen=True)
class Step:
    """One scenario step: either an evolution or an energy jump."""

    kind: str
    dt: float | None = None
    from_level: int | None = None
    to_level: int | None = None
    at_time: float | None = None

    def __post_init__(self):
        if self.kind == "evolve":
            if self.dt is None or not np.isfinite(self.dt):
                raise ValueError("evolve step needs a finite duration")
        elif self.kind == "jump":
            for name in ("from_level", "to_level", "at_time"):
                if getattr(self, name) is None:
                    raise ValueError("jump step needs %s" % name)
            if self.from_level == self.to_level:
                raise ValueError("jump levels must differ")
        else:
            raise ValueError("unknown step kind %r" % (self.kind,))


@dataclass(frozen=True)
class InitialState:
    """Starting state: an eigenlevel, a target energy, or raw amplitudes."""

    kind: str
    level: int | None = None
    energy: float | None = None
    amplitudes: tuple | None = None

    def __post_init__(self):
        if self.kind not in ("level", "energy", "amplitudes"):
            raise ValueError("unknown initial kind %r" % (self.kind,))


@dataclass(frozen=True)
class Scenario:
    constants: PhysicalConstants
    q_grid: AxisGrid
    t_grid: AxisGrid
    model_kind: str
    initial: InitialState
    steps: tuple
    constraint_tol: float = DEFAULT_TOL
    eigen_tol: float = EIGEN_TOL
    preset: str | None = field(default=None, compare=False)


@dataclass(frozen=True)
class TrajectoryRecord:
    """Observables captured after one step (index 0 is the initial state)."""

    step_index: int
    kind: str
    q_mean: float
    p_mean: float
    energy_mean: float
    residual1: float
    subspace_weight: float
    probabilities: tuple


def validate_scenario(sc):
    """Numeric validation pass run before any step is applied.

    Checks that both tolerances are positive, that referenced levels are
    retained and that every jump's at-time lies within the constraint
    tolerance of a clock eigenvalue.  Every comparison fails on NaN.
    """
    for key in ("constraint_tol", "eigen_tol"):
        if not getattr(sc, key) > 0.0:
            raise ScenarioValidationError(
                "must be positive, got %r" % (getattr(sc, key),),
                field="tolerances." + key)
    model = ModelSpec(sc.model_kind, sc.constants, sc.q_grid)
    es = energy_eigensystem(model)
    clock_values = clock_scale(model) * es.values
    if sc.initial.kind == "level":
        if not 0 <= sc.initial.level < es.count:
            raise ScenarioValidationError(
                "level %d outside retained range 0..%d"
                % (sc.initial.level, es.count - 1), field="initial.level")
    elif sc.initial.kind == "energy":
        gap = float(np.min(np.abs(es.values - sc.initial.energy)))
        if not gap <= sc.constraint_tol:
            raise ScenarioValidationError(
                "no retained eigenvalue within %g of energy %.6g"
                % (sc.constraint_tol, sc.initial.energy),
                field="initial.energy")
    for idx, step in enumerate(sc.steps):
        if step.kind != "jump":
            continue
        where = "steps[%d].jump" % idx
        for name, level in (("from", step.from_level),
                            ("to", step.to_level)):
            if not 0 <= level < es.count:
                raise ScenarioValidationError(
                    "%s-level %d outside retained range 0..%d"
                    % (name, level, es.count - 1), field=where)
        gap = float(np.min(np.abs(clock_values - step.at_time)))
        if not gap <= sc.constraint_tol:
            raise ScenarioValidationError(
                "at-time %.6g not within %g of any clock eigenvalue"
                % (step.at_time, sc.constraint_tol), field=where)
    return model, es


def _initial_state(sc, es, tg):
    if sc.initial.kind == "amplitudes":
        amp = np.asarray(sc.initial.amplitudes, dtype=np.complex128)
        norm = np.linalg.norm(amp)
        if norm == 0.0:
            raise ScenarioValidationError("amplitudes are all zero",
                                          field="initial.amplitudes")
        return CompositeState(amp / norm, sc.q_grid.n, tg.n)
    if sc.initial.kind == "level":
        n = sc.initial.level
    else:
        n = int(np.argmin(np.abs(es.values - sc.initial.energy)))
    return separable_first((float(es.values[n]), es.vector(n)), tg,
                           sc.constants)


def run_scenario(sc):
    """Apply the scenario's steps in order, recording after each one.

    The state M is held as C = V^H M conj(Phi): V is the Hamiltonian
    eigenbasis (energies E), Phi the time grid's Fourier map, the energy
    operator's eigenbasis (kappa = -hbar w).  Both are certified against
    the grid-basis operators to eigen_tol, or ConvergenceError is raised.
    An evolve multiplies column k by e^{i w_k dt}, the lifted time
    translation, cross checked against the lifted Hamiltonian exponential
    e^{-i E_m dt / hbar} whenever the state satisfies the first
    constraint; the two must agree within 1e-6.  A jump swaps rows i and
    j and kicks the phases in the time domain, reached by an FFT along
    the time axis.  Any failing step, a norm drift included, raises with
    the partial trajectory attached.

    Every recorded observable depends only on |C|^2 and on the system
    density rho = C C^H.  An evolve's column phases leave both exactly
    unchanged, so its record repeats the one before it.  A jump maps C to
    P C U with P the row swap and U unitary, so rho becomes P rho P, and
    is permuted rather than formed again.  After the start-up (one
    eigensolve, its certificate and the change of basis), an evolve costs
    O(n_q n_t) and a jump O(n_q n_t log n_t + n_q^2).
    """
    model, es = validate_scenario(sc)
    tg = sc.t_grid
    k = sc.constants
    h_es = hamiltonian_eigensystem(model)
    v, energies = h_es.vectors, h_es.values
    phi = tg.fourier_map
    kappa = -k.hbar * tg.frequencies
    # for a unit state the residual taken in these bases is within twice
    # this defect of the residual taken in the grid basis
    try:
        defect = np.maximum(
            np.linalg.norm(hamiltonian(model).matrix @ v - v * energies, 2),
            np.linalg.norm(energy_operator(tg, k).matrix @ phi - phi * kappa,
                           2))
    except np.linalg.LinAlgError as exc:  # a NaN stops the 2-norm's SVD
        raise ConvergenceError("eigenbasis defect: %s" % exc) from exc
    if not defect <= sc.eigen_tol:
        raise ConvergenceError(
            "eigenbasis defect %.3g exceeds eigen_tol %.3g"
            % (defect, sc.eigen_tol))
    gaps_sq = (kappa[None, :] - energies[:, None]) ** 2
    # the physical subspace is spanned by the pairs with |kappa_k - E_m|
    # <= tol, in physical_subspace's member order
    rows, cols = np.array(
        kronecker_null_pairs(energies, kappa, sc.constraint_tol),
        dtype=np.intp).reshape(-1, 2).T
    # complex here, once, rather than cast by every np.vdot(rho, q_v)
    q_v = ((v.conj().T * sc.q_grid.samples) @ v).astype(np.complex128)
    p_v = v.conj().T @ momentum_operator(sc.q_grid, k).matrix @ v

    records = []
    kicks = {}  # the time-domain phase row of each (from, to) pair

    def observe(index, kind, c):
        weights = np.abs(c) ** 2
        norm_sq = float(np.sum(weights))
        coeff_sq = weights[rows, cols]
        weight = float(np.sum(coeff_sq))
        if rows.size and weight >= ZERO_WEIGHT:
            probabilities = tuple((coeff_sq / weight).tolist())
        else:
            probabilities = (float("nan"),) * rows.size
        records.append(TrajectoryRecord(
            index, kind,
            float(np.vdot(rho, q_v).real) / norm_sq,
            float(np.vdot(rho, p_v).real) / norm_sq,
            float(weights.sum(axis=1) @ energies) / norm_sq,
            float(np.sqrt(np.sum(weights * gaps_sq) / norm_sq)),
            weight,
            probabilities))

    def evolve(c, dt):
        row = _translation_phases(tg, dt)
        # the preceding record measured the residual of this state
        if records[-1].residual1 <= sc.constraint_tol:
            diff = np.subtract.outer(np.exp(-1j * dt / k.hbar * energies),
                                     row)
            diff *= c
            gap = float(np.sqrt(np.vdot(diff, diff).real))
            if gap > EQUIVALENCE_TOL:
                raise ChronosError(
                    "evolution operators disagree by %.3e on a solution"
                    % gap)
        c *= row

    def jump(c, i, j):
        if (i, j) not in kicks:
            e_from, e_to = _jump_energies(i, j, es, tg, k,
                                          sc.constraint_tol)
            kicks[i, j] = _shift_phases(tg, e_to - e_from, k)
        c[[i, j]] = c[[j, i]]
        rho[[i, j]] = rho[[j, i]]
        rho[:, [i, j]] = rho[:, [j, i]]
        return _time_kick(c, tg, kicks[i, j])

    c = v.conj().T @ _initial_state(sc, es, tg).matrix @ phi.conj()
    rho = c @ c.conj().T
    observe(0, "init", c)
    for index, step in enumerate(sc.steps, start=1):
        try:
            if step.kind == "evolve":
                evolve(c, float(step.dt))
            else:
                c = jump(c, step.from_level, step.to_level)
            norm = float(np.sqrt(np.vdot(c, c).real))
            if not abs(norm - 1.0) <= NORM_ATOL:
                raise NotUnitaryError("state norm %.12g is not 1 within %.1e"
                                      % (norm, NORM_ATOL))
        except ChronosError as exc:
            raise ScenarioStepError(
                "step %d (%s) failed: %s" % (index, step.kind, exc),
                records) from exc
        if step.kind == "evolve":
            records.append(replace(records[-1], step_index=index,
                                   kind="evolve"))
        else:
            observe(index, "jump", c)
    return records
