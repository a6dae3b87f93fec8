"""Unitary dynamics and the scenario engine.

Covers the maps of the formalism (time translation, ladder-with-
translation steps, energy jumps) plus a small declarative driver that
runs a scenario.Scenario, chaining its evolve/jump steps and recording
observables after each one.  All composite applications are
Kronecker-factored.  Each map is closed-form:
translations from the time grid's Fourier map, evolution and level swaps
from the model's one shared eigensystem.  A jump's swap and phase kick
act on the state directly, so neither unitary is formed.
The driver holds its state in the Hamiltonian eigenbasis times the time
grid's Fourier basis, where both sides of the first constraint are
diagonal, so no step builds an operator.  Each basis is certified where
it is made, and the driver certifies neither again.  An evolve is a row
of phases, O(n_q n_t), and its record repeats the previous observables,
which a column phase leaves exactly unchanged; its equivalence guard
takes the exact gap only when a bound from the last residual and the
phase row's checked slip does not settle it.
A jump is a row swap and a time-domain phase kick reached by FFT,
O(n_q n_t log n_t); it permutes the system density C C^H kept across the
run, so its moments cost O(n_q^2).  The momentum moments come by FFT,
with no momentum operator built.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .axes import (
    NORM_ATOL,
    TIME,
    CompositeState,
    band_edge,
    nearest_lattice_energy,
    require_label,
)
from .constraints import separable_first
from .exceptions import (
    ChronosError,
    DimensionMismatchError,
    IndexOutOfRangeError,
    NotUnitaryError,
    OffLatticeError,
    ScenarioStepError,
    ScenarioValidationError,
    TruncationTopError,
    WrongKindError,
)
from .linalg import DEFAULT_TOL, kronecker_null_pairs, spectral_exp
from .models import (
    OSCILLATOR,
    clock_scale,
    energy_eigensystem,
    hamiltonian,
    ladder_operators,
)

EQUIVALENCE_TOL = 1e-6
# below this subspace weight a record reports no distribution (NaNs)
ZERO_WEIGHT = 1e-14
# covers the rounding, a few n eps relative, of the evolve guard's bound:
# in residual1, in ||C|| and in |C|^2 over the evolves since residual1
GUARD_MARGIN = 1.01


def time_translation(tg, dt):
    """Unitary shifting sampled functions f(t) -> f(t + dt).

    exp(-i dt s_op / hbar) for the energy operator s_op = Phi diag(-hbar w)
    Phi^H, in closed form Phi diag(e^{i w dt}) Phi^H from the grid's Fourier
    map Phi and frequencies w (hbar cancels).  Integer-step shifts act as
    exact cyclic permutations of band-limited samples.
    """
    require_label(tg, TIME, "time translation")
    return spectral_exp(tg.fourier_map, tg.frequencies, -float(dt))


def _shift_phases(tg, d_energy, constants):
    # e^{-i dE t_j / hbar}: moves the sampled energy eigenvector at E to the
    # one at E + dE exactly, lattice or not
    return np.exp(-1j * float(d_energy) * tg.samples / constants.hbar)


def _translation_phases(tg, dt):
    # e^{i w dt}: the translation by dt in the time grid's Fourier basis
    return np.exp(1j * float(dt) * tg.frequencies)


def _equivalence_bound(row, kappa, dt, hbar, residual, norm):
    # entry by entry |e^{-i E_m dt/hbar} - row_k| is at most
    # |E_m - kappa_k| |dt| / hbar plus the row's slip from
    # e^{-i kappa_k dt/hbar}, so the exact gap is at most |dt| / hbar times
    # the state's residual, plus the largest slip, times its norm.  The
    # slip is rounding for a right row and O(1) for a wrong sign or scale
    slip = float(np.max(np.abs(row - np.exp(-1j * dt / hbar * kappa))))
    return GUARD_MARGIN * (abs(dt) / hbar * residual + slip) * norm


def _equivalence_gap(c, energies, row, dt, hbar):
    # ||(e^{-i E_m dt/hbar} - row_k) C_mk||, the two evolutions' gap on C
    diff = np.subtract.outer(np.exp(-1j * dt / hbar * energies), row)
    diff *= c
    return float(np.sqrt(np.vdot(diff, diff).real))


def _momentum_in(v, grid, constants):
    # V^H P V for the spectral momentum P = Phi diag(hbar w) Phi^H, with P
    # never formed: row k of Phi^H V is row (k - n/2) mod n of V's
    # orthonormal FFT times e^{-i w_k x_0}, and those phases cancel
    # between W^H and W in W^H diag(hbar w) W
    f = np.fft.fft(v, axis=0, norm="ortho")
    return (f.conj().T * np.fft.ifftshift(constants.hbar * grid.frequencies)) \
        @ f


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


def _on_grids(state, model, tg):
    # the model's eigenvectors act on the state, so it must live on
    # model.grid x tg
    if (state.n_q, state.n_t) != (model.grid.n, tg.n):
        raise DimensionMismatchError(
            "state is %d x %d, model and time grids are %d x %d"
            % (state.n_q, state.n_t, model.grid.n, tg.n))


def _ladder_step(state, model, tg, up):
    if model.kind != OSCILLATOR:
        raise WrongKindError("ladder steps are defined for the oscillator")
    _on_grids(state, model, tg)
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
    tau = model.constants.time_quantum
    t_u = time_translation(tg, -tau if up else tau)
    new = (a_dag if up else a).matrix @ state.matrix @ t_u.matrix.T
    coefficient = float(np.linalg.norm(new))
    out = CompositeState(new.ravel(), state.n_q, state.n_t, normalized=False)
    return out, coefficient


def ladder_step_up(state, model, tg):
    """One rung up: raising operator joint with a backward time translation.

    Returns the unnormalized image and its norm; on the clock-aligned
    solution at level n the norm is sqrt(n+1) and the normalized image is
    the solution at level n+1.
    """
    return _ladder_step(state, model, tg, up=True)


def ladder_step_down(state, model, tg):
    """One rung down: lowering operator joint with a forward time translation.

    Norm of the image is sqrt(n); the ground level is annihilated to the
    exact zero vector with coefficient 0.
    """
    return _ladder_step(state, model, tg, up=False)


def energy_jump(state, i, j, model, tg, tol=DEFAULT_TOL):
    """Swap the system between levels i and j with the matching phase kick.

    Applies (two-level swap) (x) (energy shift by E_j - E_i).  Both level
    energies must sit on the time grid's frequency lattice within tol, or
    the jump is refused; the result keeps the first-constraint residual of
    a solution and the norm is preserved.  The swap acts as the rank-2
    update M + (v_j - v_i)(v_i^H M - v_j^H M) and the shift as a row of
    phases, so neither unitary is formed.
    """
    _on_grids(state, model, tg)
    es = energy_eigensystem(model)
    e_from, e_to = _jump_energies(i, j, es, tg, model.constants, tol)
    vi, vj = es.vector(i), es.vector(j)
    m = state.matrix
    new = m + np.outer(vj - vi, vi.conj() @ m - vj.conj() @ m)
    new *= _shift_phases(tg, e_to - e_from, model.constants)
    return CompositeState(new.ravel(), state.n_q, state.n_t)


def _jump_energies(i, j, es, tg, constants, tol):
    # (E_i, E_j) of two distinct retained levels, both inside the band and
    # on the time grid's frequency lattice within tol
    i, j = int(i), int(j)
    if i == j:
        raise ValueError("swap levels must differ, got %d" % i)
    if not (0 <= i < es.count and 0 <= j < es.count):
        raise IndexOutOfRangeError(
            "levels (%d, %d) outside retained range 0..%d"
            % (i, j, es.count - 1))
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

    Checks that referenced levels are retained, that a level or energy
    start lies inside the time grid's band, that every evolve's phases
    stay in the float range, that both levels of every jump pass the
    jump's own range, band and lattice checks, and that its at-time lies
    within the constraint tolerance of a clock eigenvalue.  Every
    comparison fails on NaN.  Returns the model's retained eigensystem.
    """
    k = sc.model.constants
    es = energy_eigensystem(sc.model)
    clock_values = clock_scale(sc.model) * es.values
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
    edge = band_edge(sc.t_grid, k)
    if sc.initial.kind != "amplitudes":
        energy = float(es.values[_initial_level(sc, es)])
        if not abs(energy) <= edge:
            raise ScenarioValidationError(
                "level energy %.6g outside the time grid's band |E| <= %.6g"
                % (energy, edge), field="initial." + sc.initial.kind)
    # an evolve by dt turns phases up to |dt| / hbar times the larger of
    # the band edge and the largest |E_m|, in Python floats, which give inf
    # past the float range where numpy's phase rows would turn NaN
    reach = float(np.maximum(edge, np.max(np.abs(
        hamiltonian(sc.model).eigensystem.values))))
    checked = set()  # level pairs whose energies passed, each taken once
    for idx, step in enumerate(sc.steps):
        if step.kind == "evolve":
            if not np.isfinite(abs(float(step.dt)) / k.hbar * reach):
                raise ScenarioValidationError(
                    "the phases of an evolve by %.6g overflow" % step.dt,
                    field="steps[%d].evolve" % idx)
            continue
        where = "steps[%d].jump" % idx
        pair = step.from_level, step.to_level
        if pair not in checked:
            try:
                _jump_energies(*pair, es, sc.t_grid, k, sc.constraint_tol)
            except (IndexOutOfRangeError, OffLatticeError) as exc:
                raise ScenarioValidationError(str(exc), field=where) \
                    from None
            checked.add(pair)
        gap = float(np.min(np.abs(clock_values - step.at_time)))
        if not gap <= sc.constraint_tol:
            raise ScenarioValidationError(
                "at-time %.6g not within %g of any clock eigenvalue"
                % (step.at_time, sc.constraint_tol), field=where)
    return es


def _initial_level(sc, es):
    # the retained level a level or energy start is built on
    if sc.initial.kind == "level":
        return sc.initial.level
    return int(np.argmin(np.abs(es.values - sc.initial.energy)))


def _initial_state(sc, es):
    if sc.initial.kind == "amplitudes":
        parts = np.asarray(sc.initial.amplitudes,
                           dtype=np.complex128).view(np.float64)
        # the power of two that brings the largest real or imaginary part
        # into [0.5, 1) scales exactly: the sum of squares can neither
        # over- nor underflow, and where amp / |amp| did neither before,
        # the quotient keeps its bits
        amp = np.ldexp(parts, -np.frexp(np.max(np.abs(parts)))[1]) \
            .view(np.complex128)
        return CompositeState(amp / np.linalg.norm(amp), sc.model.grid.n,
                              sc.t_grid.n)
    n = _initial_level(sc, es)
    return separable_first((float(es.values[n]), es.vector(n)), sc.t_grid,
                           sc.model.constants)


def run_scenario(sc):
    """Apply the scenario's steps in order, recording after each one.

    The state M is held as C = V^H M conj(Phi): V is the Hamiltonian
    eigenbasis (energies E), Phi the time grid's Fourier map, the energy
    operator's eigenbasis (kappa = -hbar w).  Each is certified where it
    is made, V by eig_hermitian and Phi by AxisGrid.fourier_map, so the
    run measures neither again and forms no n x n Hamiltonian matrix.
    An evolve multiplies column k by e^{i w_k dt}, the lifted time
    translation, cross checked against the lifted Hamiltonian exponential
    e^{-i E_m dt / hbar} whenever the state satisfies the first
    constraint; the two must agree within 1e-6.  Their gap is at most
    (|dt| / hbar * residual1 + s) * ||C||, where s, the row's largest
    departure from e^{-i kappa_k dt / hbar}, is checked on every such
    evolve in O(n_t).  The O(n_q n_t) exact gap is taken only when that
    bound, times GUARD_MARGIN, exceeds 1e-6, so a solution's evolve is
    certified by its bound and a wrong row still meets the exact gap.  A
    jump swaps rows i and j and kicks the phases in the time domain,
    reached by an FFT along the time axis.  Any failing step, a norm
    drift included, raises with the partial trajectory attached.

    Every recorded observable depends only on |C|^2 and on the system
    density rho = C C^H.  An evolve's column phases leave both exactly
    unchanged, so its record repeats the one before it.  A jump maps C to
    P C U with P the row swap and U unitary, so rho becomes P rho P, and
    is permuted rather than formed again.  After the start-up (one
    eigensolve and the change of basis), an evolve costs O(n_q n_t) and a
    jump O(n_q n_t log n_t + n_q^2).
    """
    es = validate_scenario(sc)
    model, tg = sc.model, sc.t_grid
    k = model.constants
    h = hamiltonian(model)
    v, energies = h.eigensystem.vectors, h.eigensystem.values
    phi = tg.fourier_map
    kappa = -k.hbar * tg.frequencies
    gaps_sq = (kappa[None, :] - energies[:, None]) ** 2
    # the physical subspace is spanned by the pairs with |kappa_k - E_m|
    # <= tol, in physical_subspace's member order
    rows, cols = kronecker_null_pairs(energies, kappa, sc.constraint_tol)
    # complex here, once, rather than cast by every np.vdot(rho, q_v)
    q_v = ((v.conj().T * model.grid.samples) @ v).astype(np.complex128)
    p_v = _momentum_in(v, model.grid, k)

    records = []

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

    def evolve(c, dt, norm):
        row = _translation_phases(tg, dt)
        # the preceding record measured the residual of this state; the
        # exact gap is taken only when its bound does not settle it
        residual = records[-1].residual1
        if residual <= sc.constraint_tol and not _equivalence_bound(
                row, kappa, dt, k.hbar, residual, norm) <= EQUIVALENCE_TOL:
            gap = _equivalence_gap(c, energies, row, dt, k.hbar)
            if not gap <= EQUIVALENCE_TOL:
                raise ChronosError(
                    "evolution operators disagree by %.3e on a solution"
                    % gap)
        c *= row

    def jump(c, i, j):  # both levels passed validate_scenario
        c[[i, j]] = c[[j, i]]
        rho[[i, j]] = rho[[j, i]]
        rho[:, [i, j]] = rho[:, [j, i]]
        return _time_kick(c, tg,
                          _shift_phases(tg, es.values[j] - es.values[i], k))

    c = v.conj().T @ _initial_state(sc, es).matrix @ phi.conj()
    rho = c @ c.conj().T
    norm = float(np.sqrt(np.vdot(c, c).real))
    observe(0, "init", c)
    for index, step in enumerate(sc.steps, start=1):
        try:
            if step.kind == "evolve":
                evolve(c, float(step.dt), norm)
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
