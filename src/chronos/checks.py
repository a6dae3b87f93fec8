"""Named invariant suites behind the command-line `check` subcommand.

Each suite measures a handful of quantities against fixed bounds and
reports one row per check.  Bounds are directional: a row passes when
measured <= bound or measured >= bound depending on the check, which the
row records explicitly.  A row folds its measurements itself (np.max for
<=, np.min for >=, 0.0 for none), so a NaN anywhere in them fails it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .axes import (
    TIME,
    AxisGrid,
    PhysicalConstants,
    band_edge,
    default_position_grid,
    energy_aligned_grids,
    energy_eigenvector,
    energy_lattice,
    energy_operator,
    gaussian_state,
    lift_system,
    lift_time,
    momentum_operator,
    position_operator,
    time_aligned_grids,
    time_operator,
)
from .constraints import (
    first_constraint_operator,
    generalized_constraint_operator,
    physical_subspace,
    second_constraint_operator,
    separable_first,
    separable_second,
    uncertainty_product,
)
from .exceptions import TruncationTopError, UnknownSuiteError
from .linalg import (
    DEFAULT_TOL,
    hermitian_defect,
    kronecker_null_pairs,
    maxnorm,
)
from .models import (
    FREE_PARTICLE,
    OSCILLATOR,
    ModelSpec,
    clock_scale,
    energy_eigensystem,
    free_particle_clock_operator,
    harmonic_hamiltonian,
    ladder_operators,
    oscillator_clock_operator,
)


# eps of its larger factor's bound that a constraint residual may carry in
# rounding (see _rounding_floor)
RESIDUAL_ROUNDING_EPS = 8.0

# largest distance of a unit state from a physical subspace it lies in;
# dimensionless, so it holds in every unit system
SPAN_GAP = 1e-8


@dataclass(frozen=True)
class CheckRow:
    name: str
    measured: float
    bound: float
    relation: str  # "<=" or ">="

    @property
    def passed(self):
        if self.relation == "<=":
            return self.measured <= self.bound
        return self.measured >= self.bound


def _fold(measured, reduce):
    values = np.asarray(measured, dtype=float)
    return float(reduce(values)) if values.size else 0.0


def _le(name, measured, bound):
    return CheckRow(name, _fold(measured, np.max), float(bound), "<=")


def _ge(name, measured, bound):
    return CheckRow(name, _fold(measured, np.min), float(bound), ">=")


def _rounding_floor(*bounds):
    # a kernel pair's residual ||m K^T - A m|| on a unit state is its exact
    # gap, at most tol, plus rounding: A m and m K^T are each as large as
    # the bound of their factor, and the level's eigenvector, the axis
    # factor and both products each carry up to about 2 eps of the larger
    return RESIDUAL_ROUNDING_EPS * np.finfo(float).eps * float(np.max(bounds))


def _commutator_suite(k, tol):
    rows = []
    qg = default_position_grid(k)
    q_op = position_operator(qg)
    p_op = momentum_operator(qg, k)
    length = k.oscillator_length
    # dedicated time grid wide enough to host interior Gaussians
    period = 4.0 * np.pi / k.omega
    tg = AxisGrid(n=128, origin=0.0, spacing=period / 128, label=TIME)
    t_op = time_operator(tg)
    s_op = energy_operator(tg, k)
    for name, op in (("position", q_op), ("momentum", p_op),
                     ("time", t_op), ("energy", s_op)):
        defect = hermitian_defect(op.matrix) / np.maximum(
            maxnorm(op.matrix), 1e-300)
        rows.append(_le("hermitian_defect_%s" % name, defect, 1e-12))
    comm_qp = q_op.matrix @ p_op.matrix - p_op.matrix @ q_op.matrix \
        - 1j * k.hbar * np.eye(qg.n)
    for sigma in (0.65, 0.8, 0.9):
        psi = gaussian_state(qg, 0.0, sigma * length)
        rows.append(_le("position_pair_sigma_%.2f" % sigma,
                        np.linalg.norm(comm_qp @ psi), 1e-6 * k.hbar))
    comm_ts = t_op.matrix @ s_op.matrix - s_op.matrix @ t_op.matrix \
        + 1j * k.hbar * np.eye(tg.n)
    for sigma in (0.45, 0.55):
        phi = gaussian_state(tg, period / 2.0, sigma / k.omega)
        rows.append(_le("time_pair_sigma_%.2f" % sigma,
                        np.linalg.norm(comm_ts @ phi), 1e-6 * k.hbar))
    # cross-factor commutators on a small composite
    small_q = AxisGrid(n=16, origin=-4.0, spacing=0.5, label="position")
    small_t = AxisGrid(n=16, origin=0.0, spacing=0.25, label=TIME)
    a = lift_system(position_operator(small_q), small_t.n)
    b = lift_time(energy_operator(small_t, k), small_q.n)
    rows.append(_le("cross_commutator",
                    maxnorm(a.matrix @ b.matrix - b.matrix @ a.matrix),
                    1e-14))
    return rows


def _constraint1_suite(k, tol):
    rows = []
    qg, tg = energy_aligned_grids(k)
    model = ModelSpec(OSCILLATOR, k, qg)
    h_op = harmonic_hamiltonian(model)
    cop = first_constraint_operator(h_op, tg, k)
    basis = physical_subspace(cop, tol)
    # expected kernel from exact lattice matching of the grid eigenvalues,
    # each pair solved separably at its lattice energy
    es, lattice = cop.system_op.eigensystem, energy_lattice(tg, k)
    states = [separable_first((float(lattice[j]), es.vector(m)), tg, k)
              .amplitudes
              for m, j in zip(*kronecker_null_pairs(es.values, lattice, tol))]
    floor = _rounding_floor(model.energy_bound, band_edge(tg, k))
    rows.append(_le("level_count_gap", abs(basis.count - len(states)), 0.0))
    rows.append(_le("separable_residual_max",
                    [cop.residual(s) for s in states], tol + floor))
    rows.append(_le("member_residual_max", basis.residuals, tol + floor))
    if basis.count:
        rows.append(_le("span_gap_max", basis.span_gaps(states), SPAN_GAP))
    # detuned time period: no pair within a tight tol, exact pairs otherwise
    qg_s = AxisGrid(n=32, origin=-8.0, spacing=0.5, label="position")
    period = 4.0 * np.pi * 1.1 / k.omega
    tg_d = AxisGrid(n=16, origin=0.0, spacing=period / 16, label=TIME)
    h_small = harmonic_hamiltonian(ModelSpec(OSCILLATOR, k, qg_s))
    cop_d = first_constraint_operator(h_small, tg_d, k)
    expected = kronecker_null_pairs(cop_d.system_op.eigensystem.values,
                                    energy_lattice(tg_d, k), tol)[0].size
    rows.append(_le("detuned_count_gap",
                    abs(physical_subspace(cop_d, tol).count - expected), 0.0))
    return rows


def _constraint2_suite(k, tol):
    rows = []
    qg, tg = time_aligned_grids(k, n_t=16)
    model = ModelSpec(OSCILLATOR, k, qg)
    g_op = oscillator_clock_operator(model)
    cop = second_constraint_operator(g_op, tg)
    basis = physical_subspace(cop, tol)
    # one member per (level, sample) pair within tol, as the solver pairs
    # them: at a wide tol a level meets several samples
    es = cop.system_op.eigensystem
    expected = kronecker_null_pairs(es.values, tg.samples, tol)[0].size
    rows.append(_le("level_count_gap", abs(basis.count - expected), 0.0))
    floor = _rounding_floor(clock_scale(model) * model.energy_bound, tg.reach)
    ground, rounding = separable_second(
        (float(es.values[0]), es.vector(0)), tg)
    rows.append(_le("ground_residual", cop.residual(ground), floor))
    rows.append(_le("ground_rounding", rounding, floor))
    rows.append(_le("member_residual_max", basis.residuals, tol + floor))
    # free-particle mode whose clock value falls between samples: the
    # residual must equal the rounding distance up to rounding noise
    free = ModelSpec(FREE_PARTICLE, k, qg)
    g_free = free_particle_clock_operator(free)
    mode = qg.fourier_map[:, qg.n // 2 + 1]
    t_value = float(np.real(np.vdot(mode, g_free.matrix @ mode)))
    state, distance = separable_second((t_value, mode), tg)
    residual = second_constraint_operator(g_free, tg).residual(state)
    rows.append(_le("off_grid_residual_gap", abs(residual - distance), floor))
    return rows


def _probe_states(dim):
    """20 fixed unit states on dim points, the normalized chirps
    exp(1j (i + 1/2) sqrt(2) j (j % 7 + 1)) for i < 20, j < dim.

    Every amplitude has modulus 1/sqrt(dim), so each probe reaches every
    system and time sample, and the set is the same on every run with no
    random generator.
    """
    j = np.arange(dim)
    phase = np.sqrt(2.0) * j * (j % 7 + 1)
    for i in range(20):
        probe = np.exp(1j * (i + 0.5) * phase)
        yield probe / np.linalg.norm(probe)


def _generalized_suite(k, tol):
    rows = []
    qg = AxisGrid(n=32, origin=-8.0, spacing=0.5, label="position")
    period = 4.0 * np.pi / k.omega
    tg = AxisGrid(n=16, origin=0.0, spacing=period / 16, label=TIME)
    model = ModelSpec(OSCILLATOR, k, qg)
    h_op = harmonic_hamiltonian(model)
    g_op = oscillator_clock_operator(model)
    gen_first = generalized_constraint_operator(1.0, 0.0, h_op, tg, k)
    gen_second = generalized_constraint_operator(0.0, 1.0, g_op, tg, k)
    first = first_constraint_operator(h_op, tg, k)
    second = second_constraint_operator(g_op, tg)
    gaps = np.array([(abs(gen_first.residual(p) - first.residual(p)),
                      abs(gen_second.residual(p) - second.residual(p)))
                     for p in _probe_states(qg.n * tg.n)])
    rows.append(_le("first_reduction_gap", gaps[:, 0], 1e-12))
    rows.append(_le("second_reduction_gap", gaps[:, 1], 1e-12))
    # kernel of the reduced form matches the dedicated solver's kernel
    basis_gen = physical_subspace(gen_first, tol)
    basis_first = physical_subspace(first, tol)
    if basis_gen.count and basis_gen.count == basis_first.count:
        # equal counts of orthonormal members: a small one-way gap means
        # equal spans, ||P - P'||_2 <= sqrt(count) times the largest gap
        rows.append(_le("reduction_span_gap", basis_gen.span_gaps(
            basis_first.vectors.transpose(2, 0, 1)), SPAN_GAP))
    else:
        rows.append(_le("reduction_count_gap",
                        abs(basis_gen.count - basis_first.count), 0.0))
    tighter = physical_subspace(gen_first, tol * 1e-3)
    if tighter.count and basis_gen.count:
        rows.append(_le("tolerance_nesting_gap", basis_gen.span_gaps(
            tighter.vectors.transpose(2, 0, 1)), SPAN_GAP))
    # triangle bound for the doubly-constrained form
    a_both = h_op.matrix + g_op.matrix  # measured by the builder
    es = energy_eigensystem(model)
    psi0 = separable_first((float(es.values[0]), es.vector(0)), tg, k)
    r_both = generalized_constraint_operator(1.0, 1.0, a_both, tg,
                                             k).residual(psi0)
    r1 = first.residual(psi0)
    r2 = second.residual(psi0)
    # exactly r_both <= r1 + r2; the excess is rounding at the scales of
    # H + G and of S + T
    rows.append(_le("triangle_excess", r_both - (r1 + r2), _rounding_floor(
        model.energy_bound * (1.0 + clock_scale(model)),
        band_edge(tg, k) + tg.reach)))
    # detuned time period: no pair within a tight tol, the lattice pairs
    # within a wide one
    tg_d = AxisGrid(n=16, origin=0.0, spacing=period * 1.1 / 16, label=TIME)
    detuned = physical_subspace(
        generalized_constraint_operator(1.0, 0.0, h_op, tg_d, k), tol)
    expected = kronecker_null_pairs(h_op.eigensystem.values,
                                    energy_lattice(tg_d, k), tol)[0].size
    rows.append(_le("detuned_count_gap", abs(detuned.count - expected), 0.0))
    return rows


def _uncertainty_suite(k, tol):
    rows = []
    period = 32.0 / k.omega
    tg = AxisGrid(n=256, origin=0.0, spacing=period / 256, label=TIME)
    center = period / 2.0
    floor = 0.49 * k.hbar
    for scale in (0.5, 1.0, 2.0):
        sigma = scale / k.omega
        phi = gaussian_state(tg, center, sigma)
        dt, ds, product = uncertainty_product(phi, tg, k)
        rows.append(_ge("product_sigma_%.1f" % scale, product, floor))
        if scale == 1.0:
            rows.append(_le("minimum_product_offset",
                            abs(product - 0.5 * k.hbar), 0.005 * k.hbar))
        if scale == 2.0:
            rows.append(_le("spread_accuracy",
                            abs(dt - sigma) / sigma, 0.01))
    lattice = energy_lattice(tg, k)
    mode = energy_eigenvector(tg, float(lattice[len(lattice) // 2 + 3]), k)
    _, ds, _ = uncertainty_product(mode, tg, k)
    # an exact eigenvector has no spread, so ds is the rounding of S mode:
    # each entry is an n-term sum, up to n eps off at S's scale, band_edge
    rows.append(_le("eigenvector_energy_spread", ds,
                    tg.n * np.finfo(float).eps * band_edge(tg, k)))
    return rows


def _ladder_suite(k, tol):
    from .dynamics import ladder_step_down, ladder_step_up
    rows = []
    qg, tg = time_aligned_grids(k)
    model = ModelSpec(OSCILLATOR, k, qg)
    es = energy_eigensystem(model)

    def solution(n):
        return separable_second((tg.samples[n], es.vector(n)), tg)[0]

    up_gaps, down_gaps, overlaps = [], [], []
    for n in range(15):
        out, coeff = ladder_step_up(solution(n), model, tg)
        up_gaps.append(abs(coeff - np.sqrt(n + 1.0)) / np.sqrt(n + 1.0))
        overlaps.append(abs(np.vdot(solution(n + 1).amplitudes,
                                    out.amplitudes / coeff)))
        if n >= 1:
            out, coeff = ladder_step_down(solution(n), model, tg)
            down_gaps.append(abs(coeff - np.sqrt(n)) / np.sqrt(n))
    rows.append(_le("up_coefficient_gap", up_gaps, 1e-6))
    rows.append(_le("down_coefficient_gap", down_gaps, 1e-6))
    rows.append(_ge("up_overlap_min", overlaps, 1.0 - 1e-8))
    zero_state, zero_coeff = ladder_step_down(solution(0), model, tg)
    rows.append(_le("ground_annihilation",
                    zero_coeff + float(np.linalg.norm(zero_state.amplitudes)),
                    0.0))
    try:
        ladder_step_up(solution(es.count - 1), model, tg)
        top_guard = 0.0
    except TruncationTopError:
        top_guard = 1.0
    rows.append(_ge("top_truncation_guard", top_guard, 1.0))
    a, a_dag = ladder_operators(es)
    comm = a.matrix @ a_dag.matrix - a_dag.matrix @ a.matrix
    rows.append(_le("commutator_identity_gap",
                    [np.linalg.norm(comm @ es.vector(n) - es.vector(n))
                     for n in range(es.count - 1)], 1e-9))
    return rows


SUITES = {
    "commutators": _commutator_suite,
    "constraint1": _constraint1_suite,
    "constraint2": _constraint2_suite,
    "generalized": _generalized_suite,
    "uncertainty": _uncertainty_suite,
    "ladder": _ladder_suite,
}


def run_suite(name, constants=PhysicalConstants(),
              constraint_tol=DEFAULT_TOL):
    """Run one named suite; returns (rows, all_passed)."""
    if name not in SUITES:
        raise UnknownSuiteError(
            "unknown suite %r (expected one of %s)"
            % (name, ", ".join(sorted(SUITES))))
    rows = SUITES[name](constants, constraint_tol)
    return rows, all(row.passed for row in rows)
