"""Time translations, level swaps, ladder steps, jumps, scenario engine."""

import dataclasses
import math
import pathlib
import warnings

import numpy as np
import pytest

import chronos.constraints
import chronos.linalg
import chronos.models

from chronos.axes import (
    AxisGrid,
    PhysicalConstants,
    composite_state,
    energy_aligned_grids,
    energy_operator,
    momentum_operator,
    position_operator,
    tensor_state,
    time_aligned_grids,
)
from chronos.cli import main
from chronos.constraints import (
    first_constraint_operator,
    physical_subspace,
    separable_first,
)
from chronos.dynamics import (
    InitialState,
    Scenario,
    Step,
    eigen_swap_unitary,
    energy_jump,
    energy_shift,
    ladder_step_down,
    ladder_step_up,
    run_scenario,
    time_translation,
    validate_scenario,
)
from chronos.scenario import parse_scenario, serialize_scenario
from chronos.exceptions import (
    ConvergenceError,
    IndexOutOfRangeError,
    NotUnitaryError,
    OffLatticeError,
    OffLatticeWarning,
    ScenarioStepError,
    ScenarioValidationError,
    TruncationTopError,
)
from chronos.linalg import (
    UNITARY_ATOL,
    kronecker_null_pairs,
    maxnorm,
    operator,
    spectral_exp,
    unitary_defect,
    unitary_exp,
)
from chronos.models import (
    FREE_PARTICLE,
    OSCILLATOR,
    ModelSpec,
    clock_scale,
    energy_eigensystem,
    hamiltonian,
    hamiltonian_eigensystem,
)

import oracles


TRANSLATION_GRIDS = (
    (PhysicalConstants(), AxisGrid(n=16, origin=0.0, spacing=0.25,
                                   label="time")),
    (PhysicalConstants(hbar=2.0, mass=3.0, c=1.5, omega=0.7),
     AxisGrid(n=24, origin=-1.3, spacing=0.37, label="time")),
)


def test_time_translation_integer_steps_are_cyclic(rng):
    for k, tg in TRANSLATION_GRIDS:
        f = rng.standard_normal(tg.n) + 1j * rng.standard_normal(tg.n)
        for steps in (3, -5, 1):
            u = time_translation(tg, k, steps * tg.spacing)
            shifted = u.matrix @ f
            assert np.linalg.norm(shifted - oracles.rolled(f, steps)) < 1e-12


@pytest.mark.parametrize("k, tg", TRANSLATION_GRIDS)
def test_time_translation_matches_energy_operator_exponential(k, tg):
    # the closed form against the exponential of the conjugate operator
    s_op = energy_operator(tg, k)
    for dt in (0.4, -0.4, 1.7, -2.9, 3 * tg.spacing, 11.3):
        closed = time_translation(tg, k, dt)
        assert unitary_defect(closed.matrix) <= UNITARY_ATOL
        want = unitary_exp(s_op, dt / k.hbar).matrix
        assert maxnorm(closed.matrix - want) <= 1e-12


def test_time_translation_group_property():
    k = PhysicalConstants()
    tg = AxisGrid(n=16, origin=0.0, spacing=0.25, label="time")
    ab = time_translation(tg, k, 0.4).matrix @ time_translation(tg, k, 0.35).matrix
    assert maxnorm(ab - time_translation(tg, k, 0.75).matrix) < 1e-12
    assert unitary_defect(time_translation(tg, k, 0.4).matrix) <= UNITARY_ATOL


def test_time_translation_full_period_is_identity():
    k = PhysicalConstants()
    tg = AxisGrid(n=12, origin=0.0, spacing=0.5, label="time")
    u = time_translation(tg, k, tg.period)
    assert maxnorm(u.matrix - np.eye(12)) < 1e-11


def test_energy_shift_retunes_plane_wave():
    # multiplying by the phase profile moves one lattice energy to another
    k = PhysicalConstants()
    tg = AxisGrid(n=16, origin=0.0, spacing=math.pi / 4, label="time")
    from chronos.axes import energy_lattice, energy_eigenvector
    lattice = energy_lattice(tg, k)
    chi = energy_eigenvector(tg, lattice[5], k)
    step = lattice[9] - lattice[5]
    shifted = energy_shift(tg, step, k).matrix @ chi
    target = energy_eigenvector(tg, lattice[9], k)
    overlap = abs(np.vdot(target, shifted))
    assert overlap == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("kind", [OSCILLATOR, FREE_PARTICLE])
def test_shared_eigensystem_evolution_matches_unitary_exp(kind):
    k = PhysicalConstants(hbar=2.0, mass=3.0, c=1.5, omega=0.7)
    grid = AxisGrid(n=48, origin=-6.0, spacing=0.25, label="position")
    model = ModelSpec(kind, k, grid)
    es = hamiltonian_eigensystem(model)
    for theta in (0.3, -1.1, 4.0):
        shared = spectral_exp(es.vectors, es.values, theta)
        assert unitary_defect(shared.matrix) <= UNITARY_ATOL
        want = unitary_exp(hamiltonian(model), theta).matrix
        assert maxnorm(shared.matrix - want) <= 1e-12


# evolve, jump 0 -> 2, evolve, jump back: repeated to lengthen a run
ROUND_TRIP = (Step(kind="evolve", dt=0.3),
              Step(kind="jump", from_level=0, to_level=2, at_time=0.5),
              Step(kind="evolve", dt=1.1),
              Step(kind="jump", from_level=2, to_level=0, at_time=2.5))


def test_run_scenario_eigensolves_do_not_grow_with_steps(monkeypatch):
    solves, lapack = [], []

    def counted(solver, log):
        def wrapper(*args, **kwargs):
            log.append(solver.__name__)
            return solver(*args, **kwargs)
        return wrapper

    eig_hermitian = counted(chronos.linalg.eig_hermitian, solves)
    for module in (chronos.linalg, chronos.models, chronos.constraints):
        monkeypatch.setattr(module, "eig_hermitian", eig_hermitian)
    monkeypatch.setattr(np.linalg, "eigh", counted(np.linalg.eigh, lapack))
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        counted(np.linalg.eigvalsh, lapack))

    def count(repeats):
        hamiltonian_eigensystem.cache_clear()
        del solves[:], lapack[:]
        records = run_scenario(base_scenario(steps=ROUND_TRIP * repeats))
        assert len(records) == 4 * repeats + 1
        return len(solves), len(lapack)

    once, ten_times = count(1), count(10)
    # one Hamiltonian eigensystem per run, however many LAPACK calls it
    # takes (two half-size ones on a reflection-invariant grid); the energy
    # operator's eigenbasis is closed form
    assert once[0] == ten_times[0] == 1
    assert once[1] == ten_times[1]


@pytest.mark.parametrize("n_t", [16, 24, 64])
@pytest.mark.parametrize("origin", [0.0, 0.37, -5.1])
def test_time_kick_matches_dense_products(n_t, origin):
    # the FFT route against the two dense Fourier-map products it replaces
    rng = np.random.default_rng(n_t)
    tg = AxisGrid(n=n_t, origin=origin, spacing=0.31, label="time")
    phi = tg.fourier_map
    c = rng.standard_normal((5, n_t)) + 1j * rng.standard_normal((5, n_t))
    phases = np.exp(1j * rng.uniform(-np.pi, np.pi, n_t))
    want = (c @ phi.T * phases) @ phi.conj()
    assert maxnorm(chronos.dynamics._time_kick(c, tg, phases) - want) \
        <= 1e-12


def test_eigen_swap_unitary_exchanges_levels():
    k = PhysicalConstants()
    model = ModelSpec(OSCILLATOR, k, __import__(
        "chronos.axes", fromlist=["default_position_grid"]
    ).default_position_grid(k))
    es = energy_eigensystem(model, retained=6)
    swap = eigen_swap_unitary(1, 4, es)
    assert swap.hermitian
    assert unitary_defect(swap.matrix) <= UNITARY_ATOL
    v1, v4 = es.vector(1), es.vector(4)
    assert np.linalg.norm(swap.matrix @ v1 - v4) < 1e-10
    assert np.linalg.norm(swap.matrix @ v4 - v1) < 1e-10
    v2 = es.vector(2)
    assert np.linalg.norm(swap.matrix @ v2 - v2) < 1e-10
    with pytest.raises(ValueError):
        eigen_swap_unitary(2, 2, es)
    with pytest.raises(IndexOutOfRangeError):
        eigen_swap_unitary(0, 6, es)


@pytest.fixture(scope="module")
def aligned():
    k = PhysicalConstants()
    grids = time_aligned_grids(k)
    model = ModelSpec(OSCILLATOR, k, grids[0])
    es = energy_eigensystem(model)
    return k, grids, model, es


def solution_at(level, k, grids, es):
    # clock-aligned product: level eigenvector next to the matching reading
    from chronos.constraints import separable_second
    state, miss = separable_second((grids[1].samples[level],
                                    es.vector(level)), grids[1])
    assert miss == 0.0
    return state


def test_ladder_up_coefficient(aligned):
    k, grids, model, es = aligned
    for n in (0, 2, 5):
        state = solution_at(n, k, grids, es)
        image, coeff = ladder_step_up(state, model, grids)
        assert abs(coeff - oracles.ladder_matrix_elements(n, "up")) < 1e-6
        target = solution_at(n + 1, k, grids, es)
        overlap = abs(np.vdot(
            np.asarray(image.amplitudes) / coeff,
            np.asarray(target.amplitudes)))
        assert overlap == pytest.approx(1.0, abs=1e-8)


def test_ladder_down_coefficient(aligned):
    k, grids, model, es = aligned
    for n in (1, 4, 7):
        state = solution_at(n, k, grids, es)
        image, coeff = ladder_step_down(state, model, grids)
        assert abs(coeff - oracles.ladder_matrix_elements(n, "down")) < 1e-6
        target = solution_at(n - 1, k, grids, es)
        overlap = abs(np.vdot(
            np.asarray(image.amplitudes) / coeff,
            np.asarray(target.amplitudes)))
        assert overlap == pytest.approx(1.0, abs=1e-8)


def test_ladder_round_trip_recovers_state(aligned):
    k, grids, model, es = aligned
    state = solution_at(3, k, grids, es)
    up, c_up = ladder_step_up(state, model, grids)
    up_n = composite_state(np.asarray(up.amplitudes) / c_up,
                           up.n_q, up.n_t)
    back, c_down = ladder_step_down(up_n, model, grids)
    overlap = abs(np.vdot(np.asarray(back.amplitudes) / c_down,
                          np.asarray(state.amplitudes)))
    assert overlap == pytest.approx(1.0, abs=1e-9)
    assert c_down == pytest.approx(2.0, abs=1e-6)


def test_ladder_annihilates_ground(aligned):
    k, grids, model, es = aligned
    state = solution_at(0, k, grids, es)
    image, coeff = ladder_step_down(state, model, grids)
    assert coeff == 0.0
    assert np.linalg.norm(image.amplitudes) == 0.0


def test_ladder_truncation_guard(aligned):
    k, grids, model, es = aligned
    top = solution_at(es.count - 1, k, grids, es)
    with pytest.raises(TruncationTopError):
        ladder_step_up(top, model, grids)


def test_energy_jump_lands_on_target(energy_bundle):
    bundle = energy_bundle
    k = bundle["constants"]
    grids = (bundle["q_grid"], bundle["t_grid"])
    model = bundle["model"]
    es = bundle["eigensystem"]
    start = separable_first((float(es.values[0]), es.vector(0)),
                            bundle["t_grid"], k)
    jumped = energy_jump(start, 0, 1, model, grids)
    target = separable_first((float(es.values[1]), es.vector(1)),
                             bundle["t_grid"], k)
    overlap = abs(jumped.overlap(target))
    assert overlap >= 1.0 - 1e-8
    assert bundle["constraint"].residual(jumped) < 1e-6
    back = energy_jump(jumped, 1, 0, model, grids)
    assert abs(back.overlap(start)) >= 1.0 - 1e-9


@pytest.mark.parametrize("i, j", [(1, 3), (3, 1)])
def test_energy_jump_matches_dense_unitaries(energy_bundle, rng, i, j):
    bundle = energy_bundle
    k = bundle["constants"]
    grids = (bundle["q_grid"], bundle["t_grid"])
    es = bundle["eigensystem"]
    n_q, n_t = grids[0].n, grids[1].n
    raw = rng.standard_normal(n_q * n_t) + 1j * rng.standard_normal(n_q * n_t)
    state = composite_state(raw / np.linalg.norm(raw), n_q, n_t)
    jumped = energy_jump(state, i, j, bundle["model"], grids)
    swap = eigen_swap_unitary(i, j, es).matrix
    shift = energy_shift(grids[1], es.values[j] - es.values[i], k).matrix
    want = swap @ state.matrix @ shift.T
    assert maxnorm(jumped.matrix - want) <= 1e-12


def test_energy_jump_refuses_off_lattice_levels():
    # a detuned time grid leaves the eigenvalues between lattice points
    k = PhysicalConstants()
    from chronos.axes import default_position_grid
    q_grid = default_position_grid(k, n=32)
    t_grid = AxisGrid(n=16, origin=0.0,
                      spacing=1.07 * math.pi / 4.0, label="time")
    model = ModelSpec(OSCILLATOR, k, q_grid)
    es = energy_eigensystem(model)
    state = tensor_state(es.vector(0), np.ones(16) / 4.0)
    with pytest.raises(OffLatticeError):
        energy_jump(state, 0, 1, model, (q_grid, t_grid))


def test_energy_jump_refuses_nan_tolerance(energy_bundle):
    # a NaN tolerance must not accept every lattice miss
    bundle = energy_bundle
    grids = (bundle["q_grid"], bundle["t_grid"])
    es = bundle["eigensystem"]
    start = separable_first((float(es.values[0]), es.vector(0)),
                            bundle["t_grid"], bundle["constants"])
    with pytest.raises(OffLatticeError):
        energy_jump(start, 0, 1, bundle["model"], grids, tol=math.nan)


def test_step_validation():
    assert Step(kind="evolve", dt=0.5).dt == 0.5
    with pytest.raises(ValueError):
        Step(kind="evolve")
    with pytest.raises(ValueError):
        Step(kind="jump", from_level=1, to_level=1, at_time=0.5)
    with pytest.raises(ValueError):
        Step(kind="jump", from_level=0, to_level=1)
    with pytest.raises(ValueError):
        Step(kind="wiggle", dt=1.0)


def base_scenario(**overrides):
    k = PhysicalConstants()
    q_grid, t_grid = energy_aligned_grids(k, n_q=32, n_t=16)
    fields = dict(
        constants=k,
        q_grid=q_grid,
        t_grid=t_grid,
        model_kind=OSCILLATOR,
        initial=InitialState(kind="level", level=0),
        steps=(Step(kind="evolve", dt=1.0),),
    )
    fields.update(overrides)
    return Scenario(**fields)


def test_validate_scenario_accepts_good_input():
    model, es = validate_scenario(base_scenario())
    assert es.count >= 8


def test_validate_scenario_rejects_bad_level():
    sc = base_scenario(initial=InitialState(kind="level", level=99))
    with pytest.raises(ScenarioValidationError) as info:
        validate_scenario(sc)
    assert "initial.level" in str(info.value)


def test_validate_scenario_rejects_detuned_energy():
    sc = base_scenario(initial=InitialState(kind="energy", energy=0.7))
    with pytest.raises(ScenarioValidationError):
        validate_scenario(sc)


def test_validate_scenario_rejects_bad_jump_time():
    sc = base_scenario(steps=(
        Step(kind="jump", from_level=0, to_level=1, at_time=0.123),))
    with pytest.raises(ScenarioValidationError) as info:
        validate_scenario(sc)
    assert "steps[0].jump" in str(info.value)


JUMP_SCENARIO = pathlib.Path(__file__).resolve().parents[1] \
    / "scenarios" / "oscillator_jump.json"


@pytest.mark.parametrize("key", ["constraint_tol", "eigen_tol"])
@pytest.mark.parametrize("value", [math.nan, 0.0, -1e-6])
def test_validate_scenario_refuses_non_positive_tolerances(key, value):
    # JSON cannot carry NaN, but a Scenario built in Python can
    sc = dataclasses.replace(parse_scenario(JUMP_SCENARIO.read_bytes()),
                             **{key: value})
    with pytest.raises(ScenarioValidationError) as info:
        run_scenario(sc)
    assert info.value.field == "tolerances." + key


@pytest.mark.parametrize("change, field", [
    ({"initial": InitialState(kind="energy", energy=math.nan)},
     "initial.energy"),
    ({"steps": (Step(kind="jump", from_level=0, to_level=1,
                     at_time=math.nan),)}, "steps[0].jump"),
], ids=["energy", "at_time"])
def test_validate_scenario_refuses_nan_targets(change, field):
    # a NaN gap must fail its tolerance, not pass it: argmin over NaN
    # would otherwise start an energy scenario silently at level 0
    sc = dataclasses.replace(parse_scenario(JUMP_SCENARIO.read_bytes()),
                             **change)
    with pytest.raises(ScenarioValidationError) as info:
        run_scenario(sc)
    assert info.value.field == field


def test_run_scenario_trajectory():
    sc = base_scenario(steps=(
        Step(kind="evolve", dt=1.0),
        Step(kind="jump", from_level=0, to_level=2, at_time=0.5),
        Step(kind="evolve", dt=0.25),
    ))
    model, es = validate_scenario(sc)
    records = run_scenario(sc)
    assert [r.kind for r in records] == ["init", "evolve", "jump", "evolve"]
    assert [r.step_index for r in records] == [0, 1, 2, 3]
    # the jump moves the whole probability mass from level 0 to level 2
    assert records[0].probabilities[0] == pytest.approx(1.0, abs=1e-9)
    assert records[2].probabilities[2] == pytest.approx(1.0, abs=1e-9)
    assert records[3].probabilities[2] == pytest.approx(1.0, abs=1e-9)
    assert records[0].energy_mean == pytest.approx(float(es.values[0]), abs=1e-9)
    assert records[2].energy_mean == pytest.approx(float(es.values[2]), abs=1e-9)
    for r in records:
        assert r.residual1 < 1e-6
        assert r.subspace_weight == pytest.approx(1.0, abs=1e-9)


def test_run_scenario_energy_initial_matches_level():
    by_level = run_scenario(base_scenario())
    by_energy = run_scenario(base_scenario(
        initial=InitialState(kind="energy", energy=0.5)))
    assert by_energy[0].energy_mean == pytest.approx(
        by_level[0].energy_mean, abs=1e-12)


def test_run_scenario_amplitudes_initial(rng):
    sc0 = base_scenario()
    model, es = validate_scenario(sc0)
    with warnings.catch_warnings():
        # the discrete eigenvalue misses the lattice by a few 1e-9; fine here
        warnings.simplefilter("ignore", OffLatticeWarning)
        state = separable_first((float(es.values[1]), es.vector(1)),
                                sc0.t_grid, sc0.constants)
    sc = base_scenario(initial=InitialState(
        kind="amplitudes", amplitudes=tuple(np.asarray(state.amplitudes))))
    records = run_scenario(sc)
    assert records[0].probabilities[1] == pytest.approx(1.0, abs=1e-9)


def test_run_scenario_jump_from_unoccupied_level_is_visible():
    # the swap is unitary, so jumping "from" an empty level only kicks the
    # clock phase; the record exposes the resulting unphysical state
    sc = base_scenario(steps=(
        Step(kind="jump", from_level=3, to_level=1, at_time=0.5),))
    records = run_scenario(sc)
    last = records[-1]
    assert last.residual1 > 1.0
    assert last.subspace_weight < 1e-10


def test_run_scenario_equivalence_guard_keeps_partial_records():
    # a state just inside the constraint tolerance drifts apart under the
    # two evolution routes; the guard must abort and hand back the prefix
    sc0 = base_scenario()
    model, es = validate_scenario(sc0)
    solution = separable_first((float(es.values[0]), es.vector(0)),
                               sc0.t_grid, sc0.constants)
    from chronos.axes import energy_eigenvector
    stray = np.outer(es.vector(0),
                     energy_eigenvector(sc0.t_grid, 1.0, sc0.constants))
    amps = np.asarray(solution.amplitudes) + 1.6e-6 * stray.ravel()
    sc = base_scenario(
        initial=InitialState(kind="amplitudes", amplitudes=tuple(amps)),
        steps=(Step(kind="evolve", dt=2.0),))
    with pytest.raises(ScenarioStepError) as info:
        run_scenario(sc)
    assert len(info.value.records) == 1
    assert info.value.records[0].kind == "init"


def free_particle_scenario(**overrides):
    # q period 2*pi puts every level (hbar k)^2/2m on the time lattice
    # hbar*2*pi/L_t = 2/3 of a 6*pi time period
    k = PhysicalConstants(hbar=2.0, mass=3.0, c=1.5, omega=0.7)
    fields = dict(
        constants=k,
        q_grid=AxisGrid(n=32, origin=-math.pi, spacing=math.pi / 16,
                        label="position"),
        t_grid=AxisGrid(n=16, origin=0.0, spacing=6.0 * math.pi / 16,
                        label="time"),
        model_kind=FREE_PARTICLE,
        initial=InitialState(kind="level", level=1),
        steps=(),
    )
    fields.update(overrides)
    return Scenario(**fields)


def oscillator_scenario(**overrides):
    k = PhysicalConstants(hbar=2.0, mass=3.0, c=1.5, omega=0.7)
    q_grid, t_grid = energy_aligned_grids(k, n_q=64, n_t=16)
    return base_scenario(constants=k, q_grid=q_grid, t_grid=t_grid,
                         **overrides)


def jump_step(sc, i, j):
    # stamped with the clock reading of its from-level
    model, es = validate_scenario(sc)
    return Step(kind="jump", from_level=i, to_level=j,
                at_time=clock_scale(model) * float(es.values[i]))


def random_amplitudes(sc, seed):
    rng = np.random.default_rng(seed)
    n = sc.q_grid.n * sc.t_grid.n
    raw = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return InitialState(kind="amplitudes",
                        amplitudes=tuple(raw / np.linalg.norm(raw)))


def spectral_cases():
    cases = []
    for name, make in (("oscillator", oscillator_scenario),
                       ("free", free_particle_scenario)):
        # from the prepared level, then from an unoccupied one
        sc = make()
        steps = (Step(kind="evolve", dt=0.7), jump_step(sc, 1, 3),
                 Step(kind="evolve", dt=-1.9), jump_step(sc, 0, 2),
                 Step(kind="evolve", dt=0.25))
        cases.append(pytest.param(make(steps=steps), id=name + "-level"))
        cases.append(pytest.param(
            make(steps=steps, initial=random_amplitudes(sc, 5)),
            id=name + "-amplitudes"))
    # an off-origin time grid of 24 points, the same 6*pi period, and
    # jumps back to back
    sc = free_particle_scenario(t_grid=AxisGrid(
        n=24, origin=2.2, spacing=6.0 * math.pi / 24, label="time"))
    steps = (Step(kind="evolve", dt=0.7), jump_step(sc, 1, 3),
             jump_step(sc, 3, 0), jump_step(sc, 0, 4),
             Step(kind="evolve", dt=-1.3), jump_step(sc, 4, 1))
    cases.append(pytest.param(dataclasses.replace(sc, steps=steps),
                              id="free-offset-level"))
    cases.append(pytest.param(
        dataclasses.replace(sc, steps=steps,
                            initial=random_amplitudes(sc, 7)),
        id="free-offset-amplitudes"))
    return cases


def grid_basis_records(sc):
    """The scenario replayed on grid-basis states, one dict per record."""
    model, es = validate_scenario(sc)
    k, qg, tg = sc.constants, sc.q_grid, sc.t_grid
    h_op = hamiltonian(model)
    cop = first_constraint_operator(h_op, tg, k)
    basis = physical_subspace(cop, sc.constraint_tol)
    q_op, p_op = position_operator(qg), momentum_operator(qg, k)
    if sc.initial.kind == "amplitudes":
        state = composite_state(np.asarray(sc.initial.amplitudes),
                                qg.n, tg.n)
    else:
        n = sc.initial.level
        state = separable_first((float(es.values[n]), es.vector(n)), tg, k)
    out = []
    for step in (None,) + sc.steps:
        if step is not None and step.kind == "evolve":
            u = time_translation(tg, k, step.dt).matrix
            state = composite_state((state.matrix @ u.T).ravel(),
                                    qg.n, tg.n)
        elif step is not None:
            state = energy_jump(state, step.from_level, step.to_level,
                                model, (qg, tg), tol=sc.constraint_tol)
        coeffs = np.abs(basis.coefficients(state)) ** 2
        weight = float(np.sum(coeffs))
        out.append({"q_mean": state.expectation_left(q_op),
                    "p_mean": state.expectation_left(p_op),
                    "energy_mean": state.expectation_left(h_op),
                    "residual1": cop.residual(state),
                    "subspace_weight": weight,
                    # no distribution without weight in the subspace
                    "probabilities": coeffs / weight if weight >= 1e-14
                    else np.full(basis.count, np.nan)})
    return out


@pytest.mark.parametrize("sc", spectral_cases())
def test_run_scenario_matches_grid_basis_oracle(sc):
    records = run_scenario(sc)
    want = grid_basis_records(sc)
    assert len(records) == len(want) == len(sc.steps) + 1
    for rec, expected in zip(records, want):
        for name in ("q_mean", "p_mean", "energy_mean", "residual1",
                     "subspace_weight"):
            assert abs(getattr(rec, name) - expected[name]) <= 1e-10, name
        assert len(rec.probabilities) == len(expected["probabilities"]) > 0
        np.testing.assert_allclose(rec.probabilities,
                                   expected["probabilities"], rtol=0,
                                   atol=1e-10)


@pytest.mark.parametrize("sc", [base_scenario(), oscillator_scenario(),
                                free_particle_scenario()],
                         ids=["unit", "oscillator", "free"])
@pytest.mark.parametrize("tol", [1e-6, 0.6])
def test_kernel_pairs_follow_physical_subspace_order(sc, tol):
    # run_scenario gathers its kernel coefficients at these pairs
    model, _ = validate_scenario(sc)
    es = hamiltonian_eigensystem(model)
    tg = sc.t_grid
    kappa = -sc.constants.hbar * tg.frequencies
    pairs = kronecker_null_pairs(es.values, kappa, tol)
    basis = physical_subspace(first_constraint_operator(
        hamiltonian(model), tg, sc.constants), tol)
    assert len(pairs) == basis.count > 0
    for (m, k), member, label in zip(pairs, basis.members, basis.labels):
        assert label == es.values[m]
        product = np.outer(es.vector(m), tg.fourier_map[:, k]).ravel()
        assert abs(np.vdot(product, member.amplitudes)) \
            == pytest.approx(1.0, abs=1e-10)


def test_run_scenario_refuses_uncertified_bases(tmp_path, capsys):
    sc = base_scenario(eigen_tol=1e-18)
    with pytest.raises(ConvergenceError) as info:
        run_scenario(sc)
    assert "1e-18" in str(info.value)
    config = tmp_path / "tight.json"
    config.write_text(serialize_scenario(sc), encoding="utf-8")
    assert main(["run", "--config", str(config)]) == 3
    assert "eigen_tol" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["hamiltonian", "energy_operator"])
def test_run_refuses_a_nan_in_either_certificate_term(tmp_path, capsys,
                                                      monkeypatch, name):
    # a NaN in ||H V - V E||_2 or ||S Phi - Phi kappa||_2 stops the SVD
    # behind the 2-norm; run must exit 3 with a diagnostic, not a traceback
    import chronos.dynamics as dynamics
    build = getattr(dynamics, name)

    def poisoned(*args):
        m = np.array(build(*args).matrix)
        m[1, 2] = np.nan
        return operator(m)

    monkeypatch.setattr(dynamics, name, poisoned)
    config = tmp_path / "nan.json"
    config.write_text(serialize_scenario(base_scenario()), encoding="utf-8")
    assert main(["run", "--config", str(config)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "eigenbasis defect" in captured.err
    assert "Traceback" not in captured.err


def test_run_scenario_checks_the_norm_of_every_step(monkeypatch):
    # a phase kick that is not unimodular must abort the jump, and so must
    # one that makes the norm NaN
    import chronos.dynamics as dynamics
    kick = dynamics._shift_phases
    sc = base_scenario(steps=(Step(kind="evolve", dt=0.3),) + ROUND_TRIP)
    for factor in (1.5, math.nan):
        monkeypatch.setattr(dynamics, "_shift_phases",
                            lambda *args: factor * kick(*args))
        with pytest.raises(ScenarioStepError) as info:
            run_scenario(sc)
        assert isinstance(info.value.__cause__, NotUnitaryError)
        assert [r.kind for r in info.value.records] == ["init", "evolve",
                                                        "evolve"]


@pytest.mark.parametrize("sc", [parse_scenario(JUMP_SCENARIO.read_bytes()),
                                base_scenario(steps=ROUND_TRIP * 2)]
                         + [case.values[0] for case in spectral_cases()])
def test_run_scenario_evolve_repeats_the_observables(sc):
    # a column phase leaves |C|^2 and C C^H unchanged, so an evolve record
    # is the one before it, bit for bit, with its own index and kind
    def bits(rec):
        return np.array([rec.q_mean, rec.p_mean, rec.energy_mean,
                         rec.residual1, rec.subspace_weight]
                        + list(rec.probabilities)).tobytes()

    records = run_scenario(sc)
    evolves = [n for n, rec in enumerate(records) if rec.kind == "evolve"]
    assert evolves
    for n in evolves:
        assert records[n].step_index == n
        assert bits(records[n]) == bits(records[n - 1])


def test_run_scenario_checks_the_norm_of_every_evolve(monkeypatch):
    # a NaN phase row passes the equivalence guard's comparison (NaN is not
    # above the bound) and must then fail the norm check; off a solution
    # the guard is skipped and the norm check alone catches a bad row
    import chronos.dynamics as dynamics
    row = dynamics._translation_phases
    off = random_amplitudes(base_scenario(), 3)
    for initial, factor in ((InitialState(kind="level", level=0), math.nan),
                            (off, math.nan), (off, 1.5)):
        monkeypatch.setattr(dynamics, "_translation_phases",
                            lambda *args: factor * row(*args))
        with pytest.raises(ScenarioStepError) as info:
            run_scenario(base_scenario(initial=initial))
        assert isinstance(info.value.__cause__, NotUnitaryError)
        assert [r.kind for r in info.value.records] == ["init"]


def test_run_scenario_checks_jump_energies_once_per_pair(monkeypatch):
    import chronos.dynamics as dynamics
    checked = []
    energies = dynamics._jump_energies

    def counted(i, j, *args):
        checked.append((i, j))
        return energies(i, j, *args)

    monkeypatch.setattr(dynamics, "_jump_energies", counted)
    assert len(run_scenario(base_scenario(steps=ROUND_TRIP * 5))) == 21
    assert checked == [(0, 2), (2, 0)]
    # level 5 lies beyond the band edge of the 16-point time grid: the
    # first jump to it fails as energy_jump would, after the good pairs
    sc = base_scenario(steps=ROUND_TRIP + (
        Step(kind="jump", from_level=0, to_level=5, at_time=0.5),
        Step(kind="evolve", dt=0.2)))
    model, es = validate_scenario(sc)
    start = separable_first((float(es.values[0]), es.vector(0)),
                            sc.t_grid, sc.constants)
    with pytest.raises(OffLatticeError) as want:
        energy_jump(start, 0, 5, model, (sc.q_grid, sc.t_grid))
    with pytest.raises(ScenarioStepError) as info:
        run_scenario(sc)
    assert isinstance(info.value.__cause__, OffLatticeError)
    assert str(info.value.__cause__) == str(want.value)
    assert str(info.value) == "step 5 (jump) failed: %s" % want.value
    assert [r.kind for r in info.value.records] == [
        "init", "evolve", "jump", "evolve", "jump"]
