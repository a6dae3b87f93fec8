"""Time translations, level swaps, ladder steps, jumps, scenario engine."""

import math
import warnings

import numpy as np
import pytest

from chronos.axes import (
    AxisGrid,
    PhysicalConstants,
    composite_state,
    energy_aligned_grids,
    energy_operator,
    tensor_state,
    time_aligned_grids,
)
from chronos.constraints import separable_first
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
from chronos.exceptions import (
    IndexOutOfRangeError,
    OffLatticeError,
    OffLatticeWarning,
    ScenarioStepError,
    ScenarioValidationError,
    TruncationTopError,
)
from chronos.linalg import maxnorm, spectral_exp, unitary_exp
from chronos.models import (
    FREE_PARTICLE,
    OSCILLATOR,
    ModelSpec,
    energy_eigensystem,
    hamiltonian,
    hamiltonian_eigensystem,
    oscillator_time_quantum,
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
        assert closed.unitary
        want = unitary_exp(s_op, dt / k.hbar).matrix
        assert maxnorm(closed.matrix - want) <= 1e-12


def test_time_translation_group_property():
    k = PhysicalConstants()
    tg = AxisGrid(n=16, origin=0.0, spacing=0.25, label="time")
    ab = time_translation(tg, k, 0.4).matrix @ time_translation(tg, k, 0.35).matrix
    assert maxnorm(ab - time_translation(tg, k, 0.75).matrix) < 1e-12
    assert time_translation(tg, k, 0.4).unitary


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
        assert shared.unitary
        want = unitary_exp(hamiltonian(model), theta).matrix
        assert maxnorm(shared.matrix - want) <= 1e-12


# evolve, jump 0 -> 2, evolve, jump back: repeated to lengthen a run
ROUND_TRIP = (Step(kind="evolve", dt=0.3),
              Step(kind="jump", from_level=0, to_level=2, at_time=0.5),
              Step(kind="evolve", dt=1.1),
              Step(kind="jump", from_level=2, to_level=0, at_time=2.5))


def test_run_scenario_eigensolves_do_not_grow_with_steps(monkeypatch):
    calls = []
    eigh = np.linalg.eigh
    eigvalsh = np.linalg.eigvalsh

    def counted(solver):
        def wrapper(*args, **kwargs):
            calls.append(solver.__name__)
            return solver(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "eigh", counted(eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted(eigvalsh))

    def count(repeats):
        hamiltonian_eigensystem.cache_clear()
        del calls[:]
        records = run_scenario(base_scenario(steps=ROUND_TRIP * repeats))
        assert len(records) == 4 * repeats + 1
        return len(calls)

    short, long = count(1), count(10)
    assert short == long
    assert long <= 4


def test_eigen_swap_unitary_exchanges_levels():
    k = PhysicalConstants()
    model = ModelSpec(OSCILLATOR, k, __import__(
        "chronos.axes", fromlist=["default_position_grid"]
    ).default_position_grid(k))
    es = energy_eigensystem(model, retained=6)
    swap = eigen_swap_unitary(1, 4, es)
    assert swap.hermitian and swap.unitary
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


def test_run_scenario_measures_each_residual_once(monkeypatch):
    from chronos.constraints import ConstraintOperator
    calls = []
    residual = ConstraintOperator.residual

    def counted(self, state):
        calls.append(1)
        return residual(self, state)

    monkeypatch.setattr(ConstraintOperator, "residual", counted)

    def count(repeats):
        del calls[:]
        records = run_scenario(base_scenario(steps=ROUND_TRIP * repeats))
        return len(records), len(calls)

    (short_records, short), (long_records, long) = count(1), count(10)
    # one residual per recorded state, none more for the evolve gates
    assert long - short == long_records - short_records


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
