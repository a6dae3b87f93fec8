"""Time translations, level swaps, ladder steps, jumps, scenario engine."""

import dataclasses
import math
import pathlib
import warnings

import numpy as np
import pytest

import chronos.dynamics
import chronos.linalg

from chronos.axes import (
    TIME,
    AxisGrid,
    PhysicalConstants,
    CompositeState,
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
    energy_jump,
    ladder_step_down,
    ladder_step_up,
    run_scenario,
    time_translation,
    validate_scenario,
)
from chronos.scenario import InitialState, Scenario, Step, parse_scenario
from chronos.exceptions import (
    ChronosError,
    ConvergenceError,
    DimensionMismatchError,
    IndexOutOfRangeError,
    NotUnitaryError,
    OffLatticeError,
    ScenarioStepError,
    ScenarioValidationError,
    TruncationTopError,
    WrongKindError,
)
from chronos.linalg import (
    UNITARY_ATOL,
    kronecker_null_pairs,
    maxnorm,
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
)

import oracles


TRANSLATION_GRIDS = (
    (PhysicalConstants(), AxisGrid(n=16, origin=0.0, spacing=0.25,
                                   label="time")),
    (PhysicalConstants(hbar=2.0, mass=3.0, c=1.5, omega=0.7),
     AxisGrid(n=24, origin=-1.3, spacing=0.37, label="time")),
)


def test_time_translation_integer_steps_are_cyclic(rng):
    for _, tg in TRANSLATION_GRIDS:
        f = rng.standard_normal(tg.n) + 1j * rng.standard_normal(tg.n)
        for steps in (3, -5, 1):
            u = time_translation(tg, steps * tg.spacing)
            shifted = u.matrix @ f
            assert np.linalg.norm(shifted - oracles.rolled(f, steps)) < 1e-12


@pytest.mark.parametrize("k, tg", TRANSLATION_GRIDS)
def test_time_translation_matches_energy_operator_exponential(k, tg):
    # the closed form against the exponential of the conjugate operator
    s_op = energy_operator(tg, k)
    for dt in (0.4, -0.4, 1.7, -2.9, 3 * tg.spacing, 11.3):
        closed = time_translation(tg, dt)
        assert unitary_defect(closed.matrix) <= UNITARY_ATOL
        want = unitary_exp(s_op, dt / k.hbar).matrix
        assert maxnorm(closed.matrix - want) <= 1e-12


def test_time_translation_group_property():
    tg = AxisGrid(n=16, origin=0.0, spacing=0.25, label="time")
    ab = time_translation(tg, 0.4).matrix @ time_translation(tg, 0.35).matrix
    assert maxnorm(ab - time_translation(tg, 0.75).matrix) < 1e-12
    assert unitary_defect(time_translation(tg, 0.4).matrix) <= UNITARY_ATOL


def test_time_translation_full_period_is_identity():
    tg = AxisGrid(n=12, origin=0.0, spacing=0.5, label="time")
    u = time_translation(tg, tg.period)
    assert maxnorm(u.matrix - np.eye(12)) < 1e-11


def test_energy_shift_retunes_plane_wave():
    # multiplying by the phase profile moves one lattice energy to another
    k = PhysicalConstants()
    tg = AxisGrid(n=16, origin=0.0, spacing=math.pi / 4, label="time")
    from chronos.axes import energy_lattice, energy_eigenvector
    lattice = energy_lattice(tg, k)
    chi = energy_eigenvector(tg, lattice[5], k)
    step = lattice[9] - lattice[5]
    shifted = oracles.energy_shift(tg, step, k) @ chi
    target = energy_eigenvector(tg, lattice[9], k)
    overlap = abs(np.vdot(target, shifted))
    assert overlap == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("kind", [OSCILLATOR, FREE_PARTICLE])
def test_shared_eigensystem_evolution_matches_unitary_exp(kind):
    k = PhysicalConstants(hbar=2.0, mass=3.0, c=1.5, omega=0.7)
    grid = AxisGrid(n=48, origin=-6.0, spacing=0.25, label="position")
    model = ModelSpec(kind, k, grid)
    es = hamiltonian(model).eigensystem
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

    # every eigensystem is computed by OperatorMatrix.eigensystem, which
    # calls linalg's own eig_hermitian
    monkeypatch.setattr(chronos.linalg, "eig_hermitian",
                        counted(chronos.linalg.eig_hermitian, solves))
    monkeypatch.setattr(np.linalg, "eigh", counted(np.linalg.eigh, lapack))
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        counted(np.linalg.eigvalsh, lapack))

    def count(repeats):
        # a fresh scenario, so its model has computed nothing yet
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
    es = hamiltonian(model).eigensystem.truncated(6)
    swap = oracles.eigen_swap_unitary(1, 4, es)
    assert oracles.dense_hermitian_defect(swap) == 0.0
    assert unitary_defect(swap) <= UNITARY_ATOL
    v1, v4 = es.vector(1), es.vector(4)
    assert np.linalg.norm(swap @ v1 - v4) < 1e-10
    assert np.linalg.norm(swap @ v4 - v1) < 1e-10
    v2 = es.vector(2)
    assert np.linalg.norm(swap @ v2 - v2) < 1e-10


@pytest.fixture(scope="module")
def aligned():
    k = PhysicalConstants()
    q_grid, t_grid = time_aligned_grids(k)
    model = ModelSpec(OSCILLATOR, k, q_grid)
    es = energy_eigensystem(model)
    return k, t_grid, model, es


def solution_at(level, k, tg, es):
    # clock-aligned product: level eigenvector next to the matching reading
    from chronos.constraints import separable_second
    state, miss = separable_second((tg.samples[level],
                                    es.vector(level)), tg)
    assert miss == 0.0
    return state


def test_ladder_up_coefficient(aligned):
    k, tg, model, es = aligned
    for n in (0, 2, 5):
        state = solution_at(n, k, tg, es)
        image, coeff = ladder_step_up(state, model, tg)
        assert abs(coeff - oracles.ladder_matrix_elements(n, "up")) < 1e-6
        target = solution_at(n + 1, k, tg, es)
        overlap = abs(np.vdot(
            np.asarray(image.amplitudes) / coeff,
            np.asarray(target.amplitudes)))
        assert overlap == pytest.approx(1.0, abs=1e-8)


def test_ladder_down_coefficient(aligned):
    k, tg, model, es = aligned
    for n in (1, 4, 7):
        state = solution_at(n, k, tg, es)
        image, coeff = ladder_step_down(state, model, tg)
        assert abs(coeff - oracles.ladder_matrix_elements(n, "down")) < 1e-6
        target = solution_at(n - 1, k, tg, es)
        overlap = abs(np.vdot(
            np.asarray(image.amplitudes) / coeff,
            np.asarray(target.amplitudes)))
        assert overlap == pytest.approx(1.0, abs=1e-8)


def test_ladder_round_trip_recovers_state(aligned):
    k, tg, model, es = aligned
    state = solution_at(3, k, tg, es)
    up, c_up = ladder_step_up(state, model, tg)
    up_n = CompositeState(up.amplitudes / c_up, up.n_q, up.n_t)
    back, c_down = ladder_step_down(up_n, model, tg)
    overlap = abs(np.vdot(np.asarray(back.amplitudes) / c_down,
                          np.asarray(state.amplitudes)))
    assert overlap == pytest.approx(1.0, abs=1e-9)
    assert c_down == pytest.approx(2.0, abs=1e-6)


def test_ladder_annihilates_ground(aligned):
    k, tg, model, es = aligned
    state = solution_at(0, k, tg, es)
    image, coeff = ladder_step_down(state, model, tg)
    assert coeff == 0.0
    assert np.linalg.norm(image.amplitudes) == 0.0


def test_ladder_truncation_guard(aligned):
    k, tg, model, es = aligned
    top = solution_at(es.count - 1, k, tg, es)
    with pytest.raises(TruncationTopError):
        ladder_step_up(top, model, tg)


def test_energy_jump_lands_on_target(energy_bundle):
    bundle = energy_bundle
    k = bundle["constants"]
    tg = bundle["t_grid"]
    model = bundle["model"]
    es = bundle["eigensystem"]
    start = separable_first((float(es.values[0]), es.vector(0)), tg, k)
    jumped = energy_jump(start, 0, 1, model, tg)
    target = separable_first((float(es.values[1]), es.vector(1)), tg, k)
    overlap = abs(jumped.overlap(target))
    assert overlap >= 1.0 - 1e-8
    assert bundle["constraint"].residual(jumped) < 1e-6
    back = energy_jump(jumped, 1, 0, model, tg)
    assert abs(back.overlap(start)) >= 1.0 - 1e-9


@pytest.mark.parametrize("i, j", [(1, 3), (3, 1)])
def test_energy_jump_matches_dense_unitaries(energy_bundle, rng, i, j):
    bundle = energy_bundle
    k = bundle["constants"]
    tg = bundle["t_grid"]
    es = bundle["eigensystem"]
    n_q, n_t = bundle["q_grid"].n, tg.n
    raw = rng.standard_normal(n_q * n_t) + 1j * rng.standard_normal(n_q * n_t)
    state = CompositeState(raw / np.linalg.norm(raw), n_q, n_t)
    jumped = energy_jump(state, i, j, bundle["model"], tg)
    swap = oracles.eigen_swap_unitary(i, j, es)
    shift = oracles.energy_shift(tg, es.values[j] - es.values[i], k)
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
        energy_jump(state, 0, 1, model, t_grid)


def test_energy_jump_refuses_nan_tolerance(energy_bundle):
    # a NaN tolerance must not accept every lattice miss
    bundle = energy_bundle
    es = bundle["eigensystem"]
    start = separable_first((float(es.values[0]), es.vector(0)),
                            bundle["t_grid"], bundle["constants"])
    with pytest.raises(OffLatticeError):
        energy_jump(start, 0, 1, bundle["model"], bundle["t_grid"],
                    tol=math.nan)


# the three maps that act on a state, its model and its time grid
STEPS = [
    ladder_step_up,
    ladder_step_down,
    lambda state, model, tg: energy_jump(state, 0, 1, model, tg),
]


@pytest.mark.parametrize("shape", [(32, 32), (64, 16)], ids=["n_q", "n_t"])
@pytest.mark.parametrize("step", STEPS, ids=["up", "down", "jump"])
def test_steps_refuse_a_state_off_the_grids(energy_bundle, step, shape):
    # the 64 x 32 grids take a 64 x 32 state; any other is refused, typed,
    # before numpy meets the mismatch
    bundle = energy_bundle
    n_q, n_t = shape
    state = CompositeState(np.ones(n_q * n_t), n_q, n_t, normalized=False)
    with pytest.raises(DimensionMismatchError, match="grids are 64 x 32"):
        step(state, bundle["model"], bundle["t_grid"])


@pytest.mark.parametrize("step", STEPS, ids=["up", "down", "jump"])
def test_steps_refuse_grids_other_than_the_models(energy_bundle, step):
    # the system eigenvectors come from the model's 64-point grid, so a
    # 32 x 32 state on a matching 32-point time grid is refused, typed,
    # before numpy meets the mismatch
    bundle = energy_bundle
    _, small_t = energy_aligned_grids(bundle["constants"], n_q=32, n_t=32)
    state = CompositeState(np.ones(32 * 32), 32, 32, normalized=False)
    with pytest.raises(DimensionMismatchError,
                       match="state is 32 x 32, model and time grids are "
                             "64 x 32"):
        step(state, bundle["model"], small_t)


def test_energy_jump_refuses_levels_it_cannot_swap(energy_bundle):
    # equal levels are no swap, and a level at the retained count is not
    # retained
    bundle = energy_bundle
    tg = bundle["t_grid"]
    es = bundle["eigensystem"]
    start = separable_first((float(es.values[0]), es.vector(0)), tg,
                            bundle["constants"])
    with pytest.raises(ValueError, match="must differ"):
        energy_jump(start, 2, 2, bundle["model"], tg)
    with pytest.raises(IndexOutOfRangeError):
        energy_jump(start, 0, es.count, bundle["model"], tg)


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


@pytest.mark.parametrize("kind", ["level", "energy", "amplitudes"])
def test_initial_state_needs_the_value_its_kind_names(kind):
    # refused when built, not as a TypeError or a divide warning in a run
    with pytest.raises(ValueError, match="needs %s" % kind):
        InitialState(kind)


def base_scenario(**overrides):
    k = PhysicalConstants()
    q_grid, t_grid = energy_aligned_grids(k, n_q=32, n_t=16)
    fields = dict(
        model=ModelSpec(OSCILLATOR, k, q_grid),
        t_grid=t_grid,
        initial=InitialState(kind="level", level=0),
        steps=(Step(kind="evolve", dt=1.0),),
    )
    fields.update(overrides)
    return Scenario(**fields)


def test_validate_scenario_accepts_good_input():
    assert validate_scenario(base_scenario()).count >= 8


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


@pytest.mark.parametrize("key", ["constraint_tol"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0,
                                   -1e-6])
def test_validate_scenario_refuses_non_positive_tolerances(key, value):
    # JSON cannot carry NaN or inf, but a Scenario built in Python can: it
    # is refused when it is made, directly or by dataclasses.replace.  An
    # infinite constraint_tol would accept any jump time and make every
    # pair a member
    sc = parse_scenario(JUMP_SCENARIO.read_bytes())
    for make in (lambda: dataclasses.replace(sc, **{key: value}),
                 lambda: Scenario(sc.model, sc.t_grid, sc.initial, sc.steps,
                                  **{key: value})):
        with pytest.raises(ScenarioValidationError) as info:
            make()
        assert info.value.field == "tolerances." + key
        assert "must be positive and finite" in str(info.value)


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
    es = validate_scenario(sc)
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
    es = validate_scenario(sc0)
    state = separable_first((float(es.values[1]), es.vector(1)),
                            sc0.t_grid, sc0.model.constants)
    sc = base_scenario(initial=InitialState(
        kind="amplitudes", amplitudes=tuple(np.asarray(state.amplitudes))))
    records = run_scenario(sc)
    assert records[0].probabilities[1] == pytest.approx(1.0, abs=1e-9)


def amplitude_scenario(amplitudes):
    # a 4 x 4 oscillator started on raw amplitudes, with no steps
    return Scenario(
        ModelSpec(OSCILLATOR, PhysicalConstants(),
                  AxisGrid(n=4, origin=-1.0, spacing=0.5, label="position")),
        AxisGrid(n=4, origin=0.0, spacing=0.5, label="time"),
        InitialState("amplitudes", amplitudes=tuple(amplitudes)), ())


@pytest.mark.parametrize("scaled, plain", [
    ([1e200] * 16, [1.0] * 16),
    # 1e-320 = 0.98828125 * 2**-1063, and 0.98828125 normalizes to 1 - 2**-53
    ([1e-320] + [0.0] * 15, [0.98828125] + [0.0] * 15),
    ([3e-162] + [0.0] * 15, [1.0] + [0.0] * 15),
], ids=["overflow", "underflow", "denormal"])
def test_run_scenario_normalizes_amplitudes_of_any_scale(scaled, plain):
    # the sum of squares overflows, underflows to zero, or underflows to a
    # denormal that misses the norm; the amplitudes are first scaled by a
    # power of two, exactly, which gives the bits of the plain start
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        records = run_scenario(amplitude_scenario(scaled))
    assert repr(records) == repr(run_scenario(amplitude_scenario(plain)))


def test_initial_state_is_amplitudes_over_their_norm_bit_for_bit(rng):
    # the power-of-two scaling is exact, so wherever the plain sum of
    # squares neither over- nor underflows the start keeps its bits
    for scale in 10.0 ** rng.uniform(-140.0, 140.0, size=300):
        amp = scale * (rng.standard_normal(16)
                       + 1j * rng.standard_normal(16))
        state = chronos.dynamics._initial_state(amplitude_scenario(amp), None)
        assert state.amplitudes.tobytes() \
            == (amp / np.linalg.norm(amp)).tobytes()


@pytest.mark.parametrize("amplitudes, message", [
    ((0j,) * 16, "amplitudes are all zero"),
    ((1.0, math.nan), "amplitudes must be finite"),
    ((1.0, complex(0.0, -math.inf)), "amplitudes must be finite"),
], ids=["zero", "nan", "inf"])
def test_initial_state_refuses_unusable_amplitudes(amplitudes, message):
    # the amplitudes themselves are tested, not their norm: 1e-320 alone
    # is a start, its norm 0.0 notwithstanding
    with pytest.raises(ScenarioValidationError) as info:
        InitialState("amplitudes", amplitudes=amplitudes)
    assert str(info.value) == "initial.amplitudes: " + message
    assert InitialState("amplitudes", amplitudes=(1e-320,)).amplitudes


def _free_ladder_step():
    k = PhysicalConstants()
    q_grid, t_grid = energy_aligned_grids(k, n_q=8, n_t=4)
    ladder_step_up(tensor_state(np.ones(8), np.ones(4)),
                   ModelSpec(FREE_PARTICLE, k, q_grid), t_grid)


@pytest.mark.parametrize("refused, error", [
    (_free_ladder_step, WrongKindError),
    (lambda: InitialState("momentum"), ValueError),
], ids=["ladder-free-particle", "initial-momentum"])
def test_dynamics_refusals(refused, error):
    with pytest.raises(error):
        refused()


def test_run_scenario_jump_from_unoccupied_level_is_visible():
    # the swap is unitary, so jumping "from" an empty level only kicks the
    # clock phase; the record exposes the resulting unphysical state
    sc = base_scenario(steps=(
        Step(kind="jump", from_level=3, to_level=1, at_time=0.5),))
    records = run_scenario(sc)
    last = records[-1]
    assert last.residual1 > 1.0
    assert last.subspace_weight < 1e-10


def stray_scenario():
    # a state just inside the constraint tolerance whose two evolution
    # routes drift apart by more than the equivalence bound
    sc0 = base_scenario()
    es = validate_scenario(sc0)
    k = sc0.model.constants
    solution = separable_first((float(es.values[0]), es.vector(0)),
                               sc0.t_grid, k)
    from chronos.axes import energy_eigenvector
    stray = np.outer(es.vector(0), energy_eigenvector(sc0.t_grid, 1.0, k))
    amps = np.asarray(solution.amplitudes) + 1.6e-6 * stray.ravel()
    return base_scenario(
        initial=InitialState(kind="amplitudes", amplitudes=tuple(amps)),
        steps=(Step(kind="evolve", dt=2.0),))


def test_run_scenario_equivalence_guard_keeps_partial_records():
    # the guard must abort and hand back the prefix
    with pytest.raises(ScenarioStepError,
                       match="evolution operators disagree") as info:
        run_scenario(stray_scenario())
    assert len(info.value.records) == 1
    assert info.value.records[0].kind == "init"


def test_run_scenario_takes_the_exact_gap_only_past_its_bound(monkeypatch):
    import chronos.dynamics as dynamics
    calls = []
    gap = dynamics._equivalence_gap

    def counted(*args):
        calls.append(gap(*args))
        return calls[-1]

    monkeypatch.setattr(dynamics, "_equivalence_gap", counted)
    # 120 evolves on a solution: every one is certified by its bound
    steps = tuple(Step(kind="evolve", dt=0.37 * (i % 9) - 1.1)
                  for i in range(120))
    records = run_scenario(base_scenario(steps=steps))
    assert len(records) == 121 and calls == []
    # the stray state's bound, 2 * 8.0e-7, is past 1e-6: one exact pass,
    # which fails
    with pytest.raises(ScenarioStepError,
                       match="evolution operators disagree"):
        run_scenario(stray_scenario())
    assert len(calls) == 1 and calls[0] > dynamics.EQUIVALENCE_TOL


@pytest.mark.parametrize("wrong", [np.conj, np.square],
                         ids=["sign", "scale"])
def test_run_scenario_guard_catches_a_wrong_row_on_a_solution(monkeypatch,
                                                               wrong):
    # the bound holds only for the row e^{-i kappa dt/hbar}; a row with a
    # wrong sign or twice the step must fail its slip check, take the
    # exact gap and abort, though the state satisfies the constraint
    import chronos.dynamics as dynamics
    row = dynamics._translation_phases
    monkeypatch.setattr(dynamics, "_translation_phases",
                        lambda *args: wrong(row(*args)))
    sc = base_scenario(steps=(Step(kind="evolve", dt=0.3),))
    with pytest.raises(ScenarioStepError,
                       match="evolution operators disagree") as info:
        run_scenario(sc)
    assert [r.kind for r in info.value.records] == ["init"]
    assert info.value.records[0].residual1 <= sc.constraint_tol


def free_particle_scenario(**overrides):
    # q period 2*pi puts every level (hbar k)^2/2m on the time lattice
    # hbar*2*pi/L_t = 2/3 of a 6*pi time period
    k = PhysicalConstants(hbar=2.0, mass=3.0, c=1.5, omega=0.7)
    q_grid = AxisGrid(n=32, origin=-math.pi, spacing=math.pi / 16,
                      label="position")
    fields = dict(
        model=ModelSpec(FREE_PARTICLE, k, q_grid),
        t_grid=AxisGrid(n=16, origin=0.0, spacing=6.0 * math.pi / 16,
                        label="time"),
        initial=InitialState(kind="level", level=1),
        steps=(),
    )
    fields.update(overrides)
    return Scenario(**fields)


def oscillator_scenario(**overrides):
    k = PhysicalConstants(hbar=2.0, mass=3.0, c=1.5, omega=0.7)
    q_grid, t_grid = energy_aligned_grids(k, n_q=64, n_t=16)
    return base_scenario(model=ModelSpec(OSCILLATOR, k, q_grid),
                         t_grid=t_grid, **overrides)


def jump_step(sc, i, j):
    # stamped with the clock reading of its from-level
    es = validate_scenario(sc)
    return Step(kind="jump", from_level=i, to_level=j,
                at_time=clock_scale(sc.model) * float(es.values[i]))


def random_amplitudes(sc, seed):
    rng = np.random.default_rng(seed)
    n = sc.model.grid.n * sc.t_grid.n
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
    es = validate_scenario(sc)
    model, tg = sc.model, sc.t_grid
    k, qg = model.constants, model.grid
    h_op = hamiltonian(model)
    cop = first_constraint_operator(h_op, tg, k)
    basis = physical_subspace(cop, sc.constraint_tol)
    q_op, p_op = position_operator(qg), momentum_operator(qg, k)
    if sc.initial.kind == "amplitudes":
        state = CompositeState(sc.initial.amplitudes, qg.n, tg.n)
    else:
        n = sc.initial.level
        state = separable_first((float(es.values[n]), es.vector(n)), tg, k)
    out = []
    for step in (None,) + sc.steps:
        if step is not None and step.kind == "evolve":
            u = time_translation(tg, step.dt).matrix
            state = CompositeState(state.matrix @ u.T, qg.n, tg.n)
        elif step is not None:
            state = energy_jump(state, step.from_level, step.to_level,
                                model, tg, tol=sc.constraint_tol)
        coeffs = np.abs(oracles.member_coefficients(
            basis, state.amplitudes)) ** 2
        weight = float(np.sum(coeffs))
        out.append({"q_mean": oracles.expectation_left(state, q_op),
                    "p_mean": oracles.expectation_left(state, p_op),
                    "energy_mean": oracles.expectation_left(state, h_op),
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
    validate_scenario(sc)
    model, tg = sc.model, sc.t_grid
    es = hamiltonian(model).eigensystem
    kappa = -model.constants.hbar * tg.frequencies
    rows, cols = kronecker_null_pairs(es.values, kappa, tol)
    basis = physical_subspace(first_constraint_operator(
        hamiltonian(model), tg, model.constants), tol)
    assert rows.size == cols.size == basis.count > 0
    members = basis.vectors.transpose(2, 0, 1)
    for m, k, member, label in zip(rows, cols, members, basis.labels):
        assert label == es.values[m]
        product = np.outer(es.vector(m), tg.fourier_map[:, k])
        assert abs(np.vdot(product, member)) == pytest.approx(1.0, abs=1e-10)


def test_run_scenario_refuses_uncertified_bases(tmp_path, capsys):
    # V is certified by the eigensolve; the time grid's Fourier map, far
    # from its origin, fails its own unitarity check before any step
    tg = base_scenario().t_grid
    sc = base_scenario(t_grid=AxisGrid(tg.n, 1e9, tg.spacing, TIME))
    with pytest.raises(ConvergenceError) as info:
        run_scenario(sc)
    assert str(info.value).startswith(
        "the time grid's Fourier map has unitary defect ")
    config = tmp_path / "far.json"
    config.write_text(oracles.serialize_scenario(sc), encoding="utf-8")
    assert main(["run", "--config", str(config)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "Fourier map" in captured.err


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
    # on a solution a NaN phase row makes the equivalence gap NaN, which
    # the guard refuses; off a solution the guard is skipped and the norm
    # check alone catches a bad row
    import chronos.dynamics as dynamics
    row = dynamics._translation_phases
    off = random_amplitudes(base_scenario(), 3)
    for initial, factor, cause, message in (
            (InitialState(kind="level", level=0), math.nan, ChronosError,
             "evolution operators disagree by nan"),
            (off, math.nan, NotUnitaryError, "state norm nan"),
            (off, 1.5, NotUnitaryError, "state norm 1.5")):
        monkeypatch.setattr(dynamics, "_translation_phases",
                            lambda *args: factor * row(*args))
        with pytest.raises(ScenarioStepError) as info:
            run_scenario(base_scenario(initial=initial))
        assert type(info.value.__cause__) is cause
        assert str(info.value.__cause__).startswith(message)
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
    # first jump to it is refused as energy_jump would refuse it, before
    # any step runs
    sc = base_scenario(steps=ROUND_TRIP + (
        Step(kind="jump", from_level=0, to_level=5, at_time=0.5),
        Step(kind="evolve", dt=0.2)))
    es = energy_eigensystem(sc.model)
    start = separable_first((float(es.values[0]), es.vector(0)),
                            sc.t_grid, sc.model.constants)
    with pytest.raises(OffLatticeError) as want:
        energy_jump(start, 0, 5, sc.model, sc.t_grid)
    for refuse in (validate_scenario, run_scenario):
        with pytest.raises(ScenarioValidationError) as info:
            refuse(sc)
        assert info.value.field == "steps[4].jump"
        assert str(info.value) == "steps[4].jump: %s" % want.value


def near_solutions(sc, count, seed):
    # unit states: a random mix of the physical subspace plus a random
    # stray part 1e-11 to 1e-8 of its size, so each residual is below the
    # constraint tolerance but not at rounding level
    rng = np.random.default_rng(seed)
    model, tg = sc.model, sc.t_grid
    basis = physical_subspace(first_constraint_operator(
        hamiltonian(model), tg, model.constants), sc.constraint_tol)
    b = basis.vectors.reshape(-1, basis.count)
    for _ in range(count):
        mix = rng.standard_normal(basis.count) \
            + 1j * rng.standard_normal(basis.count)
        stray = rng.standard_normal(b.shape[0]) \
            + 1j * rng.standard_normal(b.shape[0])
        state = b @ (mix / np.linalg.norm(mix)) + 10.0 ** rng.uniform(
            -11, -8) * stray / np.linalg.norm(stray)
        yield InitialState(kind="amplitudes",
                           amplitudes=tuple(state / np.linalg.norm(state)))


@pytest.mark.parametrize("make", [oscillator_scenario,
                                  free_particle_scenario],
                         ids=["oscillator", "free"])
def test_equivalence_bound_is_at_least_the_exact_gap(monkeypatch, make):
    # every evolve of run_scenario computes both: the bound, recorded and
    # reported as failing so the exact gap is taken, and the exact gap,
    # recorded and reported as passing so the run goes on
    import chronos.dynamics as dynamics
    bounds, gaps = [], []
    bound, gap = dynamics._equivalence_bound, dynamics._equivalence_gap

    def record(log, fn, reported):
        def wrapper(*args):
            log.append(fn(*args))
            return reported
        return wrapper

    monkeypatch.setattr(dynamics, "_equivalence_bound",
                        record(bounds, bound, math.inf))
    monkeypatch.setattr(dynamics, "_equivalence_gap",
                        record(gaps, gap, 0.0))
    rng = np.random.default_rng(11)
    for initial in near_solutions(make(), 12, 3):
        # |dt| from 1e-3, where the bound is tight, to 40, where the
        # gap's sines saturate
        steps = tuple(Step(kind="evolve", dt=rng.choice([-1.0, 1.0])
                           * 10.0 ** rng.uniform(-3.0, 1.6))
                      for _ in range(4))
        records = run_scenario(make(initial=initial, steps=steps))
        assert 1e-12 < records[0].residual1 <= make().constraint_tol
    assert len(bounds) == len(gaps) == 48
    assert all(b >= g > 0.0 for b, g in zip(bounds, gaps))


@pytest.mark.parametrize("sc", [base_scenario(), oscillator_scenario(),
                                free_particle_scenario()],
                         ids=["unit", "oscillator", "free"])
def test_momentum_by_fft_matches_the_dense_product(sc):
    import chronos.dynamics as dynamics
    model = sc.model
    v = hamiltonian(model).eigensystem.vectors
    want = oracles.momentum_in_basis(v, model.grid, model.constants)
    got = dynamics._momentum_in(v, model.grid, model.constants)
    assert maxnorm(got - want) <= 1e-12
