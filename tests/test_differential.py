"""Seeded differential sweeps: the physical subspace against the exact
energy lattice, and the eigensolve's spectrum against Jacobi rotations.

A pair (m, k) belongs to the first constraint's physical subspace when
|kappa_k - E_m| <= constraint_tol, so where a gap sits at the tolerance,
rounding decides.  The sweep probes exactly there: the smallest gaps
between a grid's Hamiltonian levels E_m and its energy lattice
kappa_k = -hbar w_k, and each gap's two float neighbours.  Its oracle is
that lattice, formed here from the time grid's frequencies and paired
with the levels by kronecker_null_pairs, and the members
psi_m (x) e^{i w_k t} / sqrt(n_t) formed here too; the subspace solve,
`run` and the check suites are compared with it.  The probes each test
runs are drawn from a fixed seed, so every run checks the same ones.

The spectrum sweep draws closed forms C + diag(V) that the reflection
split solves, random ones mirrored exactly and both models' Hamiltonians
and clocks on mirrored grids, with the same on offset grids beside them,
and compares the values of eig_hermitian with oracles.jacobi_spectrum of
the formed matrix.  numpy only; about five seconds.
"""

import json
import math
import random

import numpy as np
import pytest

from chronos.axes import (
    TIME,
    AxisGrid,
    PhysicalConstants,
    energy_aligned_grids,
)
from chronos.checks import run_suite
from chronos.cli import DEFAULT_DOCUMENT
from chronos.constraints import (
    first_constraint_operator,
    generalized_constraint_operator,
    physical_subspace,
)
from chronos.dynamics import run_scenario
from chronos.linalg import (
    CirculantPlusDiagonal,
    eig_hermitian,
    kronecker_null_pairs,
    maxnorm,
)
from chronos.models import (
    KINDS,
    OSCILLATOR,
    ModelSpec,
    clock_operator,
    hamiltonian,
)
from chronos.scenario import parse_scenario

import oracles

SEED = 31
GAPS = 150  # smallest distinct gaps probed on each grid pair
DRAWS = 24  # probes drawn for each test case

K = PhysicalConstants()
PERIOD = 4.0 * math.pi / K.omega
SMALL_Q = AxisGrid(n=32, origin=-8.0, spacing=0.5, label="position")
# the grid pairs the count rows of the suites read: the default document's
# energy-aligned pair (constraint1), the generalized suite's 32 x 16 pair,
# and the detuned 32 x 16 pair of both suites
GRIDS = {
    "energy-aligned": energy_aligned_grids(K),
    "aligned-32x16": (SMALL_Q, AxisGrid(n=16, origin=0.0,
                                        spacing=PERIOD / 16, label=TIME)),
    "detuned-32x16": (SMALL_Q, AxisGrid(n=16, origin=0.0,
                                        spacing=PERIOD * 1.1 / 16,
                                        label=TIME)),
}
SUITE_GRIDS = {"constraint1": ("energy-aligned", "detuned-32x16"),
               "generalized": ("aligned-32x16", "detuned-32x16")}
COUNT_ROWS = {"level_count_gap", "detuned_count_gap", "reduction_count_gap",
              "reduction_projector_gap"}


def lattice(tg):
    """The exact energy lattice -hbar w of a time grid, in grid order."""
    return -K.hbar * tg.frequencies


def probes(name):
    """The GAPS smallest nonzero gaps |kappa_k - E_m| of a grid pair and
    their float neighbours, ascending."""
    qg, tg = GRIDS[name]
    levels = hamiltonian(ModelSpec(OSCILLATOR, K, qg)).eigensystem.values
    gaps = np.unique(np.abs(lattice(tg)[None, :] - levels[:, None]))
    gaps = gaps[gaps > 0.0][:GAPS]
    near = np.concatenate((np.nextafter(gaps, 0.0), gaps,
                           np.nextafter(gaps, np.inf)))
    return np.unique(near[near > 0.0]).tolist()


def drawn(names, salt):
    """DRAWS probes of the named grid pairs, drawn from the fixed seed."""
    pool = sorted({tol for name in names for tol in probes(name)})
    return random.Random("%d-%s" % (SEED, salt)).sample(pool, DRAWS)


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_subspace_members_are_the_lattice_pairs(name):
    # the first constraint and its generalized (1, 0) reduction list the
    # oracle's pairs, in its order: labelled E_m, each member the product
    # psi_m (x) e^{i w_k t} / sqrt(n_t) up to its phase
    qg, tg = GRIDS[name]
    h_op = hamiltonian(ModelSpec(OSCILLATOR, K, qg))
    levels, psi = h_op.eigensystem.values, h_op.eigensystem.vectors
    operators = (first_constraint_operator(h_op, tg, K),
                 generalized_constraint_operator(1.0, 0.0, h_op, tg, K))
    for tol in drawn([name], name):
        m, k = kronecker_null_pairs(levels, lattice(tg), tol)
        chi = np.exp(1j * np.outer(tg.samples, tg.frequencies[k])) \
            / math.sqrt(tg.n)
        for op in operators:
            basis = physical_subspace(op, tol)
            assert basis.labels == tuple(levels[m].tolist())
            overlap = np.einsum("qi,ti,qti->i", psi[:, m].conj(), chi.conj(),
                                basis.vectors)
            assert np.all(np.abs(np.abs(overlap) - 1.0) <= 1e-12)


def test_run_prints_one_column_per_lattice_pair():
    qg, tg = GRIDS["energy-aligned"]
    levels = hamiltonian(ModelSpec(OSCILLATOR, K, qg)).eigensystem.values
    for tol in drawn(["energy-aligned"], "run"):
        doc = dict(json.loads(DEFAULT_DOCUMENT),
                   tolerances={"constraint_tol": tol})
        record, = run_scenario(parse_scenario(json.dumps(doc)))
        expected = kronecker_null_pairs(levels, lattice(tg), tol)[0].size
        assert len(record.probabilities) == expected


@pytest.mark.parametrize("suite", sorted(SUITE_GRIDS))
def test_suite_count_rows_pass_on_the_gaps(suite):
    for tol in drawn(SUITE_GRIDS[suite], suite):
        rows = [row for row in run_suite(suite, constraint_tol=tol)[0]
                if row.name in COUNT_ROWS]
        assert rows
        assert [row.name for row in rows if not row.passed] == [], tol


SPECTRUM_DRAWS = 8  # random mirrored closed forms
CLOCK_K = PhysicalConstants(mass=0.7)
# Each solver is backward stable: its values are those of a matrix within a
# few eps ||A||_2 of A, which moves each by as much (Weyl), and
# ||A||_2 <= n maxnorm(A).  The split's block sums round each entry once
# more.  Four eps for each side bounds |split - Jacobi| by
SPECTRUM_EPS = 8.0  # n eps maxnorm(A)


def spectrum_cases():
    """(name, closed form) of the spectrum sweep, n <= 64, from the seed."""
    rng = np.random.default_rng(SEED)
    for _ in range(SPECTRUM_DRAWS):
        n = int(rng.choice([4, 6, 8, 10, 12, 16, 24, 32]))
        column, diagonal = rng.standard_normal((2, n))
        mirror = -np.arange(n) % n
        yield "random-%d" % n, CirculantPlusDiagonal(
            column + column[mirror], diagonal + diagonal[mirror])
    # the clocks take mass 0.7, so clock_scale is no power of two and
    # scales every entry with rounding
    for build, k in ((hamiltonian, K), (clock_operator, CLOCK_K)):
        for kind in KINDS:
            for shift in (0.0, 0.3):  # of a step: the offset grid
                n = int(rng.choice([16, 32, 64]))
                grid = AxisGrid(n=n, origin=(shift - n / 2) * 0.5,
                                spacing=0.5, label="position")
                yield "%s-%s-%d-%g" % (kind, build.__name__, n, shift), \
                    build(ModelSpec(kind, k, grid))


def test_split_spectrum_matches_jacobi_oracle():
    worst, split = 0.0, []
    for name, op in spectrum_cases():
        system = eig_hermitian(op)
        if system.sign is not None:
            split.append(name)
        reference = oracles.jacobi_spectrum(op.matrix)
        bound = SPECTRUM_EPS * op.dim * np.finfo(float).eps \
            * maxnorm(op.matrix)
        ratio = float(np.max(np.abs(system.values - reference))) / bound
        assert ratio <= 1.0, (name, ratio)
        worst = np.maximum(worst, ratio)
    # every case but the oscillator's two on its offset grid take the split
    assert len(split) == SPECTRUM_DRAWS + 6
    assert not any(name.startswith(OSCILLATOR) and name.endswith("-0.3")
                   for name in split)
    # shown with pytest -s: 0.330 at SEED 31
    print("largest |eig_hermitian - Jacobi| / (%g n eps maxnorm) = %.3f"
          % (SPECTRUM_EPS, worst))
