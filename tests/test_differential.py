"""Seeded differential sweep: the physical subspace against the exact
energy lattice.

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
numpy only; about three seconds.
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
from chronos.linalg import kronecker_null_pairs
from chronos.models import OSCILLATOR, ModelSpec, hamiltonian
from chronos.scenario import parse_scenario

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
