"""Extract the joint solution space of the stationary constraint and
verify that evolving inside it is pure clock translation.

On the energy-aligned preset every retained oscillator level sits on
the time grid's frequency lattice, so the constraint has an
eight-dimensional near-null space.  Each basis vector is checked two
ways: its constraint residual, and the equivalence between applying
the Hamiltonian exponential and shifting the clock coordinate.  Last,
the members' distances from the space are set beside a random state's.
"""

import math

import numpy as np

from chronos.axes import PhysicalConstants, energy_aligned_grids
from chronos.constraints import first_constraint_operator, physical_subspace
from chronos.dynamics import time_translation
from chronos.linalg import unitary_exp
from chronos.models import OSCILLATOR, ModelSpec, hamiltonian


def main():
    k = PhysicalConstants()
    q_grid, t_grid = energy_aligned_grids(k)
    model = ModelSpec(OSCILLATOR, k, q_grid)
    ham = hamiltonian(model)
    op = first_constraint_operator(ham, t_grid, k)
    print("constraint on %d x %d = %d dimensional product space"
          % (q_grid.n, t_grid.n, op.dim))

    basis = physical_subspace(op, 1e-6)
    print("solution space dimension: %d" % basis.count)
    print()
    print("%18s  %12s" % ("level label", "residual"))
    for label, residual in zip(basis.labels, basis.residuals):
        print("%18s  %12.2e" % (label, residual))
    print()

    dt = math.pi / 3.0
    translator = time_translation(t_grid, dt)
    evolver = unitary_exp(ham, dt / k.hbar)
    print("evolution vs clock shift, dt = pi/3:")
    worst = 0.0
    # each member as its contiguous (n_q, n_t) state matrix
    for member in basis.vectors.transpose(2, 0, 1).copy():
        shifted = member @ translator.matrix.T
        evolved = evolver.matrix @ member
        worst = max(worst, float(np.linalg.norm(evolved - shifted)))
    print("  worst member difference %.2e" % worst)

    rng = np.random.default_rng(5)
    stray = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
    stray /= np.linalg.norm(stray)
    stray_m = stray.reshape(q_grid.n, t_grid.n)
    gap = float(np.linalg.norm(evolver.matrix @ stray_m
                               - stray_m @ translator.matrix.T))
    print("  random non-solution difference %.2e (should be order 1)" % gap)
    print()
    print("distance from the solution space, ||s - B (B^H s)||:")
    members = basis.span_gaps(basis.vectors.transpose(2, 0, 1))
    print("  worst member %.2e" % float(np.max(members)))
    print("  random non-solution %.2e (should be order 1)"
          % float(basis.span_gaps([stray])[0]))


if __name__ == "__main__":
    main()
