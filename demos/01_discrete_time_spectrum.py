"""Diagonalize the oscillator clock operator and compare its spectrum
against the closed-form half-integer ladder.

The clock operator is built from the Hamiltonian alone, yet its
eigenvalues land on an evenly spaced time lattice: time quantum times
(n + 1/2).  That spacing is the central discreteness claim, so this
demo prints the computed levels next to the prediction.
"""

from chronos.axes import PhysicalConstants, default_position_grid
from chronos.linalg import eig_hermitian
from chronos.models import (
    OSCILLATOR,
    ModelSpec,
    oscillator_clock_operator,
    predicted_time_level,
)


def main():
    k = PhysicalConstants()
    grid = default_position_grid(k)
    model = ModelSpec(OSCILLATOR, k, grid)
    print("oscillator on %d-point grid, spacing %.4f" % (grid.n, grid.spacing))
    print("time quantum: %.17g" % k.time_quantum)
    print()

    clock = oscillator_clock_operator(model)
    es = eig_hermitian(clock)
    print("%3s  %22s  %22s  %10s" % ("n", "computed", "predicted", "error"))
    for n in range(12):
        want = predicted_time_level(n, k)
        got = es.values[n]
        print("%3d  %22.15f  %22.15f  %10.2e" % (n, got, want,
                                                 abs(got - want)))
    print()
    gaps = [es.values[n + 1] - es.values[n] for n in range(11)]
    print("level gaps (should all equal the quantum):")
    print("  min %.15f  max %.15f" % (min(gaps), max(gaps)))


if __name__ == "__main__":
    main()
