"""Climb the energy ladder with the paired raise/lower maps and watch
the transition coefficients reproduce sqrt(n+1) and sqrt(n).

Each ladder step combines a system-side level change with a time-side
shift of one clock quantum, so the image of a stationary solution is
again a stationary solution.  The ground state is annihilated exactly
by the lowering map.
"""

import math

from chronos.axes import CompositeState, PhysicalConstants, time_aligned_grids
from chronos.constraints import separable_second
from chronos.dynamics import ladder_step_down, ladder_step_up
from chronos.models import OSCILLATOR, ModelSpec, energy_eigensystem


def main():
    k = PhysicalConstants()
    q_grid, t_grid = time_aligned_grids(k)
    model = ModelSpec(OSCILLATOR, k, q_grid)
    es = energy_eigensystem(model)
    print("grids: %d x %d, clock samples aligned with level readings"
          % (q_grid.n, t_grid.n))
    print()

    def solution(n):
        state, miss = separable_second((t_grid.samples[n], es.vector(n)),
                                       t_grid)
        assert miss == 0.0
        return state

    print("raising:  %3s  %18s  %18s" % ("n", "coefficient", "sqrt(n+1)"))
    for n in range(8):
        _, coeff = ladder_step_up(solution(n), model, t_grid)
        print("          %3d  %18.12f  %18.12f" % (n, coeff,
                                                   math.sqrt(n + 1)))
    print()
    print("lowering: %3s  %18s  %18s" % ("n", "coefficient", "sqrt(n)"))
    for n in range(8):
        image, coeff = ladder_step_down(solution(n), model, t_grid)
        print("          %3d  %18.12f  %18.12f" % (n, coeff, math.sqrt(n)))
        if n == 0:
            print("          (ground image norm: %.1e)"
                  % float(abs(image.overlap(image))) ** 0.5)
    print()

    up1, c_up = ladder_step_up(solution(3), model, t_grid)
    up1 = CompositeState(up1.amplitudes / c_up, up1.n_q, up1.n_t)
    down, c_down = ladder_step_down(up1, model, t_grid)
    down = CompositeState(down.amplitudes / c_down, down.n_q, down.n_t)
    print("round trip from level 3: up then down")
    print("  coefficient product %.12f (expect n+1 = 4)" % (c_up * c_down))
    print("  overlap with start  %.12f" % abs(down.overlap(solution(3))))


if __name__ == "__main__":
    main()
