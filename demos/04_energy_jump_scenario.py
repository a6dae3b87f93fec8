"""Run the bundled jump scenario end to end and print the trajectory.

The scenario starts in the ground solution, lets it evolve, kicks it
to the first excited solution half way through, and evolves again.
Every record keeps the constraint residual and the weight inside the
solution space, which is how a run proves it never left the physical
sector.
"""

from pathlib import Path

from chronos.dynamics import run_scenario, validate_scenario
from chronos.scenario import parse_scenario

REPO = Path(__file__).resolve().parent.parent


def main():
    text = (REPO / "scenarios" / "oscillator_jump.json").read_text()
    sc = parse_scenario(text)
    validate_scenario(sc)
    print("model %s, grids %d x %d, %d steps"
          % (sc.model.kind, sc.model.grid.n, sc.t_grid.n, len(sc.steps)))
    print()

    records = run_scenario(sc)
    header = "%5s %-6s %9s %9s %12s %10s %9s" % (
        "step", "kind", "q_mean", "p_mean", "energy_mean", "residual",
        "weight")
    print(header)
    for r in records:
        print("%5d %-6s %9.5f %9.5f %12.8f %10.2e %9.6f"
              % (r.step_index, r.kind, r.q_mean, r.p_mean, r.energy_mean,
                 r.residual1, r.subspace_weight))
    print()
    print("level occupation after each step:")
    for r in records:
        cells = " ".join("%.4f" % p for p in r.probabilities[:4])
        print("  step %d (%s): %s ..." % (r.step_index, r.kind, cells))


if __name__ == "__main__":
    main()
