"""Command-line front end.

Four subcommands: `spectrum` prints computed versus predicted clock
levels, `check` runs a named invariant suite, `run` executes a scenario
file, and `subspace` lists the physical-subspace basis.  All output is
CSV with LF line endings and 17-significant-digit floats; tables go to
stdout unless --out names a file.

Exit codes: 0 all pass, 1 check or run failure, 2 usage or validation
error, 3 a basis that fails its certificate.  Each diagnostic is one plain
`error: <message>` line on stderr.

At its top this module imports only the standard library and the
exception types, so argument parsing, --help and usage errors load no
numpy.  Each command imports the modules it runs when it runs.
"""
from __future__ import annotations

import argparse
import sys

from .exceptions import (
    ChronosError,
    ConvergenceError,
    ScenarioStepError,
    ScenarioSyntaxError,
    ScenarioValidationError,
    UnknownSuiteError,
)

# the scenario a command reads when it is given no --config
DEFAULT_DOCUMENT = (
    '{"constants": {"hbar": 1, "mass": 1, "c": 1, "omega": 1}, '
    '"preset": "energy-aligned", "model": "oscillator", '
    '"initial": {"level": 0}, "steps": []}')


def _format_value(value):
    return "%.17g" % value if isinstance(value, float) else str(value)


class ResultTable:
    """Rectangular named-column table rendered as CSV."""

    def __init__(self, columns):
        self.columns = list(columns)
        self.rows = []

    def add(self, *values):
        if len(values) != len(self.columns):
            raise ValueError("row width %d, table width %d"
                             % (len(values), len(self.columns)))
        self.rows.append(tuple(values))

    def render(self):
        # a cell holding the very object above it (an evolve record shares
        # its fields with the one before) reuses that cell's text
        lines = [",".join(self.columns)]
        above = (object(),) * len(self.columns)
        texts = [None] * len(self.columns)
        for row in self.rows:
            texts = [text if value is old else _format_value(value)
                     for value, old, text in zip(row, above, texts)]
            above = row
            lines.append(",".join(texts))
        return "\n".join(lines) + "\n"


def _diag(message):
    print("error: %s" % message, file=sys.stderr)


def _emit(text, out_path):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _read_scenario(args):
    from .scenario import parse_scenario
    if args.config is None:
        return parse_scenario(DEFAULT_DOCUMENT)
    with open(args.config, "rb") as handle:  # parse_scenario decodes
        return parse_scenario(handle.read())


def cmd_spectrum(args):
    from .models import (
        OSCILLATOR,
        clock_scale,
        free_particle_time_level,
        hamiltonian,
        predicted_time_level,
    )
    sc = _read_scenario(args)
    if args.levels < 0:
        raise ScenarioValidationError("levels must be nonnegative",
                                      field="--levels")
    model = sc.model
    table = ResultTable(["n", "E_n", "t_n", "t_n_predicted", "abs_error"])
    if args.levels > 0:
        if args.levels > model.grid.n:
            raise ScenarioValidationError(
                "levels %d exceed the grid dimension %d"
                % (args.levels, model.grid.n), field="--levels")
        energies = hamiltonian(model).eigensystem.values
        for n in range(args.levels):
            energy = float(energies[n])
            clock = clock_scale(model) * energy
            if model.kind == OSCILLATOR:
                predicted = predicted_time_level(n, model.constants)
            else:
                predicted = free_particle_time_level(max(energy, 0.0),
                                                     model.constants)
            table.add(n, energy, clock, predicted, abs(clock - predicted))
    _emit(table.render(), args.out)
    return 0


def cmd_check(args):
    from .checks import run_suite
    sc = _read_scenario(args)
    try:
        rows, all_passed = run_suite(args.suite, constants=sc.model.constants,
                                     constraint_tol=sc.constraint_tol)
    except ValueError as exc:
        # a suite reads only the constants and the tolerance, which has
        # passed, so a grid or model it refuses is refused for the constants
        raise ScenarioValidationError(str(exc), field="constants") from None
    table = ResultTable(["name", "measured", "bound", "status"])
    for row in rows:
        table.add(row.name, row.measured, row.bound,
                  "pass" if row.passed else "fail")
    _emit(table.render(), args.out)
    return 0 if all_passed else 1


def _trajectory_csv(records, aborted_reason=None):
    width = len(records[0].probabilities) if records else 0
    columns = ["step_index", "kind", "q_mean", "p_mean", "energy_mean",
               "residual1", "subspace_weight"]
    columns += ["p%d" % i for i in range(width)]
    table = ResultTable(columns)
    for rec in records:
        table.add(rec.step_index, rec.kind, rec.q_mean, rec.p_mean,
                  rec.energy_mean, rec.residual1, rec.subspace_weight,
                  *rec.probabilities)
    text = table.render()
    if aborted_reason is not None:
        text += "# aborted: %s\n" % aborted_reason
    return text


def cmd_run(args):
    from .dynamics import run_scenario
    sc = _read_scenario(args)
    try:
        records = run_scenario(sc)
    except ScenarioStepError as exc:
        _emit(_trajectory_csv(exc.records, aborted_reason=str(exc)),
              args.out)
        _diag(str(exc))
        return 1
    _emit(_trajectory_csv(records), args.out)
    return 0


def cmd_subspace(args):
    from .constraints import first_constraint_operator, physical_subspace
    from .models import hamiltonian
    sc = _read_scenario(args)
    cop = first_constraint_operator(hamiltonian(sc.model), sc.t_grid,
                                    sc.model.constants)
    basis = physical_subspace(cop, sc.constraint_tol)
    table = ResultTable(["index", "label", "residual"])
    for i, (label, residual) in enumerate(zip(basis.labels, basis.residuals)):
        table.add(i, label, residual)
    _emit(table.render(), args.out)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="chronos",
        description="Spectral laboratory for conjugate time/energy "
                    "operator pairs.")
    sub = parser.add_subparsers(dest="command", required=True)

    spectrum = sub.add_parser(
        "spectrum", help="computed vs predicted clock levels")
    spectrum.add_argument("--config", help="scenario file supplying "
                          "constants, model, and grids")
    spectrum.add_argument("--levels", type=int, default=8,
                          help="number of levels to print (default 8)")
    spectrum.add_argument("--out", help="write CSV here instead of stdout")
    spectrum.set_defaults(func=cmd_spectrum)

    check = sub.add_parser("check", help="run one invariant suite")
    check.add_argument("--suite", required=True,
                       help="commutators, constraint1, constraint2, "
                            "generalized, uncertainty, or ladder")
    check.add_argument("--config", help="scenario file supplying constants "
                       "and tolerances")
    check.add_argument("--out", help="write CSV here instead of stdout")
    check.set_defaults(func=cmd_check)

    run = sub.add_parser("run", help="execute a scenario file")
    run.add_argument("--config", required=True, help="scenario file")
    run.add_argument("--out", help="write CSV here instead of stdout")
    run.set_defaults(func=cmd_run)

    subspace = sub.add_parser(
        "subspace", help="physical-subspace basis of the first constraint")
    subspace.add_argument("--config", help="scenario file supplying "
                          "constants, grids and constraint_tol")
    subspace.add_argument("--out", help="write CSV here instead of stdout")
    subspace.set_defaults(func=cmd_subspace)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
    try:
        return args.func(args)
    except (ScenarioSyntaxError, ScenarioValidationError,
            UnknownSuiteError) as exc:
        _diag(str(exc))
        return 2
    except ConvergenceError as exc:
        _diag(str(exc))
        return 3
    except (ChronosError, OSError) as exc:
        _diag(str(exc))
        return 1
