"""The bundled verification suites must all pass on their own grids."""

import json

import pytest

from chronos.checks import SUITES, run_suite
from chronos.cli import main
from chronos.exceptions import UnknownSuiteError


def test_suite_registry_names():
    assert set(SUITES) == {
        "commutators", "constraint1", "constraint2",
        "generalized", "uncertainty", "ladder",
    }


def test_unknown_suite_is_refused():
    with pytest.raises(UnknownSuiteError):
        run_suite("resonance")


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_passes(name):
    rows, all_passed = run_suite(name)
    assert rows, "suite %s produced no rows" % name
    failing = [(r.name, r.measured, r.bound) for r in rows if not r.passed]
    assert all_passed and not failing, failing


def test_rows_have_stable_shape():
    rows, _ = run_suite("commutators")
    names = [r.name for r in rows]
    assert len(names) == len(set(names))
    for row in rows:
        assert row.relation in ("<=", ">=")
        assert isinstance(row.measured, float)
        assert isinstance(row.bound, float)


def test_constraint1_passes_at_wide_tolerance(tmp_path, capsys):
    # at tol 0.6 each level meets three lattice energies, one of them the
    # band edge; every pair must be counted and solved at its lattice energy
    rows, all_passed = run_suite("constraint1", constraint_tol=0.6)
    failing = [(r.name, r.measured, r.bound) for r in rows if not r.passed]
    assert all_passed and not failing, failing
    config = tmp_path / "wide.json"
    config.write_text(json.dumps({
        "constants": {"hbar": 1.0, "mass": 1.0, "c": 1.0, "omega": 1.0},
        "preset": "energy-aligned", "model": "oscillator",
        "initial": {"level": 0}, "steps": [],
        "tolerances": {"constraint_tol": 0.6}}))
    code = main(["check", "--suite", "constraint1", "--config", str(config)])
    out = capsys.readouterr().out
    assert code == 0, out
    assert ",fail" not in out
