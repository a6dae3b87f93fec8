"""Tests of the benchmark itself: seeded inputs, checks and span summaries.

    PYTHONPATH=src python -m pytest -q bench
"""
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, outcome, run_long_document  # noqa: E402

from chronos.dynamics import validate_scenario  # noqa: E402
from chronos.scenario import parse_scenario  # noqa: E402


def _files(workload, seed, workdir):
    inputs = WORKLOADS[workload].build(seed, workdir)
    return inputs, {p.name: p.read_bytes() for p in workdir.glob("*.json")}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_inputs_repeat_for_a_seed(workload, tmp_path):
    a, b, c = (tmp_path / d for d in "abc")
    for d in (a, b, c):
        d.mkdir()
    first, files_a = _files(workload, 5, a)
    again, files_b = _files(workload, 5, b)
    _, files_c = _files(workload, 6, c)
    assert files_a == files_b
    assert first.expect == again.expect
    if files_a:
        assert files_a != files_c


def test_run_long_steps_and_durations():
    doc, levels = run_long_document(11)
    steps = doc["steps"]
    jumps = [s["jump"] for s in steps if "jump" in s]
    durations = [s["evolve"] for s in steps if "evolve" in s]
    assert len(steps) == len(levels) - 1 == 400
    assert len(jumps) == 100
    assert len(set(durations)) == len(durations)
    for jump in jumps:
        assert jump["at"] == jump["from"] + 0.5
        assert 0 <= jump["to"] < 8 and jump["to"] != jump["from"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", [1, run.CONFIRM_SEED])
def test_generated_scenarios_validate(workload, seed, tmp_path):
    inputs = WORKLOADS[workload].build(seed, tmp_path)
    for path in tmp_path.glob("*.json"):
        sc = parse_scenario(path.read_text(encoding="utf-8"))
        validate_scenario(sc)
    assert len(inputs.commands) == len(inputs.outputs)


def _subspace_csv(omega, rows=8):
    lines = ["index,label,residual"]
    for n in range(rows):
        lines.append("%d,%.17g,%.17g" % (n, omega * (n + 0.5), 1e-13))
    return "\n".join(lines) + "\n"


def test_corrupted_output_counts_as_failure(tmp_path):
    workload = WORKLOADS["subspace-dense"]
    inputs = workload.build(2, tmp_path)
    out = inputs.outputs[0]
    omega = inputs.expect["omega"]

    out.write_text(_subspace_csv(omega))
    assert outcome(workload, inputs, [0]) is None
    assert outcome(workload, inputs, [3]) is not None

    out.write_text(_subspace_csv(omega, rows=7))  # one row dropped
    assert "7 subspace rows" in outcome(workload, inputs, [0])

    out.write_text(_subspace_csv(omega * 1.001))  # labels off n + 1/2
    assert outcome(workload, inputs, [0]) is not None

    out.unlink()
    assert outcome(workload, inputs, [0]) is not None


def test_corrupted_trajectory_counts_as_failure(tmp_path):
    workload = WORKLOADS["run-long"]
    inputs = workload.build(4, tmp_path)
    levels = inputs.expect["levels"]
    header = ("step_index,kind,q_mean,p_mean,energy_mean,residual1,"
              "subspace_weight,p0,p1")
    rows = ["%d,evolve,0,0,%.17g,1e-14,1,0.25,0.75" % (i, n + 0.5)
            for i, n in enumerate(levels)]
    inputs.outputs[0].write_text("\n".join([header] + rows) + "\n")
    assert outcome(workload, inputs, [0]) is None
    rows[10] = rows[10].replace(",0.25,", ",0.35,")
    inputs.outputs[0].write_text("\n".join([header] + rows) + "\n")
    assert "probabilities" in outcome(workload, inputs, [0])


def test_summarize_derives_self_time():
    spans = [["outer", 0.0, 10.0, -1, None],
             ["inner", 1.0, 4.0, 0, 3],
             ["outer", 5.0, 9.0, 0, None],
             ["inner", 6.0, 7.0, 2, 5]]
    out = tracer.summarize(spans)
    assert out["outer"]["calls"] == 2
    assert out["outer"]["s"] == 10.0          # the nested call is inside
    assert out["outer"]["self_s"] == 3.0 + 3.0
    assert out["inner"]["s"] == 4.0
    assert out["inner"]["infos"] == [3, 5]


def test_metric_names_match_benchmark_file():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"]
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    for key, specs in (("end_to_end", run.END_TO_END),
                       ("per_layer", run.per_layer_specs())):
        listed = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        assert listed == list(specs)


def test_traced_child_wraps_every_target(tmp_path):
    report, out = tmp_path / "trace.json", tmp_path / "ladder.csv"
    env = run.child_env()
    child = run.spawn([sys.executable, str(BENCH / "tracer.py"), "cli",
                       str(report), "--", "check", "--suite", "ladder",
                       "--out", str(out)], env, tmp_path / "child")
    assert child.code == 0
    data = json.loads(report.read_text())
    assert data["missing_targets"] == []
    assert data["facts"]["blas_threads_seen"] in (1, None)
    layers = tracer.summarize(data["spans"])
    assert layers["checks.run_suite"]["calls"] == 1
    assert layers["dynamics.ladder_step"]["calls"] == 31
    assert layers["cli.render"]["calls"] == 1


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_reference_job_prints_its_checksum(workload, tmp_path):
    kind = WORKLOADS[workload].reference
    child = run.spawn([sys.executable, str(BENCH / "reference.py"), kind],
                      run.child_env(), tmp_path / "reference")
    assert child.code == 0
    text = (tmp_path / "reference.stdout").read_text().strip()
    assert text == reference.CHECKSUMS[kind]
