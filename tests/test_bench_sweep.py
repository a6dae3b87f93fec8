"""The benchmark tracer's size sweep runs against the package as it is.

The sweep imports `models.hamiltonian`, `first_constraint_operator` and
`physical_subspace` by name; a renamed one would only show as a failed
sweep in a benchmark run, so it is run here in a child process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import chronos

REPO = Path(__file__).resolve().parents[1]


def test_tracer_sweep_exits_zero_with_a_basis_at_every_size(tmp_path):
    root = str(Path(chronos.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=root if not inherited
               else os.pathsep.join([root, inherited]))
    out = tmp_path / "sweep.json"
    child = subprocess.run(
        [sys.executable, str(REPO / "bench" / "tracer.py"), "sweep",
         str(out)], capture_output=True, text=True, env=env)
    assert child.returncode == 0, child.stderr
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["exit"] == 0
    sweep = report["sweep"]
    assert len(sweep) == 4
    assert all(size["count"] > 0 for size in sweep.values())
