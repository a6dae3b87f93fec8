"""Traced child process and span summaries.

Run as a script, this pins BLAS to one thread the way the `chronos` entry
point does, imports the package, rebinds every traced function in each
chronos module that imported it, and then either calls `chronos.cli.main`
(mode `cli`), times the kernel-solve size sweep (mode `sweep`) or only
reports the numerical stack (mode `facts`).  Spans stay in memory as
(name, start, end, parent, info) and are written as JSON when the child
ends, so nothing is written while the traced work runs.

    python bench/tracer.py cli OUT.json -- run --config scenario.json
    python bench/tracer.py sweep OUT.json
    python bench/tracer.py facts OUT.json

`summarize` turns the spans of one process into per-function calls,
inclusive time and self time; the parent process imports it.
"""
from __future__ import annotations

import functools
import glob
import json
import os
import sys
import time
from importlib import import_module

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

def _dim(args, result):
    op = args[0]
    matrix = getattr(op, "matrix", op)
    return int(len(matrix))


def _count(args, result):
    return getattr(result, "count", None)


# (metric name, module, attribute, info taken from the call).  Constructors
# reached through several public names share one metric, so that a
# Hamiltonian built twice shows as two calls whichever route built it.
TARGETS = (
    ("linalg.near_null_space", "linalg", "near_null_space", _dim),
    ("linalg.eig_hermitian", "linalg", "eig_hermitian", _dim),
    ("linalg.unitary_exp", "linalg", "unitary_exp", None),
    ("linalg.operator", "linalg", "operator", None),
    ("linalg.kron", "linalg", "kron", None),
    ("axes.energy_operator", "axes", "energy_operator", None),
    ("axes.momentum_operator", "axes", "momentum_operator", None),
    ("models.hamiltonian", "models", "harmonic_hamiltonian", None),
    ("models.hamiltonian", "models", "free_particle_hamiltonian", None),
    ("models.clock_operator", "models", "oscillator_clock_operator", None),
    ("models.clock_operator", "models", "free_particle_clock_operator", None),
    ("models.energy_eigensystem", "models", "energy_eigensystem", None),
    ("constraints.physical_subspace", "constraints", "physical_subspace",
     _count),
    ("constraints.composite", "constraints", "ConstraintOperator.composite",
     None),
    ("constraints.residual", "constraints", "ConstraintOperator.residual",
     None),
    ("dynamics.run_scenario", "dynamics", "run_scenario", None),
    ("dynamics.time_translation", "dynamics", "time_translation", None),
    ("dynamics.energy_jump", "dynamics", "energy_jump", None),
    ("dynamics.ladder_step", "dynamics", "ladder_step_up", None),
    ("dynamics.ladder_step", "dynamics", "ladder_step_down", None),
    ("scenario.parse_scenario", "scenario", "parse_scenario", None),
    ("checks.run_suite", "checks", "run_suite", None),
    ("cli.render", "cli", "ResultTable.render", None),
)

METRIC_NAMES = tuple(dict.fromkeys(t[0] for t in TARGETS))

# composite dimension -> (n_q, n_t); 8192 is past the materialization cap
SWEEP = {512: (32, 16), 1024: (32, 32), 2048: (64, 32), 8192: (128, 64)}


class Recorder:
    """In-memory span list; the open spans form a stack (one thread)."""

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, name, fn, info=None):
        spans, stack = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if info is not None:
                span[4] = info(args, result)
            return result
        return traced


def _chronos_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "chronos" or n.startswith("chronos."))]


def instrument(recorder):
    """Wrap every target that exists; returns the targets that do not."""
    missing = []
    for name, module_name, attr, info in TARGETS:
        where = module_name + "." + attr
        try:
            module = import_module("chronos." + module_name)
        except ModuleNotFoundError:
            missing.append(where)
            continue
        owner_name, _, member = attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            raw = vars(owner).get(member) if owner is not None else None
            if isinstance(raw, functools.cached_property):
                raw.func = recorder.wrap(name, raw.func, info)
            elif callable(raw):
                setattr(owner, member, recorder.wrap(name, raw, info))
            else:
                missing.append(where)
            continue
        original = getattr(module, member, None)
        if not callable(original):
            missing.append(where)
            continue
        wrapped = recorder.wrap(name, original, info)
        for mod in _chronos_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
    return missing


def summarize(spans):
    """Per-name calls, inclusive s, self s and the list of infos.

    Self time is a span's duration less its direct children's.  Inclusive
    time counts only spans with no ancestor of the same name, so a
    function reached inside itself is not counted twice.
    """
    out = {}
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for index, (name, start, end, parent, info) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                      "infos": []})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_time[index]
        if info is not None:
            entry["infos"].append(info)
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            entry["s"] += end - start
    return out


def _blas_threads(np):
    # ask the OpenBLAS that numpy loaded, when its library can be found
    import ctypes
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def stack_facts():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": "%s %s" % (blas.get("name"), blas.get("version")),
            "blas_threads_seen": _blas_threads(np),
            "thread_env_seen": {v: os.environ.get(v) for v in THREAD_VARS}}


def _sweep():
    from chronos.axes import PhysicalConstants, energy_aligned_grids
    from chronos.constraints import first_constraint_operator, \
        physical_subspace
    from chronos.models import OSCILLATOR, ModelSpec, hamiltonian
    k = PhysicalConstants()
    out = {}
    for dim, (n_q, n_t) in SWEEP.items():
        qg, tg = energy_aligned_grids(k, n_q=n_q, n_t=n_t)
        op = first_constraint_operator(
            hamiltonian(ModelSpec(OSCILLATOR, k, qg)), tg, k)
        start = time.perf_counter()
        basis = physical_subspace(op)
        out[dim] = {"s": time.perf_counter() - start, "count": basis.count}
    return out


def main(argv):
    mode, out_path, rest = argv[0], argv[1], argv[2:]
    for name in THREAD_VARS:
        os.environ[name] = "1"
    start = time.perf_counter()
    cli = import_module("chronos.cli")
    report = {"import_s": time.perf_counter() - start}
    code = 0
    if mode == "cli":
        recorder = Recorder()
        report["missing_targets"] = instrument(recorder)
        code = cli.main(rest[1:] if rest[:1] == ["--"] else rest)
        report["spans"] = recorder.spans
    elif mode == "sweep":
        report["sweep"] = _sweep()
    report["facts"] = stack_facts()
    report["exit"] = code
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
