"""chronos benchmark: end-to-end and per-layer timings of the CLI workloads.

    python3 bench/run.py --workload run-long --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout that holds `src/chronos`.  One client
drives a closed loop: it starts one child at a time and the next only after
the last has ended.  Children run `python -m chronos ...` with
PYTHONPATH=src, so each pays interpreter start-up and the entry point's
one-thread BLAS pin like a user does.

--trace 0  The workload is invoked again and again for --seconds (at
           least once; no invocation is started that is expected to end
           later).  Each invocation's wall time, CPU time and peak RSS come
           from os.wait4 on that child alone, and every output is checked
           (workloads.py).  Set-up time is the wall time of `chronos
           <subcommand> --help`, run twice before each invocation and after
           the last.  Medians are reported.  Before each of those pairs the
           workload's fixed reference job (reference.py, no chronos code)
           runs too.
           wall_s, cpu_s and setup_s read as seconds on a machine where the
           reference job takes REFERENCE_S: each invocation is scaled by
           REFERENCE_S over the mean of the reference runs just before and
           after it, and the set-up median by REFERENCE_S over the median
           reference run.  A shared host drifts in speed by 10-25% over
           minutes; the scaling cancels that drift, which no median over
           one run can.  The unscaled medians and the speed factor are on
           the facts line and in the report.
--trace 1  One untraced invocation, the same commands again in traced
           children (tracer.py), and the kernel-solve size sweep.  Reports
           per-function calls, inclusive and self time, and the tracing
           overhead.

The last stdout line is the JSON result; the line before it carries the
sample counts and run facts, and bench/out/ keeps a full report per run.
Claims are made on --seed 1 and confirmed on CONFIRM_SEED.  Limits: the
numbers come from a shared VM; the benchmark drops no cache and changes
no governor, pinning or other machine setting.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import reference
import tracer
from workloads import WORKLOADS, outcome

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

CONFIRM_SEED = 7919
SETUP_PER_SLOT = 2  # --help runs before each invocation and after the last
# times are scaled to a machine on which reference.py takes this long
REFERENCE_S = 1.0
CHILD_TIMEOUT_S = 170.0

END_TO_END = (
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
    ("ok_ratio", "ratio", "higher"),
)


def per_layer_specs():
    """(name, unit, better) of every metric a traced run reports."""
    specs = []
    for fn in tracer.METRIC_NAMES:
        specs += [(fn + ".calls", "count", "lower"),
                  (fn + ".s", "s", "lower"),
                  (fn + ".self_s", "s", "lower")]
    specs += [
        ("linalg.near_null_space.max_dim", "dim", "lower"),
        ("linalg.near_null_space.bytes", "B", "lower"),
        ("linalg.eig_hermitian.max_dim", "dim", "lower"),
        ("constraints.basis_count", "count", "higher"),
        ("dynamics.per_step_s", "s", "lower"),
        ("cli.import_s", "s", "lower"),
    ]
    specs += [("constraints.physical_subspace.d%d.s" % d, "s", "lower")
              for d in tracer.SWEEP]
    specs += [("trace.traced_wall_s", "s", "lower"),
              ("trace.untraced_wall_s", "s", "lower"),
              ("trace.overhead_s", "s", "lower")]
    return specs


class Child:
    """One finished child: exit code, wall seconds, CPU seconds, peak MB."""

    def __init__(self, code, wall, cpu, rss_mb):
        self.code, self.wall, self.cpu, self.rss_mb = code, wall, cpu, rss_mb


def _kill(proc):
    if proc.returncode is None:
        try:
            os.kill(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def spawn(argv, env, stem):
    """Run argv to completion; resource use is this child's own (wait4)."""
    with open(stem.with_suffix(".stdout"), "wb") as out, \
            open(stem.with_suffix(".stderr"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, _kill, (proc,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill(proc)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def chronos_argv(args):
    return [sys.executable, "-m", "chronos"] + list(args)


def _plain_argv(index, args):
    return chronos_argv(args)


def invoke(workload, inputs, env, workdir, argv_for=_plain_argv):
    """All commands of one invocation; returns (children, failure or None)."""
    children = []
    for i, args in enumerate(inputs.commands):
        inputs.outputs[i].unlink(missing_ok=True)
        children.append(spawn(argv_for(i, args), env,
                              workdir / ("cmd%d" % i)))
    return children, outcome(workload, inputs, [c.code for c in children])


def measure(workload, inputs, env, workdir, seconds):
    help_argv = chronos_argv([workload.subcommand, "--help"])
    help_stem = workdir / "help"
    ref_argv = [sys.executable, str(BENCH / "reference.py"),
                workload.reference]
    ref_stem = workdir / "reference"
    spawn(ref_argv, env, ref_stem)  # warm-up: byte-compile, fill caches
    spawn(help_argv, env, help_stem)
    refs, setup, failures, samples = [], [], [], []

    def between():
        child = spawn(ref_argv, env, ref_stem)
        refs.append(child.wall)
        text = ref_stem.with_suffix(".stdout").read_text(
            encoding="utf-8", errors="replace").strip()
        if child.code != 0 or text != reference.CHECKSUMS[
                workload.reference]:
            failures.append("reference exit %d: %r" % (child.code, text))
        for _ in range(SETUP_PER_SLOT):
            child = spawn(help_argv, env, help_stem)
            setup.append(child.wall)
            text = help_stem.with_suffix(".stdout").read_text(
                encoding="utf-8", errors="replace")
            if child.code != 0 or not text.startswith("usage:"):
                failures.append("--help exit %d" % child.code)

    start = time.perf_counter()
    # start another invocation only while it is expected to end in time;
    # the reference job and set-up runs sit between invocations so that
    # all three see the same machine load
    while not samples or (time.perf_counter() - start) * (
            len(samples) + 1) / len(samples) <= seconds:
        between()
        children, failure = invoke(workload, inputs, env, workdir)
        if failure:
            failures.append(failure)
        samples.append({"wall": sum(c.wall for c in children),
                        "cpu": sum(c.cpu for c in children),
                        "rss_mb": max(c.rss_mb for c in children)})
    between()
    attempted = len(samples) + len(setup) + len(refs)
    median = statistics.median
    # each invocation is scaled by the reference runs just before and
    # after it, the set-up median by the median reference run
    scales = [2.0 * REFERENCE_S / (before + after)
              for before, after in zip(refs, refs[1:])]
    speed = REFERENCE_S / median(refs)
    metrics = {
        "wall_s": median(s["wall"] * k for s, k in zip(samples, scales)),
        "cpu_s": median(s["cpu"] * k for s, k in zip(samples, scales)),
        "peak_rss_mb": median(s["rss_mb"] for s in samples),
        "setup_s": median(setup) * speed,
        "ok_ratio": 1.0 - len(failures) / attempted,
    }
    detail = {"samples": len(samples), "setup_samples": len(setup),
              "reference_samples": len(refs),
              "reference_wall_s": median(refs), "speed_factor": speed,
              "unscaled_wall_s": median(s["wall"] for s in samples),
              "unscaled_cpu_s": median(s["cpu"] for s in samples),
              "unscaled_setup_s": median(setup),
              "invocations": samples, "setup_walls": setup,
              "reference_walls": refs}
    return metrics, attempted, failures, detail


def _merge(total, part):
    for name, entry in part.items():
        into = total.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                       "infos": []})
        for key in ("calls", "s", "self_s"):
            into[key] += entry[key]
        into["infos"] += entry["infos"]


def trace_run(workload, inputs, env, workdir):
    failures = []
    plain, failure = invoke(workload, inputs, env, workdir)
    if failure:
        failures.append(failure)
    reports = [workdir / ("trace%d.json" % i)
               for i in range(len(inputs.commands))]

    def tracer_argv(i, args):
        return [sys.executable, str(BENCH / "tracer.py"), "cli",
                str(reports[i]), "--"] + list(args)

    for path in reports:
        path.unlink(missing_ok=True)
    traced, failure = invoke(workload, inputs, env, workdir, tracer_argv)
    if failure:
        failures.append(failure)
    sweep_path = workdir / "sweep.json"
    sweep_path.unlink(missing_ok=True)
    sweep_child = spawn([sys.executable, str(BENCH / "tracer.py"), "sweep",
                         str(sweep_path)], env, workdir / "sweep")
    if sweep_child.code != 0:
        failures.append("sweep exit %d" % sweep_child.code)

    layers, imports, missing, stack = {}, [], set(), {}
    for path in reports:
        if not path.exists():
            continue
        report = json.loads(path.read_text(encoding="utf-8"))
        _merge(layers, tracer.summarize(report["spans"]))
        imports.append(report["import_s"])
        missing.update(report["missing_targets"])
        stack = report["facts"]
    sweep = {}
    if sweep_path.exists():
        sweep = json.loads(sweep_path.read_text(encoding="utf-8"))["sweep"]

    metrics = {}
    for fn in tracer.METRIC_NAMES:
        entry = layers.get(fn, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                "infos": []})
        metrics[fn + ".calls"] = entry["calls"]
        metrics[fn + ".s"] = entry["s"]
        metrics[fn + ".self_s"] = entry["self_s"]

    def infos(fn):
        return layers.get(fn, {"infos": []})["infos"]

    svd_dims = infos("linalg.near_null_space")
    steps = inputs.expect.get("steps", 0)
    traced_wall = sum(c.wall for c in traced)
    plain_wall = sum(c.wall for c in plain)
    metrics.update({
        "linalg.near_null_space.max_dim": max(svd_dims, default=0),
        "linalg.near_null_space.bytes": sum(16 * d * d for d in svd_dims),
        "linalg.eig_hermitian.max_dim": max(infos("linalg.eig_hermitian"),
                                            default=0),
        "constraints.basis_count": sum(infos("constraints.physical_subspace")),
        "dynamics.per_step_s": (metrics["dynamics.run_scenario.s"] / steps
                                if steps else 0.0),
        "cli.import_s": statistics.median(imports) if imports else 0.0,
        "trace.traced_wall_s": traced_wall,
        "trace.untraced_wall_s": plain_wall,
        "trace.overhead_s": traced_wall - plain_wall,
    })
    for dim in tracer.SWEEP:
        metrics["constraints.physical_subspace.d%d.s" % dim] = \
            sweep.get(str(dim), {}).get("s", 0.0)
    attempted = 3  # the untraced and traced invocations and the sweep
    detail = {"missing_targets": sorted(missing), "sweep": sweep,
              "stack": stack}
    return metrics, attempted, failures, detail


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.exists():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _l3_size():
    try:
        return Path("/sys/devices/system/cpu/cpu0/cache/index3/size") \
            .read_text().strip()
    except OSError:
        return "unknown"


def run_facts(seed, env, workdir):
    facts_path = workdir / "facts.json"
    spawn([sys.executable, str(BENCH / "tracer.py"), "facts",
           str(facts_path)], env, workdir / "facts")
    stack = {}
    if facts_path.exists():
        stack = json.loads(facts_path.read_text(encoding="utf-8"))["facts"]
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {"nproc": os.cpu_count(), "cpu": _cpu_model(), "l3": _l3_size(),
            "python": platform.python_version(), **stack,
            "commit": _git_commit(), "seed": seed,
            "confirm_seed": CONFIRM_SEED, "src_lines": src_lines,
            "limits": "shared VM; no cache dropped, no governor, pinning or "
                      "other machine setting changed"}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "chronos" / "__main__.py").is_file():
        print("error: no chronos sources under %s" % SRC, file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    workdir = OUT / ("%s-seed%d-trace%d" % (workload.name, args.seed,
                                            args.trace))
    workdir.mkdir(parents=True, exist_ok=True)
    env = child_env()
    facts = run_facts(args.seed, env, workdir)
    inputs = workload.build(args.seed, workdir)
    if args.trace:
        metrics, attempted, failures, detail = trace_run(
            workload, inputs, env, workdir)
        specs = per_layer_specs()
    else:
        metrics, attempted, failures, detail = measure(
            workload, inputs, env, workdir, args.seconds)
        specs = END_TO_END
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures),
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit, _ in specs}}
    report = {"workload": workload.name, "facts": facts, "detail": detail,
              "failures": failures, "result": result}
    (workdir / "report.json").write_text(json.dumps(report, indent=1),
                                         encoding="utf-8")
    summary = {k: v for k, v in detail.items() if not isinstance(v, list)}
    print(json.dumps({"facts": facts, "detail": summary,
                      "failures": failures[:5]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
