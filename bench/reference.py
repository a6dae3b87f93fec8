"""Fixed reference jobs that measure how fast the machine is right now.

    python bench/reference.py KIND

They import nothing from chronos: each pins BLAS to one thread the way the
`chronos` entry point does, imports numpy and runs, at a smaller size, the
numerical kernel a workload spends its time in (see `Workload.reference`
in workloads.py).  Inputs come from a fixed seed, so every run of a kind
does the same work.  run.py starts the job between workload invocations
and scales their times by its wall time, which cancels the drift in speed
that a shared host shows over minutes; a change to chronos does not change
these jobs.  A kernel that sits in cache and one that streams memory slow
down by different amounts under the same load, hence one kind per kernel.
Each job prints one line, which the caller compares with CHECKSUMS[KIND].
"""
import os
import sys

from tracer import THREAD_VARS


def _hermitian(np, rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a + a.conj().T


def _unitary(np, u):
    return int(np.abs(u @ u.conj().T - np.eye(len(u))).max() < 1e-9)


def small_eigh(np, rng):
    """Many small eigensolves with spectral exponentials (run-long)."""
    h = _hermitian(np, rng, 128)
    count = 0
    for i in range(160):
        w, u = np.linalg.eigh(h)
        count += _unitary(np, (u * np.exp(-1j * w * (0.05 + 0.003 * i)))
                          @ u.conj().T)
    return count + sum(k % 7 == 0 for k in range(200000))


def dense_svd(np, rng):
    """One full complex SVD of a dense matrix (subspace-dense)."""
    u, s, _ = np.linalg.svd(_hermitian(np, rng, 800))
    return _unitary(np, u) + len(s)


def dense_eigh(np, rng):
    """One complex Hermitian eigensolve with vectors (spectrum-large)."""
    w, u = np.linalg.eigh(_hermitian(np, rng, 800))
    return _unitary(np, u) + len(w)


def mixed(np, rng):
    """Mid-size SVD and eigensolve, small eigensolves, elementwise passes
    and a Python loop (check-suites, which runs all of these)."""
    count = len(np.linalg.svd(_hermitian(np, rng, 512), compute_uv=False))
    sym = rng.standard_normal((800, 800))
    count += len(np.linalg.eigvalsh(sym + sym.T))
    h = _hermitian(np, rng, 128)
    for _ in range(80):
        count += _unitary(np, np.linalg.eigh(h)[1])
    v = rng.standard_normal(1 << 21)
    for _ in range(6):
        v = np.sqrt(v * v + 1.0)
    return count + int(np.all(v >= 1.0)) + sum(
        k % 7 == 0 for k in range(200000))


KINDS = {f.__name__.replace("_", "-"): f
         for f in (small_eigh, dense_svd, dense_eigh, mixed)}
# 28572 multiples of 7 below 200000; one per unitary check that holds;
# one per singular value or eigenvalue; one for the elementwise bound
CHECKSUMS = {"small-eigh": "reference small-eigh 28732",
             "dense-svd": "reference dense-svd 801",
             "dense-eigh": "reference dense-eigh 801",
             "mixed": "reference mixed 29965"}


def main(argv):
    kind = argv[1]
    for name in THREAD_VARS:
        os.environ[name] = "1"
    import numpy as np
    print("reference %s %d"
          % (kind, KINDS[kind](np, np.random.default_rng(20170117))))


if __name__ == "__main__":
    sys.exit(main(sys.argv))
