"""Command-line entry point.

`python -m chronos` and the `chronos` console script both run `main`.
It pins every BLAS threading knob to one thread before numpy is first
imported, so output is byte-identical whatever the host's thread
settings.  A command's objects die with its process, so it turns the
garbage collector off (a child's import-time collections cost ~11 ms)
and, once `cli.main` returns a code, flushes stdout and stderr and ends
with `os._exit`, skipping the interpreter's teardown (4-6 ms).  An
exception escaping `cli.main` exits normally with its traceback.
Library callers of `chronos.cli.main` get none of this, and the pin
needs numpy not yet loaded.
"""
import contextlib
import gc
import os
import sys

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def main(argv=None):
    if "numpy" not in sys.modules:
        for name in _THREAD_VARS:
            os.environ[name] = "1"
    gc.disable()
    from .cli import main as cli_main
    code = cli_main(argv)
    for stream in (sys.stdout, sys.stderr):
        with contextlib.suppress(OSError):
            stream.flush()
    os._exit(code)


if __name__ == "__main__":
    sys.exit(main())
