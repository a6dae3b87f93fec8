"""Command-line entry point.

`python -m chronos` and the `chronos` console script both run `main`.
It pins every BLAS threading knob to one thread before numpy is first
imported, so output is byte-identical whatever the host's thread
settings, and freezes the heap on the way out, so that the interpreter's
exit-time garbage collections walk no object (10-13 ms of a child).
Library callers of `chronos.cli.main` get neither: the collector is left
alone, and the pin needs numpy not yet loaded.
"""
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
    from .cli import main as cli_main
    try:
        return cli_main(argv)
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
