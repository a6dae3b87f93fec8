"""Command-line entry point.

`python -m chronos` and the `chronos` console script both run `main`.
It pins every BLAS threading knob to one thread before numpy is first
imported, so command output is byte-identical regardless of the host's
thread settings.  Library users importing the package directly are not
affected; the pinning only happens when numpy is not yet loaded.
"""
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
    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
