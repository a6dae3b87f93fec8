"""Numerical laboratory for conjugate time/energy operator pairs.

Builds discretized conjugate pairs on a (system (x) time) product space,
solves the associated constraint equations, and simulates evolution and
energy-jump sequences.  Importing the package imports no submodule, and
so not numpy, which lets the command-line entry point pin threading
before numpy comes in.
"""

__version__ = "0.1.0"
