"""Concrete system models: harmonic oscillator and free particle.

A model couples a position grid with physical constants and provides two
operators on the system space: the energy operator (Hamiltonian) and the
clock operator, a rescaled positive operator whose eigenvalues are the
internal time readings paired with the energy levels.  A model keeps its
Hamiltonian, and the Hamiltonian its eigensystem, once either is built.
The Hamiltonian is kept in closed form, a circulant's first column plus
the potential, and forms its n x n matrix only when it is read; its
values alone, all `spectrum` reads, never form it.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .axes import POSITION, AxisGrid, PhysicalConstants, positive_finite
from .exceptions import WrongAxisError, WrongKindError
from .linalg import CirculantPlusDiagonal, operator

OSCILLATOR = "oscillator"
FREE_PARTICLE = "free_particle"
KINDS = (OSCILLATOR, FREE_PARTICLE)

DEFAULT_RETAINED_LEVELS = 16


@dataclass(frozen=True)
class ModelSpec:
    kind: str
    constants: PhysicalConstants
    grid: AxisGrid

    def __post_init__(self):
        if self.kind not in KINDS:
            raise WrongKindError("unknown model kind %r" % (self.kind,))
        if self.grid.label != POSITION:
            raise WrongAxisError("model grid must be position-labeled")
        # the Hamiltonian's transform sums n kinetic symbols, the clock
        # operator scales energies and a run's residual squares them, so
        # each of these must stay in the float range
        n, hbar_w = self.grid.n, self.constants.hbar * self.grid.top_frequency
        for name, scale in (
                ("n (hbar w)^2", lambda: n * hbar_w ** 2),
                ("energy bound squared", lambda: self.energy_bound ** 2),
                ("clock bound", lambda: clock_scale(self) * self.energy_bound)):
            if not positive_finite(scale):
                raise ValueError("%s is not positive and finite for the %s "
                                 "on this grid" % (name, self.kind))

    @property
    def energy_bound(self):
        """A bound on |E|: the largest kinetic plus potential entry."""
        k = self.constants
        omega = k.omega if self.kind == OSCILLATOR else 0.0
        return ((k.hbar * self.grid.top_frequency) ** 2 / (2.0 * k.mass)
                + 0.5 * k.mass * omega ** 2 * self.grid.reach ** 2)

    @cached_property
    def hamiltonian(self):
        """The Hamiltonian, built on first request; see hamiltonian()."""
        return _hamiltonian(self)


def _require_kind(model, kind, what):
    if model.kind != kind:
        raise WrongKindError("%s is defined for the %s model, got %r"
                             % (what, kind, model.kind))


def _hamiltonian(model):
    # p^2/(2m) + m*omega^2*q^2/2, the one builder behind both models: the
    # free particle's omega is 0
    k = model.constants
    omega = k.omega if model.kind == OSCILLATOR else 0.0
    n = model.grid.n
    # p^2 = Phi diag((hbar w)^2) Phi^H is a circulant: entry (j, l) depends
    # only on (j - l) mod n.  Its symbol is even in w (the unpaired Nyquist
    # frequency -n/2 maps to itself), so the circulant is real, and its
    # first column is irfft of the symbol's k = 0..n/2 half, with no complex
    # n^3 product p @ p.  Symmetrizing the column, c_d <- (c_d + c_-d)/2,
    # gives every entry the bits (C + C^T)/2 of the circulant C would have.
    # The Hamiltonian keeps that column and the potential on the diagonal
    w = 2.0 * np.pi * np.arange(n // 2 + 1) / model.grid.period
    column = np.fft.irfft((k.hbar * w) ** 2, n) / (2.0 * k.mass)
    column = 0.5 * (column + column[-np.arange(n) % n])
    # real and exactly symmetric by construction; eig_hermitian still
    # measures the defect of whatever it is handed.  On a grid with origin
    # -L/2 whose samples mirror exactly, x_{n-j} == -x_j, it also commutes
    # exactly with the reflection j -> (n - j) mod n, and eig_hermitian
    # solves it as two half-size blocks from the closed form, with no
    # n x n matrix; the matrix is formed only when it is read
    return CirculantPlusDiagonal(
        column, 0.5 * k.mass * omega ** 2 * model.grid.samples ** 2)


def harmonic_hamiltonian(model):
    """p^2/(2m) + m*omega^2*q^2/2 on the model's position grid."""
    _require_kind(model, OSCILLATOR, "harmonic hamiltonian")
    return model.hamiltonian


def free_particle_hamiltonian(model):
    """p^2/(2m) on the model's position grid."""
    _require_kind(model, FREE_PARTICLE, "free-particle hamiltonian")
    return model.hamiltonian


def hamiltonian(model):
    """The model's Hamiltonian, through the builder of its kind."""
    if model.kind == OSCILLATOR:
        return harmonic_hamiltonian(model)
    return free_particle_hamiltonian(model)


def clock_scale(model):
    """s with clock_operator(model) = s * hamiltonian(model), so clock = s * E.

    hbar/(m^2 c^4) for the oscillator; 2*hbar/(m^2 c^4) for the free
    particle, since hbar*p^2/(m^3 c^4) = 2*hbar/(m^2 c^4) * p^2/(2m).
    """
    k = model.constants
    scale = k.hbar / (k.mass ** 2 * k.c ** 4)
    return scale if model.kind == OSCILLATOR else 2.0 * scale


def oscillator_clock_operator(model):
    """Internal time operator of the oscillator: hbar/(m^2 c^4) times its energy.

    Spectrum hbar^2*omega/(m^2 c^4) * (n + 1/2), one reading per level.
    """
    _require_kind(model, OSCILLATOR, "oscillator clock operator")
    return clock_operator(model)


def free_particle_clock_operator(model):
    """Internal time operator of the free particle: hbar/(m^3 c^4) * p^2."""
    _require_kind(model, FREE_PARTICLE, "free-particle clock operator")
    return clock_operator(model)


def clock_operator(model):
    """Internal time operator of either model: clock_scale times its energy."""
    return operator(clock_scale(model) * hamiltonian(model).matrix,
                    hermitian=True)


def predicted_time_level(n, constants):
    """Closed-form oscillator clock reading for level n: quantum * (n + 1/2)."""
    if n < 0:
        raise ValueError("level must be nonnegative, got %d" % n)
    return constants.time_quantum * (n + 0.5)


def free_particle_time_level(energy, constants):
    """Closed-form free-particle clock reading at energy E: 2*hbar*E/(m^2 c^4).

    Follows from t = hbar*p^2/(m^3 c^4) with p^2 = 2 m E.
    """
    if energy < 0.0:
        raise ValueError("free-particle energy must be nonnegative")
    return 2.0 * constants.hbar * energy \
        / (constants.mass ** 2 * constants.c ** 4)


def energy_eigensystem(model):
    """Lowest DEFAULT_RETAINED_LEVELS eigenpairs of the model hamiltonian."""
    es = hamiltonian(model).eigensystem
    return es.truncated(min(DEFAULT_RETAINED_LEVELS, es.count))


def ladder_operators(es):
    """Lowering and raising operators on a truncated eigenbasis.

    es holds the retained eigenpairs (columns in the grid basis).  The
    returned grid-basis matrices act as sqrt(n) steps between consecutive
    retained levels and annihilate everything outside the retained span,
    so the step amplitudes are exact by construction.
    """
    k = es.count
    if k < 2:
        raise WrongKindError("need at least two retained levels, got %d" % k)
    steps = np.sqrt(np.arange(1.0, k))
    v = es.vectors
    lower = v @ np.diag(steps, 1) @ v.conj().T
    return operator(lower), operator(lower.conj().T)
