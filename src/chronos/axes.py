"""Uniform periodic sample grids and the conjugate operator pairs on them.

Each one-dimensional variable (particle position, laboratory time) lives
on an evenly spaced periodic grid.  The variable itself becomes a diagonal
sample operator; its conjugate is built through the unitary discrete
Fourier map as frequency times a constant, so conjugate eigenpairs on the
induced frequency lattice are exact up to rounding.  Each operator keeps
its pair, ascending: the samples and identity, or the symbol and map.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import (
    ConvergenceError,
    DimensionMismatchError,
    OutOfBandError,
    WrongAxisError,
)
from .linalg import ORTHONORMAL_ATOL, identity, kron, operator, unitary_defect

POSITION = "position"
TIME = "time"

NORM_ATOL = 1e-10


def positive_finite(scale):
    """Whether scale() is positive and finite.

    scale computes in Python floats, where an overflow gives inf or raises
    and an underflow gives 0, so either one fails.
    """
    try:
        value = scale()
    except (OverflowError, ZeroDivisionError):
        return False
    return bool(np.isfinite(value) and value > 0.0)


def _top_frequency(n, spacing):
    # the largest |2 pi k / (n spacing)|, at k = -n/2
    return 2.0 * np.pi * (n // 2) / (n * spacing)


def _reach(n, origin, spacing):
    # the largest |origin + j spacing|, at one end
    return max(abs(origin), abs(origin + spacing * (n - 1)))


def grid_overflow(n, origin, spacing):
    """(parameter, scale) for the first scale of a grid that leaves the
    float range, or None when every one stays in it.

    The spacing sets the period and the top |frequency|; the origin also
    sets the largest |sample| and the largest Fourier phase, |sample| times
    |frequency|.  Each is taken with the operations the grid's arrays use.
    """
    for parameter, name, scale in (
            ("spacing", "period", lambda: n * spacing),
            ("spacing", "top frequency", lambda: _top_frequency(n, spacing)),
            ("origin", "largest sample", lambda: _reach(n, origin, spacing)),
            ("origin", "largest Fourier phase",
             lambda: _reach(n, origin, spacing) * _top_frequency(n, spacing))):
        if not positive_finite(scale):
            return parameter, name
    return None


@dataclass(frozen=True)
class PhysicalConstants:
    """Problem constants; every one, and every scale derived from them,
    strictly positive and finite."""

    hbar: float = 1.0
    mass: float = 1.0
    c: float = 1.0
    omega: float = 1.0

    def __post_init__(self):
        for name in ("hbar", "mass", "c", "omega"):
            value = float(getattr(self, name))
            if not np.isfinite(value) or value <= 0.0:
                raise ValueError("%s must be positive and finite, got %r"
                                 % (name, value))
            object.__setattr__(self, name, value)
        # positive finite constants can still over- or underflow a scale
        # that the models multiply or divide by
        def rest():
            return self.mass ** 2 * self.c ** 4

        for name, scale in (
                ("m^2 c^4", rest),
                ("hbar/(m^2 c^4)", lambda: self.hbar / rest()),
                ("time_quantum", lambda: self.time_quantum),
                ("oscillator_length", lambda: self.oscillator_length)):
            if not positive_finite(scale):
                raise ValueError("%s is not positive and finite for these "
                                 "constants" % name)

    @property
    def oscillator_length(self):
        return float(np.sqrt(self.hbar / (self.mass * self.omega)))

    @property
    def time_quantum(self):
        """hbar^2*omega/(m^2 c^4), the oscillator's clock-level spacing."""
        return self.hbar ** 2 * self.omega / (self.mass ** 2 * self.c ** 4)


@dataclass(frozen=True)
class AxisGrid:
    """n evenly spaced samples origin + j*spacing, periodic with L = n*spacing."""

    n: int
    origin: float
    spacing: float
    label: str

    def __post_init__(self):
        if self.label not in (POSITION, TIME):
            raise WrongAxisError("unknown axis label %r" % (self.label,))
        if self.n < 2 or self.n % 2 != 0:
            raise ValueError("grid size must be even and >= 2, got %d" % self.n)
        if not (np.isfinite(self.spacing) and self.spacing > 0.0):
            raise ValueError("grid spacing must be positive, got %r"
                             % (self.spacing,))
        if not np.isfinite(self.origin):
            raise ValueError("grid origin must be finite")
        object.__setattr__(self, "origin", float(self.origin))
        object.__setattr__(self, "spacing", float(self.spacing))
        fault = grid_overflow(self.n, self.origin, self.spacing)
        if fault is not None:
            raise ValueError("grid %s %r puts its %s out of the float range"
                             % (fault[0], getattr(self, fault[0]), fault[1]))

    @property
    def period(self):
        return self.n * self.spacing

    @property
    def top_frequency(self):
        """Largest |frequency|, with no array formed."""
        return _top_frequency(self.n, self.spacing)

    @property
    def reach(self):
        """Largest |sample|, with no array formed."""
        return _reach(self.n, self.origin, self.spacing)

    @cached_property
    def samples(self):
        out = self.origin + self.spacing * np.arange(self.n, dtype=np.float64)
        out.setflags(write=False)
        return out

    @cached_property
    def frequencies(self):
        """2*pi*k/L for k = -n/2 .. n/2 - 1, ascending."""
        k = np.arange(-self.n // 2, self.n // 2, dtype=np.float64)
        out = 2.0 * np.pi * k / self.period
        out.setflags(write=False)
        return out

    @cached_property
    def fourier_map(self):
        """Unitary matrix whose column for frequency w samples e^{i w x}/sqrt(n).

        Its phases lose digits as the origin grows, so it is certified when
        first built: a unitary defect above ORTHONORMAL_ATOL, the bound on
        every solved basis, raises ConvergenceError.
        """
        phase = np.outer(self.samples, self.frequencies)
        out = np.exp(1j * phase) / np.sqrt(self.n)
        defect = unitary_defect(out)
        if not defect <= ORTHONORMAL_ATOL:
            raise ConvergenceError(
                "the %s grid's Fourier map has unitary defect %.3g, above %.0e"
                % (self.label, defect, ORTHONORMAL_ATOL))
        out.setflags(write=False)
        return out


def require_label(grid, label, what):
    if grid.label != label:
        raise WrongAxisError("%s needs a %s grid, got %r"
                             % (what, label, grid.label))


def _spectral_operator(grid, symbol):
    # Phi diag(symbol) Phi^H, symmetrized so it is exactly Hermitian; it
    # keeps the pair (symbol, Phi) it is built from, in ascending order
    phi = grid.fourier_map
    m = (phi * symbol) @ phi.conj().T
    m = 0.5 * (m + m.conj().T)
    order = np.argsort(symbol, kind="stable")
    return operator(m, hermitian=True).kept(symbol[order], phi[:, order])


def position_operator(grid):
    """Diagonal operator of the position samples."""
    require_label(grid, POSITION, "position operator")
    return operator(np.diag(grid.samples), hermitian=True).kept(
        grid.samples, np.eye(grid.n))


def momentum_operator(grid, constants):
    """Spectral derivative -i*hbar*d/dx on the position grid."""
    require_label(grid, POSITION, "momentum operator")
    return _spectral_operator(grid, constants.hbar * grid.frequencies)


def time_operator(grid):
    """Diagonal operator of the time samples."""
    require_label(grid, TIME, "time operator")
    return operator(np.diag(grid.samples), hermitian=True).kept(
        grid.samples, np.eye(grid.n))


def energy_operator(grid, constants):
    """Conjugate of the time samples: +i*hbar*d/dt on the time grid.

    Its eigenvector at lattice energy E samples e^{-i E t / hbar}, so the
    sign pairs with the time operator opposite to the position pair.
    """
    require_label(grid, TIME, "energy operator")
    return _spectral_operator(grid, -constants.hbar * grid.frequencies)


def band_edge(grid, constants):
    """Largest |E| on the time grid, max |energy_lattice|: hbar w_top."""
    require_label(grid, TIME, "band edge")
    return constants.hbar * grid.top_frequency


def energy_lattice(grid, constants):
    """Ascending array of energies exactly representable on the time grid."""
    require_label(grid, TIME, "energy lattice")
    return np.sort(-constants.hbar * grid.frequencies)


def nearest_lattice_energy(grid, energy, constants):
    """(closest representable energy, absolute miss)."""
    lattice = energy_lattice(grid, constants)
    i = int(np.argmin(np.abs(lattice - energy)))
    return float(lattice[i]), float(abs(lattice[i] - energy))


def energy_eigenvector(grid, energy, constants):
    """Normalized grid samples of e^{-i E t / hbar}.

    An exact energy-operator eigenvector only when E sits on the grid's
    frequency lattice; nearest_lattice_energy returns the miss.  Energies
    beyond the band edge (or NaN) are refused.
    """
    require_label(grid, TIME, "energy eigenvector")
    energy = float(energy)
    edge = band_edge(grid, constants)
    if not abs(energy) <= edge:
        raise OutOfBandError(
            "energy %.6g outside representable band |E| <= %.6g"
            % (energy, edge))
    v = np.exp(-1j * energy * grid.samples / constants.hbar)
    return v / np.sqrt(grid.n)


def lift_system(op, n_t):
    """Extend a system-space operator to the composite space: A (x) I."""
    return kron(op, identity(n_t))


def lift_time(op, n_q):
    """Extend a time-space operator to the composite space: I (x) B."""
    return kron(identity(n_q), op)


@dataclass(frozen=True, eq=False)
class CompositeState:
    """Vector on the (system (x) time) product space, row-major by system index."""

    amplitudes: np.ndarray
    n_q: int
    n_t: int
    normalized: bool = True

    def __post_init__(self):
        a = np.array(self.amplitudes, dtype=np.complex128, copy=True).ravel()
        if a.shape[0] != self.n_q * self.n_t:
            raise DimensionMismatchError(
                "state has %d amplitudes for a %d x %d product"
                % (a.shape[0], self.n_q, self.n_t))
        a.setflags(write=False)
        object.__setattr__(self, "amplitudes", a)
        if self.normalized and not abs(self.norm - 1.0) <= NORM_ATOL:
            raise ValueError("state norm %.12g is not 1 within %.1e"
                             % (self.norm, NORM_ATOL))

    @property
    def norm(self):
        return float(np.linalg.norm(self.amplitudes))

    @property
    def matrix(self):
        """(n_q, n_t) view; row i is the time profile of system sample i."""
        return self.amplitudes.reshape(self.n_q, self.n_t)

    def overlap(self, other):
        return complex(np.vdot(self.amplitudes, other.amplitudes))


def tensor_state(system_part, time_part):
    """Normalized product state psi (x) phi."""
    psi = np.asarray(system_part, dtype=np.complex128).ravel()
    phi = np.asarray(time_part, dtype=np.complex128).ravel()
    amp = np.outer(psi, phi).ravel()
    norm = np.linalg.norm(amp)
    if norm == 0.0:
        raise ValueError("product of zero factors")
    return CompositeState(amp / norm, psi.shape[0], phi.shape[0])


def gaussian_state(grid, center, sigma):
    """Normalized grid samples of a Gaussian with position spread sigma.

    Sampled as exp(-(x-center)^2 / (4 sigma^2)) so |psi|^2 has standard
    deviation sigma.  Meant for wave packets well inside the grid span;
    no periodic wrapping is applied.
    """
    if not sigma > 0.0:
        raise ValueError("sigma must be positive, got %r" % (sigma,))
    x = grid.samples
    v = np.exp(-((x - center) ** 2) / (4.0 * sigma ** 2)).astype(np.complex128)
    return v / np.linalg.norm(v)


def default_position_grid(constants, n=128):
    """Position grid spanning 20 oscillator lengths, centered on zero."""
    width = 20.0 * constants.oscillator_length
    return AxisGrid(n=n, origin=-width / 2.0, spacing=width / n,
                    label=POSITION)


def energy_aligned_grids(constants, n_q=64, n_t=32):
    """Grid pair whose time-frequency lattice hits every oscillator level.

    The time period is 4*pi/omega, so representable energies step by
    hbar*omega/2 and the odd multiples land exactly on the oscillator
    spectrum hbar*omega*(n + 1/2) up to the band edge.
    """
    period = 4.0 * np.pi / constants.omega
    qg = default_position_grid(constants, n=n_q)
    tg = AxisGrid(n=n_t, origin=0.0, spacing=period / n_t, label=TIME)
    return qg, tg


def time_aligned_grids(constants, n_q=64, n_t=32):
    """Grid pair whose time samples sit exactly on the oscillator time levels.

    Sample j equals tau*(j + 1/2) with tau = constants.time_quantum, the
    level spacing of the oscillator's clock operator.
    """
    tau = constants.time_quantum
    qg = default_position_grid(constants, n=n_q)
    tg = AxisGrid(n=n_t, origin=tau / 2.0, spacing=tau, label=TIME)
    return qg, tg
