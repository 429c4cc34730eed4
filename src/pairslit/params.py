"""Core value types: experiment parameters, spin statistics, configurations.

All fields are SI. Every quantity the rest of the package needs in
dimensionless form (lengths over sigma0, times over the spreading time
2 m sigma0^2 / hbar) is derived here once so the scaling convention lives in a
single place.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

import numpy as np

from .constants import ELECTRON_MASS, HBAR

# The largest Y / sigma0 accepted: beyond it, float64 positions near Y are
# spaced wider than 0.02 sigma0.
_MAX_BETA = 0.02 * 2.0**52


class SpinStatistics(enum.Enum):
    """Exchange symmetry of the pair state."""

    BOSON = "boson"
    FERMION = "fermion"

    @property
    def sign(self) -> int:
        """+1 for the symmetric state, -1 for the antisymmetric one."""
        return 1 if self is SpinStatistics.BOSON else -1


@dataclass(frozen=True)
class PhysicalParams:
    """Source and geometry parameters of the two-particle slit experiment.

    Parameters
    ----------
    m : float
        Particle mass (kg).
    hbar : float
        Reduced Planck constant (J s); overridable for unit experiments.
    sigma0 : float
        Initial packet width at the slits (m).
    Y : float
        Half the slit separation; packets start centred at +-Y (m).
    kx : float
        Longitudinal wavenumber (1/m); propagation speed is hbar*kx/m. The mean
        momentum is purely longitudinal.
    d : float
        Half-separation of the two sources in the facing double-slit setup (m).
    L : float
        Source-to-screen flight distance (m).
    """

    m: float = ELECTRON_MASS
    hbar: float = HBAR
    sigma0: float = 1.0e-6
    Y: float = 5.0e-6
    kx: float = 2.0e7 * ELECTRON_MASS / HBAR
    d: float = 5.0e-6
    L: float = 0.2

    def __post_init__(self):
        for name in ("m", "hbar", "sigma0", "Y", "kx", "d", "L"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be > 0")
        if not self.beta <= _MAX_BETA:
            raise ValueError(
                f"Y must be at most {_MAX_BETA:.4g} sigma0, got {self.beta:.4g} sigma0"
            )
        # Extreme inputs can underflow or overflow the derived time scales;
        # the integrator divides by tau and splits flight_time / tau into
        # sample times, which a subnormal span has too few floats for.
        try:
            tau = self.tau
        except OverflowError:  # sigma0**2 raises where a product would give inf
            tau = math.inf
        if not 0.0 < tau < math.inf:
            raise ValueError(f"tau must be finite and > 0, got {tau!r}")
        t, tiny = self.flight_time, sys.float_info.min
        for name, value in (("flight_time", t), ("flight_time / tau", t / tau)):
            if not tiny <= value < math.inf:
                raise ValueError(f"{name} must be finite and >= {tiny!r}, got {value!r}")

    @classmethod
    def baseline(cls, x_speed: float = 2.0e7) -> "PhysicalParams":
        """Electron baseline with the propagation speed hbar*kx/m given in m/s."""
        return cls(kx=x_speed * ELECTRON_MASS / HBAR)

    @property
    def tau(self) -> float:
        """Natural spreading time 2 m sigma0^2 / hbar (s)."""
        return 2.0 * self.m * self.sigma0**2 / self.hbar

    @property
    def beta(self) -> float:
        """Slit half-separation in packet widths, Y / sigma0."""
        return self.Y / self.sigma0

    @property
    def x_speed(self) -> float:
        """Longitudinal speed hbar kx / m (m/s)."""
        return self.hbar * self.kx / self.m

    @property
    def flight_time(self) -> float:
        """Time to cross the distance L at the longitudinal speed (s)."""
        return self.L * self.m / (self.hbar * self.kx)


@dataclass(frozen=True)
class PairConfiguration:
    """A configuration-space point (x1, y1, x2, y2) at time t, all SI.

    The fields may also be numpy arrays that broadcast together, a set of
    points; the amplitudes broadcast over them.
    """

    x1: float
    y1: float
    x2: float
    y2: float
    t: float = 0.0

    def __post_init__(self):
        t = self.t
        if (t < 0.0).any() if isinstance(t, np.ndarray) else t < 0.0:
            raise ValueError("t must be >= 0")


@dataclass(frozen=True)
class PairVelocity:
    """Configuration-space velocity (vx1, vy1, vx2, vy2) in m/s."""

    vx1: float
    vy1: float
    vx2: float
    vy2: float
