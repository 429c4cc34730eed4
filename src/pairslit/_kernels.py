"""Hot-path kernels in packet-width / spreading-time units.

These are the only functions evaluated inside integration loops. The scalar
kernels use the math module on plain floats (roughly 20x faster than numpy
scalars) and serve the scalar step loop; their array twins evaluate the same
expressions, in the same order, over arrays for the batched loop, and the
density twin also serves wavefunction.joint_density_y. Tests pin the twins
against each other and against the full complex amplitude of wavefunction.py.

The velocity kernels return the velocity of the half-separation
d = (eta1 - eta2) / 2 alone: the interference term cancels from the centre of
mass, which follows a closed form. The density kernels take both coordinates.

Scaling: eta = y / sigma0, T = t / tau, velocities in units of sigma0 / tau.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NodeProximityError

# Scaled interference denominator below which the velocity is considered to
# sit on a node. Bosons only approach zero denominators asymptotically;
# fermions hit an exact zero on the diagonal y1 = y2.
NODE_GUARD = 1e-13


def reduced_velocity(d: float, T: float, beta: float, sign: int) -> float:
    """Velocity dd/dT of the half-separation d = (eta1 - eta2) / 2.

    The interference term is evaluated with the dominant exponential factored
    out, so it never overflows however far the configuration sits from the
    diagonal; the raw cosh argument can exceed 700 at baseline separations.
    The particles move at deta1/dT, deta2/dT = c T / (1 + T^2) +- dd/dT,
    c being their centre of mass.
    """
    one_t2 = 1.0 + T * T
    u = 2.0 * beta * d / one_t2
    a = abs(u)
    sg = 1.0 if u >= 0.0 else -1.0
    ex = math.exp(-a)
    ex2 = ex * ex
    phase = T * u
    # 2 e^{-|u|} (sin(Tu) +- T sinh u) over 2 e^{-|u|} (cos(Tu) +- cosh u)
    num = 2.0 * ex * math.sin(phase) + sign * T * sg * (1.0 - ex2)
    den = 2.0 * ex * math.cos(phase) + sign * (1.0 + ex2)
    if abs(den) < NODE_GUARD:
        raise NodeProximityError(
            f"interference denominator {den:.3e} below guard {NODE_GUARD:.1e}"
        )
    shared = beta * num / (one_t2 * den)
    return d * (T / one_t2) - shared


def reduced_velocity_array(d, T, beta: float, sign: int):
    """Array twin of reduced_velocity over (n,) arrays d and T.

    Returns (v, on_node). Instead of raising, on_node marks the pairs whose
    interference denominator falls below NODE_GUARD; their velocities are
    meaningless. Callers silence numpy's floating-point warnings, which only
    such pairs can trigger. Every value equals the scalar kernel's expression
    up to exact sign flips: sign * T * sg * (1 - ex2) is
    +-T * copysign(1 - ex2, u), and that factor is 0 where u is.
    """
    one_t2 = 1.0 + T * T
    u = 2.0 * beta * d / one_t2
    ex = np.exp(-np.abs(u))
    ex2 = ex * ex
    two_ex = 2.0 * ex
    phase = T * u
    tail = T * np.copysign(1.0 - ex2, u)
    wave = two_ex * np.sin(phase)
    num = wave + tail if sign > 0 else wave - tail
    wave = two_ex * np.cos(phase)
    den = wave + (1.0 + ex2) if sign > 0 else wave - (1.0 + ex2)
    shared = beta * num / (one_t2 * den)
    return d * (T / one_t2) - shared, np.abs(den) < NODE_GUARD


def reduced_density(e1: float, e2: float, T: float, sign: int, beta: float, n2: float) -> float:
    """Dimensionless joint density; integrates to 1 over the (eta1, eta2) plane.

    With a = sqrt(F) and b = sqrt(G) for the two Gaussian product terms, the
    bracket F + G +- 2 a b cos(phi) is written as (a - b)^2 + 4 a b cos^2(phi/2)
    for bosons and (a - b)^2 + 4 a b sin^2(phi/2) for fermions: a sum of
    squares, so it cannot cancel to a negative value.
    """
    s2 = 1.0 + T * T
    trig = (math.cos if sign > 0 else math.sin)(0.5 * T * beta * (e1 - e2) / s2)
    a = math.exp(-((e1 - beta) ** 2 + (e2 + beta) ** 2) / (4.0 * s2))
    b = math.exp(-((e2 - beta) ** 2 + (e1 + beta) ** 2) / (4.0 * s2))
    total = 4.0 * a * b * trig**2 + (a - b) ** 2
    return n2 / (2.0 * math.pi * s2) * total


def reduced_density_array(e1, e2, T, sign: int, beta: float, n2: float):
    """Array twin of reduced_density; e1, e2 and T broadcast like numpy ufuncs."""
    s2 = 1.0 + T * T
    trig = (np.cos if sign > 0 else np.sin)(0.5 * T * beta * (e1 - e2) / s2)
    a = np.exp(-((e1 - beta) ** 2 + (e2 + beta) ** 2) / (4.0 * s2))
    b = np.exp(-((e2 - beta) ** 2 + (e1 + beta) ** 2) / (4.0 * s2))
    # Same summation order as the scalar kernel: the 4ab term first. The
    # density's bits, and so every density-floor decision, depend on it.
    total = 4.0 * a * b * trig**2 + (a - b) ** 2
    return n2 / (2.0 * np.pi * s2) * total
