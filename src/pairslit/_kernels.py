"""Scalar hot-path kernels in packet-width / spreading-time units.

These are the only functions evaluated inside integration loops, so they use
the math module on plain floats (roughly 20x faster than numpy scalars).
Vectorized reference expressions live in wavefunction.py; tests pin the two
code paths against each other.

Scaling: eta = y / sigma0, T = t / tau, velocities in units of sigma0 / tau.
"""

from __future__ import annotations

import math

from .errors import NodeProximityError

# Scaled interference denominator below which the velocity is considered to
# sit on a node. Bosons only approach zero denominators asymptotically;
# fermions hit an exact zero on the diagonal y1 = y2.
NODE_GUARD = 1e-13


def reduced_velocity(e1: float, e2: float, T: float, beta: float, sign: int) -> tuple[float, float]:
    """Transverse velocities (deta1/dT, deta2/dT) of the pair.

    The interference term is evaluated with the dominant exponential factored
    out, so it never overflows however far the configuration sits from the
    diagonal; the raw cosh argument can exceed 700 at baseline separations.
    """
    one_t2 = 1.0 + T * T
    u = beta * (e1 - e2) / one_t2
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
    drift = T / one_t2
    return -shared + e1 * drift, shared + e2 * drift


def reduced_density(e1: float, e2: float, T: float, sign: int, beta: float, n2: float) -> float:
    """Dimensionless joint density; integrates to 1 over the (eta1, eta2) plane."""
    s2 = 1.0 + T * T
    ln_f = -((e1 - beta) ** 2 + (e2 + beta) ** 2) / (2.0 * s2)
    ln_g = -((e2 - beta) ** 2 + (e1 + beta) ** 2) / (2.0 * s2)
    phi = T * beta * (e1 - e2) / s2
    total = (
        math.exp(ln_f)
        + math.exp(ln_g)
        + sign * 2.0 * math.exp(0.5 * (ln_f + ln_g)) * math.cos(phi)
    )
    return n2 / (2.0 * math.pi * s2) * total
