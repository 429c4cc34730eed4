"""Guidance velocities of the pair: closed form and finite-difference oracle.

The closed form is the imaginary part of the log-gradient of the pair state,
worked out analytically for purely longitudinal mean momentum. The oracle
recomputes the same velocities by central differences of the full complex
amplitude and knows nothing of the closed-form algebra, so agreement between
the two is a real check. The central differences, shared with the four-slit
states, evaluate the amplitude once on the whole stencil of one
configuration.
"""

from __future__ import annotations

import numpy as np

from ._kernels import reduced_velocity
from .errors import NodeProximityError
from .params import PairConfiguration, PairVelocity, PhysicalParams, SpinStatistics
from .wavefunction import initial_density_peak, joint_density, psi_pair, sigma_t

# Minimum |Psi|^2 at the oracle's point, relative to the t = 0 density peak,
# below which it refuses to divide by Psi.
_ORACLE_DENSITY_FLOOR = 1e-12


def velocity_closed_form(
    c: PairConfiguration, stats: SpinStatistics, p: PhysicalParams
) -> PairVelocity:
    """Closed-form guidance velocity at configuration c (m/s).

    Longitudinal motion is the constant drift hbar kx / m for both particles.
    Transversally each particle moves with the centre of mass plus or minus
    the half-separation velocity of _kernels.reduced_velocity. Raises
    NodeProximityError when the scaled interference denominator falls below
    _kernels.NODE_GUARD (for fermions that happens on and near the diagonal
    y1 = y2, where the state vanishes).
    """
    e1, e2, T = c.y1 / p.sigma0, c.y2 / p.sigma0, c.t / p.tau
    w = reduced_velocity(0.5 * (e1 - e2), T, p.beta, stats.sign)
    drift = 0.5 * (e1 + e2) * (T / (1.0 + T * T))
    scale = p.sigma0 / p.tau
    vx = p.x_speed
    return PairVelocity(vx, (drift + w) * scale, vx, (drift - w) * scale)


def com_closed_form(y0: float, t: float, p: PhysicalParams) -> float:
    """Transverse centre of mass at time t given its initial value y0.

    The interference terms cancel in the mean, leaving the pure spreading
    flow: y(t) = y(0) |sigma_t| / sigma0, independent of statistics.
    """
    return y0 * abs(sigma_t(t, p)) / p.sigma0


def velocity_oracle(
    c: PairConfiguration,
    stats: SpinStatistics,
    p: PhysicalParams,
    step: float | None = None,
    richardson: bool = False,
) -> PairVelocity:
    """Guidance velocity by central differences of the complex amplitude (m/s).

    Independent oracle for velocity_closed_form: evaluates
    (hbar/m) Im[dPsi/dq / Psi] numerically in each of the four coordinates.
    step and richardson are those of log_gradient_velocity. Raises
    NodeProximityError where |Psi|^2 falls below _ORACLE_DENSITY_FLOOR times
    the t = 0 density peak.
    """
    if joint_density(c, stats, p) < _ORACLE_DENSITY_FLOOR * initial_density_peak(stats, p):
        raise NodeProximityError("|Psi|^2 below oracle density floor")

    def amplitude(x1, y1, x2, y2, t):
        return psi_pair(stats, PairConfiguration(x1, y1, x2, y2, t), p)

    return log_gradient_velocity(amplitude, c, p, step=step, richardson=richardson)


def log_gradient_velocity(
    amplitude,
    c: PairConfiguration,
    p: PhysicalParams,
    step: float | None = None,
    richardson: bool = False,
) -> PairVelocity:
    """(hbar/m) Im[grad Psi / Psi] by central differences of any amplitude.

    amplitude is a callable (x1, y1, x2, y2, t) -> complex that broadcasts
    over coordinate arrays. It is called once, on the whole stencil: c
    first, then the points c +- h e_q for each coordinate q (and +- h/2 with
    richardson), all at the one time c.t. Callers guard against near-zero
    |Psi| themselves, and may do so inside that call; this helper only
    differentiates.

    Parameters
    ----------
    step : float, optional
        Transverse step; defaults to 1e-4 * sigma0. The longitudinal step is
        1e-3 / kx, so the sampled phase difference stays small: a
        sigma0-scale step would alias the plane wave completely.
    richardson : bool
        Combine steps h and h/2 for fourth-order accuracy.
    """
    h_y = 1e-4 * p.sigma0 if step is None else step
    h_x = 1e-3 / p.kx
    h = np.array([h_x, h_y, h_x, h_y])
    levels = np.array([h, 0.5 * h] if richardson else [h])
    # stencil rows: c, then per step level c + h_q e_q and c - h_q e_q, q = 0..3
    steps = [np.diag(sign * hl) for hl in levels for sign in (1.0, -1.0)]
    points = np.array([c.x1, c.y1, c.x2, c.y2]) + np.concatenate([np.zeros((1, 4)), *steps])
    psi = amplitude(*points.T, c.t)
    plus, minus = psi[1:].reshape(len(levels), 2, 4).swapaxes(0, 1)
    ratio = ((plus - minus) / (2.0 * levels * psi[0])).imag
    grad = (4.0 * ratio[1] - ratio[0]) / 3.0 if richardson else ratio[0]
    return PairVelocity(*(p.hbar / p.m * grad).tolist())
