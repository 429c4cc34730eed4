"""Reference physics for the tests: closed forms, a finite-difference oracle, controls.

The package integrates the guidance flow through the scaled kernels of
pairslit._kernels. This module restates the same physics per point in SI,
so that the tests can check the package against it: the closed-form
velocity of one configuration, the transverse centre-of-mass law, a velocity
oracle by central differences of the full complex amplitude, the same-side
probability by quadrature, the t = 0 density peak in SI units, 50-digit
decimal evaluations of the pair density and its normalization, and the
negative control of independent packet spreading. Not package API.
"""

import decimal
import math

import numpy as np

from fd_reference import reference_velocity
from pairslit import NodeProximityError, PairConfiguration, PairVelocity, psi_pair, sigma_t
from pairslit._kernels import NODE_GUARD, reduced_velocity
from pairslit.integrator import _peak
from pairslit.quadrature import gauss_legendre
from pairslit.wavefunction import joint_density_y, normalization_N

# Minimum |Psi|^2 at the oracle's point, relative to the t = 0 density peak,
# below which it refuses to divide by Psi.
_ORACLE_DENSITY_FLOOR = 1e-12


def velocity_closed_form(c, stats, p) -> PairVelocity:
    """Closed-form guidance velocity at configuration c (m/s).

    Longitudinal motion is the constant drift hbar kx / m for both particles.
    Transversally each particle moves with the centre of mass plus or minus
    the half-separation velocity of _kernels.reduced_velocity, which takes
    |d| and is odd in d. Raises NodeProximityError when its interference
    denominator falls below _kernels.NODE_GUARD (for fermions that happens on
    and near the diagonal y1 = y2, where the state vanishes).
    """
    e1, e2, T = c.y1 / p.sigma0, c.y2 / p.sigma0, c.t / p.tau
    d = 0.5 * (e1 - e2)
    w, den = reduced_velocity(abs(d), T, p.beta, stats.sign)
    w = math.copysign(1.0, d) * w
    if den < NODE_GUARD:
        raise NodeProximityError(
            f"interference denominator {den:.3e} below guard {NODE_GUARD:.1e}"
        )
    drift = 0.5 * (e1 + e2) * (T / (1.0 + T * T))
    scale = p.sigma0 / p.tau
    vx = p.x_speed
    return PairVelocity(vx, (drift + w) * scale, vx, (drift - w) * scale)


def com_closed_form(y0, t, p) -> float:
    """Transverse centre of mass at time t given its initial value y0.

    The interference terms cancel in the mean, leaving the pure spreading
    flow: y(t) = y(0) |sigma_t| / sigma0, independent of statistics.
    """
    return y0 * abs(sigma_t(t, p)) / p.sigma0


def initial_density_peak(stats, p) -> float:
    """The t = 0 peak of the joint density (m^-2): integrator._peak in SI units."""
    return normalization_N(stats, p) / (2.0 * math.pi * p.sigma0**2) * _peak(p.beta, stats.sign)


def joint_density(c, stats, p):
    """Joint position density |Psi|^2 at c (m^-2); broadcasts like psi_pair."""
    return abs(psi_pair(stats, c, p)) ** 2


def velocity_oracle(c, stats, p, step=None, richardson=False) -> PairVelocity:
    """Guidance velocity by central differences of the complex amplitude (m/s).

    Independent oracle for velocity_closed_form: evaluates
    (hbar/m) Im[dPsi/dq / Psi] numerically in each of the four coordinates,
    one amplitude call per stencil point (fd_reference.reference_velocity,
    whose step and richardson these are). Raises NodeProximityError where
    |Psi|^2 falls below _ORACLE_DENSITY_FLOOR times the t = 0 density peak.
    """
    if joint_density(c, stats, p) < _ORACLE_DENSITY_FLOOR * initial_density_peak(stats, p):
        raise NodeProximityError("|Psi|^2 below oracle density floor")

    def amplitude(*q):
        return psi_pair(stats, PairConfiguration(*q), p)

    return reference_velocity(amplitude, c, p, step=step, richardson=richardson)


def same_side_probability(stats, p, t, n_nodes=220) -> float:
    """Probability that both particles sit on the same side of y = 0 at time t.

    Quadrature of the exact joint density over the two same-sign quadrants
    (equal by reflection symmetry, so one quadrant is integrated and doubled).
    """
    s = abs(sigma_t(t, p))
    reach = p.Y + 12.0 * s
    y, w = gauss_legendre(0.0, reach, n_nodes)
    dens = joint_density_y(y[:, None], y[None, :], t, stats, p)
    return 2.0 * float(np.einsum("i,j,ij->", w, w, dens))


def scaled_independent_endpoints(ys0, t, p) -> np.ndarray:
    """Negative control: propagate each coordinate by pure packet spreading.

    Scaling y -> y |sigma_t| / sigma0 reproduces the single-particle spread
    but ignores the velocity coupling between the particles, so its endpoint
    distribution should be measurably wrong wherever interference matters.
    """
    return np.asarray(ys0) * (abs(sigma_t(t, p)) / p.sigma0)


# 50 digits of working precision for the decimal references, and pi to match.
_DIGITS = 50
_PI = decimal.Decimal("3.14159265358979323846264338327950288419716939937510582097494459")


def _decimal_trig(x, cosine):
    """cos or sin of a Decimal x by its Taylor series (|x| of order 1)."""
    term = decimal.Decimal(1) if cosine else x
    total, n, x2 = term, 1 if cosine else 2, x * x
    while True:
        term = -term * x2 / (n * (n + 1))
        if total + term == total:
            return total
        total, n = total + term, n + 2


def _decimal_normalization(b, sign):
    """|N|^2 = 1 / (2 (1 + sign exp(-b^2))) of a Decimal b, in the current context."""
    return decimal.Decimal("0.5") / (1 + sign * (-b * b).exp())


def normalization_decimal(beta: float, sign: int) -> float:
    """|N|^2 at the float beta, evaluated in 50-digit decimal and rounded once."""
    with decimal.localcontext() as ctx:
        ctx.prec = _DIGITS
        return float(_decimal_normalization(decimal.Decimal(beta), sign))


def joint_density_decimal(e1: float, e2: float, T: float, beta: float, sign: int) -> float:
    """The joint density at sigma0 = tau = 1 from its textbook bracket, in 50-digit decimal.

    |N|^2 / (2 pi s^2) (4 a b trig^2 + (a - b)^2) with s^2 = 1 + T^2, the packet
    products a = exp(-((e1 - beta)^2 + (e2 + beta)^2) / (4 s^2)) and
    b = exp(-((e2 - beta)^2 + (e1 + beta)^2) / (4 s^2)), and trig the cos
    (bosons) or sin (fermions) of T beta (e1 - e2) / (2 s^2). The floats e1, e2,
    T and beta are taken exactly; the result is rounded once, to float.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = _DIGITS
        e1, e2, T, b = (decimal.Decimal(v) for v in (e1, e2, T, beta))
        s2 = 1 + T * T
        a_ = (-((e1 - b) ** 2 + (e2 + b) ** 2) / (4 * s2)).exp()
        b_ = (-((e2 - b) ** 2 + (e1 + b) ** 2) / (4 * s2)).exp()
        trig = _decimal_trig(T * b * (e1 - e2) / (2 * s2), cosine=sign > 0)
        bracket = 4 * a_ * b_ * trig * trig + (a_ - b_) ** 2
        return float(_decimal_normalization(b, sign) / (2 * _PI * s2) * bracket)
