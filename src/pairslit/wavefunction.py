"""Gaussian slit amplitudes and exact joint densities for the particle pair.

The single-packet amplitude spreads freely from width sigma0; the
complex width sigma_t = sigma0 (1 + i t / tau) with tau = 2 m sigma0^2 / hbar
carries both the spreading and the phase curvature. The two-particle state is
the normalized (anti)symmetrized product of a packet behind the upper slit and
one behind the lower slit.

Functions accepting coordinate arrays broadcast like numpy ufuncs. Arguments
and return values are SI; internally lengths are scaled by sigma0 and times by
tau so intermediates stay near unity.
"""

from __future__ import annotations

import math

import numpy as np

from .params import PairConfiguration, PhysicalParams, SpinStatistics


def sigma_t(t: float, p: PhysicalParams) -> complex:
    """Complex packet width sigma0 * (1 + i t / tau) at time t >= 0."""
    if t < 0.0:
        raise ValueError("t must be >= 0")
    return p.sigma0 * (1.0 + 1.0j * (t / p.tau))


def _upper_amplitude(x_h, eta, T, p: PhysicalParams):
    """Dimensionless upper-slit packet at scaled coords (x_h, eta) and time T.

    The two phase factors (longitudinal plane wave, kinetic time phase) are
    exponentiated separately: the kinetic phase grows to ~1e11 rad at baseline
    and must stay a common factor that cancels bitwise in ratios, rather than
    perturbing the plane wave's rounding.
    """
    kx_h = p.kx * p.sigma0
    beta = p.beta
    st = 1.0 + 1.0j * T
    prefactor = (2.0 * np.pi * st * st) ** -0.25
    envelope = np.exp(-((eta - beta) ** 2) / (4.0 * st))
    plane = np.exp(1j * kx_h * x_h)
    kinetic = np.exp(-1j * kx_h * kx_h * T)
    return prefactor * envelope * plane * kinetic


# x and y signs of the four images of the upper packet, in pair_images order:
# upper, lower (y-reflected), mirror upper (x-reflected), mirror lower (both).
_IMAGE_SIGNS = np.array([(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)])


def pair_images(c: PairConfiguration, p: PhysicalParams):
    """Both particles' packets behind all four slits at c (SI, m^-1/2).

    Returns the (4, 2, *shape) stack, shape being the broadcast shape of c's
    fields: axis 1 is particle 1 at (c.x1, c.y1), then particle 2 at
    (c.x2, c.y2); axis 0 is the slit, in the order upper, lower, mirror
    upper, mirror lower. The upper packet moves in +x from y = +Y; the lower
    one is its y-reflection, and the mirror slits of the facing double-slit
    setup are the x-reflections of those two. One amplitude call covers all
    eight images; psi_pair takes rows 0 and 1.
    """
    shape = (2, *np.broadcast(c.x1, c.y1, c.x2, c.y2, c.t).shape)
    x, y = np.empty(shape), np.empty(shape)
    x[0], x[1], y[0], y[1] = c.x1, c.x2, c.y1, c.y2
    x_h = x / p.sigma0
    eta = y / p.sigma0
    signs = _IMAGE_SIGNS.reshape((4, 2) + (1,) * x.ndim)
    value = _upper_amplitude(signs[:, 0] * x_h, signs[:, 1] * eta, c.t / p.tau, p)
    return value / math.sqrt(p.sigma0)


def normalization_N(stats: SpinStatistics, p: PhysicalParams) -> float:
    """|N|^2 of the (anti)symmetrized pair state, 1 / (2 (1 +- e^{-Y^2/sigma0^2})).

    The overlap term is taken through expm1, so the fermion value stays exact
    at small Y / sigma0, where 1 - e^{-beta^2} would cancel.
    """
    sign = stats.sign
    return 0.5 / ((1 + sign) + sign * math.expm1(-p.beta**2))


def psi_pair(stats: SpinStatistics, c: PairConfiguration, p: PhysicalParams):
    """Normalized two-particle amplitude at configuration c (SI, m^-1).

    The normalization constant is taken real positive. Under particle
    exchange the value picks up exactly the statistics sign. Broadcasts over
    coordinate arrays in c; a scalar c gives a complex scalar. The upper and
    lower packets are rows 0 and 1 of pair_images.
    """
    n = math.sqrt(normalization_N(stats, p))
    (u1, u2), (l1, l2) = pair_images(c, p)[:2]
    return n * (u1 * l2 + stats.sign * (u2 * l1))


def _pair_bracket(d, T: float, beta: float, sign: int):
    """The interference bracket of the pair density, and its bound over the phase.

    In packet units, with half-separation d, s^2 = 1 + T^2, u = beta d / s^2
    and q = exp(-2 |u|), the joint density is, up to its Gaussian factor,

        g = (1 - q)^2 + 4 q trig(T u)^2,

    trig being cos for bosons and sin for fermions. That is
    (a^2 + b^2 +- 2 a b cos(2 T u)) / max(a, b)^2, a and b being the two
    Gaussian packet products, written as a sum of squares: the same bracket
    as the velocity kernels' den. 1 - q is -expm1(-2 |u|), so g stays
    exact near the fermion diagonal, where the packet products a and b agree.
    The bound at trig^2 = 1, (1 - q)^2 + 4 q = (1 + q)^2, is formed from the
    same two terms, so where trig is exactly 1 (bosons at T = 0) g equals it
    to the bit. Returns (g, bound).
    """
    u = beta / (1.0 + T * T) * d
    m = np.expm1(-2.0 * np.abs(u))  # q - 1
    m2, q4 = m * m, 4.0 * (1.0 + m)
    trig = (np.cos if sign > 0 else np.sin)(T * u)
    return m2 + q4 * (trig * trig), m2 + q4


def joint_density_y(y1, y2, t: float, stats: SpinStatistics, p: PhysicalParams):
    """Exact joint density in the transverse plane at time t (m^-2), vectorized.

    The longitudinal factors are pure phases, so |Psi|^2 depends only on
    (y1, y2, t). In packet units (eta = y / sigma0, T = t / tau,
    s^2 = 1 + T^2), with centre c = (eta1 + eta2) / 2 and half-separation
    d = (eta1 - eta2) / 2,

        P = |N|^2 (2 pi s^2 sigma0^2)^-1 exp(-(c^2 + (|d| - beta)^2) / s^2) g,

    g being the interference bracket of _pair_bracket, the one the sampler
    draws from. Integrates to 1 for every t. g is a sum of squares formed
    through expm1, so P never cancels below 0 and stays exact to a few ulps
    near the fermion diagonal.
    """
    if t < 0.0:
        raise ValueError("t must be >= 0")
    e1 = np.asarray(y1) / p.sigma0
    e2 = np.asarray(y2) / p.sigma0
    n2 = normalization_N(stats, p)
    T, beta = t / p.tau, p.beta
    s2 = 1.0 + T * T
    c, d = 0.5 * (e1 + e2), 0.5 * (e1 - e2)
    r = np.abs(d) - beta
    g, _ = _pair_bracket(d, T, beta, stats.sign)
    return n2 / (2.0 * np.pi * s2) * np.exp(-(c * c + r * r) / s2) * g / p.sigma0**2
