import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pairslit import (
    PairConfiguration,
    PhysicalParams,
    SpinStatistics,
    joint_density_y,
    normalization_N,
    psi_pair,
    sigma_t,
)
from pairslit.integrator import _peak
from pairslit.quadrature import gauss_legendre
from pairslit.wavefunction import pair_images

from oracles import (
    initial_density_peak,
    joint_density,
    joint_density_decimal,
    normalization_decimal,
    same_side_probability,
)

# Complex width at the two scenario flight times, frozen from tau above.
SPREAD_FAST = 1.1554452124260477  # |sigma_t| / sigma0 at t = 1e-8 s
SPREAD_SLOW = 5.8741266492839115  # |sigma_t| / sigma0 at t = 1e-7 s

# Same-sign-quadrant probability of |Psi|^2, frozen from an independent
# adaptive quadrature of the closed-form density.
SAME_SIDE_SLOW = {SpinStatistics.BOSON: 0.32376052, SpinStatistics.FERMION: 0.30980734}
SAME_SIDE_FAST = 1.509e-5

# The exact t = 0 density peak lies above the maximum of a 0.02 sigma0 grid
# by the grid's O(h^2) gap, which reached 7.3e-5 on the geometries below
# (bosons at Y = 1.67 sigma0) and 1.7e-4 at fermions with Y = 0.1 sigma0.
PEAK_GAP = 2e-4
# A few ulps: two arithmetic routes to the density at the peak itself round
# apart, so one may round above the other.
EPS = np.finfo(float).eps
PEAK_ROUNDING = 4.0 * EPS


def test_sigma_t_frozen_ratios(p_fast):
    assert abs(sigma_t(1e-8, p_fast)) / p_fast.sigma0 == pytest.approx(SPREAD_FAST, rel=1e-12)
    assert abs(sigma_t(1e-7, p_fast)) / p_fast.sigma0 == pytest.approx(SPREAD_SLOW, rel=1e-12)


def test_negative_times_are_refused(p_fast, stats):
    with pytest.raises(ValueError, match="t must be >= 0"):
        sigma_t(-1e-9, p_fast)
    with pytest.raises(ValueError, match="t must be >= 0"):
        joint_density_y(1e-6, -1e-6, -1e-9, stats, p_fast)


def test_sigma_t_at_zero(p_fast):
    assert sigma_t(0.0, p_fast) == p_fast.sigma0


def upper_packet(x, y, t, p):
    """Particle 1's packet behind the upper slit at (x, y)."""
    return pair_images(PairConfiguration(x, y, 0.0, 0.0, t), p)[0, 0]


def test_slit_amplitude_peak(p_fast):
    peak = (2 * math.pi * p_fast.sigma0**2) ** -0.25
    assert abs(upper_packet(0.0, p_fast.Y, 0.0, p_fast)) == pytest.approx(peak, rel=1e-13)


def test_slit_amplitude_one_sigma_falloff(p_fast):
    peak = (2 * math.pi * p_fast.sigma0**2) ** -0.25
    got = abs(upper_packet(0.0, p_fast.Y + p_fast.sigma0, 0.0, p_fast))
    assert got == pytest.approx(peak * math.exp(-0.25), rel=1e-13)


@pytest.mark.parametrize("t", [0.0, 3e-9, 1e-8, 1e-7])
def test_slit_amplitude_unit_norm(p_fast, t):
    # transverse norm is conserved; the longitudinal factor is a pure phase.
    # Every packet of both particles, on an interval symmetric about y = 0.
    half = p_fast.Y + 12 * abs(sigma_t(t, p_fast))
    y, w = gauss_legendre(-half, half, 400)
    images = pair_images(PairConfiguration(1e-4, y, -3e-5, y, t), p_fast)
    np.testing.assert_allclose(np.abs(images) ** 2 @ w, 1.0, rtol=0.0, atol=1e-9)


def test_lower_slit_is_y_reflection(p_fast):
    y = np.array([0.0, 1.3e-6, -4e-6])
    images = pair_images(PairConfiguration(2e-5, y, -3e-5, 2 * y, 4e-9), p_fast)
    reflected = pair_images(PairConfiguration(2e-5, -y, -3e-5, -2 * y, 4e-9), p_fast)
    np.testing.assert_array_equal(images[[1, 3]], reflected[[0, 2]])


def test_mirror_slits_are_x_reflections(p_fast):
    x = np.array([3e-5, 0.0, -1e-4])
    images = pair_images(PairConfiguration(x, 2e-6, 2 * x, -1e-6, 4e-9), p_fast)
    reflected = pair_images(PairConfiguration(-x, 2e-6, -2 * x, -1e-6, 4e-9), p_fast)
    np.testing.assert_array_equal(images[[2, 3]], reflected[[0, 1]])


def test_pair_images_stack_both_particles(p_fast, rng):
    # axis 1 is the particle: the images of particle 2 are those of
    # particle 1 at particle 2's position; t broadcasts with the coordinates
    x1, y1, x2, y2 = rng.uniform(-1e-5, 1e-5, size=(4, 5))
    t = rng.uniform(0.0, 1e-8, size=5)
    images = pair_images(PairConfiguration(x1, y1, x2, y2, t), p_fast)
    assert images.shape == (4, 2, 5)
    swapped = pair_images(PairConfiguration(x2, y2, x1, y1, t), p_fast)
    np.testing.assert_array_equal(images[:, 1], swapped[:, 0])
    assert pair_images(PairConfiguration(0.0, 1e-6, 0.0, -1e-6, t), p_fast).shape == (4, 2, 5)


def test_psi_pair_is_the_product_of_the_upper_and_lower_rows(p_fast, stats, rng):
    # Psi = N (u1 l2 +- u2 l1), and exchange flips it by exactly the sign
    x1, y1, x2, y2 = rng.uniform(-1e-5, 1e-5, size=(4, 6))
    t = rng.uniform(0.0, 1e-8, size=6)
    c = PairConfiguration(x1, y1, x2, y2, t)
    (u1, u2), (l1, l2) = pair_images(c, p_fast)[:2]
    n = math.sqrt(normalization_N(stats, p_fast))
    psi = psi_pair(stats, c, p_fast)
    np.testing.assert_array_equal(psi, n * (u1 * l2 + stats.sign * (u2 * l1)))
    swapped = psi_pair(stats, PairConfiguration(x2, y2, x1, y1, t), p_fast)
    np.testing.assert_array_equal(swapped, stats.sign * psi)


def test_normalization_at_unit_offset(p_fast):
    # |N|^2 = 1 / (2 (1 + exp(-beta^2))) evaluated at beta = 1
    p = dataclasses.replace(p_fast, Y=p_fast.sigma0)
    assert normalization_N(SpinStatistics.BOSON, p) == pytest.approx(
        0.5 / (1 + math.exp(-1.0)), rel=1e-13
    )
    assert normalization_N(SpinStatistics.FERMION, p) == pytest.approx(
        0.5 / (1 - math.exp(-1.0)), rel=1e-13
    )


@pytest.mark.parametrize("offset_ratio", [1.0, 2.0, 5.0])
@pytest.mark.parametrize("t", [0.0, 1e-8])
def test_pair_density_normalized(p_fast, stats, offset_ratio, t):
    p = dataclasses.replace(p_fast, Y=offset_ratio * p_fast.sigma0)
    half = p.Y + 10 * abs(sigma_t(t, p))
    y, w = gauss_legendre(-half, half, 260)
    yy1, yy2 = np.meshgrid(y, y, indexing="ij")
    dens = joint_density_y(yy1, yy2, t, stats, p)
    total = w @ dens @ w
    assert total == pytest.approx(1.0, abs=1e-6)


def test_fermion_diagonal_node_exact(p_fast):
    c = PairConfiguration(1e-4, 2.2e-6, 1e-4, 2.2e-6, 3e-9)
    assert psi_pair(SpinStatistics.FERMION, c, p_fast) == 0.0


def test_fermion_diagonal_node_distinct_x(p_fast):
    # different longitudinal positions only scramble rounding, not the node
    c = PairConfiguration(1e-4, 2.2e-6, 2e-4, 2.2e-6, 3e-9)
    scale = abs(psi_pair(SpinStatistics.BOSON, c, p_fast))
    assert abs(psi_pair(SpinStatistics.FERMION, c, p_fast)) <= 1e-12 * scale


def test_joint_density_matches_closed_form(p_fast, stats):
    # |psi_pair|^2 against the direct interference formula, two routes
    ys = np.linspace(-2 * p_fast.Y, 2 * p_fast.Y, 20)
    for t in (0.0, 2e-9, 1e-8):
        closed = joint_density_y(ys[:, None], ys[None, :], t, stats, p_fast)
        for i in (0, 7, 13, 19):
            for j in (2, 6, 11, 16):
                c = PairConfiguration(5e-5, ys[i], 5e-5, ys[j], t)
                got = joint_density(c, stats, p_fast)
                ref = closed[i, j]
                assert got == pytest.approx(ref, rel=1e-12, abs=1e-18)


def test_same_side_probability_frozen(p_slow, p_fast):
    for stats, ref in SAME_SIDE_SLOW.items():
        assert same_side_probability(stats, p_slow, 1e-7) == pytest.approx(ref, abs=2e-7)
    for stats in SpinStatistics:
        assert same_side_probability(stats, p_fast, 1e-8) == pytest.approx(
            SAME_SIDE_FAST, rel=1e-3
        )


coord = st.floats(min_value=-1.2e-5, max_value=1.2e-5)
tval = st.floats(min_value=0.0, max_value=1e-7)


@settings(max_examples=60, deadline=None)
@given(y1=coord, y2=coord, t=tval)
def test_density_exchange_symmetric(p_fast, y1, y2, t):
    a = joint_density_y(np.array([y1]), np.array([y2]), t, SpinStatistics.BOSON, p_fast)[0]
    b = joint_density_y(np.array([y2]), np.array([y1]), t, SpinStatistics.BOSON, p_fast)[0]
    assert a == pytest.approx(b, rel=1e-12, abs=1e-30)


@settings(max_examples=60, deadline=None)
@given(y1=coord, y2=coord, t=tval)
def test_density_parity_symmetric(p_fast, y1, y2, t):
    for stats in SpinStatistics:
        a = joint_density_y(np.array([y1]), np.array([y2]), t, stats, p_fast)[0]
        b = joint_density_y(np.array([-y1]), np.array([-y2]), t, stats, p_fast)[0]
        assert a == pytest.approx(b, rel=1e-12, abs=1e-30)


@settings(max_examples=40, deadline=None)
@given(y1=coord, y2=coord, t=tval)
@example(y1=0.0, y2=1.2539327980112633e-19, t=0.0)  # F + G - 2 sqrt(FG) cancelled to -3.9e-15
def test_density_nonnegative_finite(p_fast, y1, y2, t):
    for stats in SpinStatistics:
        d = joint_density_y(np.array([y1]), np.array([y2]), t, stats, p_fast)[0]
        assert d >= 0.0
        assert math.isfinite(d)


@pytest.mark.parametrize("geometry", [{}, {"Y": 2.5e-6, "sigma0": 1.5e-6}, {"Y": 1e-5}],
                         ids=["baseline", "narrow", "wide"])
def test_initial_density_peak_matches_2d_grid(p_fast, stats, geometry):
    # the exact peak is at least the maximum over a 2-D grid of 0.02 sigma0
    # spacing, and above it by no more than the grid's O(h^2) gap
    p = dataclasses.replace(p_fast, **geometry)
    span = p.Y + 4.0 * p.sigma0
    grid = np.linspace(-span, span, int(2 * span / (0.02 * p.sigma0)) + 1)
    full = joint_density_y(grid[:, None], grid[None, :], 0.0, stats, p).max()
    peak = initial_density_peak(stats, p)
    assert -PEAK_ROUNDING <= (peak - full) / peak <= PEAK_GAP


@settings(max_examples=200, deadline=None)
@given(beta=st.floats(1e-3, 1e3), stats=st.sampled_from(list(SpinStatistics)))
@example(beta=0.1, stats=SpinStatistics.FERMION)  # the grid's worst miss, 1.7e-4
@example(beta=1.0, stats=SpinStatistics.BOSON)  # the last boson peak at d = 0
@example(beta=math.nextafter(1.0, 2.0), stats=SpinStatistics.BOSON)  # the longest bisection
@example(beta=1e-3, stats=SpinStatistics.FERMION)
@example(beta=1e3, stats=SpinStatistics.BOSON)
def test_exact_peak_is_the_maximum_of_the_t0_density(p_fast, beta, stats):
    # _peak is g0(d) = exp(-(|d| - beta)^2) (1 + sign exp(-2 beta |d|))^2 at
    # its maximum over d, the t = 0 density on the line y2 = -y1 in the
    # kernel's units
    sign = stats.sign
    peak = _peak(beta, sign)

    def g0(d):
        m = -np.expm1(-2.0 * beta * np.abs(d))  # 1 - exp(-2 beta |d|)
        return np.exp(-((np.abs(d) - beta) ** 2)) * (2.0 - m if sign > 0 else m) ** 2

    # both roots lie in [0, beta + 1]; the line runs on well past them
    line = np.linspace(0.0, beta + 5.0, 100_001)
    assert g0(line).max() <= peak * (1.0 + PEAK_ROUNDING)

    # an independent maximisation of the SI density along y2 = -y1: a grid
    # over u = d - beta that zooms in on its best point, eight times by 250
    p = dataclasses.replace(p_fast, Y=beta * p_fast.sigma0)
    lo, hi = -beta, 2.0
    for _ in range(8):
        u = np.linspace(lo, hi, 1001)
        y = (beta + u) * p.sigma0
        density = joint_density_y(y, -y, 0.0, stats, p)
        k = int(density.argmax())
        lo, hi = u[max(k - 2, 0)], u[min(k + 2, 1000)]
    found = density[k] * 2.0 * math.pi * p.sigma0**2 / normalization_N(stats, p)
    assert abs(found - peak) <= 1e-14 * peak


def unit_params(beta):
    """sigma0 = tau = 1, so beta, eta and T reach the density unrounded."""
    return PhysicalParams(m=0.5, hbar=1.0, sigma0=1.0, Y=beta, kx=1.0, d=1.0, L=1.0)


def log_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda k: 10.0**k)


@settings(max_examples=300, deadline=None)
@given(beta=log_uniform(-6.0, 1.0), stats=st.sampled_from(list(SpinStatistics)))
@example(beta=1e-4, stats=SpinStatistics.FERMION)  # 1 + sign e^(-beta^2) cancelled to 1.1e-9
@example(beta=1e-6, stats=SpinStatistics.FERMION)  # ... and to 2.2e-5
def test_normalization_matches_decimal(beta, stats):
    # |N|^2 within a few ulps of a 50-digit evaluation, also for fermions at
    # small beta, where 1 - e^(-beta^2) cancels unless taken through expm1
    want = normalization_decimal(beta, stats.sign)
    assert abs(normalization_N(stats, unit_params(beta)) - want) <= 4.0 * EPS * want


@settings(max_examples=300, deadline=None)
@given(beta=log_uniform(-6.0, 0.0), d=log_uniform(-9.0, 0.3), side=st.sampled_from([-1.0, 1.0]),
       c=st.floats(-2.0, 2.0), T=st.floats(0.0, 1.0), stats=st.sampled_from(list(SpinStatistics)))
@example(beta=5.0, d=1e-6, side=1.0, c=0.0, T=1.0, stats=SpinStatistics.FERMION)  # (a - b)^2 was off 1.5e-10
@example(beta=1e-3, d=1e-9, side=-1.0, c=0.7, T=0.5, stats=SpinStatistics.FERMION)
def test_density_near_the_fermion_diagonal_matches_decimal(beta, d, side, c, T, stats):
    # joint_density_y against a 50-digit evaluation of the textbook bracket
    # 4 a b trig^2 + (a - b)^2, at small beta and half-separations down to
    # 1e-9 sigma0: a few ulps, times 1 + the Gaussian's exponent, whose
    # argument rounds by a few ulps of itself
    e1, e2 = c + side * d, c - side * d
    got = float(joint_density_y(e1, e2, T, stats, unit_params(beta)))
    want = joint_density_decimal(e1, e2, T, beta, stats.sign)
    exponent = (c * c + (d - beta) ** 2) / (1.0 + T * T)
    assert abs(got - want) <= 8.0 * EPS * (1.0 + exponent) * want
