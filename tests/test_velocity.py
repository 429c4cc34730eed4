import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pairslit import (
    NodeProximityError,
    PairConfiguration,
    PhysicalParams,
    SpinStatistics,
    joint_density_y,
    normalization_N,
    sigma_t,
)
from pairslit._kernels import NODE_GUARD, reduced_velocity, reduced_velocity_array

from oracles import (
    com_closed_form,
    initial_density_peak,
    joint_density,
    velocity_closed_form,
    velocity_oracle,
)


def random_points(p, rng, n, min_gap=0.0):
    floor = 1e-10 * initial_density_peak(SpinStatistics.BOSON, p)
    pts = []
    while len(pts) < n:
        y1, y2 = rng.uniform(-2 * p.Y, 2 * p.Y, size=2)
        if abs(y1 - y2) < min_gap:
            continue
        t = float(rng.uniform(0.0, 1e-7))
        # keep kx * x moderate so the longitudinal finite difference is not
        # limited by phase rounding
        x = float(rng.uniform(0.0, 5e-6))
        c = PairConfiguration(x, float(y1), x, float(y2), t)
        if joint_density(c, SpinStatistics.BOSON, p) < floor:
            continue
        pts.append(c)
    return pts


def test_velocity_vanishes_at_release(p_fast, stats, rng):
    for _ in range(10):
        y1, y2 = rng.uniform(-2 * p_fast.Y, 2 * p_fast.Y, size=2)
        v = velocity_closed_form(PairConfiguration(0, y1, 0, y2, 0), stats, p_fast)
        assert v.vy1 == 0.0 and v.vy2 == 0.0


def test_longitudinal_velocity_is_drift(p_fast, stats):
    c = PairConfiguration(3e-5, 1e-6, 3e-5, -2e-6, 4e-9)
    v = velocity_closed_form(c, stats, p_fast)
    assert v.vx1 == p_fast.x_speed and v.vx2 == p_fast.x_speed


def test_closed_form_matches_oracle(p_fast, stats, rng):
    # independent numerical-gradient route, default probe steps
    for c in random_points(p_fast, rng, 30, min_gap=0.3 * p_fast.sigma0):
        v = velocity_closed_form(c, stats, p_fast)
        o = velocity_oracle(c, stats, p_fast)
        scale = max(abs(v.vy1), abs(v.vy2), 1e-12)
        assert abs(v.vy1 - o.vy1) <= 1e-6 * scale
        assert abs(v.vy2 - o.vy2) <= 1e-6 * scale
        assert abs(v.vx1 - o.vx1) <= 1e-6 * p_fast.x_speed
        assert abs(v.vx2 - o.vx2) <= 1e-6 * p_fast.x_speed


def test_oracle_richardson_is_tighter(p_fast, rng):
    worse = better = 0.0
    for c in random_points(p_fast, rng, 8, min_gap=0.5 * p_fast.sigma0):
        v = velocity_closed_form(c, SpinStatistics.BOSON, p_fast)
        plain = velocity_oracle(c, SpinStatistics.BOSON, p_fast, step=3e-3 * p_fast.sigma0)
        rich = velocity_oracle(
            c, SpinStatistics.BOSON, p_fast, step=3e-3 * p_fast.sigma0, richardson=True
        )
        worse += abs(plain.vy1 - v.vy1) + abs(plain.vy2 - v.vy2)
        better += abs(rich.vy1 - v.vy1) + abs(rich.vy2 - v.vy2)
    assert better < 0.01 * worse


def test_parity_is_exact(p_fast, stats, rng):
    for c in random_points(p_fast, rng, 200, min_gap=1e-9):
        m = PairConfiguration(c.x1, -c.y1, c.x2, -c.y2, c.t)
        v = velocity_closed_form(c, stats, p_fast)
        w = velocity_closed_form(m, stats, p_fast)
        assert w.vy1 == -v.vy1
        assert w.vy2 == -v.vy2


def test_exchange_reflection_is_exact(p_fast, stats, rng):
    # swapping the particles and mirroring the plane swaps the velocities
    for c in random_points(p_fast, rng, 200, min_gap=1e-9):
        m = PairConfiguration(c.x1, -c.y2, c.x2, -c.y1, c.t)
        v = velocity_closed_form(c, stats, p_fast)
        w = velocity_closed_form(m, stats, p_fast)
        assert v.vy1 == -w.vy2
        assert v.vy2 == -w.vy1


def test_mirror_pair_has_opposite_velocities(p_fast, stats, rng):
    for _ in range(50):
        y = float(rng.uniform(1e-8, 2 * p_fast.Y))
        t = float(rng.uniform(0.0, 1e-7))
        v = velocity_closed_form(PairConfiguration(0, y, 0, -y, t), stats, p_fast)
        assert v.vy2 == -v.vy1


def test_com_velocity_independent_of_statistics(p_fast, rng):
    # (vy1 + vy2)/2 depends only on the mean coordinate and time
    for c in random_points(p_fast, rng, 40, min_gap=0.05 * p_fast.sigma0):
        T = c.t / p_fast.tau
        expected = 0.5 * (c.y1 + c.y2) * T / ((1 + T * T) * p_fast.tau)
        for stats in SpinStatistics:
            v = velocity_closed_form(c, stats, p_fast)
            assert 0.5 * (v.vy1 + v.vy2) == pytest.approx(expected, rel=1e-11, abs=1e-14)


def test_com_closed_form_scaling(p_fast):
    for t, ratio in ((1e-8, 1.1554452124260477), (1e-7, 5.8741266492839115)):
        assert com_closed_form(1.3e-6, t, p_fast) == pytest.approx(1.3e-6 * ratio, rel=1e-12)
        assert abs(sigma_t(t, p_fast)) / p_fast.sigma0 == pytest.approx(ratio, rel=1e-12)
    assert com_closed_form(0.0, 5e-8, p_fast) == 0.0


def test_interference_fades_at_late_times(p_slow):
    # At positions riding the spreading profile the interference part of the
    # velocity decays ~1/T^2 relative to the drift, so the two statistics
    # converge to the same flow.
    eta = (1.2, -0.4)
    ratios, diffs = [], []
    for mult in (10, 20, 40, 80, 160):
        t = mult * p_slow.tau
        spread = math.hypot(1.0, mult) * p_slow.sigma0
        c = PairConfiguration(0.0, eta[0] * spread, 0.0, eta[1] * spread, t)
        T = t / p_slow.tau
        # single-packet spreading drift y T / ((1 + T^2) tau) of each particle
        drift1 = c.y1 * T / ((1.0 + T * T) * p_slow.tau)
        drift2 = c.y2 * T / ((1.0 + T * T) * p_slow.tau)
        worst = 0.0
        for stats in SpinStatistics:
            v = velocity_closed_form(c, stats, p_slow)
            worst = max(worst, abs((v.vy1 - drift1) / drift1), abs((v.vy2 - drift2) / drift2))
        ratios.append(worst)
        vb = velocity_closed_form(c, SpinStatistics.BOSON, p_slow)
        vf = velocity_closed_form(c, SpinStatistics.FERMION, p_slow)
        diffs.append(
            max(abs(vb.vy1 - vf.vy1), abs(vb.vy2 - vf.vy2))
            / max(abs(vb.vy1), abs(vb.vy2))
        )
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] < 0.01 * ratios[0]
    assert all(a > b for a, b in zip(diffs, diffs[1:]))
    assert diffs[-1] < 1e-3


def test_fermion_diagonal_raises(p_fast):
    with pytest.raises(NodeProximityError):
        velocity_closed_form(
            PairConfiguration(0.0, 1e-6, 0.0, 1e-6, 3e-9), SpinStatistics.FERMION, p_fast
        )


def test_oracle_raises_near_node(p_fast):
    c = PairConfiguration(0.0, 1e-6, 0.0, 1e-6 + 1e-13, 3e-9)
    with pytest.raises(NodeProximityError):
        velocity_oracle(c, SpinStatistics.FERMION, p_fast)


def test_boson_has_no_nodes(p_fast, rng):
    # boson denominator stays positive even on the diagonal
    for _ in range(50):
        y = float(rng.uniform(-2 * p_fast.Y, 2 * p_fast.Y))
        t = float(rng.uniform(1e-10, 1e-7))
        v = velocity_closed_form(PairConfiguration(0, y, 0, y, t), SpinStatistics.BOSON, p_fast)
        assert math.isfinite(v.vy1) and math.isfinite(v.vy2)



EPS = 2.0**-52


def sincos_velocity(d, T, beta, sign):
    """The half-separation velocity and its denominator through sin and cos of the full phase."""
    s2 = 1.0 + T * T
    u = 2.0 * beta * d / s2
    ex = math.exp(-abs(u))
    phase = T * u
    num = 2.0 * ex * math.sin(phase) + sign * T * math.copysign(1.0 - ex * ex, u)
    den = 2.0 * ex * math.cos(phase) + sign * (1.0 + ex * ex)
    return d * T / s2 - beta * num / (s2 * den), sign * den


def _magnitude(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


@settings(max_examples=300, deadline=None)
@given(
    beta=_magnitude(-2.0, 4.0),
    beta_d=st.builds(lambda m, s: m * s, _magnitude(-8.0, 6.0), st.sampled_from((1.0, -1.0))),
    T=st.one_of(st.just(0.0), _magnitude(-3.0, 3.0)),
    c0=st.floats(-3.0, 3.0),
    sign=st.sampled_from((1, -1)),
)
@example(beta=5.0, beta_d=4.0e5, T=7.0, c0=0.3, sign=-1)
@example(beta=2.0e3, beta_d=1.0e-7, T=30.0, c0=-1.0, sign=-1)
def test_half_angle_kernels_at_large_phases(beta, beta_d, T, c0, sign):
    # Phases T beta d / (1 + T^2) reach 10^5 and more. Each check allows a few
    # roundings of the phase and of each term, amplified by how close the
    # interference denominator comes to a node (the 4 e / den factor): that
    # is the reference's own conditioning, and near a node every form of the
    # kernel loses digits to cancellation.
    s2 = 1.0 + T * T
    c = c0 * math.sqrt(s2)
    e1, e2 = c + beta_d / beta, c - beta_d / beta
    # the kernels take |d|; the density below is exchange-symmetric in e1, e2
    d, c0 = abs(0.5 * (e1 - e2)), 0.5 * (e1 + e2) / math.sqrt(s2)
    v, den = reduced_velocity(d, T, beta, sign)
    assume(den >= NODE_GUARD)
    w, x = beta / s2, beta * d / s2
    e = math.exp(-2.0 * abs(x))
    phase = 2.0 * T * x
    node = 1.0 + 4.0 * e * (1.0 + abs(phase)) / den
    scale = abs(d * T / s2) + w * (1.0 + T) * node / den

    # the half-angle kernel against the full-angle sin/cos form
    v_ref, den_ref = sincos_velocity(d, T, beta, sign)
    assert abs(den - den_ref) <= 16 * EPS * (den + 4.0 * e * (1.0 + abs(phase)))
    assert abs(v - v_ref) <= 16 * EPS * scale

    # the scalar twin against the array twin
    v_arr, den_arr = reduced_velocity_array(np.array([d]), np.array([T]), beta, sign)
    assert abs(den_arr[0] - den) <= 16 * EPS * (den + 4.0 * e * (1.0 + abs(phase)))
    assert abs(v_arr[0] - v) <= 16 * EPS * scale
    # given the stage-time factors, as the batch loop passes them, it gives
    # the same bits
    T_arr = np.array([T])
    s2_arr = 1.0 + T_arr * T_arr
    factored = reduced_velocity_array(
        np.array([d]), T_arr, beta, sign, beta / s2_arr, T_arr / s2_arr
    )
    np.testing.assert_array_equal(factored, (v_arr, den_arr))

    # the step loops' floor test reads the density off the denominator; with
    # sigma0 = tau = 1 the joint density takes beta, eta and T unrounded
    p = PhysicalParams(m=0.5, hbar=1.0, sigma0=1.0, Y=beta, kx=1.0, d=1.0, L=1.0)
    stats = SpinStatistics.BOSON if sign > 0 else SpinStatistics.FERMION
    n2 = normalization_N(stats, p)
    r = abs(d) - beta
    density = n2 / (2.0 * math.pi) * math.exp(-c0 * c0) * (den / s2 * math.exp(-(r * r) / s2))
    want = float(joint_density_y(e1, e2, T, stats, p))
    assume(density > 1e-290 and want > 1e-290)
    exponents = c0 * c0 + (d * d + beta * beta) / s2
    cond = (1.0 + 4.0 * e / den) * (1.0 + exponents + abs(T * x))
    assert abs(density - want) <= max(1e-12, 16 * EPS * cond) * want


@settings(max_examples=300, deadline=None)
@given(
    beta=_magnitude(-2.0, 4.0),
    beta_d=_magnitude(-12.0, -2.0),
    T=st.one_of(st.just(0.0), _magnitude(-3.0, 3.0)),
    sign=st.sampled_from((1, -1)),
)
def test_kernels_just_below_the_diagonal(beta, beta_d, T, sign):
    # The kernels take d >= 0, but a stage of a step from a small d can land
    # just below 0. There the velocity is still the odd one, to the large-
    # phase test's rounding bound, and den carries a factor exp(4 |x|).
    s2 = 1.0 + T * T
    d = -beta_d / beta
    v, den = reduced_velocity(d, T, beta, sign)
    v_arr, den_arr = reduced_velocity_array(np.array([d]), np.array([T]), beta, sign)
    assume(den >= NODE_GUARD and den_arr[0] >= NODE_GUARD)
    w, x = beta / s2, beta * d / s2
    e = math.exp(-2.0 * abs(x))
    phase = 2.0 * T * x
    v_ref, den_ref = sincos_velocity(d, T, beta, sign)
    den_ref *= math.exp(4.0 * abs(x))
    for v_k, den_k in ((v, den), (v_arr[0], den_arr[0])):
        node = 1.0 + 4.0 * e * (1.0 + abs(phase)) / den_k
        scale = abs(d * T / s2) + w * (1.0 + T) * node / den_k
        assert abs(den_k - den_ref) <= 16 * EPS * (den_k + 4.0 * e * (1.0 + abs(phase)))
        assert abs(v_k - v_ref) <= 16 * EPS * scale
