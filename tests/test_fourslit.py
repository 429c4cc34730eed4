import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pairslit import (
    IntegratorConfig,
    NodeProximityError,
    PairConfiguration,
    PairVelocity,
    RegionViolationError,
    SlitRegion,
    SpinStatistics,
    corrected_four_slit_psi,
    corrected_velocity,
    naive_four_slit_psi,
    naive_velocity,
    psi_pair,
    region_of,
)
from pairslit.fourslit import _log_gradient_velocity, property_report
from pairslit.wavefunction import initial_density_peak, pair_images

from fd_reference import reference_velocity
from oracles import joint_density, velocity_closed_form
from pair_transport import integrate_one, map_trajectory_to_double_slit


def samples(traj):
    """(configuration, velocity) at each sample of a trajectory."""
    cols = (traj.x1, traj.y1, traj.x2, traj.y2, traj.t, traj.vx1, traj.vy1, traj.vx2, traj.vy2)
    for x1, y1, x2, y2, t, vx1, vy1, vx2, vy2 in zip(*(c.tolist() for c in cols)):
        yield PairConfiguration(x1, y1, x2, y2, t), PairVelocity(vx1, vy1, vx2, vy2)


def draw_conf(p, rng, x_span, t_max):
    return PairConfiguration(
        float(rng.uniform(-x_span, x_span)),
        float(rng.uniform(-2 * p.Y, 2 * p.Y)),
        float(rng.uniform(-x_span, x_span)),
        float(rng.uniform(-2 * p.Y, 2 * p.Y)),
        float(rng.uniform(0.0, t_max)),
    )


def interference_contrast(stats, c, p):
    # |Psi| relative to the largest single product term
    mags = np.abs(pair_images(c, p))
    return abs(naive_four_slit_psi(stats, c, p)) / (mags[:, 0].max() * mags[:, 1].max())


def test_region_of(p_fast):
    d = p_fast.d
    a = PairConfiguration(2 * d, 0.0, -2 * d, 0.0, 0.0)
    assert region_of(a, p_fast) is SlitRegion.RIGHT_LEFT
    b = PairConfiguration(-2 * d, 0.0, 2 * d, 0.0, 0.0)
    assert region_of(b, p_fast) is SlitRegion.LEFT_RIGHT


@pytest.mark.parametrize("x1,x2", [(0.0, -2e-5), (2e-5, 0.0), (2e-5, 2e-5), (-2e-5, -2e-5)])
def test_region_violation(p_fast, x1, x2):
    with pytest.raises(RegionViolationError):
        region_of(PairConfiguration(x1, 0.0, x2, 0.0, 0.0), p_fast)


def test_naive_state_exchange_sign(p_fast, stats, rng):
    for _ in range(10):
        c = draw_conf(p_fast, rng, 3e-6, 1e-8)
        swapped = PairConfiguration(c.x2, c.y2, c.x1, c.y1, c.t)
        a = naive_four_slit_psi(stats, c, p_fast)
        b = naive_four_slit_psi(stats, swapped, p_fast)
        assert b == pytest.approx(stats.sign * a, rel=1e-12, abs=1e-3)


def test_naive_longitudinal_freeze(p_slow, stats, rng):
    # the four-slit symmetrized state predicts zero longitudinal velocity;
    # probe away from interference nodes where the ratio is well conditioned
    worst = 0.0
    found = 0
    while found < 12:
        c = draw_conf(p_slow, rng, 3e-6, 1e-8)
        if interference_contrast(stats, c, p_slow) < 0.1:
            continue
        found += 1
        v = naive_velocity(c, stats, p_slow)
        vx1, vx2 = v.vx1, v.vx2
        worst = max(worst, abs(vx1), abs(vx2))
    assert worst < 1e-5 * p_slow.x_speed


def test_naive_factorization_identity(p_slow, stats, rng):
    # Psi(xa, xb) cos(k(xc - xd)) = Psi(xc, xd) cos(k(xa - xb)) for bosons
    # (sin for fermions): the longitudinal factor separates from the rest.
    factor = math.cos if stats is SpinStatistics.BOSON else math.sin
    for _ in range(25):
        y1, y2 = rng.uniform(-2 * p_slow.Y, 2 * p_slow.Y, size=2)
        xa, xb, xc, xd = rng.uniform(-3e-6, 3e-6, size=4)
        t = float(rng.uniform(0.0, 1e-7))
        lhs = naive_four_slit_psi(
            stats, PairConfiguration(xa, y1, xb, y2, t), p_slow
        ) * factor(p_slow.kx * (xc - xd))
        rhs = naive_four_slit_psi(
            stats, PairConfiguration(xc, y1, xd, y2, t), p_slow
        ) * factor(p_slow.kx * (xa - xb))
        scale = max(abs(lhs), abs(rhs), 1e-300)
        assert abs(lhs - rhs) <= 1e-9 * scale


def test_corrected_state_is_reflected_pair_state(p_slow, rng):
    # within a detection region the state is the symmetric double-slit pair
    # state with the leftward longitudinal coordinate reflected, times one
    # configuration-independent constant
    x0 = 2 * p_slow.d
    ratios = []
    for _ in range(15):
        c = PairConfiguration(
            x0 + float(rng.uniform(0.0, 2e-6)),
            float(rng.uniform(-2 * p_slow.Y, 2 * p_slow.Y)),
            -x0 - float(rng.uniform(0.0, 2e-6)),
            float(rng.uniform(-2 * p_slow.Y, 2 * p_slow.Y)),
            float(rng.uniform(0.0, 5e-8)),
        )
        reflected = PairConfiguration(c.x1, c.y1, -c.x2, c.y2, c.t)
        ratios.append(
            corrected_four_slit_psi(SlitRegion.RIGHT_LEFT, c, p_slow)
            / psi_pair(SpinStatistics.BOSON, reflected, p_slow)
        )
    first = ratios[0]
    assert all(abs(r - first) <= 1e-9 * abs(first) for r in ratios)
    # the constant is the inverse of the dropped pair normalization
    expected = 1.0 / math.sqrt(0.5 / (1 + math.exp(-p_slow.beta**2)))
    assert abs(first) == pytest.approx(expected, rel=1e-12)


def test_corrected_state_left_right_swaps_particles(p_slow, rng):
    x0 = 2 * p_slow.d
    for _ in range(10):
        y1, y2 = rng.uniform(-p_slow.Y, p_slow.Y, size=2)
        t = float(rng.uniform(0.0, 2e-8))
        c = PairConfiguration(x0, float(y1), -x0, float(y2), t)
        swapped = PairConfiguration(-x0, float(y2), x0, float(y1), t)
        a = corrected_four_slit_psi(SlitRegion.RIGHT_LEFT, c, p_slow)
        b = corrected_four_slit_psi(SlitRegion.LEFT_RIGHT, swapped, p_slow)
        assert b == pytest.approx(a, rel=1e-12)


def test_corrected_state_region_mismatch(p_slow):
    c = PairConfiguration(2 * p_slow.d, 0.0, -2 * p_slow.d, 0.0, 0.0)
    with pytest.raises(RegionViolationError):
        corrected_four_slit_psi(SlitRegion.LEFT_RIGHT, c, p_slow)


def test_mapping_is_involution(p_slow):
    traj = integrate_one(
        PairConfiguration(2 * p_slow.d, 5e-6, 2 * p_slow.d, -4e-6, 0.0),
        1e-8,
        IntegratorConfig(),
        SpinStatistics.BOSON,
        p_slow,
        np.linspace(0.0, 1e-8, 7),
    )
    for region in SlitRegion:
        mapped = map_trajectory_to_double_slit(traj, region)
        back = map_trajectory_to_double_slit(mapped, region)
        for name in ("t", "x1", "y1", "x2", "y2", "vx1", "vy1", "vx2", "vy2"):
            np.testing.assert_array_equal(getattr(back, name), getattr(traj, name))
        # transverse content is untouched by the map itself
        for name in ("y1", "y2", "vy1", "vy2"):
            np.testing.assert_array_equal(getattr(mapped, name), getattr(traj, name))


def test_mapped_trajectory_obeys_corrected_state(p_slow):
    # integrate the reflected problem, map it, and check its velocities
    # against the corrected state's own finite-difference guidance
    x0 = 2 * p_slow.d
    t_end = 1e-8
    times = np.linspace(0.0, t_end, 6)
    start = PairConfiguration(x0, p_slow.Y - 1.5e-6, x0, -p_slow.Y + 0.5e-6, 0.0)
    traj = integrate_one(
        start, t_end, IntegratorConfig(), SpinStatistics.BOSON, p_slow, times
    )
    mapped = map_trajectory_to_double_slit(traj, SlitRegion.RIGHT_LEFT)
    for conf, vel in samples(mapped):
        assert region_of(conf, p_slow) is SlitRegion.RIGHT_LEFT
        fd = corrected_velocity(SlitRegion.RIGHT_LEFT, conf, p_slow)
        v_scale = max(abs(vel.vy1), abs(vel.vy2), 1e-3)
        assert abs(fd.vy1 - vel.vy1) <= 1e-5 * v_scale
        assert abs(fd.vy2 - vel.vy2) <= 1e-5 * v_scale
        assert abs(fd.vx1 - vel.vx1) <= 1e-4 * p_slow.x_speed
        assert abs(fd.vx2 - vel.vx2) <= 1e-4 * p_slow.x_speed
        assert vel.vx2 == -p_slow.x_speed  # leftward particle after the map


def test_naive_velocity_transverse_is_symmetric_flow(p_fast, rng):
    # the naive state factors into a longitudinal interference term times the
    # exchange-symmetric transverse pair state, for either sign: its
    # transverse flow is always the symmetric double-slit flow
    for stats in SpinStatistics:
        found = 0
        while found < 6:
            y1, y2 = rng.uniform(-p_fast.Y, p_fast.Y, size=2)
            x1, x2 = rng.uniform(-3e-6, 3e-6, size=2)
            t = float(rng.uniform(0.0, 5e-9))
            c = PairConfiguration(float(x1), float(y1), float(x2), float(y2), t)
            if interference_contrast(stats, c, p_fast) < 0.1:
                continue
            if abs(y1 - y2) < 0.3 * p_fast.sigma0:
                continue
            found += 1
            v4 = naive_velocity(c, stats, p_fast)
            v2 = velocity_closed_form(c, SpinStatistics.BOSON, p_fast)
            scale = max(abs(v2.vy1), abs(v2.vy2), 1e-6)
            assert abs(v4.vy1 - v2.vy1) <= 1e-5 * scale
            assert abs(v4.vy2 - v2.vy2) <= 1e-5 * scale


def test_property_report_passes_at_seed_0(p_slow):
    checks = property_report(p_slow, IntegratorConfig(), np.random.default_rng(0))
    assert [name for name, _, _ in checks] == [
        "naive state: longitudinal velocities vanish",
        "naive state: factors into longitudinal interference times a transverse pair state",
        "corrected state: x2-reflection reproduces the double-slit pair state",
        "mapped trajectories: transverse velocities match the corrected state",
        "mapped trajectories: longitudinal velocities are +-drift",
    ]
    assert all(passed is True for _, passed, _ in checks)
    assert all(isinstance(detail, str) and detail for _, _, detail in checks)


def test_region_of_checks_every_point(p_fast):
    d = p_fast.d
    inside = PairConfiguration(np.array([2 * d, 3 * d]), 0.0, np.array([-2 * d, -3 * d]), 0.0)
    assert region_of(inside, p_fast) is SlitRegion.RIGHT_LEFT
    straddling = PairConfiguration(np.array([2 * d, 0.0]), 0.0, np.array([-2 * d, -2 * d]), 0.0)
    with pytest.raises(RegionViolationError):
        region_of(straddling, p_fast)
    with pytest.raises(RegionViolationError):
        corrected_four_slit_psi(SlitRegion.RIGHT_LEFT, straddling, p_fast)


def test_amplitudes_broadcast_like_pointwise_calls(p_slow, stats, rng):
    # one array call equals the per-point calls up to rounding
    points = [draw_conf(p_slow, rng, 3e-6, 1e-8) for _ in range(7)]
    arrays = PairConfiguration(*(np.array([getattr(c, k) for c in points])
                                 for k in ("x1", "y1", "x2", "y2", "t")))
    shifted = [PairConfiguration(c.x1 + 2 * p_slow.d, c.y1, c.x2 - 2 * p_slow.d, c.y2, c.t)
               for c in points]
    shifted_arrays = PairConfiguration(arrays.x1 + 2 * p_slow.d, arrays.y1,
                                       arrays.x2 - 2 * p_slow.d, arrays.y2, arrays.t)
    for one, many in (
        ([naive_four_slit_psi(stats, c, p_slow) for c in points],
         naive_four_slit_psi(stats, arrays, p_slow)),
        ([psi_pair(stats, c, p_slow) for c in points], psi_pair(stats, arrays, p_slow)),
        ([corrected_four_slit_psi(SlitRegion.RIGHT_LEFT, c, p_slow) for c in shifted],
         corrected_four_slit_psi(SlitRegion.RIGHT_LEFT, shifted_arrays, p_slow)),
    ):
        assert many.shape == (7,)
        np.testing.assert_allclose(many, one, rtol=1e-13)


# Stencil against per-point differences: the largest gaps over about 2,800
# Hypothesis examples were 7.3e-11 of the drift in vx and 8.0e-10 in vy, in
# units of max(|vy|, sigma0 / tau), both for the fermion pair state close to
# the density floor of the oracle-fermion draws.
STENCIL_VX = 1e-9
STENCIL_VY = 1e-8


def fd_case(kind, p, u):
    """(configuration, stencil velocity, per-point reference velocity) at one drawn point."""
    a, b, c, d, e = u
    y1, y2 = (4 * b - 2) * p.Y, (4 * d - 2) * p.Y
    stats = SpinStatistics.FERMION if "fermion" in kind else SpinStatistics.BOSON
    if kind == "corrected":
        x0, region = 2 * p.d, SlitRegion.RIGHT_LEFT
        conf = PairConfiguration(x0 + 2 * p.sigma0 * a, y1, -x0 - 2 * p.sigma0 * c, y2,
                                 e * min(1e-8, p.flight_time))
        return (conf, lambda: corrected_velocity(region, conf, p),
                lambda: reference_velocity(
                    lambda *q: corrected_four_slit_psi(region, PairConfiguration(*q), p), conf, p))
    if kind.startswith("naive"):
        conf = PairConfiguration((6 * a - 3) * p.sigma0, y1, (6 * c - 3) * p.sigma0, y2,
                                 e * p.flight_time)
        # away from interference nodes, as the four-slit check draws
        assume(interference_contrast(stats, conf, p) > 0.1)
        return (conf, lambda: naive_velocity(conf, stats, p),
                lambda: reference_velocity(
                    lambda *q: naive_four_slit_psi(stats, PairConfiguration(*q), p), conf, p))
    conf = PairConfiguration(5e-6 * a, y1, 5e-6 * c, y2, 1e-7 * e)
    assume(joint_density(conf, stats, p) >= 1e-10 * initial_density_peak(stats, p))

    def amplitude(*q):
        return psi_pair(stats, PairConfiguration(*q), p)

    return (conf, lambda: _log_gradient_velocity(amplitude, conf, p),
            lambda: reference_velocity(amplitude, conf, p))


unit = st.floats(0.0, 1.0)


@pytest.mark.parametrize("regime", ["slow", "fast"])
@pytest.mark.parametrize("kind", ["naive-boson", "naive-fermion", "corrected", "oracle-boson",
                                  "oracle-fermion"])
@settings(max_examples=15, deadline=None)
@given(u=st.tuples(unit, unit, unit, unit, unit))
def test_stencil_matches_per_point_reference(p_slow, p_fast, kind, regime, u):
    p = p_slow if regime == "slow" else p_fast
    conf, stencil_velocity, reference = fd_case(kind, p, u)
    try:
        v = stencil_velocity()
    except NodeProximityError:
        assume(False)
    ref = reference()
    vy_scale = max(abs(ref.vy1), abs(ref.vy2), p.sigma0 / p.tau)
    assert abs(v.vx1 - ref.vx1) <= STENCIL_VX * p.x_speed
    assert abs(v.vx2 - ref.vx2) <= STENCIL_VX * p.x_speed
    assert abs(v.vy1 - ref.vy1) <= STENCIL_VY * vy_scale
    assert abs(v.vy2 - ref.vy2) <= STENCIL_VY * vy_scale
