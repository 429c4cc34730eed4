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
from pairslit.fourslit import property_report
from pairslit.wavefunction import pair_images

from fd_reference import reference_velocity
from oracles import velocity_closed_form
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
    # against the corrected state's own exact guidance
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
        vc = corrected_velocity(SlitRegion.RIGHT_LEFT, conf, p_slow)
        v_scale = max(abs(vel.vy1), abs(vel.vy2), 1e-3)
        assert abs(vc.vy1 - vel.vy1) <= 1e-5 * v_scale
        assert abs(vc.vy2 - vel.vy2) <= 1e-5 * v_scale
        assert abs(vc.vx1 - vel.vx1) <= 1e-4 * p_slow.x_speed
        assert abs(vc.vx2 - vel.vx2) <= 1e-4 * p_slow.x_speed
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


REPORT_NAMES = [
    "naive state: longitudinal velocities vanish",
    "naive state: factors into longitudinal interference times a transverse pair state",
    "corrected state: x2-reflection reproduces the double-slit pair state",
    "mapped trajectories: transverse velocities match the corrected state",
    "mapped trajectories: longitudinal velocities are +-drift",
]


def test_property_report_passes_at_seed_0(p_slow):
    checks = property_report(p_slow, IntegratorConfig(), np.random.default_rng(0))
    assert [name for name, _, _ in checks] == REPORT_NAMES
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


# The exact velocities against Richardson-extrapolated central differences
# of the amplitude, per point. Over 300 draws per case and regime the largest
# vy gap was 8.1e-11 of max(|vy|, sigma0 / tau); the naive state's |vx| stayed
# below 4e-14 of the drift and its vy within 4.3e-15 of the double-slit
# closed form, and the corrected state's vx within 5.6e-16 of +-drift.
# Differences cannot check vx: their own rounding of the plane wave's phase
# moves it by up to about 5e-7 of the drift.
REFERENCE_VY = 1e-9
NAIVE_VX = 1e-12
NAIVE_VY = 1e-12
CORRECTED_VX = 1e-14


def velocity_case(kind, p, u):
    """(configuration, exact velocity, amplitude) of one four-slit state at one drawn point."""
    a, b, c, d, e = u
    y1, y2 = (4 * b - 2) * p.Y, (4 * d - 2) * p.Y
    if kind.startswith("naive"):
        stats = SpinStatistics.FERMION if kind == "naive-fermion" else SpinStatistics.BOSON
        conf = PairConfiguration((6 * a - 3) * p.sigma0, y1, (6 * c - 3) * p.sigma0, y2,
                                 e * p.flight_time)
        # away from interference nodes, as the four-slit check draws
        assume(interference_contrast(stats, conf, p) > 0.1)
        return (conf, lambda: naive_velocity(conf, stats, p),
                lambda *q: naive_four_slit_psi(stats, PairConfiguration(*q), p))
    region = SlitRegion(kind.removeprefix("corrected-"))
    x0 = 2 * p.d
    right, left = x0 + 2 * p.sigma0 * a, -x0 - 2 * p.sigma0 * c
    x1, x2 = (right, left) if region is SlitRegion.RIGHT_LEFT else (left, right)
    conf = PairConfiguration(x1, y1, x2, y2, e * min(1e-8, p.flight_time))
    return (conf, lambda: corrected_velocity(region, conf, p),
            lambda *q: corrected_four_slit_psi(region, PairConfiguration(*q), p))


unit = st.floats(0.0, 1.0)


@pytest.mark.parametrize("regime", ["slow", "fast"])
@pytest.mark.parametrize("kind", ["naive-boson", "naive-fermion", "corrected-right_left",
                                  "corrected-left_right"])
@settings(max_examples=25, deadline=None)
@given(u=st.tuples(unit, unit, unit, unit, unit))
def test_exact_velocities_match_references(p_slow, p_fast, kind, regime, u):
    p = p_slow if regime == "slow" else p_fast
    conf, exact_velocity, amplitude = velocity_case(kind, p, u)
    try:
        v = exact_velocity()
    except NodeProximityError:
        assume(False)
    ref = reference_velocity(amplitude, conf, p, richardson=True)
    vy_scale = max(abs(ref.vy1), abs(ref.vy2), p.sigma0 / p.tau)
    assert abs(v.vy1 - ref.vy1) <= REFERENCE_VY * vy_scale
    assert abs(v.vy2 - ref.vy2) <= REFERENCE_VY * vy_scale
    drift = p.x_speed
    if kind.startswith("naive"):
        # the transverse flow is the symmetric double-slit flow for either sign
        pair = velocity_closed_form(conf, SpinStatistics.BOSON, p)
        vy_scale = max(abs(pair.vy1), abs(pair.vy2), p.sigma0 / p.tau)
        assert abs(v.vx1) <= NAIVE_VX * drift and abs(v.vx2) <= NAIVE_VX * drift
        assert abs(v.vy1 - pair.vy1) <= NAIVE_VY * vy_scale
        assert abs(v.vy2 - pair.vy2) <= NAIVE_VY * vy_scale
    else:
        sign = 1.0 if kind == "corrected-right_left" else -1.0
        assert abs(v.vx1 - sign * drift) <= CORRECTED_VX * drift
        assert abs(v.vx2 + sign * drift) <= CORRECTED_VX * drift


def explicit_amplitudes(stats, c, p):
    """The naive and both corrected states, each written out from its slit images."""
    (u1, u2), (l1, l2), (mu1, mu2), (ml1, ml2) = pair_images(c, p)
    s = stats.sign
    return (u1 * ml2 + s * (u2 * ml1) + l1 * mu2 + s * (l2 * mu1),
            u1 * ml2 + l1 * mu2,
            u2 * ml1 + l2 * mu1)


@pytest.mark.parametrize("regime", ["slow", "fast"])
def test_amplitudes_equal_their_explicit_sums_bitwise(p_slow, p_fast, regime, stats):
    # each product keeps its operand order (image of particle 1 first in a
    # forward term, of particle 2 in an exchanged one) and the terms add left
    # to right: complex multiplication does not commute bit for bit on every
    # SIMD path, and a pairwise sum adds in another order
    p = p_slow if regime == "slow" else p_fast
    rng = np.random.default_rng(25)
    n = 257
    right = 2 * p.d + rng.uniform(0.0, 2 * p.sigma0, n)
    left = -2 * p.d - rng.uniform(0.0, 2 * p.sigma0, n)
    y1, y2 = rng.uniform(-2 * p.Y, 2 * p.Y, (2, n))
    t = rng.uniform(0.0, p.flight_time, n)
    xa, xb = rng.uniform(-3 * p.sigma0, 3 * p.sigma0, (2, n))
    states = (
        (lambda c: naive_four_slit_psi(stats, c, p), 0, PairConfiguration(xa, y1, xb, y2, t)),
        (lambda c: corrected_four_slit_psi(SlitRegion.RIGHT_LEFT, c, p), 1,
         PairConfiguration(right, y1, left, y2, t)),
        (lambda c: corrected_four_slit_psi(SlitRegion.LEFT_RIGHT, c, p), 2,
         PairConfiguration(left, y1, right, y2, t)),
    )
    for amplitude, row, c in states:
        assert (amplitude(c) == explicit_amplitudes(stats, c, p)[row]).all()
        for k in range(0, n, 32):
            point = PairConfiguration(*(float(getattr(c, f)[k])
                                        for f in ("x1", "y1", "x2", "y2", "t")))
            assert amplitude(point) == explicit_amplitudes(stats, point, p)[row]


@pytest.mark.parametrize("regime", ["slow", "fast"])
def test_property_report_for_seeds_0_to_39(p_slow, p_fast, regime):
    # slow is the baseline four-slit-check runs, where every check passes.
    # At the fast one the mapped trajectories reach x of about 0.2 m, where a
    # central-difference step of 1e-3 / kx spans only a few hundred ulps of
    # x; the exact velocities take no step, so the mapped checks pass there
    # too. So does the factorization check, whose longitudinal factor takes
    # its phase of up to about 1e6 rad from kx sigma0 and x / sigma0 as the
    # amplitudes do: its worst asymmetry over these seeds is 5.6e-10.
    fast_checks = [REPORT_NAMES[1], *REPORT_NAMES[3:]]
    p, checked = (p_slow, REPORT_NAMES) if regime == "slow" else (p_fast, fast_checks)
    for seed in range(40):
        checks = property_report(p, IntegratorConfig(), np.random.default_rng(seed))
        assert [name for name, _, _ in checks] == REPORT_NAMES
        assert all(passed is True for name, passed, _ in checks if name in checked), (seed, checks)
