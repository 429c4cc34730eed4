import dataclasses
import math
import warnings

import numpy as np
import pytest

from pairslit import (
    EnsembleResult,
    IntegratorConfig,
    PhysicalParams,
    SamplerConfig,
    SpinStatistics,
    binned_tv_distance,
    density_distance,
    run_ensemble,
    sample_initial,
    sample_joint_y,
    sigma_t,
)
from pairslit.ensemble import _exact_bin_masses, transport_ensemble

from oracles import scaled_independent_endpoints
from pair_transport import endpoint, integrate_one


def small_run(p, stats, n=150, seed=21, **kw):
    return run_ensemble(
        SamplerConfig(method="exact_rejection", n_pairs=n, seed=seed),
        IntegratorConfig(),
        stats,
        p,
        p.flight_time,
        **kw,
    )


def test_result_shape(p_fast, stats):
    res = small_run(p_fast, stats)
    assert isinstance(res, EnsembleResult)
    assert res.endpoints.shape == (res.n_completed, 2)
    assert res.n_completed + res.aborted_count == res.n_requested == 150
    assert 0.0 <= res.same_side_fraction <= 1.0
    assert res.samples.shape == (150, 2, 5) and res.sample_count.shape == (150,)
    assert res.density_distance is not None and res.density_distance_baseline is not None


def test_same_side_fraction_at_a_wide_geometry_warns_of_nothing(p_fast):
    # Y = 5e155 m, beta = 5e13: the product y1 y2 of two endpoints overflows
    # float64, the product of their signs does not
    p = dataclasses.replace(p_fast, sigma0=1e142, Y=5e155)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = small_run(p, SpinStatistics.BOSON, n=2)
    assert res.n_completed == 2
    assert (np.abs(res.endpoints) > 1e155).all()
    assert res.same_side_fraction == 0.0  # each particle stays behind its slit


@pytest.mark.parametrize("method", ["exact_rejection", "independent_gaussian"])
def test_the_seed_spawns_the_release_and_baseline_streams(p_fast, stats, method):
    # run_ensemble draws the releases from the first child of
    # SeedSequence(seed) and the baseline of density_distance from the second
    cfg = SamplerConfig(method=method, n_pairs=150, seed=44)
    result = run_ensemble(cfg, IntegratorConfig(), stats, p_fast, p_fast.flight_time)
    a, b = np.random.SeedSequence(cfg.seed).spawn(2)
    initial = sample_initial(cfg, stats, p_fast, np.random.default_rng(a))
    expected = transport_ensemble(initial, IntegratorConfig(), stats, p_fast, p_fast.flight_time,
                                  rng=np.random.default_rng(b))
    assert result.density_distance_baseline is not None  # the baseline draw ran
    for field in dataclasses.fields(EnsembleResult):
        got, want = getattr(result, field.name), getattr(expected, field.name)
        assert type(got) is type(want), field.name
        got, want = np.asarray(got), np.asarray(want)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes()), \
            field.name


def test_seed_determinism(p_fast):
    a = small_run(p_fast, SpinStatistics.BOSON)
    b = small_run(p_fast, SpinStatistics.BOSON)
    np.testing.assert_array_equal(a.endpoints, b.endpoints)
    assert a.density_distance == b.density_distance
    assert a.density_distance_baseline == b.density_distance_baseline
    c = small_run(p_fast, SpinStatistics.BOSON, seed=22)
    assert not np.array_equal(a.endpoints, c.endpoints)


def test_com_spread_estimate(p_fast, stats):
    res = small_run(p_fast, stats, n=4000, seed=23)
    assert res.delta_y0_estimate == pytest.approx(p_fast.sigma0 / math.sqrt(2), rel=0.05)


def test_summaries_are_the_floats_of_their_means(p_fast, stats):
    # 257 drawn pairs and three at (Y, Y), whose density lies below the
    # floor: the fraction's denominator is not the release count
    initial = sample_joint_y(257, 0.0, stats, p_fast, np.random.default_rng(28))
    initial = np.concatenate([initial, np.full((3, 2), p_fast.Y)])
    res = transport_ensemble(initial, IntegratorConfig(), stats, p_fast, 1e-8,
                             rng=np.random.default_rng(0))
    assert res.n_completed == 257
    ends = res.endpoints
    same_side = float(np.mean(np.sign(ends[:, 0]) * np.sign(ends[:, 1]) > 0.0))
    com = 0.5 * (initial[:, 0] + initial[:, 1])
    spread = float(np.sqrt(np.mean(com**2)))
    assert type(res.same_side_fraction) is float and type(res.delta_y0_estimate) is float
    assert res.same_side_fraction.hex() == same_side.hex()
    assert res.delta_y0_estimate.hex() == spread.hex()


def test_centre_spread_of_a_wide_geometry_is_finite(stats):
    # Y = 5e154 m, and one pair at (Y, Y): the squares of the centres of mass
    # overflow float64, those of the centres scaled by 2^-600 do not, and
    # scaling by a power of two is exact, so the spread is that RMS scaled
    # back, to the bit
    p = PhysicalParams(m=1e-10, hbar=1.0, sigma0=1.3e154, Y=5e154, kx=1e-10, d=1.0, L=1e10)
    initial = sample_joint_y(4, 0.0, stats, p, np.random.default_rng(0))
    initial = np.concatenate([initial, np.full((1, 2), p.Y)])
    com = 0.5 * (initial[:, 0] + initial[:, 1])
    with np.errstate(over="ignore"):
        assert np.sum(com * com) == math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = transport_ensemble(initial, IntegratorConfig(), stats, p, p.flight_time,
                                 rng=np.random.default_rng(0))
    scaled = com * 2.0**-600
    spread = float(np.sqrt(np.mean(scaled * scaled))) * 2.0**600
    assert math.isfinite(res.delta_y0_estimate)
    assert res.delta_y0_estimate.hex() == spread.hex()


def test_kept_trajectories(p_fast):
    # every pair's samples stay in the table, and it ends on the endpoints
    times = np.linspace(0.0, p_fast.flight_time, 5)
    res = small_run(p_fast, SpinStatistics.BOSON, n=10, sample_times=times)
    assert res.n_completed == 10
    np.testing.assert_array_equal(res.sample_count, 5)
    np.testing.assert_array_equal(res.samples[:, :, 0], np.tile(times, (10, 1)))
    assert res.samples[:, -1, 1:3].tobytes() == res.endpoints.tobytes()


def test_density_distance_needs_points(p_fast):
    with pytest.raises(ValueError):
        density_distance(np.zeros((99, 2)), SpinStatistics.BOSON, p_fast, 1e-8)


def test_endpoints_track_density(p_slow, stats):
    res = small_run(p_slow, stats, n=2000, seed=24)
    assert res.aborted_count == 0
    assert res.density_distance <= 1.5 * res.density_distance_baseline


def test_direct_sample_self_distance(p_slow, stats, rng):
    pts = sample_joint_y(2000, 1e-7, stats, p_slow, rng)
    dist, baseline = density_distance(pts, stats, p_slow, 1e-7, rng=rng)
    assert dist <= 1.5 * baseline


def test_negative_control_fails_loudly(p_slow, stats, rng):
    # independently scaling each coordinate by the packet spread ignores the
    # interparticle flow and lands far from the true joint density
    ys0 = sample_joint_y(2000, 0.0, stats, p_slow, rng)
    control = scaled_independent_endpoints(ys0, 1e-7, p_slow)
    dist, baseline = density_distance(control, stats, p_slow, 1e-7, rng=rng)
    assert dist > 5 * baseline


@pytest.mark.parametrize("regime", ["slow", "fast"])
def test_points_are_binned_on_the_integrated_grid(p_slow, p_fast, stats, regime):
    # The cell masses are integrated on a grid of half-width 10 |sigma_t|
    # rounded to 12 decimals, below the unrounded value in both regimes. A
    # point at the unrounded half-width lies outside the cells whose masses
    # are known, so it must count in the catch-all cell.
    p, t = (p_slow, 1e-7) if regime == "slow" else (p_fast, 1e-8)
    half = 10.0 * abs(sigma_t(t, p)) / p.sigma0
    edges, masses, outside_mass = _exact_bin_masses(t, stats, p)
    assert edges[0] == -edges[-1] == -round(half, 12) and edges[-1] < half
    points = np.array([[half, 0.0], [-half, 0.0], [0.0, half], [0.0, -half]]) * p.sigma0
    assert np.all(np.abs(points / p.sigma0).max(axis=1) > edges[-1])
    want = 0.5 * (masses.sum() + abs(1.0 - outside_mass))
    assert binned_tv_distance(points, t, stats, p) == want


def histogram2d_tv(points, t, stats, p):
    # the distance with the counts taken by np.histogram2d on the same grid
    edges, masses, outside_mass = _exact_bin_masses(t, stats, p)
    pts = points / p.sigma0
    counts, _, _ = np.histogram2d(pts[:, 0], pts[:, 1], bins=(edges, edges))
    empirical = counts / pts.shape[0]
    return 0.5 * (
        np.abs(empirical - masses).sum() + abs(1.0 - empirical.sum() - outside_mass)
    )


def on_grid(v, p):
    # a length in meters that is v exactly once divided by sigma0
    x = v * p.sigma0
    for x in (x, np.nextafter(x, math.inf), np.nextafter(x, -math.inf)):
        if x / p.sigma0 == v:
            return x
    raise AssertionError(f"no double next to {v!r} sigma0 maps onto it")


@pytest.mark.parametrize("regime", ["slow", "fast"])
def test_binned_counts_match_histogram2d(p_slow, p_fast, stats, regime):
    # The distance counts its points with searchsorted and bincount; it must
    # give np.histogram2d's counts bit for bit: cells closed on the left, the
    # last cell closed on the right too, and everything off the grid, +-inf
    # and NaN in the catch-all cell.
    p = p_slow if regime == "slow" else p_fast
    for t in (0.0, p.flight_time):
        edges = _exact_bin_masses(t, stats, p)[0]
        first, inner, last = edges[0], edges[17], edges[-1]
        beyond = np.nextafter(last, math.inf)
        marks = [on_grid(v, p) for v in (first, inner, last, beyond)]
        assert [x / p.sigma0 for x in marks] == [first, inner, last, beyond]
        rng = np.random.default_rng(31)
        cases = [np.array([[x, y] for x in marks for y in marks])]
        cases += [np.array([[x, 0.0], [0.0, x], [x, x]]) for x in marks]
        for special in (math.inf, -math.inf, math.nan):
            cases.append(np.array([[special, 0.0], [0.0, special], [marks[1], special]]))
        for n, mark in ((1, marks[0]), (100, marks[2]), (250, marks[1])):
            draw = sample_joint_y(n, t, stats, p, rng)
            cases.append(draw)
            edged = draw.copy()
            edged[: n // 2 + 1, 1] = mark
            edged[-1] = [math.nan, -math.inf]
            cases.append(edged)
        for points in cases:
            assert binned_tv_distance(points, t, stats, p) == histogram2d_tv(points, t, stats, p)


@pytest.mark.parametrize(
    "shape",
    [(0, 2), (250, 3), (250, 1), (250,), (0,)],
    ids=["empty", "3-col", "1-col", "flat", "flat-empty"],
)
def test_binned_tv_distance_needs_a_point_array(p_fast, shape):
    # an empty array gave NaN with a RuntimeWarning, and an (n, 3) array was
    # scored on its first two columns
    with pytest.raises(ValueError, match=r"\(n, 2\)"):
        binned_tv_distance(np.zeros(shape), 1e-8, SpinStatistics.BOSON, p_fast)


def test_tight_com_selection_forces_opposite_sides(p_slow):
    # conditioning on a tight centre of mass at release suppresses same-side
    # detections; the selection weight stays near erf(0.1), nowhere near 1
    res = small_run(p_slow, SpinStatistics.BOSON, n=3000, seed=25)
    ends = res.endpoints
    ratio = abs(sigma_t(1e-7, p_slow)) / p_slow.sigma0
    com0 = 0.5 * ends.sum(axis=1) / ratio
    sel = np.abs(com0) < 0.1 * p_slow.sigma0
    same = ends[:, 0] * ends[:, 1] > 0
    assert sel.mean() == pytest.approx(math.erf(0.1), abs=0.03)
    assert same.mean() == pytest.approx(0.324, abs=0.04)
    assert same[sel].mean() < 0.12


def test_mirrored_ensembles(p_fast):
    # integrating the negated release of every pair mirrors each endpoint
    from pairslit import PairConfiguration

    initial = sample_initial(SamplerConfig(n_pairs=12, seed=26), SpinStatistics.BOSON, p_fast,
                             np.random.default_rng(26))
    for y1, y2 in initial.tolist():
        c = PairConfiguration(0.0, y1, 0.0, y2, 0.0)
        neg = PairConfiguration(0.0, -y1, 0.0, -y2, 0.0)
        a = integrate_one(c, 1e-8, IntegratorConfig(), SpinStatistics.BOSON, p_fast)
        b = integrate_one(neg, 1e-8, IntegratorConfig(), SpinStatistics.BOSON, p_fast)
        assert endpoint(b).y1 == -endpoint(a).y1
        assert endpoint(b).y2 == -endpoint(a).y2


def test_aborts_counted(p_slow):
    res = run_ensemble(
        SamplerConfig(method="exact_rejection", n_pairs=40, seed=27),
        IntegratorConfig(density_floor=0.9),
        SpinStatistics.BOSON,
        p_slow,
        1e-7,
    )
    assert res.aborted_count == 40
    assert res.n_completed == 0
    assert math.isnan(res.same_side_fraction)
    assert res.density_distance is None
    assert res.aborted_count / res.n_requested == 1.0
