import dataclasses
import math

import numpy as np
import pytest

from pairslit import (
    IntegratorConfig,
    PairConfiguration,
    SpinStatistics,
    TrajectoryStatus,
)
from pairslit.integrator import integrate_pairs

from oracles import com_closed_form
from pair_transport import endpoint, integrate_one


def test_config_defaults():
    cfg = IntegratorConfig()
    assert cfg.rel_tol == 1e-9 and cfg.abs_tol == 1e-9 and cfg.density_floor == 1e-12
    # the controller sizes every step; only tolerances and the floor are settable
    names = [f.name for f in dataclasses.fields(IntegratorConfig)]
    assert names == ["rel_tol", "abs_tol", "density_floor"]


@pytest.mark.parametrize(
    "kw",
    [
        {"rel_tol": 0.0},
        {"rel_tol": -1e-9},
        {"abs_tol": 0.0},
        {"density_floor": 0.0},
        {"abs_tol": -1e-9},
        # an infinite floor would abort every pair at release without a word
        {"density_floor": math.inf},
        {"density_floor": math.nan},
    ],
)
def test_config_rejects_nonpositive(kw):
    with pytest.raises(ValueError, match=f"{next(iter(kw))} must be finite and > 0"):
        IntegratorConfig(**kw)


def test_config_accepts_a_floor_above_the_peak():
    assert IntegratorConfig(density_floor=2.0).density_floor == 2.0


def test_com_matches_closed_form(p_fast, p_slow, stats):
    # asymmetric releases in both longitudinal regimes
    starts = [(6.1e-6, -3.2e-6), (4.0e-6, -5.5e-6), (-1.0e-6, 4.2e-6)]
    for p in (p_fast, p_slow):
        t_end = p.flight_time
        times = np.linspace(0.0, t_end, 6)
        for y1, y2 in starts:
            traj = integrate_one(
                PairConfiguration(0, y1, 0, y2, 0), t_end, IntegratorConfig(), stats, p, times
            )
            assert traj.status is TrajectoryStatus.COMPLETED
            for t, a, b in zip(traj.t, traj.y1, traj.y2):
                want = com_closed_form(0.5 * (y1 + y2), t, p)
                assert abs(0.5 * (a + b) - want) < 1e-6 * p.sigma0


def test_mirror_pair_stays_mirrored_exactly(p_slow, stats):
    traj = integrate_one(
        PairConfiguration(0, 6.5e-6, 0, -6.5e-6, 0),
        1e-7,
        IntegratorConfig(),
        stats,
        p_slow,
        np.linspace(0.0, 1e-7, 11),
    )
    assert traj.status is TrajectoryStatus.COMPLETED
    np.testing.assert_array_equal(traj.y2, -traj.y1)
    np.testing.assert_array_equal(traj.vy2, -traj.vy1)


def test_negated_release_mirrors_trajectory(p_slow, stats):
    times = np.linspace(0.0, 1e-7, 7)
    a = integrate_one(
        PairConfiguration(0, 6.0e-6, 0, -3.0e-6, 0), 1e-7, IntegratorConfig(), stats, p_slow, times
    )
    b = integrate_one(
        PairConfiguration(0, -6.0e-6, 0, 3.0e-6, 0), 1e-7, IntegratorConfig(), stats, p_slow, times
    )
    for name in ("y1", "y2", "vy1", "vy2"):
        np.testing.assert_array_equal(getattr(b, name), -getattr(a, name))


def test_deterministic_repeats(p_fast):
    def run():
        return integrate_one(
            PairConfiguration(0, 5.5e-6, 0, -4.0e-6, 0),
            1e-8,
            IntegratorConfig(),
            SpinStatistics.BOSON,
            p_fast,
            np.linspace(0.0, 1e-8, 21),
        )

    a, b = run(), run()
    assert a.status is b.status
    for name in ("y1", "y2", "vy1", "vy2"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


def test_sample_times_hit_exactly(p_fast):
    times = np.array([0.0, 1.3e-9, 2.9e-9, 7.7e-9, 1e-8])
    traj = integrate_one(
        PairConfiguration(0, 5e-6, 0, -4e-6, 0),
        1e-8,
        IntegratorConfig(),
        SpinStatistics.BOSON,
        p_fast,
        times,
    )
    np.testing.assert_array_equal(traj.t, times)


def test_longitudinal_advance_is_linear(p_fast):
    x0 = 3e-6
    traj = integrate_one(
        PairConfiguration(x0, 5e-6, x0, -4e-6, 0),
        1e-8,
        IntegratorConfig(),
        SpinStatistics.BOSON,
        p_fast,
        np.linspace(0.0, 1e-8, 5),
    )
    for t, x1, x2, vx1 in zip(traj.t, traj.x1, traj.x2, traj.vx1):
        assert x1 == pytest.approx(x0 + p_fast.x_speed * t, rel=1e-14)
        assert x2 == x1
        assert vx1 == p_fast.x_speed


def test_trajectory_arrays_shape(p_fast):
    traj = integrate_one(
        PairConfiguration(0, 5e-6, 0, -4e-6, 0),
        1e-8,
        IntegratorConfig(),
        SpinStatistics.BOSON,
        p_fast,
        np.linspace(0.0, 1e-8, 9),
    )
    for name in ("t", "x1", "y1", "x2", "y2", "vx1", "vy1", "vx2", "vy2"):
        assert getattr(traj, name).shape == (9,)
    end = endpoint(traj)
    assert end.t == 1e-8 and end.y1 == traj.y1[-1]


def test_halving_tolerances_converges(p_fast):
    start = PairConfiguration(0, 5.8e-6, 0, -4.3e-6, 0)
    coarse = endpoint(integrate_one(
        start, 1e-8, IntegratorConfig(), SpinStatistics.BOSON, p_fast
    ))
    fine = endpoint(integrate_one(
        start,
        1e-8,
        IntegratorConfig(rel_tol=5e-10, abs_tol=5e-10),
        SpinStatistics.BOSON,
        p_fast,
    ))
    assert abs(coarse.y1 - fine.y1) < 1e-9 * p_fast.sigma0
    assert abs(coarse.y2 - fine.y2) < 1e-9 * p_fast.sigma0


def test_initial_density_below_floor_rejected(p_fast):
    # fermion release on the node manifold is not integrable
    _, count, status = integrate_pairs(
        np.array([(2e-6, 2e-6)]), 1e-8, IntegratorConfig(), SpinStatistics.FERMION, p_fast
    )
    assert status[0] == TrajectoryStatus.NOT_INTEGRATED and count[0] == 0


def test_density_floor_abort_truncates(p_slow):
    # with an aggressively high floor the spreading state soon drops below it
    cfg = IntegratorConfig(density_floor=0.5)
    traj = integrate_one(
        PairConfiguration(0, 5e-6, 0, -5e-6, 0),
        1e-7,
        cfg,
        SpinStatistics.BOSON,
        p_slow,
        np.linspace(0.0, 1e-7, 51),
    )
    assert traj.status is TrajectoryStatus.NODE_PROXIMITY_ABORT
    assert 0 < len(traj.t) < 51
    assert endpoint(traj).t < 1e-7


def test_step_underflow_is_not_integrated(p_slow):
    # no step above 1e-12 of the span meets these tolerances
    cfg = IntegratorConfig(rel_tol=1e-100, abs_tol=1e-100)
    _, count, status = integrate_pairs(
        np.array([(5e-6, -4e-6)]), 1e-7, cfg, SpinStatistics.BOSON, p_slow
    )
    assert status[0] == TrajectoryStatus.NOT_INTEGRATED and count[0] == 0


def test_bad_t_end_rejected(p_fast):
    for t_end in (0.0, -1e-9):
        with pytest.raises(ValueError):
            integrate_pairs(
                np.array([(5e-6, -4e-6)]), t_end, IntegratorConfig(), SpinStatistics.BOSON, p_fast
            )


def test_bad_sample_times_rejected(p_fast):
    start = PairConfiguration(0, 5e-6, 0, -4e-6, 0)
    nan = np.nan
    for times in ([0.0, 5e-9, 4e-9, 1e-8], [1e-9, 1e-8], [0.0, 5e-9], [0.0, nan, 1e-8],
                  [0.0, 3e-9, nan, 6e-9, 1e-8]):
        with pytest.raises(ValueError):
            integrate_one(
                start, 1e-8, IntegratorConfig(), SpinStatistics.BOSON, p_fast, np.array(times)
            )


def test_config_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        IntegratorConfig().rel_tol = 1e-6
