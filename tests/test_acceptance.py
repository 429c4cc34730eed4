"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line; run with `pytest -s tests/test_acceptance.py`
to see them. The whole module finishes in a few minutes on a laptop.
"""

import itertools
import math

import numpy as np
import pytest

from pairslit import (
    IntegratorConfig,
    PairConfiguration,
    PairVelocity,
    PhysicalParams,
    SamplerConfig,
    SlitRegion,
    SpinStatistics,
    corrected_velocity,
    density_distance,
    naive_four_slit_psi,
    naive_velocity,
    run_ensemble,
    sample_joint_y,
    sigma_t,
)
from pairslit.wavefunction import pair_images

from oracles import (
    com_closed_form,
    same_side_probability,
    scaled_independent_endpoints,
    velocity_closed_form,
    velocity_oracle,
)
from pair_transport import endpoint, integrate_one, map_trajectory_to_double_slit

P_FAST = PhysicalParams.baseline(x_speed=2.0e7)
P_SLOW = PhysicalParams.baseline(x_speed=2.0e6)
REGIMES = {"fast": (P_FAST, 1.0e-8), "slow": (P_SLOW, 1.0e-7)}

# Endpoint oracle for the off-axis release scenario (boson, slow regime),
# frozen from an independent high-order integration of the closed-form field.
FIG4B_ENDPOINTS = {
    -3.5: (5.3605167638, 3.4506732101),
    -5.0: (4.7970700886, -4.7970700886),
    -6.5: (4.9836632316, -13.7948532057),
}

# Same-sign-quadrant mass of |Psi(t)|^2, frozen from independent adaptive
# quadrature of the closed-form joint density.
SAME_SIDE_SLOW = {SpinStatistics.BOSON: 0.32376052, SpinStatistics.FERMION: 0.30980734}
SAME_SIDE_FAST = 1.509e-5


def samples(traj):
    """(configuration, velocity) at each sample of a trajectory."""
    cols = (traj.x1, traj.y1, traj.x2, traj.y2, traj.t, traj.vx1, traj.vy1, traj.vx2, traj.vy2)
    for x1, y1, x2, y2, t, vx1, vy1, vx2, vy2 in zip(*(c.tolist() for c in cols)):
        yield PairConfiguration(x1, y1, x2, y2, t), PairVelocity(vx1, vy1, vx2, vy2)


def report(num, name, ok, detail):
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def ensembles_10k():
    """One n=10^4 trajectory ensemble per (regime, statistics) pair."""
    out = {}
    for rname, (p, t_end) in REGIMES.items():
        for i, stats in enumerate(SpinStatistics):
            cfg = SamplerConfig(method="exact_rejection", n_pairs=10_000, seed=1000 + i)
            out[rname, stats] = run_ensemble(cfg, IntegratorConfig(), stats, p, t_end)
    return out


def test_criterion_1_packet_spreading():
    r1 = abs(sigma_t(1e-8, P_FAST)) / P_FAST.sigma0
    r2 = abs(sigma_t(1e-7, P_FAST)) / P_FAST.sigma0
    ok = abs(r1 - 1.16) <= 0.01 and abs(r2 - 5.88) <= 0.01
    report(1, "packet spreading", ok, f"|sigma_t|/sigma0 = {r1:.4f} @1e-8s, {r2:.4f} @1e-7s")


def test_criterion_2_initial_com_spread():
    target = P_FAST.sigma0 / math.sqrt(2)
    worst = 0.0
    for i, stats in enumerate(SpinStatistics):
        rng = np.random.default_rng(200 + i)
        ys = sample_joint_y(100_000, 0.0, stats, P_FAST, rng)
        rms = math.sqrt(np.mean((0.5 * ys.sum(axis=1)) ** 2))
        worst = max(worst, abs(rms / target - 1.0))
    report(2, "initial spread", worst <= 0.01,
           f"max relative deviation of Delta y(0) from sigma0/sqrt(2): {worst:.2e}")


def test_criterion_3_oracle_equivalence():
    # Offsets from each packet centre, scaled with the spread so every grid
    # point stays on the support of the state. The half-spacing shift of the
    # second particle keeps the grid off the diagonal (>= 0.43 sigma0 here).
    offs = np.linspace(-2.8, 2.8, 10)
    ts = np.array([0.2, 0.5, 1.0, 2.0, 5.0]) * P_FAST.tau
    worst_y = worst_x = 0.0
    n_pts = 0
    for stats in SpinStatistics:
        for a, b, t in itertools.product(offs, offs, ts):
            w = abs(sigma_t(t, P_FAST))
            y1 = P_FAST.Y + a * w
            y2 = -P_FAST.Y + (b + 0.5 * (offs[1] - offs[0])) * w
            c = PairConfiguration(2e-6, y1, 2e-6, y2, t)
            v = velocity_closed_form(c, stats, P_FAST)
            o = velocity_oracle(c, stats, P_FAST, step=1e-4 * P_FAST.sigma0)
            scale = max(abs(v.vy1), abs(v.vy2))
            worst_y = max(worst_y, abs(v.vy1 - o.vy1) / scale, abs(v.vy2 - o.vy2) / scale)
            worst_x = max(worst_x, abs(v.vx1 - o.vx1) / P_FAST.x_speed,
                          abs(v.vx2 - o.vx2) / P_FAST.x_speed)
            n_pts += 1
    ok = worst_y <= 1e-6 and worst_x <= 1e-6 and n_pts == 1000
    report(3, "oracle equivalence", ok,
           f"{n_pts // 2} grid points, both statistics: worst rel err y {worst_y:.2e}, x {worst_x:.2e}")


def test_criterion_4_com_law():
    rng = np.random.default_rng(400)
    worst = 0.0
    for p, t_end in REGIMES.values():
        for k in range(10):
            stats = list(SpinStatistics)[k % 2]
            y1 = float(rng.uniform(2e-6, 8e-6))
            y2 = float(rng.uniform(-8e-6, -2e-6))
            if abs(y1 + y2) < 1e-7:
                y2 -= 5e-7
            traj = integrate_one(
                PairConfiguration(0, y1, 0, y2, 0), t_end, IntegratorConfig(), stats, p,
                np.linspace(0.0, t_end, 11),
            )
            for t, a, b in zip(traj.t, traj.y1, traj.y2):
                want = com_closed_form(0.5 * (y1 + y2), t, p)
                worst = max(worst, abs(0.5 * (a + b) - want) / p.sigma0)
    report(4, "centre-of-mass law", worst <= 1e-6,
           f"10 asymmetric trajectories per regime: worst |com - law| = {worst:.2e} sigma0")


def test_criterion_5_symmetry_suite():
    rng = np.random.default_rng(500)
    exact = True
    checked = 0
    while checked < 1000:
        y1, y2 = rng.uniform(-2 * P_FAST.Y, 2 * P_FAST.Y, size=2)
        t = float(rng.uniform(1e-10, 1e-7))
        if abs(y1 - y2) < 1e-9:
            continue
        checked += 1
        for stats in SpinStatistics:
            c = PairConfiguration(0.0, y1, 0.0, y2, t)
            v = velocity_closed_form(c, stats, P_FAST)
            m = velocity_closed_form(PairConfiguration(0.0, -y1, 0.0, -y2, t), stats, P_FAST)
            x = velocity_closed_form(PairConfiguration(0.0, -y2, 0.0, -y1, t), stats, P_FAST)
            exact &= (m.vy1 == -v.vy1) and (m.vy2 == -v.vy2)
            exact &= (v.vy1 == -x.vy2) and (v.vy2 == -x.vy1)
    worst_sym = 0.0
    for y0 in (3.5e-6, 5e-6, 6.5e-6, 2.1e-6, 8.3e-6):
        for stats in SpinStatistics:
            traj = integrate_one(
                PairConfiguration(0, y0, 0, -y0, 0), 1e-7, IntegratorConfig(), stats, P_SLOW,
                np.linspace(0.0, 1e-7, 11),
            )
            for a, b in zip(traj.y1, traj.y2):
                worst_sym = max(worst_sym, abs(a + b) / P_SLOW.sigma0)
    ok = exact and worst_sym <= 1e-6
    report(5, "symmetry suite", ok,
           f"parity/exchange exact at 1000 points: {exact}; "
           f"mirrored releases stay mirrored to {worst_sym:.1e} sigma0")


def test_criterion_6_same_side_detection(ensembles_10k):
    s0 = P_SLOW.sigma0
    worst_end = 0.0
    crossing_up = None
    for off, (ref1, ref2) in FIG4B_ENDPOINTS.items():
        traj = integrate_one(
            PairConfiguration(0, P_SLOW.Y, 0, off * s0, 0), 1e-7,
            IntegratorConfig(), SpinStatistics.BOSON, P_SLOW,
        )
        end = endpoint(traj)
        worst_end = max(worst_end, abs(end.y1 / s0 - ref1), abs(end.y2 / s0 - ref2))
        if off == -3.5:
            crossing_up = end.y2 > 0.0
    deviations = []
    quad_ok = True
    for stats in SpinStatistics:
        ends = ensembles_10k["slow", stats].endpoints[:1000]
        frac = float(np.mean(ends[:, 0] * ends[:, 1] > 0.0))
        q = SAME_SIDE_SLOW[stats]
        quad_ok &= abs(same_side_probability(stats, P_SLOW, 1e-7) - q) < 1e-6
        sigma = math.sqrt(q * (1 - q) / 1000)
        deviations.append((stats.value, frac, q, abs(frac - q) / sigma))
    fast_frac = float(np.mean(np.prod(ensembles_10k["fast", SpinStatistics.BOSON].endpoints[:1000], axis=1) > 0))
    ok = (
        crossing_up
        and worst_end <= 1e-5
        and quad_ok
        and all(z <= 3.0 for _, _, _, z in deviations)
        and fast_frac < 1e-2
    )
    detail = (
        f"lower-slit release ends at y2 > 0: {crossing_up}, endpoint vs oracle {worst_end:.1e} sigma0; "
        + ", ".join(f"{s} {f:.3f} vs {q:.3f} (z={z:.2f})" for s, f, q, z in deviations)
        + f"; spread-free regime fraction {fast_frac:.4f} (quadrature {SAME_SIDE_FAST:.1e})"
    )
    report(6, "same-side detection", ok, detail)


def test_criterion_7_equivariance(ensembles_10k):
    parts = []
    ok = True
    for (rname, stats), res in ensembles_10k.items():
        ratio = res.density_distance / res.density_distance_baseline
        ok &= res.density_distance <= 1.5 * res.density_distance_baseline
        parts.append(f"{rname}/{stats.value} TV {res.density_distance:.4f} "
                     f"({ratio:.2f}x baseline)")
    rng = np.random.default_rng(700)
    ys0 = sample_joint_y(10_000, 0.0, SpinStatistics.BOSON, P_SLOW, rng)
    control = scaled_independent_endpoints(ys0, 1e-7, P_SLOW)
    dist, baseline = density_distance(control, SpinStatistics.BOSON, P_SLOW, 1e-7, rng=rng)
    ok &= dist > baseline
    parts.append(f"negative control {dist:.3f} > baseline {baseline:.3f}")
    report(7, "equivariance", ok, "; ".join(parts))


def test_criterion_8_four_slit_reductions():
    p = P_SLOW
    rng = np.random.default_rng(800)
    worst_freeze = 0.0
    for stats in SpinStatistics:
        found = 0
        while found < 12:
            c = PairConfiguration(
                float(rng.uniform(-3e-6, 3e-6)),
                float(rng.uniform(-2 * p.Y, 2 * p.Y)),
                float(rng.uniform(-3e-6, 3e-6)),
                float(rng.uniform(-2 * p.Y, 2 * p.Y)),
                float(rng.uniform(0.0, 1e-8)),
            )
            mags = np.abs(pair_images(c, p))
            scale = mags[:, 0].max() * mags[:, 1].max()
            if abs(naive_four_slit_psi(stats, c, p)) < 0.1 * scale:
                continue
            found += 1
            v = naive_velocity(c, stats, p)
            vx1, vx2 = v.vx1, v.vx2
            worst_freeze = max(worst_freeze, abs(vx1) / p.x_speed, abs(vx2) / p.x_speed)
    x0 = 2 * p.d
    worst_y = worst_x = 0.0
    for y1_0, y2_0 in ((p.Y, -p.Y + 0.5e-6), (p.Y - 1.5e-6, -p.Y - 1e-6)):
        traj = integrate_one(
            PairConfiguration(x0, y1_0, x0, y2_0, 0.0), 1e-8,
            IntegratorConfig(), SpinStatistics.BOSON, p, np.linspace(0.0, 1e-8, 9),
        )
        mapped = map_trajectory_to_double_slit(traj, SlitRegion.RIGHT_LEFT)
        for conf, vel in samples(mapped):
            vc = corrected_velocity(SlitRegion.RIGHT_LEFT, conf, p)
            v_scale = max(abs(vel.vy1), abs(vel.vy2), 1e-3)
            worst_y = max(worst_y, abs(vc.vy1 - vel.vy1) / v_scale,
                          abs(vc.vy2 - vel.vy2) / v_scale)
            worst_x = max(worst_x, abs(vc.vx1 - vel.vx1) / p.x_speed,
                          abs(vc.vx2 - vel.vx2) / p.x_speed)
    ok = worst_freeze <= 1e-5 and worst_y <= 1e-5 and worst_x <= 1e-4
    report(8, "four-slit reductions", ok,
           f"naive |vx|/drift {worst_freeze:.1e} (both signs); mapped trajectories vs "
           f"corrected state: y {worst_y:.1e}, x {worst_x:.1e}")


def test_criterion_9_robustness(ensembles_10k):
    slow, fast = (ensembles_10k[r, SpinStatistics.FERMION] for r in ("slow", "fast"))
    frac_slow = slow.aborted_count / slow.n_requested
    frac_fast = fast.aborted_count / fast.n_requested
    worst_shift = 0.0
    halved = IntegratorConfig(rel_tol=5e-10, abs_tol=5e-10)
    t_end = 1e-8
    for i, stats in enumerate(SpinStatistics):
        rng = np.random.default_rng(900 + i)
        for y1, y2 in sample_joint_y(20, 0.0, stats, P_FAST, rng):
            c = PairConfiguration(0.0, float(y1), 0.0, float(y2), 0.0)
            a = endpoint(integrate_one(c, t_end, IntegratorConfig(), stats, P_FAST))
            b = endpoint(integrate_one(c, t_end, halved, stats, P_FAST))
            worst_shift = max(worst_shift, abs(a.y1 - b.y1) / P_FAST.sigma0,
                              abs(a.y2 - b.y2) / P_FAST.sigma0)
    ok = frac_fast < 1e-3 and frac_slow < 1e-3 and worst_shift < 1e-9
    report(9, "robustness", ok,
           f"fermion abort fraction {frac_fast:.2e} fast / {frac_slow:.2e} slow at n=10^4; "
           f"halving tolerances shifts endpoints by {worst_shift:.1e} sigma0 (bound 1e-9)")
