"""The batched ensemble integrator against the scalar one and its invariants."""

import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pairslit import (
    IntegratorConfig,
    PairConfiguration,
    PhysicalParams,
    SamplerConfig,
    SpinStatistics,
    TrajectoryStatus,
    joint_density_y,
    normalization_N,
    sample_initial,
)
from pairslit import integrator
from pairslit._kernels import (
    NODE_GUARD, _velocity_kernel, reduced_velocity, reduced_velocity_array,
)
from pairslit.ensemble import transport_ensemble
from pairslit.integrator import _BATCH_MIN, integrate_pairs

from digests import NEAR_DIAGONAL, UNEVEN
from endpoint_oracle import oracle_endpoints, oracle_paths
from oracles import com_closed_form, initial_density_peak
from pair_transport import endpoint, integrate_one, trajectories

REGIMES = {
    "fast": (PhysicalParams.baseline(x_speed=2.0e7), 1e-8),
    "slow": (PhysicalParams.baseline(x_speed=2.0e6), 1e-7),
}
# Three times the dispatch size, so the batch loop runs for many steps before
# the last pairs are handed to the scalar loop.
N_BATCH = 3 * _BATCH_MIN

cases = st.tuples(
    st.sampled_from(sorted(REGIMES)),
    st.sampled_from(list(SpinStatistics)),
    st.integers(0, 2**32 - 1),
)


def draw(regime, stats, seed, n=N_BATCH):
    p, t_end = REGIMES[regime]
    initial = sample_initial(SamplerConfig(method="exact_rejection", n_pairs=n, seed=seed), stats, p,
                             np.random.default_rng(seed))
    return initial, p, t_end


def release(y1, y2):
    return PairConfiguration(0.0, float(y1), 0.0, float(y2), 0.0)


def ys(traj):
    return np.column_stack((traj.y1, traj.y2))


def on_the_grid(sampled, times):
    return (sampled[:, None] == times[None, :]).any(axis=1)


def assert_same_path(got, want, times, p):
    """Same status and the same samples on the grid, to 1e-8 sigma0.

    The numpy and libm transcendentals differ in the last bits, and the
    cancelling error estimate turns that into slightly different steps
    between samples; so an abort's off-grid truncation point differs too.
    """
    assert got.status is want.status
    on_grid = on_the_grid(want.t, times)
    np.testing.assert_array_equal(on_the_grid(got.t, times), on_grid)
    assert np.abs(ys(got)[on_grid] - ys(want)[on_grid]).max() <= 1e-8 * p.sigma0
    if not on_grid[-1]:
        k = on_grid.sum()
        assert times[k - 1] < got.t[-1] < times[k]


def test_velocity_twin_matches_scalar_kernel(rng):
    # the kernels' domain d >= 0; the mirror tests below cover the sign
    d = np.abs(rng.uniform(-12.0, 12.0, 400))
    T = rng.uniform(0.0, 6.0, 400)
    d[:10] = 0.0  # fermion nodes on the diagonal
    # The float body over numpy's transcendentals, on one lane at a time: the
    # in-place array body must give each lane its bits, so the two bodies
    # differ only in libm's and numpy's exp and tan.
    numpy_body = _velocity_kernel(np.exp, np.tan)
    s2 = 1.0 + T * T
    for sign in (1, -1):
        with np.errstate(all="ignore"):
            v, den = reduced_velocity_array(d, T, 5.0, sign)
            # the batch loop's call: stage-time factors, a used workspace and
            # a used row of its denominator block
            den_row = np.full(d.size, np.nan)
            in_space = reduced_velocity_array(
                d, T, 5.0, sign, 5.0 / s2, T / s2, tuple(np.full((6, d.size), np.nan)), den_row
            )
            assert in_space[1] is den_row
            lanes = [numpy_body(d[k:k + 1], T[k:k + 1], 5.0, sign) for k in range(d.size)]
        np.testing.assert_array_equal(in_space, (v, den))
        on_node = den < NODE_GUARD
        v_lanes, den_lanes = (np.concatenate([np.ravel(x) for x in col]) for col in zip(*lanes))
        np.testing.assert_array_equal(den_lanes, den)
        np.testing.assert_array_equal(v_lanes[~on_node], v[~on_node])
        for k in range(d.size):
            w, den_k = reduced_velocity(d[k], T[k], 5.0, sign)
            assert den_k == pytest.approx(den[k], rel=1e-12, abs=1e-300)
            assert (den_k < NODE_GUARD) == on_node[k]
            if on_node[k]:
                assert np.isnan(w)
            else:
                assert v[k] == pytest.approx(w, rel=1e-12, abs=1e-12)
        assert on_node[:10].all() == (sign < 0)
        assert not on_node[10:].any()


def test_denominator_density_matches_wavefunction(p_slow, stats, rng):
    # the batch loop tests the density floor on den / s2 exp(-(|d| - beta)^2 / s2),
    # which n2 / (2 pi) exp(-c0^2) turns into the joint density
    e1 = rng.uniform(-12.0, 12.0, 200)
    e2 = rng.uniform(-12.0, 12.0, 200)
    n2 = normalization_N(stats, p_slow)
    beta = p_slow.beta
    for t in (0.0, 3e-8, 1e-7):
        T = t / p_slow.tau
        s2 = 1.0 + T * T
        d, c0 = 0.5 * (e1 - e2), 0.5 * (e1 + e2) / np.sqrt(s2)
        # den is even in d, and the kernel takes |d|
        _, den = reduced_velocity_array(np.abs(d), np.full(200, T), beta, stats.sign)
        r = np.abs(d) - beta
        got = n2 / (2.0 * np.pi) * np.exp(-c0 * c0) * (den / s2 * np.exp(-(r * r) / s2))
        ref = joint_density_y(e1 * p_slow.sigma0, e2 * p_slow.sigma0, t, stats, p_slow)
        np.testing.assert_allclose(got / p_slow.sigma0**2, ref, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("batch_min", [_BATCH_MIN, 1], ids=["dispatch", "batch_only"])
@settings(max_examples=6, deadline=None)
@given(case=cases)
def test_batch_matches_scalar_calls(case, batch_min):
    # batch_min 1 keeps every pair in the batch loop down to the last one.
    # The two loops take slightly different steps (see assert_same_path), so
    # they agree to the integrator's tolerance: at 1e-9 the worst of 23,000
    # pairs was 3.6e-9 sigma0, at 1e-10 the worst of 11,500 was 1.6e-10.
    initial, p, t_end = draw(*case)
    stats = case[1]
    times = np.linspace(0.0, t_end, 6)
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-10)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(integrator, "_BATCH_MIN", batch_min)
        batch = trajectories(initial, t_end, cfg, stats, p, times)
    for y0, got in zip(initial, batch):
        want = integrate_one(release(*y0), t_end, cfg, stats, p, times)
        assert (got is None) == (want is None)
        if want is not None:
            assert_same_path(got, want, times, p)


@settings(max_examples=5, deadline=None)
@given(case=cases)
def test_batch_exchange_swaps_endpoints(case):
    initial, p, t_end = draw(*case)
    stats = case[1]
    a = trajectories(initial, t_end, IntegratorConfig(), stats, p)
    b = trajectories(initial[:, ::-1], t_end, IntegratorConfig(), stats, p)
    for ta, tb in zip(a, b):
        assert ta.status is tb.status
        assert endpoint(tb).y1 == endpoint(ta).y2
        assert endpoint(tb).y2 == endpoint(ta).y1


MODES = {"dispatch": _BATCH_MIN, "batch": 1, "scalar": 10**9}


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("grid", ["S=101", "uneven"])
@pytest.mark.parametrize("regime", sorted(REGIMES))
@pytest.mark.parametrize("stats", list(SpinStatistics), ids=lambda s: s.value)
@settings(max_examples=2, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_swapped_releases_give_the_mirrored_table(stats, regime, grid, mode, seed):
    # The velocity is odd in d = (y1 - y2) / 2, so swapping the particles of
    # a release mirrors its whole path: every sample, count and end code is
    # the original's, value for value, with y1 and y2 (and vy1 and vy2)
    # swapped. Drawn pairs, plus pairs on and next to the diagonal (fermion
    # ones are not integrated or end on the node, boson ones stay near
    # d = 0) and one released below the floor, so that every end code and
    # truncation row is mirrored too.
    drawn, p, t_end = draw(regime, stats, seed, n=40)
    s0 = p.sigma0
    near = [(y, y + gap * s0) for y in (0.3 * s0, -1.1 * s0) for gap in (0.0, 1e-9, 1e-6)]
    far = [(60.0 * s0, 63.0 * s0)]
    initial = np.concatenate((drawn, near, far))
    times = np.linspace(0.0, t_end, 101) if grid == "S=101" else t_end * UNEVEN
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(integrator, "_BATCH_MIN", MODES[mode])
        table, count, status = integrate_pairs(initial, t_end, IntegratorConfig(), stats, p, times)
        swapped = integrate_pairs(initial[:, ::-1], t_end, IntegratorConfig(), stats, p, times)
    np.testing.assert_array_equal(swapped[0], table[..., [0, 2, 1, 4, 3]])
    np.testing.assert_array_equal(swapped[1], count)
    np.testing.assert_array_equal(swapped[2], status)


@settings(max_examples=5, deadline=None)
@given(case=cases)
def test_batch_mirror_mirrors_endpoints(case):
    initial, p, t_end = draw(*case)
    stats = case[1]
    a = trajectories(initial, t_end, IntegratorConfig(), stats, p)
    b = trajectories(-initial, t_end, IntegratorConfig(), stats, p)
    for ta, tb in zip(a, b):
        assert ta.status is tb.status
        assert abs(endpoint(tb).y1 + endpoint(ta).y1) <= 1e-12 * p.sigma0
        assert abs(endpoint(tb).y2 + endpoint(ta).y2) <= 1e-12 * p.sigma0


@settings(max_examples=5, deadline=None)
@given(case=cases)
def test_batch_fermions_never_cross_the_diagonal(case):
    # bosons cannot cross either: half the mass of either density lies on
    # each side of the diagonal at every time (G_T(0) = 1/2 in endpoint_oracle)
    initial, p, t_end = draw(*case)
    times = np.linspace(0.0, t_end, 21)
    for traj in trajectories(initial, t_end, IntegratorConfig(), case[1], p, times):
        gap = np.diff(ys(traj), axis=1)[:, 0]
        assert (gap > 0).all() or (gap < 0).all()


# Worst endpoint distance to the oracle at the default tolerances, over 24,000
# pairs per regime and statistics: 1.4e-11 (fast) and 3.7e-7 sigma0 (slow).
ORACLE_BOUND = {"fast": 1e-10, "slow": 2e-6}


@settings(max_examples=5, deadline=None)
@given(case=cases)
def test_endpoints_match_the_exact_map(case):
    initial, p, t_end = draw(*case)
    stats = case[1]
    want = oracle_endpoints(initial, t_end, stats, p)
    bound = ORACLE_BOUND[case[0]] * p.sigma0
    table, count, status = integrate_pairs(initial, t_end, IntegratorConfig(), stats, p)
    assert (status == TrajectoryStatus.COMPLETED).all()
    assert np.abs(table[np.arange(len(initial)), count - 1, 1:3] - want).max() <= bound
    for y0, (y1, y2) in zip(initial, want):
        end = endpoint(integrate_one(release(*y0), t_end, IntegratorConfig(), stats, p))
        assert max(abs(end.y1 - y1), abs(end.y2 - y2)) <= bound


# Worst interior-sample distance to the oracle on the CLI's 101-point grid at
# the default tolerances, over 24,000 pairs per regime and statistics (batch
# loop; the scalar loop matched it on 3,000): 1.1e-8 (fast fermion, a pair
# whose integrated path itself is off by that much) and 6.7e-7 sigma0 (slow
# boson; 9.4e-7 on another 6,000 of them).
INTERIOR_BOUND = {"fast": 5e-8, "slow": 5e-6}
LOOPS = {"batch": 1, "scalar": 10**9}  # _BATCH_MIN that keeps every pair in one loop


@pytest.mark.parametrize("loop", sorted(LOOPS))
@settings(max_examples=3, deadline=None)
@given(case=cases)
def test_interior_samples_match_the_exact_map(case, loop):
    initial, p, t_end = draw(*case, n=6)
    stats = case[1]
    times = np.linspace(0.0, t_end, 101)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(integrator, "_BATCH_MIN", LOOPS[loop])
        table, count, status = integrate_pairs(initial, t_end, IntegratorConfig(), stats, p, times)
    assert (status == TrajectoryStatus.COMPLETED).all()
    assert np.isfinite(table).all()
    np.testing.assert_array_equal(table[:, :, 0], np.broadcast_to(times, (6, 101)))
    want = oracle_paths(initial, times[1:-1], stats, p)
    assert np.abs(table[:, 1:-1, 1:3] - want).max() <= INTERIOR_BOUND[case[0]] * p.sigma0


def step_loop_evaluations(mp):
    """Count the velocity evaluations of integrate_pairs, leaving out the interior fill."""
    tally = {"evals": 0, "filling": False}
    scalar, array, fill = (
        integrator.reduced_velocity, integrator.reduced_velocity_array, integrator._fill_interior
    )

    def counted_scalar(*args):
        tally["evals"] += 1
        return scalar(*args)

    def counted_array(d, *args):
        tally["evals"] += 0 if tally["filling"] else np.size(d)
        return array(d, *args)

    def uncounted_fill(*args):
        tally["filling"] = True
        try:
            fill(*args)
        finally:
            tally["filling"] = False

    mp.setattr(integrator, "reduced_velocity", counted_scalar)
    mp.setattr(integrator, "reduced_velocity_array", counted_array)
    mp.setattr(integrator, "_fill_interior", uncounted_fill)
    return tally


# Kernel evaluations of integrate_pairs on 250 slow pairs (exact_rejection
# seed 0, the (0, t_end) grid) when every pair's first trial step was 1e-3 of
# the span, on the draws of the sampler's earlier two-dimensional envelope.
# The fast pairs took 87.0 (boson) and 87.5 (fermion) per pair. On today's
# draws that start takes 100,904 and 95,660 slow evaluations, and 87.6 per
# fast pair.
SLOW_EVALS_FROM_A_FIXED_START = {SpinStatistics.BOSON: 99_298, SpinStatistics.FERMION: 94_990}


@pytest.mark.parametrize("regime", sorted(REGIMES))
def test_the_start_step_saves_kernel_evaluations(regime, stats):
    # counts, not times, so host noise cannot hide a costlier start rule. The
    # lower bounds keep the count honest: a step loop that stopped calling
    # the kernel by the name the tally hooks would count nothing. The start
    # rule gives 16,250 fast evaluations for either statistics, and 98,624
    # (boson) and 93,188 (fermion) slow ones.
    initial, p, t_end = draw(regime, stats, seed=0, n=250)
    with pytest.MonkeyPatch.context() as mp:
        tally = step_loop_evaluations(mp)
        integrate_pairs(initial, t_end, IntegratorConfig(), stats, p)
    if regime == "fast":
        assert 60 * 250 <= tally["evals"] <= 70 * 250
    else:
        assert 350 * 250 <= tally["evals"] <= SLOW_EVALS_FROM_A_FIXED_START[stats]


def assert_end_rule(table, count, status, times):
    """The rows and counts that integrate_pairs writes from each pair's end.

    A NOT_INTEGRATED pair has no samples. Every other pair's samples are
    finite and sit on their requested times, except that an aborted pair's
    last sample may fall strictly between two of them, before t_end; a
    completed pair has them all and ends on t_end exactly. Cells past the
    samples hold NaN.
    """
    for i, (n_i, status_i) in enumerate(zip(count, status)):
        assert np.isnan(table[i, n_i:]).all()
        if status_i == TrajectoryStatus.NOT_INTEGRATED:
            assert n_i == 0
            continue
        assert np.isfinite(table[i, :n_i]).all()
        t = table[i, :n_i, 0]
        np.testing.assert_array_equal(t[:-1], times[: n_i - 1])
        if status_i == TrajectoryStatus.COMPLETED:
            assert n_i == times.size and t[-1] == times[-1]
        else:
            k = n_i - 1
            assert t[-1] == times[k] or times[k - 1] < t[-1] < times[k]
            assert t[-1] < times[-1]


@pytest.mark.parametrize("batch_min", [_BATCH_MIN, 1, 10**9], ids=["dispatch", "batch", "scalar"])
@settings(max_examples=4, deadline=None)
@given(case=cases, floor=st.sampled_from([1e-12, 0.01]))
@example(case=("slow", SpinStatistics.FERMION, 31), floor=0.01)
def test_sample_grid_does_not_change_the_path(case, floor, batch_min):
    # floor 0.01 aborts slow fermions in flight, so truncated paths are compared
    # too. The uneven grid puts several samples inside one step, has steps that
    # cover none, and a sample just below t_end.
    initial, p, t_end = draw(*case)
    stats = case[1]
    cfg = IntegratorConfig(density_floor=floor)
    runs = []
    uneven = t_end * np.array((0.0, 1e-6, 2e-6, 1e-3, 0.3, 0.3 + 1e-9, 1.0 - 1e-6, 1.0))
    for times in (None, np.linspace(0.0, t_end, 101), uneven):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(integrator, "_BATCH_MIN", batch_min)
            tally = step_loop_evaluations(mp)
            runs.append((*integrate_pairs(initial, t_end, cfg, stats, p, times), tally["evals"]))
        assert_end_rule(*runs[-1][:3], np.array((0.0, t_end)) if times is None else times)
    coarse, n_coarse, st_coarse, evals_coarse = runs[0]
    done = n_coarse > 0
    last = np.flatnonzero(done)
    ends_coarse = coarse[last, n_coarse[last] - 1]
    for table, count, status, evals in runs[1:]:
        assert evals == evals_coarse
        assert list(status) == list(st_coarse)
        np.testing.assert_array_equal(count[~done], 0)
        assert table[last, count[last] - 1].tobytes() == ends_coarse.tobytes()


@pytest.mark.parametrize("batch_min", [_BATCH_MIN, 1, 10**9], ids=["dispatch", "batch", "scalar"])
def test_status_is_the_int8_end_codes(batch_min):
    # In one shuffled batch: 40 drawn fermion pairs, which land; 8 released
    # 1e-6 sigma0 off the diagonal, which a node ends in flight (see
    # test_node_aborts_in_flight_in_both_loops); and 2 released so far out
    # that their density lies below even a floor of 1e-300. Each loop mode
    # must give every pair the code of its kind.
    stats = SpinStatistics.FERMION
    drawn, p, t_end = draw("slow", stats, seed=31, n=40)
    y1 = np.linspace(-3.0, 3.0, 8) * p.sigma0
    near = np.column_stack((y1, y1 + 1e-6 * p.sigma0))
    far = np.array([(60.0, 63.0), (-60.0, -57.0)]) * p.sigma0
    kinds = (TrajectoryStatus.COMPLETED, TrajectoryStatus.NODE_PROXIMITY_ABORT,
             TrajectoryStatus.NOT_INTEGRATED)
    order = np.random.default_rng(0).permutation(50)
    want = np.repeat(kinds, (40, 8, 2))[order]
    initial = np.concatenate((drawn, near, far))[order]
    cfg = IntegratorConfig(density_floor=1e-300)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(integrator, "_BATCH_MIN", batch_min)
        _, count, status = integrate_pairs(initial, t_end, cfg, stats, p, np.linspace(0.0, t_end, 11))
    assert status.dtype == np.int8
    assert set(status.tolist()) <= set(TrajectoryStatus)
    np.testing.assert_array_equal(status == TrajectoryStatus.NOT_INTEGRATED, count == 0)
    np.testing.assert_array_equal(status, want)


def dense(row, n):
    """A row of the tableau, its nonzero weights (i, a) of stages i, over stages 1 to n."""
    out = np.zeros(n)
    for i, a in row:
        out[i - 1] = a
    return out


def test_extension_coefficients_reduce_to_the_step():
    # at theta = 1 the weights of (k1, k3, ..., k7) are B, with none on k7;
    # at theta = 0 the slope is k1 alone
    b = np.delete(dense(integrator._A[-1], 7), 1)
    np.testing.assert_allclose(integrator._P.sum(axis=1), b, rtol=0.0, atol=1e-15)
    np.testing.assert_array_equal(integrator._P[:, 0], (1.0, 0.0, 0.0, 0.0, 0.0, 0.0))
    # the same coefficients as scipy's RK45 dense output, whose k2 row is zero
    rk45 = pytest.importorskip("scipy.integrate").RK45
    np.testing.assert_array_equal(rk45.P[1], 0.0)
    np.testing.assert_array_equal(integrator._P, np.delete(rk45.P, 1, axis=0))
    # The tableau is scipy's RK45 tableau to the bit: the stage times, the
    # rows of A, B and E, whose sign scipy takes the other way. The table
    # holds only nonzero weights, each row's in the order of its stages.
    for row in (*integrator._A, integrator._E):
        stages = [i for i, _ in row]
        assert stages == sorted(set(stages)) and all(a != 0.0 for _, a in row)
    np.testing.assert_array_equal(bits(np.array(integrator._C)), bits(rk45.C[1:]))
    A = np.array([dense(row, 5) for row in integrator._A[:-1]])
    np.testing.assert_array_equal(A, rk45.A[1:])
    np.testing.assert_array_equal(dense(integrator._A[-1], 6), rk45.B)
    np.testing.assert_array_equal(dense(integrator._E, 7), -rk45.E)


def stub_velocity(d, T, beta, sign, w=None, g=None, space=(), den_out=None):
    """A kernel of +, -, * and / alone, which floats and numpy arrays round alike.

    Like the kernels, it forms the stage-time factors w and g from T when it
    is not given them. An infinite T gives a NaN velocity and a zero
    denominator, as at a node. Like the array kernel, it overwrites every row
    of a workspace it is given, and writes its denominator into den_out.
    """
    if w is None:
        s2 = 1.0 + T * T
        w, g = beta / s2, T / s2
    den = (1.0 + d * d) / (1.0 + T * T)
    v = d * g - T * w / (1.0 + w) + sign * beta * den
    for row in space:
        row.fill(np.nan)
    if den_out is not None:
        den_out[...] = den
        den = den_out
    return v, den


def flat_step(out):
    """The new state, the six stages, the six denominators and the error sum, in one array."""
    new, stages, dens, err = out
    return np.array([new, *stages, *dens, err], dtype=float)


def bits(x):
    return np.where(np.isnan(x), np.nan, x).view(np.uint64)


def test_dp_step_is_lane_exact(rng):
    # One step on Python floats and on an array of lanes gives each lane the
    # same bits: every stage sum adds its terms left to right on both. Each
    # side runs its own loop's step, the scalar one on its float tableau and
    # the batch one, in place in a NaN-filled workspace and denominator
    # block, on its 0-d tableau, given the stage-time factors that the batch
    # loop forms from the same stage times. The stub kernel keeps libm's and
    # numpy's transcendentals out, and overwrites the kernel's rows of the
    # workspace at every call. Both fold the new state to its magnitude.
    # Lane 3 meets a node at stage 3, whose time is infinite, and NaN carries
    # through its later stages. A sum taken in another order rounds
    # differently in some of the 64 lanes.
    n = 64
    d, k1 = rng.uniform(-6.0, 6.0, n), rng.uniform(-2.0, 2.0, n)
    T, h = rng.uniform(0.0, 4.0, n), rng.uniform(1e-3, 0.5, n)
    Ts = T + integrator._C_COL * h
    Ts[1, 3] = np.inf
    space, dens = tuple(np.full((8, n), np.nan)), tuple(np.full((6, n), np.nan))
    with np.errstate(all="ignore"):
        S2 = 1.0 + Ts * Ts
        W, G = 5.0 / S2, Ts / S2
        lanes = flat_step(
            integrator._dp_step_array(stub_velocity, d, h, k1, Ts, W, G, 5.0, -1, space, dens)
        )
    for k in range(n):
        out = integrator._dp_step(
            stub_velocity, float(d[k]), float(h[k]), float(k1[k]), Ts[:, k].tolist(), 5.0, -1
        )
        assert all(type(x) is float for x in (out[0], *out[1], *out[2], out[3]))
        np.testing.assert_array_equal(bits(lanes[:, k]), bits(flat_step(out)))
    # rows: new, k1, k3 .. k7, den2 .. den7, err
    assert np.isnan(lanes[[0, 2, 3, 4, 5, 6, 13], 3]).all() and lanes[8, 3] == 0.0
    assert np.isfinite(np.delete(lanes, 3, axis=1)).all()


def test_dp_step_returns_the_stages_in_fill_order():
    # _fill_interior reads the stages as (k1, k3, k4, k5, k6, k7); k2 has no
    # weight in the continuous extension. Stage 7 runs at the new state. The
    # scalar loop's step runs on floats, the batch loop's on one lane, given
    # stage-time factors, in a workspace, with a row for each denominator,
    # here.
    Ts = (0.2, 0.3, 0.8, 8.0 / 9.0, 1.0)

    def lane(x):
        return np.array([x])

    backs = (
        (integrator._dp_step, float, (), ()),
        (
            integrator._dp_step_array, lane,
            ([lane(1.0)] * 5, [lane(0.5)] * 5), (tuple(np.empty((8, 1))), tuple(np.empty((6, 1)))),
        ),
    )
    for step, val, factors, space in backs:
        calls = []

        def recording(d, T, beta, sign, *rest):
            v, den = stub_velocity(d, T, beta, sign, *rest)
            calls.append((d, T, v, den))
            return v, den

        new, stages, dens, _ = step(
            recording, val(0.5), val(1.0), val(0.25), [val(T) for T in Ts],
            *factors, 5.0, 1, *space,
        )
        assert [T for _, T, _, _ in calls] == [*Ts, Ts[4]]
        assert stages == (0.25, *(v for _, _, v, _ in calls[1:]))
        assert dens == tuple(den for *_, den in calls)
        assert calls[5][0] == new


def closed_over(fn):
    """The names and values a function's closure holds."""
    return dict(zip(fn.__code__.co_freevars, (cell.cell_contents for cell in fn.__closure__)))


def held(fn):
    """The values a function holds: its float literals and its closure's values.

    Tuples in the closure are opened, and so are the functions there, so
    that each constant is seen however the function stores it.
    """
    values = []

    def walk(x):
        if isinstance(x, tuple):
            for y in x:
                walk(y)
        elif isinstance(x, types.FunctionType):
            values.extend(c for c in x.__code__.co_consts if type(c) is float)
            for cell in x.__closure__ or ():
                walk(cell.cell_contents)
        else:
            values.append(x)

    walk(fn)
    return values


@pytest.mark.parametrize(
    "scalar, array",
    [
        (integrator._dp_step, integrator._dp_step_array),
        (reduced_velocity, reduced_velocity_array),
    ],
    ids=["tableau", "kernel"],
)
def test_both_back_ends_close_over_the_same_doubles(scalar, array):
    # The scalar loop's step and kernel hold Python floats and the batch
    # loop's 0-d float64 arrays, each of the same double. The float step
    # closes over the tableau's weights, one named cell each; the float
    # kernel writes its constants as literals; the array step holds its
    # rows of (stage, weight) terms and the array kernel its constants in
    # their closures. They are separate bodies, so neither may hold the
    # other's kind.
    floats = [x for x in held(scalar) if type(x) is float]
    zero_d = [x for x in held(array) if isinstance(x, np.ndarray)]
    assert len(zero_d) >= 3 and len(floats) == len(zero_d)
    assert not any(isinstance(x, np.ndarray) for x in held(scalar))
    assert not any(type(x) is float for x in held(array))
    assert all(a.shape == () and a.dtype == np.float64 for a in zero_d)
    np.testing.assert_array_equal(bits(np.sort(floats)), bits(np.sort(zero_d)))
    if scalar is integrator._dp_step:
        # the float step's cells hold the table's doubles, in table order,
        # under their names A21 .. A65, B1 .. B6 and E1 .. E7
        A, E = integrator._A, integrator._E
        names = [f"A{s}{i}" for s, row in enumerate(A[:-1], start=2) for i, _ in row]
        names += [f"B{i}" for i, _ in A[-1]] + [f"E{i}" for i, _ in E]
        doubles = [a for row in (*A, E) for _, a in row]
        cells = closed_over(scalar)
        assert sorted(cells) == sorted(names)
        held_in_order = np.array([cells[name] for name in names])
        np.testing.assert_array_equal(bits(held_in_order), bits(np.array(doubles)))


class OperandLog(np.ndarray):
    """An ndarray that logs every ufunc call it meets: its operand types and its out types."""

    calls: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, out=(), **kwargs):
        OperandLog.calls.append((ufunc.__name__, [type(x) for x in inputs], [type(x) for x in out]))

        def plain(xs):
            return tuple(x.view(np.ndarray) if isinstance(x, OperandLog) else x for x in xs)

        if out:
            kwargs["out"] = plain(out)
        return np.asarray(getattr(ufunc, method)(*plain(inputs), **kwargs)).view(OperandLog)


@pytest.mark.parametrize("sign", [1, -1], ids=["boson", "fermion"])
def test_the_batch_step_gives_numpy_no_python_scalar(rng, sign):
    # numpy takes a Python float or int operand at more cost than a 0-d
    # array, for the same bits, so every constant that the array kernel and
    # the batch loop's step meet is a 0-d array. The workspace logs too, so
    # the calls that write into it are seen even where no other operand logs.
    def lanes(*shape):
        return rng.uniform(0.1, 1.0, shape).view(OperandLog)

    beta = np.array(5.0).view(OperandLog)
    OperandLog.calls = []
    with np.errstate(all="ignore"):
        integrator._dp_step_array(
            reduced_velocity_array, lanes(8), lanes(8), lanes(8), lanes(5, 8), lanes(5, 8),
            lanes(5, 8), beta, sign, tuple(lanes(8, 8)), tuple(lanes(6, 8)),
        )
        step_calls = OperandLog.calls
        OperandLog.calls = []
        # the kernel alone, forming its own stage-time factors and workspace
        reduced_velocity_array(lanes(8), lanes(8), beta, sign)
    calls = step_calls + OperandLog.calls
    # six kernel calls with the step's sums, and one kernel call on its own
    assert len(calls) > 7 * 20
    # written in place: the step's 56 sums and products into its stage
    # arguments, new state and error sum, and in each of its kernel calls
    # at least 19 temporaries and the denominator. Only the six velocities,
    # the folded new state and the error sum get arrays of their own.
    in_place = sum(1 for _, _, out in step_calls if out)
    assert in_place >= 56 + 6 * 20
    assert len(step_calls) - in_place == 6 + 2
    scalars = [
        (f, types + outs) for f, types, outs in calls
        if not all(issubclass(t, np.ndarray) for t in types + outs)
    ]
    assert scalars == []


def test_the_batch_step_returns_nothing_in_its_workspace(rng):
    # The batch loop keeps the new state, the stages and the error sum past
    # the next step, which overwrites the workspace and the denominator
    # block; so none of them may share their memory, and another step leaves
    # them as they were. The denominators are the block's rows, which the
    # loop reads before its next step.
    n = 40
    block, den_block = np.full((8, n), np.nan), np.full((6, n), np.nan)

    def step(sign):
        d, k1 = np.abs(rng.uniform(-6.0, 6.0, n)), rng.uniform(-2.0, 2.0, n)
        T, h = rng.uniform(0.0, 4.0, n), rng.uniform(1e-3, 0.5, n)
        Ts = T + integrator._C_COL * h
        S2 = 1.0 + Ts * Ts
        with np.errstate(all="ignore"):
            new, stages, dens, err = integrator._dp_step_array(
                reduced_velocity_array, d, h, k1, Ts, 5.0 / S2, Ts / S2, np.array(5.0), sign,
                tuple(block), tuple(den_block),
            )
        assert all(np.shares_memory(x, den_block) for x in dens)
        return (new, *stages, err)

    for sign in (1, -1):
        first = step(sign)
        kept = [x.copy() for x in first]
        assert not any(np.shares_memory(x, y) for x in first for y in (block, den_block))
        step(-sign)
        for x, y in zip(first, kept):
            np.testing.assert_array_equal(x, y)
    # Each integrate_pairs call starts from its own workspace: a call of
    # another width and statistics in between leaves a batch's table, counts
    # and statuses bitwise as they were.
    cfg = IntegratorConfig()
    initial, p, t_end = draw("slow", SpinStatistics.BOSON, seed=7)
    other = draw("slow", SpinStatistics.FERMION, seed=8, n=2 * N_BATCH + 5)[0]
    first = integrate_pairs(initial, t_end, cfg, SpinStatistics.BOSON, p)
    integrate_pairs(other, t_end, cfg, SpinStatistics.FERMION, p)
    again = integrate_pairs(initial, t_end, cfg, SpinStatistics.BOSON, p)
    np.testing.assert_array_equal(bits(again[0]), bits(first[0]))
    np.testing.assert_array_equal(again[1], first[1])
    assert list(again[2]) == list(first[2])


def test_a_sample_on_a_node_takes_the_slope_of_the_extension(p_slow):
    # Equal stages k make the extension a straight line, d + h k theta. Aim it
    # at the fermion node d = 0 at sample 3, where the kernel divides by ~0,
    # with a step from sample 2 that ends exactly on sample 3.
    times = np.linspace(0.0, 1e-7, 11)
    prob = integrator._scaled_problem(1e-7, IntegratorConfig(), SpinStatistics.FERMION, p_slow, times)
    T, T1, k = prob.grid[2], prob.grid[3], 0.7
    h = T1 - T
    d = -k * h
    with np.errstate(all="ignore"):
        _, den = reduced_velocity_array(np.array([0.0]), T1, prob.beta, -1)
    assert (den < NODE_GUARD).all()
    rows = np.full((1, 11, 3), np.nan)
    integrator._fill_interior(prob, rows, np.array([(0, T, T1, h, d, *[k] * 6)]))
    T_s, d_s, v = rows[0, 3]
    assert T_s == prob.grid[3] and abs(d_s) < 1e-15
    assert v == pytest.approx(k, rel=1e-12)
    # a step covers the samples in (T, T1]: the one at its start is not its own
    assert np.isnan(rows[0, 2]).all()
    assert np.isnan(rows[0, [0, 1, 4]]).all()


def test_a_sample_below_the_diagonal_is_folded_back(p_slow):
    # Equal stages k < 0 make the extension the line d + h k theta from
    # d = 0.5 h |k|, which crosses 0 halfway through the step: of the samples
    # at theta = 1/3, 2/3 and 1, the last two lie below 0 on the line. Each
    # sample is folded to |d| and takes the kernel's velocity there, as a
    # step folds its new state; no sample crosses the exchange diagonal.
    times = np.linspace(0.0, 1e-7, 11)
    prob = integrator._scaled_problem(1e-7, IntegratorConfig(), SpinStatistics.BOSON, p_slow, times)
    T, T1, k = prob.grid[2], prob.grid[5], -0.7
    h = T1 - T
    d = 0.5 * h * -k
    rows = np.full((1, 11, 3), np.nan)
    integrator._fill_interior(prob, rows, np.array([(0, T, T1, h, d, *[k] * 6)]))
    T_s, d_s, v = rows[0, 3:6].T
    np.testing.assert_array_equal(T_s, prob.grid[3:6])
    line = d + k * (T_s - T)
    assert line[0] > 0.0 > line[1] > line[2]
    np.testing.assert_allclose(d_s, np.abs(line), rtol=1e-12, atol=0.0)
    np.testing.assert_array_equal(v, reduced_velocity_array(d_s, T_s, prob.beta, prob.sign)[0])
    assert np.isnan(rows[0, [0, 1, 2, 6, 7, 8, 9, 10]]).all()


@pytest.mark.parametrize("loop", sorted(LOOPS))
@pytest.mark.parametrize("regime", sorted(REGIMES))
def test_a_step_that_overshoots_the_diagonal_is_folded_back(regime, loop):
    # Each step's new state is the magnitude of its Dormand-Prince sum, and
    # the table keeps every pair on its release's side of the diagonal.
    p, t_end = REGIMES[regime]
    initial = NEAR_DIAGONAL * p.sigma0
    times = np.linspace(0.0, t_end, 101)
    B = [a for _, a in integrator._A[-1]]
    folds = []

    def spied(step):
        def folding(vel, d, h, *rest):
            out = step(vel, d, h, *rest)
            k1, k3, k4, k5, k6, _ = out[1]
            unfolded = d + h * (B[0] * k1 + B[1] * k3 + B[2] * k4 + B[3] * k5 + B[4] * k6)
            np.testing.assert_array_equal(out[0], np.abs(unfolded))
            folds.append(np.count_nonzero(np.asarray(unfolded) < 0.0))
            return out
        return folding

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(integrator, "_BATCH_MIN", LOOPS[loop])
        mp.setattr(integrator, "_dp_step", spied(integrator._dp_step))
        mp.setattr(integrator, "_dp_step_array", spied(integrator._dp_step_array))
        table, count, status = integrate_pairs(
            initial, t_end, IntegratorConfig(), SpinStatistics.BOSON, p, times
        )
    assert sum(folds) > 0
    assert (status == TrajectoryStatus.COMPLETED).all() and np.isfinite(table).all()
    side = np.sign(initial[:, 0] - initial[:, 1])[:, None]
    assert ((table[:, :, 1] - table[:, :, 2]) * side >= 0.0).all()


@pytest.mark.parametrize("batch_min", [_BATCH_MIN, 1, 10**9], ids=["dispatch", "batch", "scalar"])
def test_an_end_on_a_sample_time_adds_no_row(p_slow, batch_min):
    # A pair released just above the density floor drops below it on its
    # first accepted step, so it aborts on its release state: its end sits on
    # the sample time 0, whose row it already has.
    stats, cfg = SpinStatistics.BOSON, IntegratorConfig(density_floor=1e-2)
    prob = integrator._scaled_problem(1e-7, cfg, stats, p_slow, None)

    def above_floor(d):
        _, den = reduced_velocity_array(np.array([d]), 0.0, prob.beta, prob.sign)
        return den[0] * np.exp(-((d - prob.beta) ** 2)) >= prob.floor

    lo, hi = prob.beta, prob.beta + 10.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if above_floor(mid) else (lo, mid)
    initial = np.array([(lo, -lo)]) * p_slow.sigma0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(integrator, "_BATCH_MIN", batch_min)
        table, count, status = integrate_pairs(initial, 1e-7, cfg, stats, p_slow, np.linspace(0.0, 1e-7, 11))
    assert list(status) == [TrajectoryStatus.NODE_PROXIMITY_ABORT] and list(count) == [1]
    np.testing.assert_array_equal(table[0, 0, :3], (0.0, *initial[0]))
    assert np.isnan(table[0, 1:]).all()


@settings(max_examples=5, deadline=None)
@given(case=cases)
def test_batch_com_follows_closed_form(case):
    initial, p, t_end = draw(*case)
    times = np.linspace(0.0, t_end, 6)
    for (y1, y2), traj in zip(initial, trajectories(initial, t_end, IntegratorConfig(), case[1], p, times)):
        assert traj.status is TrajectoryStatus.COMPLETED
        for t, a, b in zip(traj.t, traj.y1, traj.y2):
            want = com_closed_form(0.5 * (y1 + y2), t, p)
            assert abs(0.5 * (a + b) - want) <= 1e-6 * p.sigma0


@pytest.mark.parametrize("regime", sorted(REGIMES))
def test_batch_loop_matches_dop853(regime, stats):
    scipy_integrate = pytest.importorskip("scipy.integrate")
    initial, p, t_end = draw(regime, stats, seed=11, n=4)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(integrator, "_BATCH_MIN", 1)
        trajs = trajectories(initial, t_end, IntegratorConfig(), stats, p)

    def field(T, y):
        # both coordinates, so the reference integrates the centre of mass
        # too; the kernel takes |d| and its velocity is odd in d
        d = 0.5 * (y[0] - y[1])
        w = np.copysign(1.0, d) * reduced_velocity(abs(d), T, p.beta, stats.sign)[0]
        drift = 0.5 * (y[0] + y[1]) * T / (1.0 + T * T)
        return drift + w, drift - w

    for y0, traj in zip(initial, trajs):
        sol = scipy_integrate.solve_ivp(
            field, (0.0, t_end / p.tau), y0 / p.sigma0,
            method="DOP853", rtol=1e-12, atol=1e-12,
        )
        assert sol.success
        want = sol.y[:, -1] * p.sigma0
        # the default tolerances of 1e-9 leave global errors near 5e-9 sigma0
        assert abs(endpoint(traj).y1 - want[0]) <= 5e-8 * p.sigma0
        assert abs(endpoint(traj).y2 - want[1]) <= 5e-8 * p.sigma0


def test_density_floor_aborts_match_scalar_path(p_slow):
    # 60 of these 200 pairs fall below the floor in flight as the state spreads
    stats = SpinStatistics.FERMION
    cfg = IntegratorConfig(density_floor=0.01)
    initial = sample_initial(SamplerConfig(method="exact_rejection", n_pairs=200, seed=31), stats, p_slow,
                             np.random.default_rng(31))
    times = np.linspace(0.0, 1e-7, 11)
    scalar = [integrate_one(release(*y0), 1e-7, cfg, stats, p_slow, times) for y0 in initial]
    batch = trajectories(initial, 1e-7, cfg, stats, p_slow, times)
    truncated = [t for t in scalar if t is not None and t.status is TrajectoryStatus.NODE_PROXIMITY_ABORT]
    assert len(truncated) > _BATCH_MIN
    for got, want in zip(batch, scalar):
        assert (got is None) == (want is None)
        if want is not None:
            assert_same_path(got, want, times, p_slow)
    result = transport_ensemble(initial, cfg, stats, p_slow, 1e-7, times,
                                rng=np.random.default_rng(0))
    assert result.aborted_count == sum(t is None for t in scalar) + len(truncated)
    assert result.n_completed == len(initial) - result.aborted_count > 0


# The pairs of test_density_floor_aborts_match_scalar_path's batch that fall
# below the floor in flight, each with its sample count, as a floor test on
# wavefunction.joint_density_y decides them; pair 111 is released below the
# floor and never integrated. The step loops read the density off the
# velocity kernel's denominator instead, and must decide the same.
FLOOR_ABORTS = {
    0: 5, 7: 5, 11: 11, 16: 5, 23: 5, 26: 2, 27: 8, 28: 2, 30: 8, 31: 6, 32: 10, 34: 4, 43: 8,
    44: 6, 45: 9, 55: 7, 61: 9, 62: 7, 68: 6, 71: 10, 75: 6, 78: 10, 80: 10, 81: 11, 85: 4,
    87: 9, 91: 4, 94: 4, 102: 8, 104: 8, 107: 8, 109: 6, 114: 9, 118: 6, 119: 6, 121: 4, 123: 9,
    124: 3, 125: 9, 127: 6, 128: 5, 133: 7, 139: 5, 144: 8, 148: 9, 153: 7, 154: 7, 157: 7,
    160: 4, 163: 10, 169: 8, 170: 8, 172: 11, 173: 10, 175: 4, 176: 11, 178: 6, 188: 4, 189: 6,
    199: 7,
}


@pytest.mark.parametrize("batch_min", [_BATCH_MIN, 1, 10**9], ids=["dispatch", "batch", "scalar"])
def test_density_floor_decisions_are_pinned(p_slow, batch_min):
    stats = SpinStatistics.FERMION
    initial = sample_initial(SamplerConfig(method="exact_rejection", n_pairs=200, seed=31), stats, p_slow,
                             np.random.default_rng(31))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(integrator, "_BATCH_MIN", batch_min)
        _, count, status = integrate_pairs(
            initial, 1e-7, IntegratorConfig(density_floor=0.01), stats, p_slow,
            np.linspace(0.0, 1e-7, 11),
        )
    aborted = {i: n for i, (n, s) in enumerate(zip(count.tolist(), status))
               if s == TrajectoryStatus.NODE_PROXIMITY_ABORT}
    assert aborted == FLOOR_ABORTS
    # the pairs released below the floor are refused, the rest land
    below = joint_density_y(initial[:, 0], initial[:, 1], 0.0, stats, p_slow) < (
        0.01 * initial_density_peak(stats, p_slow)
    )
    np.testing.assert_array_equal(status == TrajectoryStatus.NOT_INTEGRATED, below)
    assert not count[below].any()


@pytest.mark.parametrize("loop", sorted(LOOPS))
def test_node_aborts_in_flight_in_both_loops(p_slow, loop):
    # Fermions released 1e-6 sigma0 off the diagonal start with a denominator
    # near 2.5e-11, above NODE_GUARD. That close to the node the kernel's
    # numerator cancels to rounding noise, which carries every pair onto the
    # guard before t_end, at times that differ between the loops; a floor of
    # 1e-300 leaves the guard alone to end them.
    y1 = np.linspace(-4.0, 4.0, 40) * p_slow.sigma0
    initial = np.column_stack((y1, y1 + 1e-6 * p_slow.sigma0))
    times = np.linspace(0.0, 1e-7, 11)
    cfg = IntegratorConfig(density_floor=1e-300)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(integrator, "_BATCH_MIN", LOOPS[loop])
        table, count, status = integrate_pairs(
            initial, 1e-7, cfg, SpinStatistics.FERMION, p_slow, times
        )
    assert_end_rule(table, count, status, times)
    assert (status == TrajectoryStatus.NODE_PROXIMITY_ABORT).all()
    last = table[np.arange(len(initial)), count - 1]
    assert np.isfinite(last).all()
    assert (last[:, 0] > 0.0).all() and (last[:, 0] < 1e-7).all()


def run_with_a_node_at_call(loop, call):
    """integrate_pairs on 40 slow fermion pairs with a node at one kernel call.

    The kernel reports a node for the first pair at its call-th call inside
    the step loop, as the kernels do: a NaN velocity and a zero denominator.
    That pair must end on its last accepted state, and every other pair land.
    """
    stats = SpinStatistics.FERMION
    initial, p, t_end = draw("slow", stats, seed=31, n=40)
    scalar = loop == "scalar"
    kernel = integrator.reduced_velocity if scalar else integrator.reduced_velocity_array
    step_loop = integrator._advance if scalar else integrator._advance_batch
    tally = {"calls": 0, "inside": False}

    def in_loop(*args):
        tally["inside"] = True
        try:
            return step_loop(*args)
        finally:
            tally["inside"] = False

    def node_at_call(d, *args):
        v, den = kernel(d, *args)
        tally["calls"] += tally["inside"]
        if tally["inside"] and tally["calls"] == call:
            if scalar:
                return np.nan, 0.0
            v[0], den[0] = np.nan, 0.0
        return v, den

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(integrator, "_BATCH_MIN", LOOPS[loop])
        mp.setattr(integrator, step_loop.__name__, in_loop)
        mp.setattr(integrator, kernel.__name__, node_at_call)
        table, count, status = integrate_pairs(initial, t_end, IntegratorConfig(), stats, p)
    assert_end_rule(table, count, status, np.array((0.0, t_end)))
    assert list(status) == (
        [TrajectoryStatus.NODE_PROXIMITY_ABORT] + [TrajectoryStatus.COMPLETED] * 39
    )
    assert 0.0 < table[0, 1, 0] < t_end


@pytest.mark.parametrize("loop", sorted(LOOPS))
def test_a_node_at_the_last_stage_aborts_the_pair(loop):
    # The aborts above all come from stages 2 to 6, never from stage 7 alone.
    # So here the node comes at the 18th call, stage 7 of the third attempted
    # step (each attempt calls the kernel for stages 2 to 7).
    run_with_a_node_at_call(loop, 18)


@pytest.mark.parametrize("loop", sorted(LOOPS))
def test_a_node_at_the_second_stage_aborts_the_pair(loop):
    # The same at the 13th call, stage 2 of the third attempted step: the
    # later stages then run on a NaN velocity and give NaN denominators, which
    # must not hide the node's zero from the stacked test.
    run_with_a_node_at_call(loop, 13)


@pytest.mark.parametrize("loop", sorted(LOOPS))
def test_a_step_underflow_ends_the_pair_at_once(loop):
    # No step above 1e-12 of the span meets these tolerances, so a pair's
    # first rejected trial step already underflows and ends it on that
    # attempt. An attempt whose embedded error is exactly 0 passes any
    # tolerance, though: its pair steps on and ends at its next attempt. (Two
    # of these 40 pairs have one: their start steps near 1e-20 leave every
    # stage at the release, and the error sum of the near-linear stage
    # velocities rounds to 0.) The budget of 100 steps only bounds a loop
    # that would carry a pair on.
    cfg = IntegratorConfig(rel_tol=1e-100, abs_tol=1e-100)
    initial, p, t_end = draw("slow", SpinStatistics.BOSON, seed=3, n=40)
    attempts = {"lanes": 0, "exact": 0}

    def spied(step):
        def counted(*args):
            out = step(*args)
            attempts["lanes"] += np.size(out[3])
            attempts["exact"] += np.count_nonzero(np.asarray(out[3]) == 0.0)
            return out
        return counted

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(integrator, "_BATCH_MIN", LOOPS[loop])
        mp.setattr(integrator, "_MAX_STEPS", 100)
        mp.setattr(integrator, "_dp_step", spied(integrator._dp_step))
        mp.setattr(integrator, "_dp_step_array", spied(integrator._dp_step_array))
        tally = step_loop_evaluations(mp)
        _, count, status = integrate_pairs(initial, t_end, cfg, SpinStatistics.BOSON, p)
    assert (status == TrajectoryStatus.NOT_INTEGRATED).all() and not count.any()
    # each pair attempts once, and once more after each attempt of error 0;
    # so none attempts more than 1 + exact steps, within the budget
    assert attempts["lanes"] == 40 + attempts["exact"]
    assert 1 + attempts["exact"] < 100
    # each pair's two release evaluations and six for each attempt
    assert tally["evals"] == 40 * 2 + 6 * attempts["lanes"]


def test_start_on_a_node_is_not_integrated(p_fast):
    # just off the fermion diagonal: above a tiny floor, but inside NODE_GUARD
    cfg = IntegratorConfig(density_floor=1e-30)
    y0 = (2e-6, 2e-6 + 1e-15)
    _, count, status = integrate_pairs(np.array([y0]), 1e-8, cfg, SpinStatistics.FERMION, p_fast)
    assert status[0] == TrajectoryStatus.NOT_INTEGRATED and count[0] == 0
    assert trajectories(np.array([y0]), 1e-8, cfg, SpinStatistics.FERMION, p_fast) == [None]


def run_with_budget(initial, p, t_end, stats, max_steps, batch_min):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(integrator, "_MAX_STEPS", max_steps)
        mp.setattr(integrator, "_BATCH_MIN", batch_min)
        return integrate_pairs(initial, t_end, IntegratorConfig(), stats, p)


def least_budget(initial, p, t_end, stats, batch_min):
    """The smallest _MAX_STEPS under which every pair lands or aborts."""
    lo, hi = 1, 1024
    while lo < hi:
        mid = (lo + hi) // 2
        status = run_with_budget(initial, p, t_end, stats, mid, batch_min)[2]
        if (status != TrajectoryStatus.NOT_INTEGRATED).all():
            hi = mid
        else:
            lo = mid + 1
    return lo


@settings(max_examples=3, deadline=None)
@given(case=cases)
def test_step_budget_counts_the_steps_of_both_loops(case):
    # 8 pairs through the batch loop alone, the scalar loop alone, and the
    # batch loop handing 7 pairs to the scalar loop once the first one ends.
    # A scalar loop that counted afresh at the handoff would let the slowest
    # pair land within a budget smaller by the first pair's steps. (The loops'
    # last-bit differences left every pair's step count unchanged in 120
    # drawn batches.)
    initial, p, t_end = draw(*case, n=8)
    stats = case[1]
    modes = (1, 8, 10**9)
    budgets = {least_budget(initial, p, t_end, stats, b) for b in modes}
    assert len(budgets) == 1
    # one step short, the slowest pairs are not integrated and the rest are untouched
    budget = budgets.pop()
    for batch_min in modes:
        table, count, status = run_with_budget(initial, p, t_end, stats, budget - 1, batch_min)
        full = run_with_budget(initial, p, t_end, stats, budget, batch_min)
        cut = status == TrajectoryStatus.NOT_INTEGRATED
        assert cut.any() and (count[cut] == 0).all()
        np.testing.assert_array_equal(status[~cut], full[2][~cut])
        np.testing.assert_array_equal(count[~cut], full[1][~cut])
        np.testing.assert_array_equal(table[~cut], full[0][~cut])


def test_empty_batch_integrates_to_nothing(p_fast):
    table, count, status = integrate_pairs(
        np.empty((0, 2)), 1e-8, IntegratorConfig(), SpinStatistics.BOSON, p_fast
    )
    assert table.shape == (0, 2, 5) and count.shape == (0,) and len(status) == 0


@pytest.mark.parametrize("n_times", [101, 11])
@pytest.mark.parametrize("batch_min", [_BATCH_MIN, 1], ids=["scalar", "batch"])
def test_samples_land_on_the_requested_times(p_slow, n_times, batch_min):
    # 101 is the CLI grid; t0 + (t/tau) tau misses several of these times by an ulp
    times = np.linspace(0.0, 1e-7, n_times)
    initial, _, _ = draw("slow", SpinStatistics.BOSON, seed=5, n=4)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(integrator, "_BATCH_MIN", batch_min)
        batch = trajectories(initial, 1e-7, IntegratorConfig(), SpinStatistics.BOSON, p_slow, times)
    for y0, traj in zip(initial, batch):
        np.testing.assert_array_equal(traj.t, times)
        single = integrate_one(
            release(*y0), 1e-7, IntegratorConfig(), SpinStatistics.BOSON, p_slow, times
        )
        np.testing.assert_array_equal(single.t, times)
        np.testing.assert_array_equal(single.x1, p_slow.x_speed * times)


@pytest.mark.parametrize(
    "n, stats, floor",
    [
        (96, SpinStatistics.BOSON, 1e-12),
        (20, SpinStatistics.FERMION, 1e-12),
        (200, SpinStatistics.FERMION, 0.01),
    ],
    ids=["batch_loop", "scalar_loop", "aborts_in_flight"],
)
def test_keeping_trajectories_changes_no_result(p_slow, n, stats, floor):
    # the result keeps integrate_pairs' own table, which ends on its endpoints
    cfg = IntegratorConfig(density_floor=floor)
    initial = sample_initial(SamplerConfig(method="exact_rejection", n_pairs=n, seed=31), stats, p_slow,
                             np.random.default_rng(31))
    times = np.linspace(0.0, 1e-7, 11)
    table, count, status = integrate_pairs(initial, 1e-7, cfg, stats, p_slow, times)
    result = transport_ensemble(initial, cfg, stats, p_slow, 1e-7, times,
                                rng=np.random.default_rng(3))
    assert result.samples.tobytes() == table.tobytes()
    np.testing.assert_array_equal(result.sample_count, count)
    done = np.flatnonzero(status == TrajectoryStatus.COMPLETED)
    assert result.n_completed == len(done) == n - result.aborted_count
    assert table[done, count[done] - 1, 1:3].tobytes() == result.endpoints.tobytes()
    if floor > 1e-12:
        assert result.aborted_count > _BATCH_MIN


def test_the_step_records_are_held_once():
    # The traced peak of integrate_pairs from the start of the call, per pair,
    # on 1,000 slow boson pairs at 101 samples: 31.1 KiB while the batch loop
    # kept a list of record arrays that np.concatenate copied before the
    # fill, 26.6 KiB with both loops' records in one buffer (numpy 2.4). The
    # rest of the peak is the interior fill's per-sample temporaries.
    initial, p, t_end = draw("slow", SpinStatistics.BOSON, seed=0, n=1000)
    args = (t_end, IntegratorConfig(), SpinStatistics.BOSON, p, np.linspace(0.0, t_end, 101))
    integrate_pairs(initial[:50], *args)  # allocations a first call may leave behind
    tracemalloc.start()
    try:
        integrate_pairs(initial, *args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / len(initial) < 29 * 1024
