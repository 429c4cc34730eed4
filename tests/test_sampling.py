import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate
from scipy import stats as sstats

from pairslit import (
    PhysicalParams,
    RejectionStallError,
    SamplerConfig,
    SpinStatistics,
    binned_tv_distance,
    sample_initial,
    sample_joint_y,
)
from pairslit.wavefunction import _pair_bracket


def test_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(method="metropolis")
    with pytest.raises(ValueError):
        SamplerConfig(n_pairs=0)
    with pytest.raises(ValueError):
        SamplerConfig(n_pairs=-5)


@pytest.mark.parametrize("field, value", [
    ("n_pairs", 2.5), ("n_pairs", 2.0), ("n_pairs", True), ("n_pairs", np.float64(3.0)),
    ("seed", 1.5), ("seed", False), ("seed", np.bool_(True)),
])
def test_config_refuses_non_integers(field, value):
    # each passes the range checks; all but seed=False would then end in a
    # numpy TypeError inside run_ensemble, and a bool is refused like the CLI does
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        SamplerConfig(**{field: value})


def test_config_reports_every_bad_field():
    with pytest.raises(ValueError) as exc:
        SamplerConfig(method="grid", n_pairs=0, seed=1.5)
    assert str(exc.value).splitlines() == [
        "method must be one of ('exact_rejection', 'independent_gaussian')",
        "n_pairs must be >= 1 and <= 2**53",
        "seed must be an integer, got 1.5",
    ]


def test_config_takes_numpy_integers(p_fast):
    cfg = SamplerConfig(n_pairs=np.int64(3), seed=np.uint32(4))
    assert sample_initial(cfg, SpinStatistics.BOSON, p_fast,
                          np.random.default_rng(cfg.seed)).shape == (3, 2)


def test_seed_determinism(p_fast, stats):
    cfg = SamplerConfig(method="exact_rejection", n_pairs=64, seed=99)
    a = sample_initial(cfg, stats, p_fast, np.random.default_rng(cfg.seed))
    b = sample_initial(cfg, stats, p_fast, np.random.default_rng(cfg.seed))
    np.testing.assert_array_equal(a, b)
    c = sample_initial(dataclasses.replace(cfg, seed=100), stats, p_fast, np.random.default_rng(100))
    assert not np.array_equal(a, c)


def test_initial_configurations_at_release(p_fast, stats):
    # released at x = 0, t = 0: only the transverse positions are drawn
    ys = sample_initial(SamplerConfig(n_pairs=16, seed=1), stats, p_fast, np.random.default_rng(1))
    assert ys.shape == (16, 2) and ys.dtype == np.float64
    assert np.isfinite(ys).all()


def test_independent_gaussian_moments(p_fast, stats):
    cfg = SamplerConfig(method="independent_gaussian", n_pairs=4000, seed=4)
    ys = sample_initial(cfg, stats, p_fast, np.random.default_rng(cfg.seed))
    se = p_fast.sigma0 / math.sqrt(4000)
    assert ys[:, 0].mean() == pytest.approx(p_fast.Y, abs=4 * se)
    assert ys[:, 1].mean() == pytest.approx(-p_fast.Y, abs=4 * se)
    assert ys[:, 0].std(ddof=1) == pytest.approx(p_fast.sigma0, rel=0.1)
    assert abs(np.corrcoef(ys.T)[0, 1]) < 0.08


def test_exact_rejection_marginal_moments(p_fast, stats):
    # at beta = 5 each particle is an equal mixture over the two slits:
    # mean 0, variance Y^2 + sigma0^2
    n = 20000
    cfg = SamplerConfig(method="exact_rejection", n_pairs=n, seed=5)
    ys = sample_initial(cfg, stats, p_fast, np.random.default_rng(cfg.seed))
    spread = math.sqrt(p_fast.Y**2 + p_fast.sigma0**2)
    assert ys.mean() == pytest.approx(0.0, abs=4 * spread / math.sqrt(2 * n))
    assert ys[:, 0].var(ddof=1) == pytest.approx(spread**2, rel=0.05)
    # opposite-slit anticorrelation dominates the joint density
    assert np.corrcoef(ys.T)[0, 1] < -0.9


def test_exact_rejection_com_spread(p_fast, stats):
    n = 20000
    cfg = SamplerConfig(method="exact_rejection", n_pairs=n, seed=6)
    ys = sample_initial(cfg, stats, p_fast, np.random.default_rng(cfg.seed))
    com_rms = math.sqrt(np.mean((0.5 * (ys[:, 0] + ys[:, 1])) ** 2))
    assert com_rms == pytest.approx(p_fast.sigma0 / math.sqrt(2), rel=0.03)


def test_exact_vs_independent_indistinguishable_at_wide_separation(p_fast, stats):
    # with the slits five widths apart the interference correction to the
    # product form is ~exp(-25); a two-sample test cannot tell them apart
    n = 4000
    a = sample_initial(SamplerConfig(method="exact_rejection", n_pairs=n, seed=7), stats, p_fast,
                       np.random.default_rng(7))
    b = sample_initial(
        SamplerConfig(method="independent_gaussian", n_pairs=n, seed=8), stats, p_fast,
        np.random.default_rng(8),
    )
    # upper/lower assignment is randomized in the exact sampler; compare the
    # ordered pair (max, min) which is assignment-free
    hi_a, lo_a = a.max(axis=1), a.min(axis=1)
    hi_b, lo_b = b.max(axis=1), b.min(axis=1)
    assert sstats.ks_2samp(hi_a, hi_b).pvalue > 0.01
    assert sstats.ks_2samp(lo_a, lo_b).pvalue > 0.01
    assert sstats.ks_2samp(hi_a + lo_a, hi_b + lo_b).pvalue > 0.01


@pytest.mark.parametrize("t", [0.0, 1e-7])
def test_time_evolved_sampling_matches_density(p_slow, stats, t, rng):
    pts = sample_joint_y(5000, t, stats, p_slow, rng)
    assert pts.shape == (5000, 2)
    # binning noise at n = 5000 sits near 0.07; a broken sampler lands far above
    assert binned_tv_distance(pts, t, stats, p_slow) < 0.12


def test_fermion_pairs_never_coincide(p_fast):
    ys = sample_initial(
        SamplerConfig(method="exact_rejection", n_pairs=2000, seed=9),
        SpinStatistics.FERMION,
        p_fast,
        np.random.default_rng(9),
    )
    assert np.min(np.abs(ys[:, 0] - ys[:, 1])) > 0.0


def test_rejection_stall_raises(p_fast):
    # a fermion state with nearly coincident slits has vanishing density
    # everywhere the envelope puts its mass
    p = dataclasses.replace(p_fast, Y=1e-4 * p_fast.sigma0)
    with pytest.raises(RejectionStallError):
        sample_joint_y(100, 0.0, SpinStatistics.FERMION, p, np.random.default_rng(0))


ROUND = 512  # proposals per round of sample_joint_y
# (params, t_end) of both baseline regimes, and of slits one packet width from
# the axis, where the exchange term shapes the half-separation for both
# statistics; at the baseline's beta = 5 it is about exp(-25) at release
GEOMETRIES = {
    "fast": (PhysicalParams.baseline(x_speed=2.0e7), 1e-8),
    "slow": (PhysicalParams.baseline(x_speed=2.0e6), 1e-7),
    "close": (dataclasses.replace(PhysicalParams.baseline(x_speed=2.0e6), Y=1.0e-6), 1e-7),
}


def centre_and_half_separation(ys, p):
    eta = ys / p.sigma0
    return 0.5 * (eta[:, 0] + eta[:, 1]), 0.5 * (eta[:, 0] - eta[:, 1])


def whole_round_reference(n, t, stats, p, rng):
    """The stream sample_joint_y defines, written out round by round.

    Every round keeps all its accepted proposals, and each proposal is kept
    with probability g_T(d) / (a + b)^2 in its own form: with q = b / a the
    ratio is (1 + q^2 + sign 2 q cos(2 T beta d / s^2)) / (1 + q)^2.
    """
    T = t / p.tau
    s2 = 1.0 + T * T
    beta = p.beta
    centre_weight = 2.0 * math.exp(-beta * beta / s2)
    kept = []
    proposed = accepted = 0
    while sum(len(k) for k in kept) < n:
        pick = rng.random(ROUND) * (2.0 + centre_weight)
        z = math.sqrt(0.5 * s2) * rng.normal(size=(ROUND, 2))
        u = rng.random(ROUND)
        d = np.select([pick < 1.0, pick < 2.0], [beta, -beta], 0.0) + z[:, 0]
        q = np.exp(-2.0 * beta * np.abs(d) / s2)
        cos_phi = np.cos(2.0 * T * beta * d / s2)
        ratio = (1.0 + q * q + stats.sign * 2.0 * q * cos_phi) / (1.0 + q) ** 2
        keep = u < ratio
        kept.append(np.column_stack((z[keep, 1] + d[keep], z[keep, 1] - d[keep])))
        proposed += ROUND
        accepted += int(keep.sum())
        if proposed >= 8192 and accepted < 1e-3 * proposed:
            raise RejectionStallError(f"acceptance rate {accepted / proposed:.2e} below 1e-03")
    return np.concatenate(kept)[:n] * p.sigma0


@pytest.mark.parametrize("t", [0.0, 1e-7])
@pytest.mark.parametrize("n", [1, 250, 1500, 5000])
def test_prefix_scoring_keeps_the_whole_batch_stream(p_slow, stats, n, t):
    # the draws are the prefix of the stream of whole rounds, each scored in
    # full, and the generator ends where drawing those rounds leaves it; 5000
    # pairs take several rounds for both statistics
    got_rng, want_rng = np.random.default_rng(n), np.random.default_rng(n)
    got = sample_joint_y(n, t, stats, p_slow, got_rng)
    want = whole_round_reference(n, t, stats, p_slow, want_rng)
    np.testing.assert_array_equal(got, want)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("y_slit, n, seed", [(1e-4, 100, 0), (2e-2, 1, 33)])
def test_prefix_scoring_stalls_where_whole_batches_do(p_fast, y_slit, n, seed):
    # fermions from nearly coincident slits: the stall test reads the counts
    # of whole rounds, so the sampler stalls where the reference does, with
    # its message (both cases stall), and otherwise returns its draws
    p = dataclasses.replace(p_fast, Y=y_slit * p_fast.sigma0)
    stats = SpinStatistics.FERMION

    def outcome(draw):
        try:
            return draw(n, 0.0, stats, p, np.random.default_rng(seed))
        except RejectionStallError as exc:
            return str(exc)

    got, want = outcome(sample_joint_y), outcome(whole_round_reference)
    assert type(got) is type(want)
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("t", [0.0, 1e-7])
@pytest.mark.parametrize("n", [1, 250, 511, 512, 513, 1500, 5000])
def test_draws_are_the_prefix_of_a_larger_request(p_slow, stats, n, t):
    def draw(count):
        rng = np.random.default_rng(n)
        return sample_joint_y(count, t, stats, p_slow, rng), rng.bit_generator.state

    small, small_state = draw(n)
    large, _ = draw(10_000)
    np.testing.assert_array_equal(small, large[:n])
    again, again_state = draw(n)
    np.testing.assert_array_equal(again, small)
    assert again_state == small_state


@pytest.mark.parametrize("n", [1, 250, 511, 512, 513, 1024, 1025, 3000])
def test_bosons_at_release_keep_every_proposal(p_fast, n):
    # at t = 0 the boson density is the envelope itself, so a request takes
    # ceil(n / 512) rounds, each drawn as component uniforms, (d, c) normals
    # and keep uniforms
    got = np.random.default_rng(n)
    sample_joint_y(n, 0.0, SpinStatistics.BOSON, p_fast, got)
    want = np.random.default_rng(n)
    for _ in range(-(-n // ROUND)):
        want.random(ROUND)
        want.normal(size=(ROUND, 2))
        want.random(ROUND)
    assert got.bit_generator.state == want.bit_generator.state


@pytest.mark.parametrize("beta", [1e-6, 1e-3, 0.3, 1.0, 5.0, 30.0])
def test_boson_release_bracket_is_its_bound_to_the_bit(beta):
    # so the keep test u * bound < g holds for every keep uniform u < 1, not
    # only for the uniforms a given seed happens to draw
    d = np.concatenate([np.linspace(-beta - 10.0, beta + 10.0, 100_001),
                        np.logspace(-12.0, 0.0, 1001)])
    g, bound = _pair_bracket(d, 0.0, beta, 1)
    np.testing.assert_array_equal(g, bound)
    assert (np.nextafter(1.0, 0.0) * bound < g).all()


@pytest.mark.parametrize("at_end", [False, True], ids=["release", "t_end"])
@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
def test_centre_is_an_exact_normal(stats, geometry, at_end):
    p, t_end = GEOMETRIES[geometry]
    t = t_end if at_end else 0.0
    T = t / p.tau
    ys = sample_joint_y(20000, t, stats, p, np.random.default_rng(11))
    c, _ = centre_and_half_separation(ys, p)
    # 1e-3 per case, as twelve cases share the family-wise chance of a miss
    assert sstats.kstest(c, "norm", args=(0.0, math.sqrt(0.5 * (1.0 + T * T)))).pvalue > 1e-3


def half_separation_moments(T, beta, sign):
    """<d^2> and <d^4> of g_T(d) = a^2 + b^2 + sign 2 a b cos(2 T beta d / s^2), by quadrature."""
    s2 = 1.0 + T * T

    def g(d):
        a2 = math.exp(-((d - beta) ** 2) / s2)
        b2 = math.exp(-((d + beta) ** 2) / s2)
        return a2 + b2 + sign * 2.0 * math.sqrt(a2 * b2) * math.cos(2.0 * T * beta * d / s2)

    reach = beta + 40.0 * math.sqrt(s2)
    mass = integrate.quad(g, -reach, reach, limit=200, points=(-beta, 0.0, beta))[0]
    return [
        integrate.quad(lambda d: d**k * g(d), -reach, reach, limit=200, points=(-beta, 0.0, beta))[0]
        / mass
        for k in (2, 4)
    ]


@pytest.mark.parametrize("at_end", [False, True], ids=["release", "t_end"])
@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
def test_half_separation_moments_match_quadrature(stats, geometry, at_end):
    p, t_end = GEOMETRIES[geometry]
    t = t_end if at_end else 0.0
    n = 20000
    ys = sample_joint_y(n, t, stats, p, np.random.default_rng(12))
    _, d = centre_and_half_separation(ys, p)
    m2, m4 = half_separation_moments(t / p.tau, p.beta, stats.sign)
    assert abs(np.mean(d * d) - m2) <= 4.0 * math.sqrt((m4 - m2 * m2) / n)
