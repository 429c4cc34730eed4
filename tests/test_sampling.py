import dataclasses
import math

import numpy as np
import pytest
from scipy import stats as sstats

from pairslit import (
    RejectionStallError,
    SamplerConfig,
    SpinStatistics,
    binned_tv_distance,
    sample_initial,
    sample_joint_y,
)


def test_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(method="metropolis")
    with pytest.raises(ValueError):
        SamplerConfig(n_pairs=0)
    with pytest.raises(ValueError):
        SamplerConfig(n_pairs=-5)


def test_seed_determinism(p_fast, stats):
    cfg = SamplerConfig(method="exact_rejection", n_pairs=64, seed=99)
    a = sample_initial(cfg, stats, p_fast)
    b = sample_initial(cfg, stats, p_fast)
    np.testing.assert_array_equal(a, b)
    c = sample_initial(dataclasses.replace(cfg, seed=100), stats, p_fast)
    assert not np.array_equal(a, c)


def test_initial_configurations_at_release(p_fast, stats):
    # released at x = 0, t = 0: only the transverse positions are drawn
    ys = sample_initial(SamplerConfig(n_pairs=16, seed=1), stats, p_fast)
    assert ys.shape == (16, 2) and ys.dtype == np.float64
    assert np.isfinite(ys).all()


def test_all_symmetric_forces_mirror(p_fast, stats):
    cfg = SamplerConfig(method="all_symmetric", n_pairs=500, seed=3)
    ys = sample_initial(cfg, stats, p_fast)
    assert np.all(ys[:, 1] == -ys[:, 0])
    # upper coordinate ~ N(Y, sigma0^2)
    assert ys[:, 0].mean() == pytest.approx(p_fast.Y, abs=4 * p_fast.sigma0 / math.sqrt(500))
    assert ys[:, 0].std(ddof=1) == pytest.approx(p_fast.sigma0, rel=0.15)


def test_independent_gaussian_moments(p_fast, stats):
    cfg = SamplerConfig(method="independent_gaussian", n_pairs=4000, seed=4)
    ys = sample_initial(cfg, stats, p_fast)
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
    ys = sample_initial(cfg, stats, p_fast)
    spread = math.sqrt(p_fast.Y**2 + p_fast.sigma0**2)
    assert ys.mean() == pytest.approx(0.0, abs=4 * spread / math.sqrt(2 * n))
    assert ys[:, 0].var(ddof=1) == pytest.approx(spread**2, rel=0.05)
    # opposite-slit anticorrelation dominates the joint density
    assert np.corrcoef(ys.T)[0, 1] < -0.9


def test_exact_rejection_com_spread(p_fast, stats):
    n = 20000
    cfg = SamplerConfig(method="exact_rejection", n_pairs=n, seed=6)
    ys = sample_initial(cfg, stats, p_fast)
    com_rms = math.sqrt(np.mean((0.5 * (ys[:, 0] + ys[:, 1])) ** 2))
    assert com_rms == pytest.approx(p_fast.sigma0 / math.sqrt(2), rel=0.03)


def test_exact_vs_independent_indistinguishable_at_wide_separation(p_fast, stats):
    # with the slits five widths apart the interference correction to the
    # product form is ~exp(-25); a two-sample test cannot tell them apart
    n = 4000
    a = sample_initial(SamplerConfig(method="exact_rejection", n_pairs=n, seed=7), stats, p_fast)
    b = sample_initial(
        SamplerConfig(method="independent_gaussian", n_pairs=n, seed=8), stats, p_fast
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
    )
    assert np.min(np.abs(ys[:, 0] - ys[:, 1])) > 0.0


def test_rejection_stall_raises(p_fast):
    # a fermion state with nearly coincident slits has vanishing density
    # everywhere the envelope puts its mass
    p = dataclasses.replace(p_fast, Y=1e-4 * p_fast.sigma0)
    with pytest.raises(RejectionStallError):
        sample_joint_y(100, 0.0, SpinStatistics.FERMION, p, np.random.default_rng(0))


def whole_batch_reference(n, t, stats, p, rng):
    """sample_joint_y as it was before prefix scoring: every proposal scored."""
    T = t / p.tau
    s2 = 1.0 + T * T
    s = math.sqrt(s2)
    beta, sign = p.beta, stats.sign
    c_env = 1.0 if (sign < 0 and T == 0.0) else 2.0
    out = np.empty((n, 2))
    filled = proposed = accepted = 0
    while filled < n:
        mu1 = np.where(rng.random(4096) < 0.5, -beta, beta)
        eta = np.stack([mu1, -mu1], axis=1) + s * rng.normal(size=(4096, 2))
        diff = eta[:, 0] - eta[:, 1]
        log_q = -abs(2.0 * beta / s2) * np.abs(diff)
        q = np.exp(log_q)
        cos_phi = np.cos(T * beta * diff / s2)
        ratio = (1.0 + q + sign * 2.0 * np.exp(0.5 * log_q) * cos_phi) / (c_env * (1.0 + q))
        keep = rng.random(4096) < ratio
        kept = eta[keep]
        take = min(n - filled, kept.shape[0])
        out[filled : filled + take] = kept[:take]
        filled += take
        proposed += 4096
        accepted += int(keep.sum())
        if proposed >= 8192 and accepted < 1e-3 * proposed:
            raise RejectionStallError(f"acceptance rate {accepted / proposed:.2e} below 1e-03")
    return out * p.sigma0


@pytest.mark.parametrize("t", [0.0, 1e-7])
@pytest.mark.parametrize("n", [1, 250, 1500, 5000])
def test_prefix_scoring_keeps_the_whole_batch_stream(p_slow, stats, n, t):
    # scoring only the proposals a batch needs changes no draw and leaves the
    # generator where scoring them all leaves it. At seed 1500 the boson
    # prefix falls short and the batch's rest is scored; 5000 pairs take
    # several batches, and from the second on the stall test reads them whole
    got_rng, want_rng = np.random.default_rng(n), np.random.default_rng(n)
    got = sample_joint_y(n, t, stats, p_slow, got_rng)
    want = whole_batch_reference(n, t, stats, p_slow, want_rng)
    np.testing.assert_array_equal(got, want)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("y_slit, n, seed", [(1e-4, 100, 0), (2e-2, 1, 33)])
def test_prefix_scoring_stalls_where_whole_batches_do(p_fast, y_slit, n, seed):
    # In the second case the batch that stalls fills the request from its
    # first proposals, and only its whole acceptance count gives the rate
    # that whole batches report.
    p = dataclasses.replace(p_fast, Y=y_slit * p_fast.sigma0)
    stats = SpinStatistics.FERMION
    with pytest.raises(RejectionStallError) as want:
        whole_batch_reference(n, 0.0, stats, p, np.random.default_rng(seed))
    with pytest.raises(RejectionStallError) as got:
        sample_joint_y(n, 0.0, stats, p, np.random.default_rng(seed))
    assert str(got.value) == str(want.value)
