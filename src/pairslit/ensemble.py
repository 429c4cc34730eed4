"""Ensemble transport and distributional verification.

Integrates Monte Carlo initial ensembles along the guidance flow and checks
that transported positions remain |Psi|^2-distributed: the total-variation
distance between binned endpoints and the exact joint density should match
what a fresh direct draw of the same size achieves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .integrator import IntegratorConfig, TrajectoryStatus, integrate_pairs
from .params import PhysicalParams, SpinStatistics
from .quadrature import gauss_legendre
from .sampling import SamplerConfig, sample_initial, sample_joint_y
from .wavefunction import joint_density_y, sigma_t

_TV_BINS = 40
_TV_HALF_WIDTHS = 10.0  # grid spans +- this many |sigma_t|
_TV_MIN_POINTS = 100
_GL_PER_BIN = 8


@dataclass(frozen=True, eq=False)
class EnsembleResult:
    """Summary of one transported ensemble.

    endpoints holds the final (y1, y2) of completed trajectories, in meters.
    delta_y0_estimate is the rms of (y1 + y2)/2 over the drawn initial
    conditions. The density-distance fields are None when fewer than 100
    trajectories completed; density_distance_baseline scores a fresh direct
    sample of equal size with the same statistic. samples is integrate_pairs'
    (n, S, 5) table of every pair's samples (t, y1, y2, vy1, vy2), one row
    per sample time; pair i's samples are samples[i, :sample_count[i]], none
    for a pair that could not be integrated.
    """

    endpoints: np.ndarray
    same_side_fraction: float
    delta_y0_estimate: float
    density_distance: float | None
    density_distance_baseline: float | None
    samples: np.ndarray
    sample_count: np.ndarray

    @property
    def n_completed(self) -> int:
        return self.endpoints.shape[0]

    @property
    def n_requested(self) -> int:
        return self.sample_count.size

    @property
    def aborted_count(self) -> int:
        return self.n_requested - self.n_completed


def run_ensemble(
    sampler: SamplerConfig,
    integrator: IntegratorConfig,
    stats: SpinStatistics,
    p: PhysicalParams,
    t_end: float,
    sample_times=None,
) -> EnsembleResult:
    """Draw, transport and score an ensemble of sampler.n_pairs pairs.

    Seeding is hierarchical: the sampler and the fresh baseline draw used by
    the density-distance comparison consume independent child streams of
    sampler.seed, so results are reproducible and the baseline is not
    correlated with the ensemble.
    """
    root = np.random.SeedSequence(sampler.seed)
    seq_sample, seq_baseline = root.spawn(2)
    initial = sample_initial(sampler, stats, p, rng=np.random.default_rng(seq_sample))
    return transport_ensemble(initial, integrator, stats, p, t_end, sample_times,
                              rng=np.random.default_rng(seq_baseline))


def transport_ensemble(
    initial: np.ndarray,
    integrator: IntegratorConfig,
    stats: SpinStatistics,
    p: PhysicalParams,
    t_end: float,
    sample_times=None,
    *,
    rng: np.random.Generator,
) -> EnsembleResult:
    """Transport and score pairs released at x = 0, t = 0.

    initial is the (n, 2) array of release positions (y1, y2) in metres. All
    pairs go through one integrate_pairs batch. Initial conditions already
    below the integrator's density floor, and pairs whose error control
    underflows the smallest step or exhausts the step budget, are counted as
    aborted with no samples; aborts never fail the batch. rng feeds the
    baseline draw of density_distance.
    """
    table, count, status = integrate_pairs(
        initial, t_end, integrator, stats, p, sample_times=sample_times
    )
    ends = table[status == TrajectoryStatus.COMPLETED, -1, 1:3]
    with np.errstate(over="ignore"):
        com = 0.5 * (initial[:, 0] + initial[:, 1])
        spread = math.sqrt(np.add.reduce(com * com) / com.size)
    if math.isinf(spread):  # the squares overflow: scale by 2^-e, which is exact
        e = math.frexp(np.abs(initial).max())[1]
        com = 0.5 * (np.ldexp(initial[:, 0], -e) + np.ldexp(initial[:, 1], -e))
        spread = math.ldexp(math.sqrt(np.add.reduce(com * com) / com.size), e)

    # the product of the signs: that of the coordinates can overflow. Both
    # summaries are Python floats, equal to the bit to float(np.mean(...)) of
    # their definitions.
    same_side = np.sign(ends[:, 0]) * np.sign(ends[:, 1]) > 0.0
    same_side = float(np.count_nonzero(same_side)) / len(ends) if len(ends) else math.nan
    distance = baseline = None
    if len(ends) >= _TV_MIN_POINTS:
        distance, baseline = density_distance(ends, stats, p, t_end, rng=rng)
    return EnsembleResult(
        endpoints=ends,
        same_side_fraction=same_side,
        delta_y0_estimate=spread,
        density_distance=distance,
        density_distance_baseline=baseline,
        samples=table,
        sample_count=count,
    )


def density_distance(
    endpoints: np.ndarray,
    stats: SpinStatistics,
    p: PhysicalParams,
    t_end: float,
    rng: np.random.Generator | None = None,
) -> tuple[float, float]:
    """Distance of endpoints from the exact density, plus a noise baseline.

    Returns (distance, baseline): the binned total-variation distance of the
    given points from the exact joint density at t_end, and the same
    statistic for a fresh direct sample of equal size, which calibrates how
    much distance pure binning noise produces. Requires >= 100 points.
    """
    endpoints = np.asarray(endpoints)
    if endpoints.shape[0] < _TV_MIN_POINTS:
        raise ValueError(f"density_distance needs >= {_TV_MIN_POINTS} points")
    if rng is None:
        rng = np.random.default_rng(0)
    distance = binned_tv_distance(endpoints, t_end, stats, p)
    fresh = sample_joint_y(endpoints.shape[0], t_end, stats, p, rng)
    return distance, binned_tv_distance(fresh, t_end, stats, p)


def binned_tv_distance(
    points: np.ndarray, t: float, stats: SpinStatistics, p: PhysicalParams
) -> float:
    """Total-variation distance between binned points and the exact density.

    The plane is cut into a 40 x 40 grid spanning +-10 |sigma_t| plus a
    single catch-all for everything outside. Exact cell masses come from
    per-cell Gauss-Legendre quadrature of the joint density. As in
    numpy.histogram2d, each cell is closed on the left and the last cell is
    also closed on the right; points outside the grid, +-inf and NaN count
    in the catch-all cell. points must be a non-empty (n, 2) array.
    """
    points = np.asarray(points)
    if points.ndim != 2 or points.shape[0] == 0 or points.shape[1] != 2:
        raise ValueError(f"binned_tv_distance needs a non-empty (n, 2) array, got {points.shape}")
    edges, masses, outside_mass = _exact_bin_masses(float(t), stats, p)
    pts = points / p.sigma0
    # Per coordinate, index 0 is below the grid and m - 1 above it or NaN;
    # the border rows and columns of the (m, m) count are the catch-all.
    m = edges.size + 1
    cell = np.searchsorted(edges, pts, side="right")
    cell[pts == edges[-1]] -= 1
    counts = np.bincount(cell[:, 0] * m + cell[:, 1], minlength=m * m)
    empirical = counts.reshape(m, m)[1:-1, 1:-1] / pts.shape[0]
    outside_empirical = 1.0 - empirical.sum()
    return 0.5 * (
        np.abs(empirical - masses).sum() + abs(outside_empirical - outside_mass)
    )


@lru_cache(maxsize=32)
def _exact_bin_masses(t: float, stats: SpinStatistics, p: PhysicalParams):
    """The scoring grid at time t: its edges, its cell masses and the mass outside.

    The grid has 40 x 40 cells on [-half, half]^2, in packet-width units,
    with half = 10 |sigma_t| / sigma0 rounded to 12 decimals. Each cell's
    mass is an 8 x 8-point Gauss-Legendre quadrature of the joint density.
    The density is evaluated one row of cells at a time, so the peak memory
    is that of 8 x 320 points rather than of the whole 320 x 320 grid.
    """
    half = round(_TV_HALF_WIDTHS * abs(sigma_t(t, p)) / p.sigma0, 12)
    edges = np.linspace(-half, half, _TV_BINS + 1)
    x, w = gauss_legendre(edges[:-1, None], edges[1:, None], _GL_PER_BIN)
    y2, w2 = x.ravel() * p.sigma0, w.ravel()
    masses = np.empty((_TV_BINS, _TV_BINS))
    for row, (x1, w1) in enumerate(zip(x, w)):
        dens = joint_density_y(x1[:, None] * p.sigma0, y2, t, stats, p) * p.sigma0**2
        cellwise = (w1[:, None] * w2) * dens
        masses[row] = cellwise.reshape(_GL_PER_BIN, _TV_BINS, _GL_PER_BIN).sum(axis=(0, 2))
    return edges, masses, float(max(0.0, 1.0 - masses.sum()))
