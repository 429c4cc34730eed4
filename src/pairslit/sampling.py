"""Monte Carlo draws of initial pair positions.

Three generators for the transverse coordinates (y1, y2):

* exact_rejection draws from the true joint density of the pair state, so
  ensembles transported by the guidance law stay distributed like |Psi|^2.
* independent_gaussian puts particle 1 in the upper packet and particle 2 in
  the lower one, ignoring exchange symmetry. For well-separated slits it is
  statistically indistinguishable from the exact density.
* all_symmetric draws particle 1 from the upper packet and forces
  y2 = -y1, so every pair starts mirror-symmetric about the axis.

Longitudinal coordinates start at x = 0 and t = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RejectionStallError
from .params import PhysicalParams, SpinStatistics

_METHODS = ("exact_rejection", "independent_gaussian", "all_symmetric")
_BATCH = 4096  # fixed so the RNG stream consumed is reproducible
_STALL_MIN_PROPOSALS = 8192
_STALL_RATE = 1e-3
# The most pairs a batch may request: the (n, 2) release array of more needs
# over 2**57 bytes, the widest 64-bit address space, and from 2**59 pairs
# numpy refuses it with a ValueError instead of a MemoryError.
_MAX_PAIRS = 2**53


@dataclass(frozen=True)
class SamplerConfig:
    method: str = "exact_rejection"
    n_pairs: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}")
        if not 1 <= self.n_pairs <= _MAX_PAIRS:
            raise ValueError("n_pairs must be >= 1 and <= 2**53")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def sample_joint_y(
    n: int,
    t: float,
    stats: SpinStatistics,
    p: PhysicalParams,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw n transverse pairs (m) from the exact joint density at time t.

    Rejection from the interference-free packet mixture: an equal mixture of
    the two packet-product Gaussians of width sqrt(1 + T^2) in packet units.
    The acceptance ratio reduces to
    (1 + q + sign * 2 sqrt(q) cos(phi)) / (c (1 + q)) with
    q = min(F, G)/max(F, G), which is computed in log space and never
    overflows. The envelope constant is c = 2 except for the fermion state
    at t = 0, where the interference term is nonpositive and c = 1 works.

    Proposals come in batches of _BATCH, each drawn whole (swap uniforms,
    normals, then keep uniforms), so the stream consumed and the generator's
    end state depend only on the number of batches. A batch scores a prefix
    of about twice the pairs still needed first, and the rest only if that
    prefix falls short or the stall test below reads the whole batch's
    acceptance count; the draws are those of scoring every proposal.

    Raises RejectionStallError if the running acceptance rate falls below
    1e-3 (the envelope no longer covers the density efficiently).
    """
    T = t / p.tau
    s2 = 1.0 + T * T
    s = math.sqrt(s2)
    beta = p.beta
    sign = stats.sign
    c_env = 1.0 if (sign < 0 and T == 0.0) else 2.0

    out = np.empty((n, 2))
    filled = 0
    proposed = 0
    accepted = 0
    while filled < n:
        swap = rng.random(_BATCH) < 0.5
        noise = rng.normal(size=(_BATCH, 2))
        u = rng.random(_BATCH)
        proposed += _BATCH
        stall_test = proposed >= _STALL_MIN_PROPOSALS
        cut = _BATCH if stall_test else min(_BATCH, 2 * (n - filled) + 64)
        for lo, hi in ((0, cut), (cut, _BATCH)):
            if lo == hi or filled == n:
                break
            mu1 = np.where(swap[lo:hi], -beta, beta)
            eta = np.stack([mu1, -mu1], axis=1) + s * noise[lo:hi]
            diff = eta[:, 0] - eta[:, 1]
            log_q = -abs(2.0 * beta / s2) * np.abs(diff)
            q = np.exp(log_q)
            cos_phi = np.cos(T * beta * diff / s2)
            ratio = (1.0 + q + sign * 2.0 * np.exp(0.5 * log_q) * cos_phi) / (
                c_env * (1.0 + q)
            )
            keep = u[lo:hi] < ratio
            kept = eta[keep]
            take = min(n - filled, kept.shape[0])
            out[filled : filled + take] = kept[:take]
            filled += take
            accepted += kept.shape[0]
        if stall_test and accepted < _STALL_RATE * proposed:
            raise RejectionStallError(
                f"acceptance rate {accepted / proposed:.2e} below {_STALL_RATE:.0e}"
            )
    return out * p.sigma0


def sample_initial(
    cfg: SamplerConfig,
    stats: SpinStatistics,
    p: PhysicalParams,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Draw cfg.n_pairs initial (y1, y2) pairs in metres, as an (n, 2) array.

    Every pair starts at x = 0, t = 0. A fresh PCG64 generator is seeded from
    cfg.seed unless rng is supplied.
    """
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    n = cfg.n_pairs
    if cfg.method == "exact_rejection":
        return sample_joint_y(n, 0.0, stats, p, rng)
    if cfg.method == "independent_gaussian":
        centers = np.array([p.Y, -p.Y])
        return centers + p.sigma0 * rng.normal(size=(n, 2))
    upper = p.Y + p.sigma0 * rng.normal(size=n)
    return np.stack([upper, -upper], axis=1)
