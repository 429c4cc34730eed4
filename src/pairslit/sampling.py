"""Monte Carlo draws of initial pair positions.

Two generators for the transverse coordinates (y1, y2):

* exact_rejection draws from the true joint density of the pair state, so
  ensembles transported by the guidance law stay distributed like |Psi|^2.
  It draws the centre of mass exactly and the half-separation by rejection,
  in fixed rounds of proposals (see sample_joint_y).
* independent_gaussian puts particle 1 in the upper packet and particle 2 in
  the lower one, ignoring exchange symmetry. For well-separated slits it is
  statistically indistinguishable from the exact density.

Longitudinal coordinates start at x = 0 and t = 0.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import RejectionStallError
from .params import PhysicalParams, SpinStatistics
from .wavefunction import _pair_bracket

_METHODS = ("exact_rejection", "independent_gaussian")
_ROUND = 512  # proposals per round, fixed so the stream consumed is reproducible
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
        # one line of the ValueError for each field that fails its check
        problems = [] if self.method in _METHODS else [f"method must be one of {_METHODS}"]
        for name in ("n_pairs", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                problems.append(f"{name} must be an integer, got {value!r}")
            elif name == "n_pairs" and not 1 <= value <= _MAX_PAIRS:
                problems.append("n_pairs must be >= 1 and <= 2**53")
            elif name == "seed" and value < 0:
                problems.append("seed must be >= 0")
        if problems:
            raise ValueError("\n".join(problems))


def sample_joint_y(
    n: int,
    t: float,
    stats: SpinStatistics,
    p: PhysicalParams,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw n transverse pairs (m) from the exact joint density at time t.

    In packet units (eta = y / sigma0, T = t / tau, s^2 = 1 + T^2) the density
    factorizes as exp(-c^2 / s^2) in the centre c = (eta1 + eta2) / 2 times
    exp(-(|d| - beta)^2 / s^2) g in the half-separation d = (eta1 - eta2) / 2,
    g being wavefunction._pair_bracket, the bracket joint_density_y also
    evaluates. So c is an exact normal of variance s^2 / 2, and d is drawn by
    rejection from the envelope that takes g at its bound over the phase,
    (1 + q)^2 with q = exp(-2 beta |d| / s^2): a mixture of three normals of
    variance s^2 / 2, centred at beta and -beta with weight 1 each and at 0
    with weight 2 exp(-beta^2 / s^2). A proposal is kept when its keep
    uniform times the bound is below g; the bracket is exact near the
    fermion diagonal, and bosons at t = 0, where g is its bound to the bit,
    keep every proposal.

    Proposals come in rounds of _ROUND, each drawn whole: its component
    uniforms, its (d, c) normal pairs, then its keep uniforms. The draws are
    the first n kept proposals in round order, so they are the first n rows
    of any larger request from the same generator state, and the generator's
    end state depends only on the number of rounds.

    Raises RejectionStallError if, from _STALL_MIN_PROPOSALS proposals on, the
    acceptance rate falls below 1e-3 (the envelope no longer covers the
    density efficiently).
    """
    T = t / p.tau
    s2 = 1.0 + T * T
    beta = p.beta
    centre_weight = 2.0 * math.exp(-beta * beta / s2)
    width = math.sqrt(0.5 * s2)

    out = np.empty((n, 2))
    filled = proposed = accepted = 0
    while filled < n:
        pick = rng.random(_ROUND) * (2.0 + centre_weight)
        z = rng.normal(0.0, width, size=(_ROUND, 2))
        u = rng.random(_ROUND)
        d = np.where(pick < 1.0, beta, np.where(pick < 2.0, -beta, 0.0)) + z[:, 0]
        g, bound = _pair_bracket(d, T, beta, stats.sign)
        keep = u * bound < g
        rows = np.flatnonzero(keep)
        proposed, accepted = proposed + _ROUND, accepted + rows.size
        rows = rows[: n - filled]
        c, d = z[rows, 1], d[rows]
        k = filled + c.size
        out[filled:k, 0] = c + d
        out[filled:k, 1] = c - d
        filled = k
        if proposed >= _STALL_MIN_PROPOSALS and accepted < _STALL_RATE * proposed:
            raise RejectionStallError(
                f"acceptance rate {accepted / proposed:.2e} below {_STALL_RATE:.0e}"
            )
    return out * p.sigma0


def sample_initial(
    cfg: SamplerConfig,
    stats: SpinStatistics,
    p: PhysicalParams,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw cfg.n_pairs initial (y1, y2) pairs in metres, as an (n, 2) array.

    Every pair starts at x = 0, t = 0. The draws come from rng; cfg.seed is
    not read here, since run_ensemble spawns the sampler's generator from it.
    """
    n = cfg.n_pairs
    if cfg.method == "exact_rejection":
        return sample_joint_y(n, 0.0, stats, p, rng)
    centers = np.array([p.Y, -p.Y])
    return centers + p.sigma0 * rng.normal(size=(n, 2))
