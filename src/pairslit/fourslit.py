"""Counter-propagating pair through two facing double slits.

Two slit assemblies sit at x = -d and x = +d; one particle of the pair flies
right through one assembly, the other flies left through the other. Slit
labels follow wavefunction.Slit: UPPER/LOWER move rightward, MIRROR_UPPER/
MIRROR_LOWER are their x-reflections moving leftward.

Two models of the post-passage state are implemented:

* naive_four_slit_psi symmetrizes over the four slit assignments globally.
  The longitudinal dependence then collapses to cos or sin of kx (x1 - x2)
  and the guidance velocity has exactly zero longitudinal component: the
  naive state predicts both particles frozen in x, for either exchange sign.

* corrected_four_slit_psi keeps, within a detection region where the two
  particles are on definite opposite sides, only the slit assignments
  consistent with that region. The surviving two terms factor into a plane
  wave in (x1 - x2) times the exchange-symmetric transverse pair state, so
  the particles propagate at the expected drift speed and their transverse
  motion coincides with a symmetric double-slit pair after reflecting one
  longitudinal track. Overall constants (normalization, exchange sign) are
  dropped; they cancel from every guidance velocity.
"""

from __future__ import annotations

import enum
from dataclasses import replace

from .errors import NodeProximityError, RegionViolationError
from .integrator import Trajectory
from .params import PairConfiguration, PairVelocity, PhysicalParams, SpinStatistics
from .velocity import log_gradient_velocity
from .wavefunction import Slit, psi_slit

_RELATIVE_NODE_GUARD = 1e-12


class SlitRegion(enum.Enum):
    """Which side each particle is detected on after passage."""

    RIGHT_LEFT = "right_left"  # particle 1 at x > d, particle 2 at x < -d
    LEFT_RIGHT = "left_right"  # particle 1 at x < -d, particle 2 at x > d


def region_of(c: PairConfiguration, p: PhysicalParams) -> SlitRegion:
    """Detection region containing c, or RegionViolationError if neither."""
    if c.x1 > p.d and c.x2 < -p.d:
        return SlitRegion.RIGHT_LEFT
    if c.x1 < -p.d and c.x2 > p.d:
        return SlitRegion.LEFT_RIGHT
    raise RegionViolationError(
        f"configuration (x1={c.x1:.3e}, x2={c.x2:.3e}) has no definite sides "
        f"for slit separation d={p.d:.3e}"
    )


def naive_four_slit_psi(
    stats: SpinStatistics, c: PairConfiguration, p: PhysicalParams
) -> complex:
    """Globally symmetrized four-slit state (unnormalized).

    Sum of right-upper with left-lower and right-lower with left-upper
    assignments, each (anti)symmetrized over particle exchange.
    """

    def term(slit_a: Slit, slit_b: Slit, one: tuple, two: tuple) -> complex:
        return psi_slit(slit_a, *one, c.t, p) * psi_slit(slit_b, *two, c.t, p)

    one = (c.x1, c.y1)
    two = (c.x2, c.y2)
    sign = stats.sign
    return (
        term(Slit.UPPER, Slit.MIRROR_LOWER, one, two)
        + sign * term(Slit.UPPER, Slit.MIRROR_LOWER, two, one)
        + term(Slit.LOWER, Slit.MIRROR_UPPER, one, two)
        + sign * term(Slit.LOWER, Slit.MIRROR_UPPER, two, one)
    )


def corrected_four_slit_psi(
    region: SlitRegion, c: PairConfiguration, p: PhysicalParams
) -> complex:
    """Post-detection state in one region (unnormalized, exchange sign dropped).

    Keeps the two slit assignments whose longitudinal motion matches the
    region. The result is the same for both statistics up to a constant.
    Raises RegionViolationError when c lies outside the claimed region.
    """
    if region_of(c, p) is not region:
        raise RegionViolationError(f"configuration is not in region {region.value}")
    if region is SlitRegion.RIGHT_LEFT:
        right, left = (c.x1, c.y1), (c.x2, c.y2)
    else:
        right, left = (c.x2, c.y2), (c.x1, c.y1)
    t = c.t
    return psi_slit(Slit.UPPER, *right, t, p) * psi_slit(
        Slit.MIRROR_LOWER, *left, t, p
    ) + psi_slit(Slit.LOWER, *right, t, p) * psi_slit(
        Slit.MIRROR_UPPER, *left, t, p
    )


def _guarded_fd_velocity(amplitude, c: PairConfiguration, p: PhysicalParams):
    # Relative node guard: compare |Psi| against the largest single product
    # term so the criterion is insensitive to the missing normalization.
    psi = amplitude(c.x1, c.y1, c.x2, c.y2, c.t)
    scale = max(
        abs(psi_slit(s, c.x1, c.y1, c.t, p)) for s in Slit
    ) * max(abs(psi_slit(s, c.x2, c.y2, c.t, p)) for s in Slit)
    if abs(psi) < _RELATIVE_NODE_GUARD * scale:
        raise NodeProximityError("four-slit amplitude too close to a node")
    return log_gradient_velocity(amplitude, c, p)


def naive_velocity(c: PairConfiguration, stats: SpinStatistics, p: PhysicalParams) -> PairVelocity:
    """Guidance velocity of the naive state by central differences (m/s)."""

    def amplitude(x1, y1, x2, y2, t):
        return naive_four_slit_psi(stats, PairConfiguration(x1, y1, x2, y2, t), p)

    return _guarded_fd_velocity(amplitude, c, p)


def corrected_velocity(
    region: SlitRegion, c: PairConfiguration, p: PhysicalParams
) -> PairVelocity:
    """Guidance velocity of the post-detection state by central differences.

    Longitudinal steps are kept small enough that every probe point stays in
    the region, so no RegionViolationError can fire off a valid interior c.
    """

    def amplitude(x1, y1, x2, y2, t):
        return corrected_four_slit_psi(region, PairConfiguration(x1, y1, x2, y2, t), p)

    return _guarded_fd_velocity(amplitude, c, p)


def map_trajectory_to_double_slit(traj: Trajectory, region: SlitRegion) -> Trajectory:
    """Reflect one longitudinal track, swapping double-slit and four-slit flows.

    The post-detection state equals the plus-sign double-slit pair state with
    the leftward particle's longitudinal coordinate reflected, so negating
    that coordinate (and its velocity) maps trajectories of either problem
    onto the other. The map touches x2 for RIGHT_LEFT, x1 for LEFT_RIGHT,
    leaves y-components bitwise untouched, and is an involution.
    """
    if region is SlitRegion.LEFT_RIGHT:
        return replace(traj, x1=-traj.x1, vx1=-traj.vx1)
    return replace(traj, x2=-traj.x2, vx2=-traj.vx2)
