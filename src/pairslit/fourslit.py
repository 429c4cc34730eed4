"""Counter-propagating pair through two facing double slits.

Two slit assemblies sit at x = -d and x = +d; one particle of the pair flies
right through one assembly, the other flies left through the other. The
packets are wavefunction.pair_images: upper and lower move rightward, mirror
upper and mirror lower are their x-reflections moving leftward.

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

Each state is one table of product terms (_table), read by both its
amplitude, which broadcasts over coordinate arrays in the PairConfiguration,
and its exact guidance velocity (_velocity).
property_report runs the numeric checks of both models that the
four-slit-check scenario prints.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
from dataclasses import replace

import numpy as np

from .errors import NodeProximityError, RegionViolationError
from .integrator import IntegratorConfig, TrajectoryStatus, integrate_pairs
from .params import PairConfiguration, PairVelocity, PhysicalParams, SpinStatistics
from .wavefunction import _IMAGE_SIGNS, pair_images, psi_pair

_RELATIVE_NODE_GUARD = 1e-12
# Longest span (s) over which property_report integrates its mapped
# trajectories; a shorter flight is integrated whole.
MAPPED_SPAN = 1.0e-8
# property_report redraws naive-state points whose |Psi| falls below this
# fraction of the node-guard scale, and factorization points whose
# longitudinal factors fall below it: there rounding dominates.
_WELL_CONDITIONED = 0.1


class SlitRegion(enum.Enum):
    """Which side each particle is detected on after passage."""

    RIGHT_LEFT = "right_left"  # particle 1 at x > d, particle 2 at x < -d
    LEFT_RIGHT = "left_right"  # particle 1 at x < -d, particle 2 at x > d


def region_of(c: PairConfiguration, p: PhysicalParams) -> SlitRegion:
    """Detection region containing every point of c, or RegionViolationError if none does."""
    x1, x2 = np.asarray(c.x1), np.asarray(c.x2)
    if np.all((x1 > p.d) & (x2 < -p.d)):
        return SlitRegion.RIGHT_LEFT
    if np.all((x1 < -p.d) & (x2 > p.d)):
        return SlitRegion.LEFT_RIGHT
    raise RegionViolationError(
        f"configuration (x1 in [{x1.min():.3e}, {x1.max():.3e}], x2 in "
        f"[{x2.min():.3e}, {x2.max():.3e}]) has no definite sides "
        f"for slit separation d={p.d:.3e}"
    )


def _table(*orders):
    """Product terms (a, b, i, weight) of a four-slit state.

    A term is image a of particle i times image b of the other particle, in
    that operand order, times weight (None for 1). Every state pairs the
    same pair_images rows, right-upper with left-lower and right-lower with
    left-upper; orders gives the (i, weight) of each pairing's terms, i = 0
    for the forward assignment (particle 1 takes the first image) and i = 1
    for the exchanged one.
    """
    return [(a, b, i, w) for a, b in ((0, 3), (1, 2)) for i, w in orders]


def _naive_table(stats: SpinStatistics):
    return _table((0, None), (1, stats.sign))


def _corrected_table(region: SlitRegion, c: PairConfiguration, p: PhysicalParams):
    """The corrected state's table in region, once every point of c is checked to lie there."""
    if region_of(c, p) is not region:
        raise RegionViolationError(f"configuration is not in region {region.value}")
    return _table((0 if region is SlitRegion.RIGHT_LEFT else 1, None))


def _products(table, c: PairConfiguration, p: PhysicalParams):
    """Psi, the table's weighted products at c that it adds left to right, and the images."""
    images = pair_images(c, p)
    terms = []
    for a, b, i, w in table:
        term = images[a, i] * images[b, 1 - i]
        terms.append(term if w is None else w * term)
    return functools.reduce(operator.add, terms), terms, images


def _node_scale(images):
    """Largest single product term: max |image| of particle 1 times that of particle 2."""
    mags = np.abs(images)
    return mags[:, 0].max(axis=0) * mags[:, 1].max(axis=0)


def naive_four_slit_psi(stats: SpinStatistics, c: PairConfiguration, p: PhysicalParams):
    """Globally symmetrized four-slit state (unnormalized).

    Sum of right-upper with left-lower and right-lower with left-upper
    assignments, each (anti)symmetrized over particle exchange.
    """
    return _products(_naive_table(stats), c, p)[0]


def corrected_four_slit_psi(region: SlitRegion, c: PairConfiguration, p: PhysicalParams):
    """Post-detection state in one region (unnormalized, exchange sign dropped).

    Keeps the two slit assignments whose longitudinal motion matches the
    region. The result is the same for both statistics up to a constant.
    Raises RegionViolationError when any point of c lies outside the claimed
    region.
    """
    return _products(_corrected_table(region, c, p), c, p)[0]


def _velocity(table, c: PairConfiguration, p: PhysicalParams) -> PairVelocity:
    """Exact (hbar/m) Im[grad Psi / Psi] of the table's state at the single point c.

    grad Psi / Psi = sum_k P_k grad log P_k / Psi over the products P_k, and
    grad log P_k is the sum of its two images' log-gradients. With an image's
    signs (s_x, s_y) and eta = y / sigma0, d/dx log phi = i kx s_x and
    d/dy log phi = -s_y (s_y eta - beta) / (2 sigma0 (1 + i T)). The node
    guard compares |Psi| with the largest single product term, so the
    missing normalization cannot move it.
    """
    psi, terms, images = _products(table, c, p)
    if abs(psi) < _RELATIVE_NODE_GUARD * _node_scale(images):
        raise NodeProximityError("four-slit amplitude too close to a node")
    # slits[k, n]: the image that particle n takes in term k
    slits = np.array([(a, b) if i == 0 else (b, a) for a, b, i, _ in table])
    s_x, s_y = _IMAGE_SIGNS[slits, 0], _IMAGE_SIGNS[slits, 1]
    eta = np.array([c.y1, c.y2]) / p.sigma0
    g_y = -s_y * (s_y * eta - p.beta) / (2.0 * p.sigma0 * (1.0 + 1j * (c.t / p.tau)))
    # grad[q, n]: the derivative of Psi by coordinate q (x, y) of particle n, over Psi
    grad = np.array(terms) @ np.array([1j * p.kx * s_x, g_y]) / psi
    (vx1, vx2), (vy1, vy2) = p.hbar / p.m * grad.imag
    return PairVelocity(float(vx1), float(vy1), float(vx2), float(vy2))


def naive_velocity(c: PairConfiguration, stats: SpinStatistics, p: PhysicalParams) -> PairVelocity:
    """Exact guidance velocity of the naive state at the point c (m/s)."""
    return _velocity(_naive_table(stats), c, p)


def corrected_velocity(
    region: SlitRegion, c: PairConfiguration, p: PhysicalParams
) -> PairVelocity:
    """Exact guidance velocity of the post-detection state at the point c (m/s).

    Raises RegionViolationError when c lies outside the region.
    """
    return _velocity(_corrected_table(region, c, p), c, p)


def property_report(
    p: PhysicalParams, integrator: IntegratorConfig, rng: np.random.Generator
) -> list[tuple[str, bool, str]]:
    """Numeric checks of the facing double-slit reductions, as (name, passed, detail).

    Five checks, in order: the naive state's longitudinal freeze, its
    factorization, the corrected state as a reflected double-slit state, and
    the corrected state's guidance of mapped double-slit trajectories,
    transverse and longitudinal. Test points come from rng, drawn in a fixed
    order, so a seed fixes the report; the trajectories are integrated with
    integrator.
    """
    checks: list[tuple[str, bool, str]] = []
    s0 = p.sigma0

    def record(name: str, ok: bool, detail: str) -> None:
        checks.append((name, bool(ok), detail))

    # Longitudinal freeze of the globally symmetrized state, both signs.
    # Skip draws too close to an interference node, where the ratio to Psi
    # in the velocity is dominated by rounding.
    def well_conditioned_draw(stats: SpinStatistics) -> PairConfiguration:
        while True:
            c = PairConfiguration(
                float(rng.uniform(-3 * s0, 3 * s0)),
                float(rng.uniform(-2 * p.Y, 2 * p.Y)),
                float(rng.uniform(-3 * s0, 3 * s0)),
                float(rng.uniform(-2 * p.Y, 2 * p.Y)),
                float(rng.uniform(0.0, p.flight_time)),
            )
            psi, _, images = _products(_naive_table(stats), c, p)
            if abs(psi) > _WELL_CONDITIONED * _node_scale(images):
                return c

    worst = 0.0
    for stats in SpinStatistics:
        for _ in range(20):
            vel = naive_velocity(well_conditioned_draw(stats), stats, p)
            worst = max(worst, abs(vel.vx1), abs(vel.vx2))
    record(
        "naive state: longitudinal velocities vanish",
        worst < 1e-5 * p.x_speed,
        f"max |vx| = {worst:.3e} m/s vs drift {p.x_speed:.3e} m/s",
    )

    # Factorization: the state times the longitudinal factor evaluated at
    # swapped x-pairs is symmetric (ratio identity without division). The
    # factor's argument is ~1e6 rad, so near its zeros rounding dominates;
    # redraw unless both factors clear the same cut as above. Its phase is
    # formed as the amplitudes form theirs, so that both round alike.
    k = p.kx * s0
    worst = 0.0
    for stats in SpinStatistics:
        factor = math.cos if stats is SpinStatistics.BOSON else math.sin
        found = 0
        while found < 20:
            y1, y2 = rng.uniform(-2 * p.Y, 2 * p.Y, size=2)
            xa, xb, xc, xd = rng.uniform(-3 * s0, 3 * s0, size=4)
            t = float(rng.uniform(0.0, p.flight_time))
            f_ab = factor(k * (xa / s0) - k * (xb / s0))
            f_cd = factor(k * (xc / s0) - k * (xd / s0))
            if min(abs(f_ab), abs(f_cd)) < _WELL_CONDITIONED:
                continue
            found += 1
            pair = PairConfiguration(np.array([xa, xc]), y1, np.array([xb, xd]), y2, t)
            lhs, rhs = naive_four_slit_psi(stats, pair, p) * np.array([f_cd, f_ab])
            scale = max(abs(lhs), abs(rhs), 1e-300)
            worst = max(worst, abs(lhs - rhs) / scale)
    record(
        "naive state: factors into longitudinal interference times a transverse pair state",
        worst < 1e-9,
        f"max relative asymmetry {worst:.3e}",
    )

    # Corrected state equals the symmetric double-slit state with one
    # longitudinal coordinate reflected, up to one constant.
    x0 = 2.0 * p.d
    draws = [
        (
            x0 + float(rng.uniform(0.0, 2 * s0)),
            float(rng.uniform(-2 * p.Y, 2 * p.Y)),
            -x0 - float(rng.uniform(0.0, 2 * s0)),
            float(rng.uniform(-2 * p.Y, 2 * p.Y)),
            float(rng.uniform(0.0, 0.5 * p.flight_time)),
        )
        for _ in range(20)
    ]
    c = PairConfiguration(*np.array(draws).T)
    reflected = replace(c, x2=-c.x2)
    ratios = corrected_four_slit_psi(SlitRegion.RIGHT_LEFT, c, p) / psi_pair(
        SpinStatistics.BOSON, reflected, p
    )
    spread = np.max(np.abs(ratios - ratios[0])) / abs(ratios[0])
    record(
        "corrected state: x2-reflection reproduces the double-slit pair state",
        spread < 1e-9,
        f"ratio spread {spread:.3e} about {ratios[0]:.6g}",
    )

    # Reflected double-slit trajectories obey the corrected state's guidance.
    # Both particles of the double-slit pair are released at x0 and drift
    # right; reflecting particle 2's longitudinal track (x2 -> -x2, vx2 ->
    # -vx2) maps the pair into the RIGHT_LEFT region of the corrected state
    # and leaves the transverse samples as they are.
    t_end = min(MAPPED_SPAN, p.flight_time)
    times = np.linspace(0.0, t_end, 9)
    starts = np.array([(y1, -p.Y + 0.5 * s0) for y1 in (p.Y, p.Y - 1.5 * s0)])
    table, count, status = integrate_pairs(
        starts, t_end, integrator, SpinStatistics.BOSON, p, times
    )
    v = p.x_speed
    worst_y = worst_x = 0.0
    for t, y1, y2, vy1, vy2 in table[np.arange(times.size) < count[:, None]].tolist():
        x1 = x0 + v * t
        vc = corrected_velocity(SlitRegion.RIGHT_LEFT, PairConfiguration(x1, y1, -x1, y2, t), p)
        v_scale = max(abs(vy1), abs(vy2), 1e-9 * v)
        worst_y = max(worst_y, abs(vc.vy1 - vy1) / v_scale, abs(vc.vy2 - vy2) / v_scale)
        worst_x = max(worst_x, abs(vc.vx1 - v) / v, abs(vc.vx2 + v) / v)
    lost = np.count_nonzero(status == TrajectoryStatus.NOT_INTEGRATED)
    note = f"; {lost} of {status.size} pairs could not be integrated" if lost else ""
    record(
        "mapped trajectories: transverse velocities match the corrected state",
        worst_y < 1e-5 and not lost,
        f"max relative deviation {worst_y:.3e}{note}",
    )
    record(
        "mapped trajectories: longitudinal velocities are +-drift",
        worst_x < 1e-4 and not lost,
        f"max relative deviation {worst_x:.3e}{note}",
    )
    return checks
