"""Adaptive trajectory integration in the transverse plane.

Embedded Dormand-Prince 5(4) pair with PI step-size control, working in
packet-width / spreading-time units. Longitudinal motion is exact (constant
drift), so only (y1, y2) are integrated. Steps are clipped to land exactly on
the requested sample times; no interpolation is involved.

Runs abort (status, not exception) when the joint density under the pair
drops below a configurable fraction of its t = 0 peak, which is how fermion
trajectories attracted toward the nodal diagonal are handled.

Two step loops share the scaled problem, the tableau, the controller and the
SI sample table: a scalar loop on plain floats for single pairs, and a numpy
loop that advances every live pair of a batch together, each with its own
step size and controller state. integrate_pairs uses the batch loop while at
least _BATCH_MIN pairs are live and hands smaller remainders to the scalar
loop, whose per-step cost does not carry numpy's per-call overhead.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from ._kernels import (
    reduced_density,
    reduced_density_array,
    reduced_velocity,
    reduced_velocity_array,
)
from .errors import NodeProximityError, StepUnderflowError
from .params import PairConfiguration, PhysicalParams, SpinStatistics
from .wavefunction import initial_density_peak, normalization_N

# Dormand-Prince 5(4) tableau. B propagates the fifth-order solution; E gives
# the embedded error estimate. Stage 7 is FSAL.
_C2, _C3, _C4, _C5 = 0.2, 0.3, 0.8, 8.0 / 9.0
_A21 = 0.2
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = 19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0
_A61, _A62, _A63, _A64, _A65 = (
    9017.0 / 3168.0,
    -355.0 / 33.0,
    46732.0 / 5247.0,
    49.0 / 176.0,
    -5103.0 / 18656.0,
)
_B1, _B3, _B4, _B5, _B6 = 35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71.0 / 57600.0,
    -71.0 / 16695.0,
    71.0 / 1920.0,
    -17253.0 / 339200.0,
    22.0 / 525.0,
    -1.0 / 40.0,
)

# The same tableau as coefficient columns for the batch loop, which forms the
# stage sums of all pairs as products summed over axis 0. That reduction adds
# term by term in order, like the scalar loop; the zeros for B2 and E2 add
# exactly nothing.
_A_COLS = tuple(
    np.array(row).reshape(-1, 1, 1)
    for row in (
        (_A21,),
        (_A31, _A32),
        (_A41, _A42, _A43),
        (_A51, _A52, _A53, _A54),
        (_A61, _A62, _A63, _A64, _A65),
    )
)
_C_STAGES = (_C2, _C3, _C4, _C5)
_B_COL = np.array((_B1, 0.0, _B3, _B4, _B5, _B6)).reshape(-1, 1, 1)
_E_COL = np.array((_E1, 0.0, _E3, _E4, _E5, _E6, _E7)).reshape(-1, 1, 1)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_PI_ALPHA = 0.7 / 5.0  # PI controller exponents for a 5(4) pair
_PI_BETA = 0.4 / 5.0

# Live pairs below which the scalar loop beats the batch loop: a numpy call
# costs tens of microseconds against about 1.4 us per scalar kernel call.
# Measured crossover in ROADMAP.md, item 2.
_BATCH_MIN = 32


class TrajectoryStatus(enum.Enum):
    COMPLETED = "completed"
    NODE_PROXIMITY_ABORT = "node_proximity_abort"


@dataclass(frozen=True)
class IntegratorConfig:
    """Step control for trajectory integration.

    rel_tol is dimensionless; abs_tol is measured in units of sigma0. The
    step bounds are in seconds and default to fractions of the integration
    span when left None. density_floor is relative to the t = 0 peak of the
    joint density.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-9
    h_init: float | None = None
    h_min: float | None = None
    h_max: float | None = None
    density_floor: float = 1e-12

    def __post_init__(self):
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
            raise ValueError("tolerances must be > 0")
        if not self.density_floor > 0.0:
            raise ValueError("density_floor must be > 0")
        for name in ("h_init", "h_min", "h_max"):
            value = getattr(self, name)
            if value is not None and not value > 0.0:
                raise ValueError(f"{name} must be > 0 when given")

    def resolved_steps(self, span: float) -> tuple[float, float, float]:
        """(h_init, h_min, h_max) over a span of the independent variable."""
        h_max = span if self.h_max is None else self.h_max
        h_init = min(1e-3 * span, h_max) if self.h_init is None else self.h_init
        h_min = min(1e-12 * span, h_init) if self.h_min is None else self.h_min
        if not (0.0 < h_min <= h_init <= h_max):
            raise ValueError("step bounds must satisfy 0 < h_min <= h_init <= h_max")
        return h_init, h_min, h_max


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled pair trajectory: one array per column, one entry per sample.

    Times in seconds, positions in metres, velocities in m/s. t holds the
    requested sample times themselves; an aborted trajectory ends instead at
    its last accepted state, between two of them.
    """

    t: np.ndarray
    x1: np.ndarray
    y1: np.ndarray
    x2: np.ndarray
    y2: np.ndarray
    vx1: np.ndarray
    vy1: np.ndarray
    vx2: np.ndarray
    vy2: np.ndarray
    status: TrajectoryStatus

    @classmethod
    def from_rows(cls, rows, status, p: PhysicalParams, x1=0.0, x2=0.0) -> Trajectory:
        """Trajectory from SI sample rows (t, y1, y2, vy1, vy2), released at x1, x2."""
        t = rows[:, 0]
        dx = p.x_speed * (t - t[0])
        vx = np.full(t.shape, p.x_speed)
        return cls(t, x1 + dx, rows[:, 1], x2 + dx, rows[:, 2], vx, rows[:, 3], vx, rows[:, 4],
                   status)

    @property
    def endpoint(self) -> PairConfiguration:
        last = (self.x1, self.y1, self.x2, self.y2, self.t)
        return PairConfiguration(*(float(col[-1]) for col in last))


@dataclass(frozen=True)
class _Scaled:
    """One integration problem in packet-width / spreading-time units."""

    grid: tuple[float, ...]  # sample times over tau, counted from the start
    times: np.ndarray  # the requested sample times (s)
    tau: float
    sign: int
    beta: float
    n2: float
    floor: float
    h_init: float
    h_min: float
    h_max: float
    rtol: float
    atol: float


def _scaled_problem(
    t0: float, t_end: float, cfg: IntegratorConfig, stats: SpinStatistics, p: PhysicalParams,
    sample_times,
) -> _Scaled:
    """Validate the sample grid and scale the problem by sigma0 and tau."""
    if t_end <= t0:
        raise ValueError("t_end must exceed the initial time")
    if sample_times is None:
        sample_times = (t0, t_end)
    out_t = [float(t) for t in sample_times]
    if out_t[0] != t0 or out_t[-1] != t_end or any(
        b <= a for a, b in zip(out_t, out_t[1:])
    ):
        raise ValueError("sample_times must run strictly from initial.t to t_end")
    tau = p.tau
    # Peak of the dimensionless density; the SI peak carries 1/sigma0^2.
    peak = initial_density_peak(stats, p) * p.sigma0**2
    # Step bounds are configured in seconds; the loops run in scaled time.
    h_init, h_min, h_max = (v / tau for v in cfg.resolved_steps(t_end - t0))
    return _Scaled(
        grid=tuple((t - t0) / tau for t in out_t),
        times=np.array(out_t),
        tau=tau,
        sign=stats.sign,
        beta=p.beta,
        n2=normalization_N(stats, p),
        floor=cfg.density_floor * peak,
        h_init=h_init,
        h_min=h_min,
        h_max=h_max,
        rtol=cfg.rel_tol,
        atol=cfg.abs_tol,
    )


def _si_rows(rows: np.ndarray, prob: _Scaled, p: PhysicalParams) -> np.ndarray:
    """(t, y1, y2, vy1, vy2) in SI units from scaled rows (T, eta1, eta2, w1, w2).

    The last axis holds the columns, the one before it the sample index. A
    row on the grid gets its requested time; only an abort's off-grid
    truncation row gets t0 + T tau.
    """
    T = rows[..., 0]
    k = T.shape[-1]
    out = np.empty_like(rows)
    out[..., 0] = np.where(
        T == np.asarray(prob.grid[:k]), prob.times[:k], prob.times[0] + T * prob.tau
    )
    out[..., 1:3] = rows[..., 1:3] * p.sigma0
    out[..., 3:5] = rows[..., 3:5] * (p.sigma0 / prob.tau)
    return out


def integrate_trajectory(
    initial: PairConfiguration,
    t_end: float,
    cfg: IntegratorConfig,
    stats: SpinStatistics,
    p: PhysicalParams,
    sample_times=None,
) -> Trajectory:
    """Integrate one pair from initial.t to t_end.

    Parameters
    ----------
    sample_times : sequence of float, optional
        Times (s) at which samples are recorded. Must start at initial.t, end
        at t_end and increase strictly. Defaults to the two endpoints.

    Returns
    -------
    Trajectory
        Status COMPLETED, or NODE_PROXIMITY_ABORT with samples truncated at
        the last state before the density floor was crossed.

    Raises
    ------
    ValueError
        If the initial density already sits below the floor, or the sample
        grid is malformed.
    NodeProximityError
        If the initial configuration sits on a node of the state.
    StepUnderflowError
        If error control would need a step below h_min.
    """
    prob = _scaled_problem(initial.t, t_end, cfg, stats, p, sample_times)
    e1 = initial.y1 / p.sigma0
    e2 = initial.y2 / p.sigma0
    if reduced_density(e1, e2, 0.0, prob.sign, prob.beta, prob.n2) < prob.floor:
        raise ValueError("initial density below density_floor")
    k1 = reduced_velocity(e1, e2, 0.0, prob.beta, prob.sign)
    status, rows = _advance(prob, 0.0, e1, e2, k1, prob.h_init, 1.0, 1)
    table = _si_rows(np.array([(0.0, e1, e2, *k1), *rows]), prob, p)
    return Trajectory.from_rows(table, status, p, initial.x1, initial.x2)


def integrate_pairs(
    initial: np.ndarray,
    t_end: float,
    cfg: IntegratorConfig,
    stats: SpinStatistics,
    p: PhysicalParams,
    sample_times=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integrate a batch of pairs released at x = 0, t = 0 to t_end.

    initial is the (n, 2) array of release positions (y1, y2) in metres.
    Every pair gets the step control, sample grid and status that
    integrate_trajectory would give it, but no pair raises.

    Returns
    -------
    (table, count, status)
        table is the (n, S, 5) array of samples (t, y1, y2, vy1, vy2) in SI
        units, S being the number of sample times; pair i's samples are
        table[i, :count[i]], and later cells hold none. status[i] is its
        TrajectoryStatus, or None, with count[i] = 0, when it cannot be
        integrated (initial density below the floor, or the initial
        configuration on a node) or error control would need a step below
        h_min.

    Raises
    ------
    ValueError
        If the sample grid is malformed.
    """
    prob = _scaled_problem(0.0, t_end, cfg, stats, p, sample_times)
    n = initial.shape[0]
    e1 = initial[:, 0] / p.sigma0
    e2 = initial[:, 1] / p.sigma0
    idx = np.flatnonzero(
        ~(reduced_density_array(e1, e2, 0.0, prob.sign, prob.beta, prob.n2) < prob.floor)
    )
    e1, e2 = e1[idx], e2[idx]
    with np.errstate(all="ignore"):
        k1a, k1b, on_node = reduced_velocity_array(e1, e2, 0.0, prob.beta, prob.sign)
    ok = ~on_node
    idx, e1, e2, k1a, k1b = idx[ok], e1[ok], e2[ok], k1a[ok], k1b[ok]
    m = idx.size

    rows = np.full((n, len(prob.grid), 5), np.nan)
    rows[idx, 0] = np.stack((np.zeros(m), e1, e2, k1a, k1b), axis=-1)
    count = np.zeros(n, dtype=np.intp)
    status = np.full(n, None, dtype=object)
    state = (
        idx, np.zeros(m), np.stack((e1, e2)), np.stack((k1a, k1b)),
        np.full(m, prob.h_init), np.ones(m), np.ones(m, dtype=np.intp),
    )
    idx, T, Y, K1, h, err_prev, j = _advance_batch(prob, state, rows, status, count)

    live = (idx, T, *Y, *K1, h, err_prev, j)
    for i, T, a, b, w1, w2, h, err_prev, j in zip(*(col.tolist() for col in live)):
        try:
            status[i], tail = _advance(prob, T, a, b, (w1, w2), h, err_prev, j)
        except StepUnderflowError:
            continue
        count[i] = j + len(tail)
        if tail:
            rows[i, j : count[i]] = tail
    return _si_rows(rows, prob, p), count, status


def _advance(prob: _Scaled, T, e1, e2, k1, h, err_prev, j):
    """Scalar step loop: carry one pair from an accepted state to the end.

    (T, e1, e2) is the state, k1 the velocity there, h the next trial step,
    err_prev the controller memory and j the index of the next sample time.
    Returns (status, rows) with the (T, eta1, eta2, w1, w2) rows recorded
    from sample j on; an abort ends them at the last accepted state.

    Raises StepUnderflowError if error control would need a step below h_min.
    """
    grid = prob.grid
    sign, beta, n2, floor = prob.sign, prob.beta, prob.n2, prob.floor
    h_min, h_max, rtol, atol = prob.h_min, prob.h_max, prob.rtol, prob.atol
    rows: list[tuple[float, float, float, float, float]] = []
    aborted = False
    try:
        while j < len(grid):
            target = grid[j]
            remaining = target - T
            h_step = min(h, h_max)
            landing = h_step >= remaining
            if landing:
                h_step = remaining
            Ts = T
            k2 = reduced_velocity(
                e1 + h_step * (_A21 * k1[0]),
                e2 + h_step * (_A21 * k1[1]),
                Ts + _C2 * h_step,
                beta,
                sign,
            )
            k3 = reduced_velocity(
                e1 + h_step * (_A31 * k1[0] + _A32 * k2[0]),
                e2 + h_step * (_A31 * k1[1] + _A32 * k2[1]),
                Ts + _C3 * h_step,
                beta,
                sign,
            )
            k4 = reduced_velocity(
                e1 + h_step * (_A41 * k1[0] + _A42 * k2[0] + _A43 * k3[0]),
                e2 + h_step * (_A41 * k1[1] + _A42 * k2[1] + _A43 * k3[1]),
                Ts + _C4 * h_step,
                beta,
                sign,
            )
            k5 = reduced_velocity(
                e1 + h_step * (_A51 * k1[0] + _A52 * k2[0] + _A53 * k3[0] + _A54 * k4[0]),
                e2 + h_step * (_A51 * k1[1] + _A52 * k2[1] + _A53 * k3[1] + _A54 * k4[1]),
                Ts + _C5 * h_step,
                beta,
                sign,
            )
            k6 = reduced_velocity(
                e1
                + h_step
                * (_A61 * k1[0] + _A62 * k2[0] + _A63 * k3[0] + _A64 * k4[0] + _A65 * k5[0]),
                e2
                + h_step
                * (_A61 * k1[1] + _A62 * k2[1] + _A63 * k3[1] + _A64 * k4[1] + _A65 * k5[1]),
                Ts + h_step,
                beta,
                sign,
            )
            new1 = e1 + h_step * (
                _B1 * k1[0] + _B3 * k3[0] + _B4 * k4[0] + _B5 * k5[0] + _B6 * k6[0]
            )
            new2 = e2 + h_step * (
                _B1 * k1[1] + _B3 * k3[1] + _B4 * k4[1] + _B5 * k5[1] + _B6 * k6[1]
            )
            k7 = reduced_velocity(new1, new2, Ts + h_step, beta, sign)
            err1 = h_step * (
                _E1 * k1[0]
                + _E3 * k3[0]
                + _E4 * k4[0]
                + _E5 * k5[0]
                + _E6 * k6[0]
                + _E7 * k7[0]
            )
            err2 = h_step * (
                _E1 * k1[1]
                + _E3 * k3[1]
                + _E4 * k4[1]
                + _E5 * k5[1]
                + _E6 * k6[1]
                + _E7 * k7[1]
            )
            scale1 = atol + rtol * max(abs(e1), abs(new1))
            scale2 = atol + rtol * max(abs(e2), abs(new2))
            err = math.sqrt(0.5 * ((err1 / scale1) ** 2 + (err2 / scale2) ** 2))

            if err <= 1.0:
                if reduced_density(new1, new2, Ts + h_step, sign, beta, n2) < floor:
                    aborted = True
                    break
                T = target if landing else Ts + h_step
                e1, e2, k1 = new1, new2, k7
                if landing:
                    rows.append((T, e1, e2, *k7))
                    j += 1
                if err == 0.0:
                    factor = _MAX_FACTOR
                else:
                    factor = _SAFETY * err**-_PI_ALPHA * err_prev**_PI_BETA
                    factor = min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
                err_prev = max(err, 1e-10)
                # A clipped landing step says nothing about the natural step
                # size, so never let it shrink h.
                h = min(h_max, max(h, h_step * factor) if landing else h_step * factor)
            else:
                shrink = max(_MIN_FACTOR, _SAFETY * err**-0.2)
                h_next = h_step * shrink
                if h_next < h_min:
                    tau = prob.tau
                    raise StepUnderflowError(
                        f"needed step {h_next * tau:.3e} s below h_min {h_min * tau:.3e} s"
                    )
                h = h_next
    except NodeProximityError:
        aborted = True

    if aborted and grid[j - 1] < T:
        # Truncate at the last accepted state; k1 is the velocity there.
        rows.append((T, e1, e2, *k1))
    status = TrajectoryStatus.NODE_PROXIMITY_ABORT if aborted else TrajectoryStatus.COMPLETED
    return status, rows


def _advance_batch(prob: _Scaled, state, rows: np.ndarray, status, count):
    """Batch twin of _advance: step all live pairs together while enough remain.

    state holds (idx, T, Y, K1, h, err_prev, j) with one entry, or one
    column of the (2, m) arrays Y (eta1, eta2) and K1 (their velocities),
    per live pair; idx is the pair's row in rows, where its samples are
    recorded. Each pair runs the scalar loop's arithmetic, in the same order,
    with its own step size and controller memory. A pair that finishes gets
    its status and sample count; a step underflow leaves its status None.
    Returns the state of the pairs still live once fewer than _BATCH_MIN
    remain.
    """
    grid = np.asarray(prob.grid)
    last = grid.size
    sign, beta, n2, floor = prob.sign, prob.beta, prob.n2, prob.floor
    h_min, h_max, rtol, atol = prob.h_min, prob.h_max, prob.rtol, prob.atol
    vel = reduced_velocity_array
    idx, T, Y, K1, h, err_prev, j = state
    with np.errstate(all="ignore"):
        while idx.size >= _BATCH_MIN:
            m = idx.size
            target = grid[j]
            remaining = target - T
            h_step = np.minimum(h, h_max)
            landing = h_step >= remaining
            h_step = np.where(landing, remaining, h_step)
            T_new = T + h_step
            K = np.empty((7, 2, m))
            K[0] = K1
            on_node = np.zeros(m, dtype=bool)
            for s, a_col in enumerate(_A_COLS, start=1):
                z = Y + h_step * np.add.reduce(a_col * K[:s], axis=0)
                T_s = T + _C_STAGES[s - 1] * h_step if s < 5 else T_new
                K[s, 0], K[s, 1], node = vel(z[0], z[1], T_s, beta, sign)
                on_node |= node
            Y_new = Y + h_step * np.add.reduce(_B_COL * K[:6], axis=0)
            K[6, 0], K[6, 1], node = vel(Y_new[0], Y_new[1], T_new, beta, sign)
            on_node |= node
            q = h_step * np.add.reduce(_E_COL * K, axis=0)
            q /= atol + rtol * np.maximum(np.abs(Y), np.abs(Y_new))
            q *= q
            err = np.sqrt(0.5 * (q[0] + q[1]))

            small = err <= 1.0
            accepted = small & ~on_node
            rejected = ~(small | on_node)
            below = accepted & (
                reduced_density_array(Y_new[0], Y_new[1], T_new, sign, beta, n2) < floor
            )
            accepted &= ~below

            # fmax, like the scalar max, lets a NaN error shrink by _MIN_FACTOR.
            h_next = h_step * np.fmax(_MIN_FACTOR, _SAFETY * err**-0.2)
            underflow = rejected & (h_next < h_min)
            factor = np.minimum(
                _MAX_FACTOR,
                np.maximum(_MIN_FACTOR, _SAFETY * err**-_PI_ALPHA * err_prev**_PI_BETA),
            )
            grown = h_step * np.where(err == 0.0, _MAX_FACTOR, factor)
            h_acc = np.minimum(h_max, np.where(landing, np.maximum(h, grown), grown))
            h = np.where(accepted, h_acc, np.where(rejected, h_next, h))
            err_prev = np.where(accepted, np.maximum(err, 1e-10), err_prev)
            T = np.where(accepted, np.where(landing, target, T_new), T)
            Y = np.where(accepted, Y_new, Y)
            K1 = np.where(accepted, K[6], K1)
            landed = accepted & landing
            if landed.any():
                rows[idx[landed], j[landed]] = np.column_stack((T, Y.T, K1.T))[landed]
                j = j + landed

            aborted = on_node | below
            done = aborted | underflow | (j == last)
            if not done.any():
                continue
            for lane in np.flatnonzero(aborted).tolist():
                i, jl = int(idx[lane]), int(j[lane])
                if grid[jl - 1] < T[lane]:
                    # Truncate at the last accepted state; K1 is the velocity there.
                    rows[i, jl] = (T[lane], *Y[:, lane], *K1[:, lane])
                    jl += 1
                status[i] = TrajectoryStatus.NODE_PROXIMITY_ABORT
                count[i] = jl
            for i in idx[j == last].tolist():
                status[i] = TrajectoryStatus.COMPLETED
                count[i] = last
            keep = ~done
            idx, T, h, err_prev, j = (col[keep] for col in (idx, T, h, err_prev, j))
            Y, K1 = Y[:, keep], K1[:, keep]
    return idx, T, Y, K1, h, err_prev, j
