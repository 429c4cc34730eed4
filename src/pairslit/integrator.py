"""Adaptive trajectory integration in the transverse plane.

Embedded Dormand-Prince 5(4) pair with PI step-size control, working in
packet-width / spreading-time units. Every pair is released at rest, so its
first trial step is scaled from its release acceleration rather than its
velocity (see integrate_pairs). Longitudinal motion is exact (constant
drift), and so is the transverse centre of mass c = (eta1 + eta2) / 2: the
interference term cancels from it, leaving c(T) = c0 sqrt(1 + T^2), the
spreading law that tests/oracles.py states as com_closed_form. Only the
half-separation d = (eta1 - eta2) / 2 is integrated, one component per pair;
the sample table rebuilds eta1, eta2 = c +- d from it.

Steps are clipped only to land exactly on t_end, so the requested sample grid
does not change the path: the accepted steps, the endpoint and the status of
a pair are the same for any grid. Interior samples keep their requested times;
their positions come from the fourth-order continuous extension of the step
that covers them (Hairer, Norsett and Wanner, Solving ODEs I, sec. II.6) and
their velocities from the kernel at those positions.

Runs abort (status, not exception) when the joint density under the pair
drops below a configurable fraction of its t = 0 peak, which is how fermion
trajectories attracted toward the nodal diagonal are handled.

integrate_pairs is the one entry point, for a single pair as for an
ensemble; every pair is released at t = 0. Two step loops behind it share the
scaled problem, the step's arithmetic, the controller constants, the
interior-sample fill and the SI sample table, and keep only their control
flow: a numpy loop that advances every live pair of a batch together under
masks, each with its own step size and controller state, and a scalar loop
that branches on plain floats. The step has two bodies of the same
operations in the same order: _dp_step on a float tableau, and _dp_step_array
on 0-d arrays, which writes its stage arguments and partial sums in place
into a workspace that each _advance_batch call allocates once, at its
starting width, and shares with the kernel. integrate_pairs uses the batch
loop while at least _BATCH_MIN pairs are live and hands smaller batches and
remainders to the scalar loop, whose per-step cost does not carry numpy's
per-call overhead.

Neither loop writes a pair's last row or raises. Each only advances pairs
and reports how a pair ended: an int8 end code (1 completed, 2 aborted), its
last accepted state and the first sample time no accepted step covered. A
pair that underflows or runs out of steps reports nothing and keeps code 0.
integrate_pairs then writes every landing or truncation row, and every sample
count, in one pass, and turns the codes into statuses once, at return.
"""

from __future__ import annotations

import bisect
import enum
import math
from array import array
from dataclasses import dataclass

import numpy as np

from ._kernels import NODE_GUARD, reduced_velocity, reduced_velocity_array
from .params import PhysicalParams, SpinStatistics

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

# Stage times of stages 2 to 6 (stage 7 shares stage 6's) as fractions of
# the step, one row each, for the batch loop.
_C_COL = np.array((_C2, _C3, _C4, _C5, 1.0)).reshape(-1, 1)

# Continuous extension of a step (the coefficients of scipy's RK45 dense
# output): over a step of size h from (T, d), the position at T + theta h is
# d + h sum_i b_i(theta) k_i with b_i(theta) = sum_m _P[i, m] theta^(m + 1),
# for the stages k1, k3, k4, k5, k6 and k7 (k2 has no weight). At theta = 1
# the weights are B, with none on k7; their slope at theta = 0 is k1 alone.
_P = np.array((
    (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432),
    (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799),
    (0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072),
    (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632),
    (0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
    (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
))

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_PI_ALPHA = 0.7 / 5.0  # PI controller exponents for a 5(4) pair
_PI_BETA = 0.4 / 5.0

# The most steps, accepted or rejected, a pair may attempt; a pair that has not
# landed by then counts as not integrated, like a step underflow.
_MAX_STEPS = 100_000

# Time (spreading times) at which integrate_pairs reads each pair's release
# acceleration off the velocity kernel.
_T_PROBE = 1e-7

# Live pairs below which the scalar loop beats the batch loop. A batch
# iteration without rejections makes about 246 numpy calls (ufuncs and
# array functions; 195 in the step, 181 of them in place in the workspace),
# each on arrays alone, so it costs about 97 us at 32 lanes and 121 us at
# 250 on a 2-CPU Xeon with AVX-512, against about 5.8 us per scalar step
# (six kernel calls on plain floats) on the same host. Measured crossover in
# CHANGES.md.
_BATCH_MIN = 32


class TrajectoryStatus(enum.Enum):
    COMPLETED = "completed"
    NODE_PROXIMITY_ABORT = "node_proximity_abort"


# The step loops report a pair's end as an int8 code: 0 while it has none
# (not integrated), _COMPLETED or _ABORTED; integrate_pairs turns the codes
# into statuses once, by indexing _STATUS.
_COMPLETED, _ABORTED = 1, 2
_STATUS = np.array(
    (None, TrajectoryStatus.COMPLETED, TrajectoryStatus.NODE_PROXIMITY_ABORT), dtype=object
)


@dataclass(frozen=True)
class IntegratorConfig:
    """Step control for trajectory integration.

    rel_tol is dimensionless; abs_tol is measured in units of sigma0. Both
    bound the local error of the half-separation (y1 - y2) / 2; the step
    size is left to the controller. density_floor is relative to the t = 0
    peak of the joint density, its exact maximum (see _peak).
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-9
    density_floor: float = 1e-12

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0")
        if not self.density_floor > 0.0:
            raise ValueError("density_floor must be > 0")


@dataclass(frozen=True)
class _Scaled:
    """One integration problem in packet-width / spreading-time units."""

    grid: tuple[float, ...]  # sample times over tau
    times: np.ndarray  # the requested sample times (s)
    tau: float
    sign: int
    beta: float
    floor: float  # density_floor times _peak
    h_min: float
    rtol: float
    atol: float


def _scaled_problem(
    t_end: float, cfg: IntegratorConfig, stats: SpinStatistics, p: PhysicalParams, sample_times
) -> _Scaled:
    """Validate the sample grid and scale the problem by sigma0 and tau."""
    if not t_end > 0.0:
        raise ValueError("t_end must be > 0")
    if sample_times is None:
        sample_times = (0.0, t_end)
    out_t = [float(t) for t in sample_times]
    # not b > a, so that a NaN time fails the order test
    if out_t[0] != 0.0 or out_t[-1] != t_end or any(
        not b > a for a, b in zip(out_t, out_t[1:])
    ):
        raise ValueError("sample_times must run strictly from 0 to t_end")
    tau = p.tau
    return _Scaled(
        grid=tuple(t / tau for t in out_t),
        times=np.array(out_t),
        tau=tau,
        sign=stats.sign,
        beta=p.beta,
        floor=cfg.density_floor * _peak(p.beta, stats.sign),
        # The smallest step error control may ask for, as a fraction of the
        # span; each pair's first trial step is set in integrate_pairs.
        h_min=1e-12 * t_end / tau,
        rtol=cfg.rel_tol,
        atol=cfg.abs_tol,
    )


def _peak(beta: float, sign: int) -> float:
    """The t = 0 peak of the joint density in the step loops' units.

    That is the maximum over d of the kernel's den exp(-(|d| - beta)^2) at
    T = 0, g0(d) = exp(-(|d| - beta)^2) (1 + sign exp(-2 beta |d|))^2. It
    lies at d = 0 for bosons with beta <= 1, else at the root of
    d = beta tanh(beta d) (bosons) or d tanh(beta d) = beta (fermions), which
    bisection finds within 80 halvings: the root lies in (0, beta), above
    3e-8, for bosons and in (max(1, beta), d+) for fermions, where
    d+^2 = 1 + beta d+ by x / (1 + x) <= tanh x.
    """
    if sign > 0 and beta <= 1.0:
        return 4.0 * math.exp(-beta * beta)
    if sign > 0:
        lo, hi = 0.0, beta
    else:
        lo, hi = max(1.0, beta), 0.5 * (beta + math.sqrt(beta * beta + 4.0))
    d = 0.5 * (lo + hi)
    while lo < d < hi:
        t = math.tanh(beta * d)
        if (beta * t > d) if sign > 0 else (d * t < beta):
            lo = d
        else:
            hi = d
        d = 0.5 * (lo + hi)
    m = -math.expm1(-2.0 * beta * d)  # 1 - exp(-2 beta d), without cancelling
    r = d - beta
    return math.exp(-(r * r)) * (2.0 - m if sign > 0 else m) ** 2


def _si_rows(rows: np.ndarray, c0, prob: _Scaled, p: PhysicalParams) -> np.ndarray:
    """(t, y1, y2, vy1, vy2) in SI units from scaled rows (T, d, dd/dT).

    The last axis holds the columns, the one before it the sample index; c0
    holds each pair's initial centre of mass, one per row block. The centre
    c = c0 sqrt(1 + T^2) moves at c T / (1 + T^2), so eta1, eta2 = c +- d and
    their velocities are c T / (1 + T^2) +- dd/dT. A row on the grid gets its
    requested time; only an abort's off-grid truncation row gets T tau.
    """
    T, d, w = rows[..., 0], rows[..., 1], rows[..., 2]
    k = T.shape[-1]
    s2 = 1.0 + T * T
    c = np.expand_dims(c0, -1) * np.sqrt(s2)
    drift = c * (T / s2)
    t = np.where(T == np.asarray(prob.grid[:k]), prob.times[:k], T * prob.tau)
    v = p.sigma0 / prob.tau
    out = np.empty(T.shape + (5,))
    out[..., 0] = t
    out[..., 1] = (c + d) * p.sigma0
    out[..., 2] = (c - d) * p.sigma0
    out[..., 3] = (drift + w) * v
    out[..., 4] = (drift - w) * v
    return out


def integrate_pairs(
    initial: np.ndarray,
    t_end: float,
    cfg: IntegratorConfig,
    stats: SpinStatistics,
    p: PhysicalParams,
    sample_times=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integrate a batch of pairs released at t = 0 to t_end.

    initial is the (n, 2) array of release positions (y1, y2) in metres. The
    longitudinal motion is exact, x = x0 + x_speed t for a release at x0, so
    the table leaves it out.
    Every pair runs the same step control, which lands on t_end alone; the
    other sample times are filled from the continuous extension of the steps
    that cover them. A pair that cannot be integrated gets a status, never an
    exception. The step loops report each pair's end as an int8 code, 0 not
    integrated, 1 completed or 2 aborted, with its last accepted state;
    integrate_pairs writes the last rows and counts from those reports, and
    builds the status array from the codes once, at return.

    Returns
    -------
    (table, count, status)
        table is the (n, S, 5) array of samples (t, y1, y2, vy1, vy2) in SI
        units, S being the number of sample times; pair i's samples are
        table[i, :count[i]], and later cells hold none. status[i] is its
        TrajectoryStatus, or None, with count[i] = 0, when it cannot be
        integrated: its initial density lies below the floor, its initial
        configuration on a node, or error control would need a step below
        1e-12 of the span or more than _MAX_STEPS steps.

    Raises
    ------
    ValueError
        If t_end is not > 0 or the sample grid is malformed: sample_times
        must start at 0, end at t_end and increase strictly. They default to
        (0, t_end).
    """
    prob = _scaled_problem(t_end, cfg, stats, p, sample_times)
    n = initial.shape[0]
    e1 = initial[:, 0] / p.sigma0
    e2 = initial[:, 1] / p.sigma0
    c0, d = 0.5 * (e1 + e2), 0.5 * (e1 - e2)
    with np.errstate(all="ignore"):
        k1, den = reduced_velocity_array(d, 0.0, prob.beta, prob.sign)
        # Each pair's density floor over the factor n2 / (2 pi) exp(-c0^2) of
        # its density, which the loops' floor test and _peak leave out (see
        # _kernels.reduced_velocity). A pair released on a node or below the
        # floor is not integrated; the floor test is the loops' own at s2 = 1.
        thr = prob.floor * np.exp(c0 * c0)
        r = np.abs(d) - prob.beta
        idx = np.flatnonzero(~(den < NODE_GUARD) & ~(den * np.exp(-(r * r)) < thr))
        k1, thr, d0 = k1[idx], thr[idx], d[idx]
        # Every pair starts at rest (k1 = 0), so its first trial step is
        # scaled from its release acceleration d''(0): the start-step estimate
        # of Hairer, Norsett and Wanner (Solving ODEs I, sec. II.4), without
        # its cap at 100 times a velocity-scaled guess, which k1 = 0 would
        # shrink to 1e-4. The velocity is odd in T, so v / T at _T_PROBE is
        # d''(0) to about 1e-13; a pair with no acceleration tries the span.
        acc = reduced_velocity_array(d0, _T_PROBE, prob.beta, prob.sign)[0] / _T_PROBE
        scale = prob.atol + prob.rtol * np.abs(d0)
        h0 = np.fmin(prob.grid[-1], (0.01 * scale / np.abs(acc)) ** 0.2)
    m = idx.size

    rows = np.full((n, len(prob.grid), 3), np.nan)
    rows[idx, 0, 0] = 0.0
    rows[idx, 0, 1] = d0
    rows[idx, 0, 2] = k1
    # code[i] is pair i's end code, and row i of ends its end (T, d, dd/dT, j)
    # once a step loop reports one: its last accepted state and the index of
    # the first sample time that no accepted step covered.
    code = np.zeros(n, dtype=np.int8)
    ends = np.zeros((n, 4))
    state = (
        idx, np.zeros(m), d0, thr, k1,
        h0, np.ones(m), np.ones(m, dtype=np.intp),
    )
    steps: list[np.ndarray] = []
    live, tried = _advance_batch(prob, state, code, ends, steps)

    covering = array("d")
    for i, T, d_i, thr_i, k1_i, h, err_prev, j in zip(*(col.tolist() for col in live)):
        end = _advance(prob, i, T, d_i, thr_i, k1_i, h, err_prev, j, tried, covering)
        if end is not None:
            code[i], ends[i] = end
    if covering:
        steps.append(np.frombuffer(covering).reshape(-1, 12))
    if steps:
        _fill_interior(prob, rows, np.concatenate(steps))

    # An end past the last covered sample time is the pair's last row: the
    # landing on t_end, or an abort's truncation between two sample times.
    ended = np.flatnonzero(code)
    j = ends[ended, 3].astype(np.intp)
    past = np.asarray(prob.grid)[j - 1] < ends[ended, 0]
    rows[ended[past], j[past]] = ends[ended[past], :3]
    count = np.zeros(n, dtype=np.intp)
    count[ended] = j + past
    return _si_rows(rows, c0, prob, p), count, _STATUS[code]


def _fill_interior(prob: _Scaled, rows: np.ndarray, steps: np.ndarray) -> None:
    """Write every interior sample that an accepted step covers into rows.

    steps holds one row (i, j_lo, j_hi, T, h, d, k1, k3, k4, k5, k6, k7) per
    accepted step of size h from the state (T, d) of pair i whose interval
    (T, T + h] covers the samples j_lo .. j_hi - 1. Each sample keeps its
    requested time; its position comes from the continuous extension of the
    step, its velocity from the kernel there. Where that position sits on a
    node, the kernel's velocity is meaningless, and the sample takes the
    extension's slope instead, so every sample stays finite.
    """
    pair, lo, hi = steps[:, :3].astype(np.intp).T
    n = hi - lo
    owner = np.repeat(np.arange(len(steps)), n)
    j = lo[owner] + np.arange(owner.size) - np.repeat(np.cumsum(n) - n, n)
    # Over each step the extension is d + theta (q0 + theta (q1 + theta (q2 +
    # theta q3))), with q = h K _P for the step's stages K.
    q = (steps[:, 4:5] * np.einsum("si,im->sm", steps[:, 6:], _P))[owner]
    T, h, d = steps[owner, 3:6].T
    T_s = np.asarray(prob.grid)[j]
    theta = (T_s - T) / h
    d_s = d + theta * (q[:, 0] + theta * (q[:, 1] + theta * (q[:, 2] + theta * q[:, 3])))
    with np.errstate(all="ignore"):
        v, den = reduced_velocity_array(d_s, T_s, prob.beta, prob.sign)
    on_node = den < NODE_GUARD
    if on_node.any():
        q, theta = q[on_node], theta[on_node]
        slope = q[:, 0] + theta * (2.0 * q[:, 1] + theta * (3.0 * q[:, 2] + theta * 4.0 * q[:, 3]))
        v[on_node] = slope / h[on_node]
    i = pair[owner]
    rows[i, j, 0] = T_s
    rows[i, j, 1] = d_s
    rows[i, j, 2] = v


def _dp_stepper(A21, A31, A32, A41, A42, A43, A51, A52, A53, A54, A61, A62, A63, A64, A65,
                B1, B3, B4, B5, B6, E1, E3, E4, E5, E6, E7):
    """The scalar loop's Dormand-Prince 5(4) step over a tableau of floats."""

    def step(vel, d, h, k1, Ts, W, G, beta, sign):
        """One Dormand-Prince 5(4) step of size h from d.

        vel is the velocity kernel and k1 its velocity at d. Ts holds the
        times of stages 2 to 6 (stage 7 shares stage 6's), and W and G the
        kernel's stage-time factors there, or Nones for a kernel that forms
        its own. Returns the new state, the stages (k1, k3, k4, k5, k6, k7)
        in _fill_interior's order, the denominators of stages 2 to 7 and the
        signed error sum, which times h is the embedded error estimate. Each
        sum adds its terms left to right, as the batch loop's step does, so
        floats and every lane of an array get the same bits.
        """
        T2, T3, T4, T5, T6 = Ts
        W2, W3, W4, W5, W6 = W
        G2, G3, G4, G5, G6 = G
        k2, den2 = vel(d + h * (A21 * k1), T2, beta, sign, W2, G2)
        k3, den3 = vel(d + h * (A31 * k1 + A32 * k2), T3, beta, sign, W3, G3)
        k4, den4 = vel(d + h * (A41 * k1 + A42 * k2 + A43 * k3), T4, beta, sign, W4, G4)
        k5, den5 = vel(d + h * (A51 * k1 + A52 * k2 + A53 * k3 + A54 * k4), T5, beta, sign, W5, G5)
        k6, den6 = vel(
            d + h * (A61 * k1 + A62 * k2 + A63 * k3 + A64 * k4 + A65 * k5), T6, beta, sign, W6, G6
        )
        new = d + h * (B1 * k1 + B3 * k3 + B4 * k4 + B5 * k5 + B6 * k6)
        k7, den7 = vel(new, T6, beta, sign, W6, G6)
        err = E1 * k1 + E3 * k3 + E4 * k4 + E5 * k5 + E6 * k6 + E7 * k7
        return new, (k1, k3, k4, k5, k6, k7), (den2, den3, den4, den5, den6, den7), err

    return step


def _dp_stepper_array(A21, A31, A32, A41, A42, A43, A51, A52, A53, A54, A61, A62, A63, A64, A65,
                      B1, B3, B4, B5, B6, E1, E3, E4, E5, E6, E7):
    """The batch loop's Dormand-Prince 5(4) step over a tableau of 0-d arrays.

    Its arithmetic is _dp_stepper's, operation for operation; each stage
    argument and partial sum is written in place (numpy's positional out)
    into a row of a workspace.
    """
    mul, add = np.multiply, np.add

    def step(vel, d, h, k1, Ts, W, G, beta, sign, space):
        """_dp_stepper's step on arrays, in the workspace space.

        space holds eight arrays of the lanes' shape, such as the rows of an
        (8, n) block: the step sums into the first two and hands the other
        six to the kernel as its workspace. The stage arguments live there,
        so vel must not keep d. The new state, the stages, the
        denominators and the error sum are new arrays, which outlive the
        next step on the same workspace.
        """
        T2, T3, T4, T5, T6 = Ts
        W2, W3, W4, W5, W6 = W
        G2, G3, G4, G5, G6 = G
        a, b, ks = space[0], space[1], space[2:]
        mul(A21, k1, a)
        k2, den2 = vel(add(d, mul(h, a, a), a), T2, beta, sign, W2, G2, ks)
        mul(A31, k1, a)
        add(a, mul(A32, k2, b), a)
        k3, den3 = vel(add(d, mul(h, a, a), a), T3, beta, sign, W3, G3, ks)
        mul(A41, k1, a)
        add(a, mul(A42, k2, b), a)
        add(a, mul(A43, k3, b), a)
        k4, den4 = vel(add(d, mul(h, a, a), a), T4, beta, sign, W4, G4, ks)
        mul(A51, k1, a)
        add(a, mul(A52, k2, b), a)
        add(a, mul(A53, k3, b), a)
        add(a, mul(A54, k4, b), a)
        k5, den5 = vel(add(d, mul(h, a, a), a), T5, beta, sign, W5, G5, ks)
        mul(A61, k1, a)
        add(a, mul(A62, k2, b), a)
        add(a, mul(A63, k3, b), a)
        add(a, mul(A64, k4, b), a)
        add(a, mul(A65, k5, b), a)
        k6, den6 = vel(add(d, mul(h, a, a), a), T6, beta, sign, W6, G6, ks)
        mul(B1, k1, a)
        add(a, mul(B3, k3, b), a)
        add(a, mul(B4, k4, b), a)
        add(a, mul(B5, k5, b), a)
        add(a, mul(B6, k6, b), a)
        new = add(d, mul(h, a, a))
        k7, den7 = vel(new, T6, beta, sign, W6, G6, ks)
        mul(E1, k1, a)
        add(a, mul(E3, k3, b), a)
        add(a, mul(E4, k4, b), a)
        add(a, mul(E5, k5, b), a)
        add(a, mul(E6, k6, b), a)
        err = add(a, mul(E7, k7, b))
        return new, (k1, k3, k4, k5, k6, k7), (den2, den3, den4, den5, den6, den7), err

    return step


_TABLEAU = (
    _A21, _A31, _A32, _A41, _A42, _A43, _A51, _A52, _A53, _A54, _A61, _A62, _A63, _A64, _A65,
    _B1, _B3, _B4, _B5, _B6, _E1, _E3, _E4, _E5, _E6, _E7,
)
# The scalar loop's step runs on Python floats, the batch loop's on 0-d
# float64 arrays of the same doubles: numpy takes a 0-d array operand at
# less cost than a Python float, for the same bits.
_dp_step = _dp_stepper(*_TABLEAU)
_dp_step_array = _dp_stepper_array(*map(np.array, _TABLEAU))
# The batch loop's constants that do not depend on the problem, as 0-d
# float64 arrays for the same reason: the node guard, 1, the controller's
# safety factor, step-factor clamps and PI exponents, the floor of its error
# memory and the rejection exponent.
_BATCH_CONSTANTS = tuple(map(np.array, (
    NODE_GUARD, 1.0, _SAFETY, _MIN_FACTOR, _MAX_FACTOR, -_PI_ALPHA, _PI_BETA, 1e-10, -0.2,
)))


def _advance(prob: _Scaled, i, T, d, thr, k1, h, err_prev, j, tried, covering):
    """Scalar step loop: carry pair i from an accepted state to its end.

    (T, d) is the state, thr the pair's density threshold (see
    integrate_pairs), k1 the velocity dd/dT at the state, h the next trial
    step, err_prev the controller memory, j the index of the next sample time
    and tried the number of steps the pair has attempted so far. Only the step
    onto t_end is clipped; each accepted step that covers interior samples
    appends its _fill_interior row to the flat float array covering.

    Returns the pair's report (code, (T, d, dd/dT, j)): its end code,
    _COMPLETED or _ABORTED, its last accepted state, which is the landing on
    t_end or the state before an abort, and the index of the first sample
    time that no accepted step covered. Returns None if error control would
    need a step below h_min, or if the pair has not landed within _MAX_STEPS
    attempted steps.
    """
    grid = prob.grid
    end = len(grid) - 1
    t_end = grid[end]
    sign, beta = prob.sign, prob.beta
    h_min, rtol, atol = prob.h_min, prob.rtol, prob.atol
    vel = reduced_velocity
    nones = (None,) * 5  # the kernel forms its own stage-time factors
    for _ in range(tried, _MAX_STEPS):
        remaining = t_end - T
        landing = h >= remaining
        h_step = remaining if landing else h
        T_new = T + h_step
        Ts = (T + _C2 * h_step, T + _C3 * h_step, T + _C4 * h_step, T + _C5 * h_step, T_new)
        new, stages, dens, e_sum = _dp_step(vel, d, h_step, k1, Ts, nones, nones, beta, sign)
        # One test for all six stages, as in _advance_batch. The stages after
        # a node run on its NaN velocity, and their NaN denominators never
        # win min over the node's finite one.
        if min(dens) < NODE_GUARD:
            break
        err = abs(h_step * e_sum) / (atol + rtol * max(abs(d), abs(new)))

        if err <= 1.0:
            # the density at the new state, over the pair's constant factor
            s2 = 1.0 + T_new * T_new
            r = abs(new) - beta
            if dens[5] / s2 * math.exp(-(r * r) / s2) < thr:
                break
            if j < end and (landing or grid[j] <= T_new):
                hi = end if landing else bisect.bisect_right(grid, T_new, j, end)
                covering.extend((i, j, hi, T, h_step, d))
                covering.extend(stages)
                j = hi
            T, d, k1 = (t_end if landing else T_new), new, stages[5]
            if landing:
                return _COMPLETED, (T, d, k1, j)
            if err == 0.0:
                factor = _MAX_FACTOR
            else:
                factor = _SAFETY * err**-_PI_ALPHA * err_prev**_PI_BETA
                factor = min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
            err_prev = max(err, 1e-10)
            h = h_step * factor
        else:
            h = h_step * max(_MIN_FACTOR, _SAFETY * err**-0.2)
            if h < h_min:
                return None
    else:
        return None
    # a node or the density floor ended the pair after its last accepted state
    return _ABORTED, (T, d, k1, j)


def _advance_batch(prob: _Scaled, state, code: np.ndarray, ends: np.ndarray, steps: list):
    """Batch step loop: step all live pairs together while enough remain.

    state holds (idx, T, D, THR, K1, h, err_prev, j) with one entry per live
    pair: its state (T, d), density threshold and velocity dd/dT, and the
    index of its next sample time; idx is the pair's index in code and
    ends. Each pair takes the scalar loop's step and controller, with
    masks for its branches, and its own step size and controller memory. A
    pair that lands or aborts reports as _advance does: code[i] gets its
    end code and ends[i] its (T, d, dd/dT, j). A step underflow, or reaching
    _MAX_STEPS steps, leaves both untouched. Every live pair attempts one
    step per iteration. Each accepted step that covers interior samples
    appends its _fill_interior row to steps. Returns the state of the pairs
    still live once fewer than _BATCH_MIN remain, and the number of steps
    each of them has attempted.
    """
    grid = np.asarray(prob.grid)
    end = grid.size - 1
    sign = prob.sign
    # Every float the loop meets an array with, as a 0-d float64 array: numpy
    # takes one at less cost than a Python float, for the same bits.
    t_end, beta, h_min, rtol, atol = map(
        np.array, (grid[end], prob.beta, prob.h_min, prob.rtol, prob.atol)
    )
    guard, one, safety, min_factor, max_factor, neg_alpha, pi_beta, err_min, neg_fifth = (
        _BATCH_CONSTANTS
    )
    vel, step = reduced_velocity_array, _dp_step_array
    idx, T, D, THR, K1, h, err_prev, j = state
    # One workspace for the call, at the starting width: two rows for the
    # step's sums and six for the kernel's temporaries. After each compaction
    # the loop takes the rows' leading columns.
    block = np.empty((8, idx.size))
    space = tuple(block)
    tried = 0
    with np.errstate(all="ignore"):
        while idx.size >= _BATCH_MIN:
            tried += 1
            remaining = t_end - T
            landing = h >= remaining
            h_step = np.minimum(h, remaining)  # remaining where landing holds
            T_st = T + _C_COL * h_step
            T_new = T_st[4]
            # the kernel's stage-time factors, formed once for all stages
            S2 = one + T_st * T_st
            W, G = beta / S2, T_st / S2
            D_new, stages, dens, e_sum = step(vel, D, h_step, K1, T_st, W, G, beta, sign, space)
            # fmin, like any over the comparison, passes over NaN denominators
            on_node = np.fmin.reduce(dens, axis=0) < guard
            abs_new = np.abs(D_new)
            err = np.abs(h_step * e_sum) / (atol + rtol * np.maximum(np.abs(D), abs_new))

            small = err <= one
            # on booleans a > b is a & ~b, in one call (here and for below)
            accepted = small > on_node
            rejected = ~(small | on_node)
            # the density at the new states, over each pair's constant factor
            s2 = S2[4]
            r = abs_new - beta
            below = accepted & (dens[5] / s2 * np.exp(-(r * r) / s2) < THR)
            accepted = accepted > below

            # An error of 0 gives 0**-alpha = inf, and the clamp _MAX_FACTOR,
            # since err_prev >= 1e-10 (the scalar loop, on Python floats,
            # must branch instead).
            factor = np.minimum(
                max_factor,
                np.maximum(min_factor, safety * err**neg_alpha * err_prev**pi_beta),
            )
            h = h_step * factor
            # A pair that neither accepts nor rejects aborts, and leaves the
            # batch with its step size unread.
            underflow = None
            if np.count_nonzero(rejected):
                # fmax, like the scalar max, lets a NaN error shrink by _MIN_FACTOR.
                h_next = h_step * np.fmax(min_factor, safety * err**neg_fifth)
                underflow = rejected & (h_next < h_min)
                h = np.where(accepted, h, h_next)
            err_prev = np.where(accepted, np.maximum(err, err_min), err_prev)
            if end > 1:
                hi = np.where(landing, end, np.searchsorted(grid[:end], T_new, side="right"))
                covers = accepted & (hi > j)
                if np.count_nonzero(covers):
                    steps.append(np.array((idx, j, hi, T, h_step, D) + stages).T[covers])
                    j = np.where(covers, hi, j)
            T = np.where(accepted, np.where(landing, t_end, T_new), T)
            D = np.where(accepted, D_new, D)
            K1 = np.where(accepted, stages[5], K1)
            landed = accepted & landing
            aborted = on_node | below
            done = aborted | landed
            if underflow is not None:
                done |= underflow
            if tried == _MAX_STEPS:
                done[:] = True
            elif not np.count_nonzero(done):
                continue
            code[idx[landed]] = _COMPLETED
            code[idx[aborted]] = _ABORTED
            ended = landed | aborted
            ends[idx[ended]] = np.array((T, D, K1, j)).T[ended]
            keep = ~done
            idx, T, D, THR, K1, h, err_prev, j = (
                col[keep] for col in (idx, T, D, THR, K1, h, err_prev, j)
            )
            space = tuple(block[:, :idx.size])
    return (idx, T, D, THR, K1, h, err_prev, j), tried
