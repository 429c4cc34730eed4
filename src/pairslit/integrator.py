"""Adaptive trajectory integration in the transverse plane.

Embedded Dormand-Prince 5(4) pair with PI step-size control, working in
packet-width / spreading-time units. Every pair is released at rest, so its
first trial step is scaled from its release acceleration rather than its
velocity (see integrate_pairs). Longitudinal motion is exact (constant
drift), and so is the transverse centre of mass c = (eta1 + eta2) / 2: the
interference term cancels from it, leaving c(T) = c0 sqrt(1 + T^2), the
spreading law that tests/oracles.py states as com_closed_form. Only the
half-separation d = (eta1 - eta2) / 2 is integrated, one component per pair,
and only its magnitude: its velocity is odd in d, so d = 0 is a fixed point
and no pair crosses the exchange diagonal (Bohmian no-crossing in
configuration space). integrate_pairs takes each pair's sign s = +-1 at
release, runs the step loops on |d| and rebuilds eta1, eta2 = c +- s |d| in
the sample table. On d >= 0 the velocity kernels need no abs or copysign. A
step near the diagonal may still overshoot 0 within its tolerance, and the
continuous extension of a step may dip below it: the steps and the
interior-sample fill fold such a d back to |d|, the point the exact flow
cannot leave.

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
that branches on plain floats. The Dormand-Prince tableau is written once,
as one table (_C, _A, _E), and the step has two bodies over it of the same
operations in the same order: _dp_step, spelled out on the table's floats,
whose kernel forms its own stage-time factors, and _dp_step_array, a loop
over the table's rows of 0-d arrays, which takes those factors formed once
for all stages and writes its stage arguments and partial sums in place into
a workspace that each _advance_batch call allocates once, at its starting
width, and shares with the kernel, beside a block that takes the kernel's
denominators.
integrate_pairs uses the batch loop while at least _BATCH_MIN pairs are live
and hands smaller batches and remainders to the scalar loop, whose per-step
cost does not carry numpy's per-call overhead.

Both loops take the same live-pair state and outputs; neither writes a
pair's last row or raises. Each appends the record of every accepted step
that covers interior sample times (those in (T, T1] for a step from T to T1)
to one flat float buffer, and writes the int8 end code (a TrajectoryStatus
value) and last accepted state of a pair that lands or aborts; one that
underflows or runs out of steps keeps code NOT_INTEGRATED. integrate_pairs
fills the interior samples from the buffer, places every landing or
truncation row and sample count by the end's time, and returns the codes.
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

# The Dormand-Prince 5(4) tableau, the one place its coefficients are written.
# _C holds the times of stages 2 to 6 as fractions of the step; stage 7 is
# FSAL and shares stage 6's. Each row of _A holds the nonzero weights (i, a)
# of the stages k_i in the argument of stages 2 to 7, in the order the step
# adds them; its last row is B, which propagates the fifth-order solution to
# the new state, where stage 7 runs. _E holds those of the embedded error
# estimate.
_C = (0.2, 0.3, 0.8, 8.0 / 9.0, 1.0)
_A = (
    ((1, 0.2),),
    ((1, 3.0 / 40.0), (2, 9.0 / 40.0)),
    ((1, 44.0 / 45.0), (2, -56.0 / 15.0), (3, 32.0 / 9.0)),
    ((1, 19372.0 / 6561.0), (2, -25360.0 / 2187.0), (3, 64448.0 / 6561.0), (4, -212.0 / 729.0)),
    ((1, 9017.0 / 3168.0), (2, -355.0 / 33.0), (3, 46732.0 / 5247.0), (4, 49.0 / 176.0),
     (5, -5103.0 / 18656.0)),
    ((1, 35.0 / 384.0), (3, 500.0 / 1113.0), (4, 125.0 / 192.0), (5, -2187.0 / 6784.0),
     (6, 11.0 / 84.0)),
)
_E = ((1, 71.0 / 57600.0), (3, -71.0 / 16695.0), (4, 71.0 / 1920.0), (5, -17253.0 / 339200.0),
      (6, 22.0 / 525.0), (7, -1.0 / 40.0))

# The stage-time fractions as one row each, for the batch loop.
_C_COL = np.array(_C).reshape(-1, 1)

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
# iteration without rejections makes about 233 numpy calls (ufuncs and
# array functions; 184 ufunc calls in a boson step, 176 of them in place in
# the workspace and the denominator block), each on arrays alone. Such an
# iteration took about 90 us at 32 lanes and 117 us at 250, and a scalar
# step (six kernel calls on plain floats) about 4.8 us, on a 2-CPU Xeon with
# AVX-512 (steps 2 to 20 of slow boson pairs, medians of 51 calls).
# Crossover in CHANGES.md.
_BATCH_MIN = 32


class TrajectoryStatus(enum.IntEnum):
    """How a pair ended: its int8 end code in integrate_pairs' status array.

    0 NOT_INTEGRATED: no samples (see integrate_pairs); 1 COMPLETED: landed
    on t_end; 2 NODE_PROXIMITY_ABORT: a node or the density floor ended it
    in flight.
    """

    NOT_INTEGRATED = 0
    COMPLETED = 1
    NODE_PROXIMITY_ABORT = 2


@dataclass(frozen=True)
class IntegratorConfig:
    """Step control for trajectory integration.

    rel_tol is dimensionless; abs_tol is measured in units of sigma0. Both
    bound the local error of the half-separation (y1 - y2) / 2; the step
    size is left to the controller. density_floor is relative to the t = 0
    peak of the joint density, its exact maximum (see _peak). All three must
    be finite and > 0.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-9
    density_floor: float = 1e-12

    def __post_init__(self):
        # one line of the ValueError for each field that fails its check
        problems = [f"{name} must be finite and > 0" for name, value in vars(self).items()
                    if not 0.0 < value < math.inf]
        if problems:
            raise ValueError("\n".join(problems))


@dataclass(frozen=True)
class _Scaled:
    """One integration problem in packet-width / spreading-time units."""

    grid: np.ndarray  # sample times over tau
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
        grid=np.array(out_t) / tau,
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


def _si_rows(rows: np.ndarray, c0, s, prob: _Scaled, p: PhysicalParams) -> np.ndarray:
    """(t, y1, y2, vy1, vy2) in SI units from scaled rows (T, |d|, d|d|/dT).

    The last axis holds the columns, the one before it the sample index; c0
    holds each pair's initial centre of mass and s the sign of its d, one
    each per row block. d and dd/dT are odd in d, so they are s |d| and
    s d|d|/dT. The centre c = c0 sqrt(1 + T^2) moves at c T / (1 + T^2), so
    eta1, eta2 = c +- d and their velocities are c T / (1 + T^2) +- dd/dT. A
    row on the grid gets its requested time; only an abort's off-grid
    truncation row gets T tau.
    """
    T = rows[..., 0]
    s = np.expand_dims(s, -1)
    d, w = s * rows[..., 1], s * rows[..., 2]
    s2 = 1.0 + T * T
    c = np.expand_dims(c0, -1) * np.sqrt(s2)
    drift = c * (T / s2)
    t = np.where(T == prob.grid, prob.times, T * prob.tau)
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
    that cover them. A pair that cannot be integrated gets an end code, never
    an exception. The step loops write each pair's end and the records of
    its covering steps; integrate_pairs writes the samples, last rows and
    counts from those.

    Returns
    -------
    (table, count, status)
        table is the (n, S, 5) array of samples (t, y1, y2, vy1, vy2) in SI
        units, S being the number of sample times; pair i's samples are
        table[i, :count[i]], and later cells hold none. status[i] is its
        int8 TrajectoryStatus code; it is 0 (NOT_INTEGRATED), with count[i]
        = 0, when its initial density lies below the floor, its initial
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
    # the sign of d, a constant of the motion; the loops run on |d|
    s, d = np.copysign(1.0, d), np.abs(d)
    with np.errstate(all="ignore"):
        k1, den = reduced_velocity_array(d, 0.0, prob.beta, prob.sign)
        # Each pair's density floor over the factor n2 / (2 pi) exp(-c0^2) of
        # its density, which the loops' floor test and _peak leave out (see
        # _kernels.reduced_velocity). A pair released on a node or below the
        # floor is not integrated; the floor test is the loops' own at s2 = 1.
        thr = prob.floor * np.exp(c0 * c0)
        r = d - prob.beta
        idx = np.flatnonzero(~(den < NODE_GUARD) & ~(den * np.exp(-(r * r)) < thr))
        k1, thr, d0 = k1[idx], thr[idx], d[idx]
        # Every pair starts at rest (k1 = 0), so its first trial step is
        # scaled from its release acceleration d''(0): the start-step estimate
        # of Hairer, Norsett and Wanner (Solving ODEs I, sec. II.4), without
        # its cap at 100 times a velocity-scaled guess, which k1 = 0 would
        # shrink to 1e-4. The velocity is odd in T, so v / T at _T_PROBE is
        # d''(0) to about 1e-13; a pair with no acceleration tries the span.
        acc = reduced_velocity_array(d0, _T_PROBE, prob.beta, prob.sign)[0] / _T_PROBE
        scale = prob.atol + prob.rtol * d0
        h0 = np.fmin(prob.grid[-1], (0.01 * scale / np.abs(acc)) ** 0.2)
    m = idx.size

    rows = np.full((n, prob.grid.size, 3), np.nan)
    rows[idx, 0, 0] = 0.0
    rows[idx, 0, 1] = d0
    rows[idx, 0, 2] = k1
    # code[i] gets pair i's end code and ends[i] its last accepted state
    # (T, d, dd/dT); records, both loops' _fill_interior rows, 11 floats each.
    code = np.zeros(n, dtype=np.int8)
    ends = np.zeros((n, 3))
    records = array("d")
    state = (idx, np.zeros(m), d0, thr, k1, h0, np.ones(m))
    state, tried = _advance_batch(prob, state, code, ends, records)
    _advance(prob, state, tried, code, ends, records)
    if records:  # a fill of no records still costs about 30 us in numpy calls
        _fill_interior(prob, rows, np.frombuffer(records).reshape(-1, 11))

    # The steps filled the j sample times up to an end; an end past them is the
    # last row: the landing on t_end, or an abort's truncation between two.
    ended = np.flatnonzero(code)
    j = np.searchsorted(prob.grid[:-1], ends[ended, 0], side="right")
    past = prob.grid[j - 1] < ends[ended, 0]
    rows[ended[past], j[past]] = ends[ended[past]]
    count = np.zeros(n, dtype=np.intp)
    count[ended] = j + past
    return _si_rows(rows, c0, s, prob, p), count, code


def _fill_interior(prob: _Scaled, rows: np.ndarray, records: np.ndarray) -> None:
    """Write every interior sample that an accepted step covers into rows.

    records holds one row (i, T, T1, h, d, k1, k3, k4, k5, k6, k7) per
    accepted step of size h from the state (T, d) of pair i to the time T1,
    which is t_end exactly on the landing step; the step covers the interior
    sample times in (T, T1]. Each sample keeps its requested time; its
    position comes from the continuous extension of the step, its velocity
    from the kernel there. A position that the extension puts below 0 is
    folded back to |d|, as the steps fold their new states, so that no sample
    crosses the exchange diagonal. Where that position sits on a node, the
    kernel's velocity is meaningless, and the sample takes the extension's
    slope instead, so every sample stays finite.
    """
    T, T1, h, d = records[:, 1:5].T
    # each step's samples lo .. hi - 1, counted by time as the loops count them
    lo, hi = np.searchsorted(prob.grid[:-1], (T, T1), side="right")
    n = hi - lo
    owner = np.repeat(np.arange(len(records)), n)
    j = lo[owner] + np.arange(owner.size) - np.repeat(np.cumsum(n) - n, n)
    # Over each step the extension is d + theta (q0 + theta (q1 + theta (q2 +
    # theta q3))), with q = h K _P for the step's stages K.
    q = (h[:, None] * np.einsum("si,im->sm", records[:, 5:], _P))[owner]
    T, h, d = T[owner], h[owner], d[owner]
    T_s = prob.grid[j]
    theta = (T_s - T) / h
    d_s = np.abs(d + theta * (q[:, 0] + theta * (q[:, 1] + theta * (q[:, 2] + theta * q[:, 3]))))
    with np.errstate(all="ignore"):
        v, den = reduced_velocity_array(d_s, T_s, prob.beta, prob.sign)
    on_node = den < NODE_GUARD
    if on_node.any():
        q, theta = q[on_node], theta[on_node]
        slope = q[:, 0] + theta * (2.0 * q[:, 1] + theta * (3.0 * q[:, 2] + theta * 4.0 * q[:, 3]))
        v[on_node] = slope / h[on_node]
    i = records[owner, 0].astype(np.intp)
    rows[i, j, 0] = T_s
    rows[i, j, 1] = d_s
    rows[i, j, 2] = v


def _dp_stepper(A, E):
    """The scalar loop's Dormand-Prince 5(4) step over the table's floats.

    The factory unpacks the weights, in table order, into the step's closure
    cells, which its spelled-out body reads by name.
    """
    (A21, A31, A32, A41, A42, A43, A51, A52, A53, A54, A61, A62, A63, A64, A65,
     B1, B3, B4, B5, B6, E1, E3, E4, E5, E6, E7) = (a for row in (*A, E) for _, a in row)

    def step(vel, d, h, k1, Ts, beta, sign):
        """One Dormand-Prince 5(4) step of size h from d >= 0.

        vel is the velocity kernel, which forms its own stage-time factors,
        and k1 its velocity at d. Ts holds the times of stages 2 to 6 (stage
        7 shares stage 6's). Returns the new state, the stages (k1, k3, k4,
        k5, k6, k7) in _fill_interior's order, the denominators of stages 2
        to 7 and the signed error sum, which times h is the embedded error
        estimate. The new state is folded to its magnitude before stage 7
        is evaluated there: the exact flow never crosses d = 0, so a step
        that overshoots it within the tolerance lands on its mirror point,
        which lies no farther from the exact state. Each sum adds its terms
        left to right, as the batch loop's step does, so floats and every
        lane of an array get the same bits.
        """
        T2, T3, T4, T5, T6 = Ts
        k2, den2 = vel(d + h * (A21 * k1), T2, beta, sign)
        k3, den3 = vel(d + h * (A31 * k1 + A32 * k2), T3, beta, sign)
        k4, den4 = vel(d + h * (A41 * k1 + A42 * k2 + A43 * k3), T4, beta, sign)
        k5, den5 = vel(d + h * (A51 * k1 + A52 * k2 + A53 * k3 + A54 * k4), T5, beta, sign)
        k6, den6 = vel(d + h * (A61 * k1 + A62 * k2 + A63 * k3 + A64 * k4 + A65 * k5), T6, beta, sign)
        new = abs(d + h * (B1 * k1 + B3 * k3 + B4 * k4 + B5 * k5 + B6 * k6))
        k7, den7 = vel(new, T6, beta, sign)
        err = E1 * k1 + E3 * k3 + E4 * k4 + E5 * k5 + E6 * k6 + E7 * k7
        return new, (k1, k3, k4, k5, k6, k7), (den2, den3, den4, den5, den6, den7), err

    return step


def _dp_stepper_array(A, E):
    """The batch loop's Dormand-Prince 5(4) step over the table's 0-d arrays.

    It makes _dp_stepper's operations in the same order, in a loop over the
    rows of the table; each stage argument and partial sum is written in
    place (numpy's positional out) into a row of a workspace.
    """
    mul, add, fabs = np.multiply, np.add, np.abs
    # each row as its first term, which starts the sum, and the others
    rows = tuple((row[0], row[1:]) for row in A)
    stages, B = rows[:-1], rows[-1]
    # the error sum's last term is added into a new array, which outlives the step
    E_in_place, (i_last, e_last) = (E[0], E[1:-1]), E[-1]

    def weigh(row, k, a, b):
        """Write into a the sum of c k[i] over the row's terms (i, c), left to right."""
        (i, c), terms = row
        mul(c, k[i], a)
        for i, c in terms:
            add(a, mul(c, k[i], b), a)
        return a

    def step(vel, d, h, k1, Ts, W, G, beta, sign, space, dens):
        """_dp_stepper's step on arrays, in the workspace space.

        W and G hold the kernel's stage-time factors beta / (1 + T^2) and
        T / (1 + T^2) at the stage times Ts. space holds eight arrays of the
        lanes' shape, such as the rows of an (8, n) block: the step sums into
        the first two and hands the other six to the kernel as its
        workspace. The stage arguments live there, so vel must not keep d.
        dens holds six more, outside space, such as the rows of a (6, n)
        block: the kernel writes the denominators of stages 2 to 7 into
        them, and the step returns them as its denominators, so a caller can
        test all six on the block without stacking them. They hold until the
        next step on the same arrays; the new state, the stages and the
        error sum are new arrays, which outlive it.
        """
        a, b, ks = space[0], space[1], space[2:]
        k = [None, k1]  # k[i] is the velocity of stage i
        for row, T, w, g, den in zip(stages, Ts, W, G, dens):  # stages 2 to 6
            k.append(vel(add(d, mul(h, weigh(row, k, a, b), a), a), T, beta, sign, w, g, ks, den)[0])
        # stage 7 runs at stage 6's time, at the new state folded to its magnitude
        new = fabs(add(d, mul(h, weigh(B, k, a, b), a), a))
        k.append(vel(new, T, beta, sign, w, g, ks, dens[5])[0])
        err = add(weigh(E_in_place, k, a, b), mul(e_last, k[i_last], b))
        return new, (k1, *k[3:]), dens, err

    return step


# The scalar loop's step runs on Python floats, the batch loop's on 0-d
# float64 arrays of the same doubles: numpy takes a 0-d array operand at
# less cost than a Python float, for the same bits.
_dp_step = _dp_stepper(_A, _E)
_dp_step_array = _dp_stepper_array(
    tuple(tuple((i, np.array(a)) for i, a in row) for row in _A),
    tuple((i, np.array(a)) for i, a in _E),
)
# The batch loop's constants that do not depend on the problem, as 0-d
# float64 arrays for the same reason: the node guard, 1, the controller's
# safety factor, step-factor clamps and PI exponents, the floor of its error
# memory and the rejection exponent.
_BATCH_CONSTANTS = tuple(map(np.array, (
    NODE_GUARD, 1.0, _SAFETY, _MIN_FACTOR, _MAX_FACTOR, -_PI_ALPHA, _PI_BETA, 1e-10, -0.2,
)))


def _advance(prob: _Scaled, state, tried, code: np.ndarray, ends: np.ndarray, records: array):
    """Scalar step loop: carry each live pair from its accepted state to its end.

    state, code, ends and records are _advance_batch's, and tried is the
    number of steps each live pair has attempted so far. The loop takes one
    pair after the other on plain floats, with _advance_batch's step and
    controller, and ends each pair, or leaves it NOT_INTEGRATED, as that
    loop does.
    """
    grid = prob.grid.tolist()  # Python floats, like the rest of the scalar loop
    end = len(grid) - 1
    t_end = grid[end]
    sign, beta = prob.sign, prob.beta
    h_min, rtol, atol = prob.h_min, prob.rtol, prob.atol
    vel = reduced_velocity
    C2, C3, C4, C5, _ = _C  # stage 6's time is T_new
    for i, T, d, thr, k1, h, err_prev in zip(*(col.tolist() for col in state)):
        # the next interior sample time, grid[j], lies after T if j < end
        j = bisect.bisect_right(grid, T, 0, end)
        status = TrajectoryStatus.NOT_INTEGRATED
        for _ in range(tried, _MAX_STEPS):
            remaining = t_end - T
            landing = h >= remaining
            h_step = remaining if landing else h
            T_new = T + h_step
            Ts = (T + C2 * h_step, T + C3 * h_step, T + C4 * h_step, T + C5 * h_step, T_new)
            new, stages, dens, e_sum = _dp_step(vel, d, h_step, k1, Ts, beta, sign)
            # One test for all six stages, as in _advance_batch. The stages
            # after a node run on its NaN velocity, and their NaN denominators
            # never win min over the node's finite one.
            if min(dens) < NODE_GUARD:
                status = TrajectoryStatus.NODE_PROXIMITY_ABORT
                break
            err = abs(h_step * e_sum) / (atol + rtol * max(d, new))

            if err <= 1.0:
                # the density at the new state, over the pair's constant factor
                s2 = 1.0 + T_new * T_new
                r = new - beta
                if dens[5] / s2 * math.exp(-(r * r) / s2) < thr:
                    status = TrajectoryStatus.NODE_PROXIMITY_ABORT
                    break
                T1 = t_end if landing else T_new
                if j < end and grid[j] <= T1:
                    records.extend((i, T, T1, h_step, d))
                    records.extend(stages)
                    j = bisect.bisect_right(grid, T1, j, end)
                T, d, k1 = T1, new, stages[5]
                if landing:
                    status = TrajectoryStatus.COMPLETED
                    break
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
                    break  # a step underflow leaves the pair NOT_INTEGRATED
        if status:
            code[i] = status
            ends[i] = T, d, k1


def _advance_batch(prob: _Scaled, state, code: np.ndarray, ends: np.ndarray, records: array):
    """Batch step loop: step all live pairs together while enough remain.

    state holds (idx, T, D, THR, K1, h, err_prev), one entry per live pair
    each: its index in code and ends, its state (T, d), d >= 0, density
    threshold (see integrate_pairs), velocity dd/dT, next trial step and
    controller memory. Every live pair attempts one step per iteration, with
    masks for the branches. A pair that lands, or that a node or the density
    floor ends, gets its end code in code[i] and its last accepted state
    (T, d, dd/dT) in ends[i]; a step underflow, or reaching _MAX_STEPS
    steps, leaves both untouched. Each accepted step that covers interior
    samples appends its _fill_interior row, 11 floats, to records. Returns
    the state of the pairs still live once fewer than _BATCH_MIN remain, and
    the number of steps each of them has attempted.
    """
    before = prob.grid[:-1]  # the sample times before t_end
    sign = prob.sign
    # Every float the loop meets an array with, as a 0-d float64 array: numpy
    # takes one at less cost than a Python float, for the same bits.
    t_end, beta, h_min, rtol, atol = map(
        np.array, (prob.grid[-1], prob.beta, prob.h_min, prob.rtol, prob.atol)
    )
    guard, one, safety, min_factor, max_factor, neg_alpha, pi_beta, err_min, neg_fifth = (
        _BATCH_CONSTANTS
    )
    vel, step = reduced_velocity_array, _dp_step_array
    idx, T, D, THR, K1, h, err_prev = state
    # One workspace for the call, at the starting width: two rows for the
    # step's sums and six for the kernel's temporaries; and one row for each
    # of the six denominators, which the node test reduces as a block. After
    # each compaction the loop takes the rows' leading columns.
    block, den_block = np.empty((8, idx.size)), np.empty((6, idx.size))
    space, dens = tuple(block), den_block
    den_rows = tuple(dens)
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
            D_new, stages, _, e_sum = step(
                vel, D, h_step, K1, T_st, W, G, beta, sign, space, den_rows
            )
            # fmin, like any over the comparison, passes over NaN denominators
            on_node = np.fmin.reduce(dens, axis=0) < guard
            err = np.abs(h_step * e_sum) / (atol + rtol * np.maximum(D, D_new))

            small = err <= one
            # on booleans a > b is a & ~b, in one call (here and for below)
            accepted = small > on_node
            rejected = ~(small | on_node)
            # the density at the new states, over each pair's constant factor
            s2 = S2[4]
            r = D_new - beta
            below = accepted & (den_rows[5] / s2 * np.exp(-(r * r) / s2) < THR)
            accepted = accepted > below
            landed = accepted & landing
            aborted = on_node | below
            done = aborted | landed

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
            if np.count_nonzero(rejected):
                # fmax, like the scalar max, lets a NaN error shrink by _MIN_FACTOR.
                h_next = h_step * np.fmax(min_factor, safety * err**neg_fifth)
                done |= rejected & (h_next < h_min)  # a step underflow
                h = np.where(accepted, h, h_next)
            err_prev = np.where(accepted, np.maximum(err, err_min), err_prev)
            T1 = np.where(landing, t_end, T_new)
            if before.size > 1:
                # a step covers the interior sample times in (T, T1]
                lo, hi = np.searchsorted(before, (T, T1), side="right")
                covers = accepted & (hi > lo)
                if np.count_nonzero(covers):
                    covering = np.array((idx, T, T1, h_step, D) + stages).T[covers]
                    records.frombytes(covering.tobytes())
            T = np.where(accepted, T1, T)
            D = np.where(accepted, D_new, D)
            K1 = np.where(accepted, stages[5], K1)
            if tried == _MAX_STEPS:
                done[:] = True
            elif not np.count_nonzero(done):
                continue
            code[idx[landed]] = TrajectoryStatus.COMPLETED
            code[idx[aborted]] = TrajectoryStatus.NODE_PROXIMITY_ABORT
            ended = landed | aborted
            ends[idx[ended]] = np.array((T, D, K1)).T[ended]
            keep = ~done
            idx, T, D, THR, K1, h, err_prev = (
                col[keep] for col in (idx, T, D, THR, K1, h, err_prev)
            )
            space, dens = tuple(block[:, :idx.size]), den_block[:, :idx.size]
            den_rows = tuple(dens)
    return (idx, T, D, THR, K1, h, err_prev), tried
