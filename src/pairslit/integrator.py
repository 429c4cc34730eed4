"""Adaptive trajectory integration in the transverse plane.

Embedded Dormand-Prince 5(4) pair with PI step-size control, working in
packet-width / spreading-time units. Longitudinal motion is exact (constant
drift), so only (y1, y2) are integrated. Steps are clipped to land exactly on
the requested sample times; no interpolation is involved.

Runs abort (status, not exception) when the joint density under the pair
drops below a configurable fraction of its t = 0 peak, which is how fermion
trajectories attracted toward the nodal diagonal are handled.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from ._kernels import reduced_density, reduced_velocity
from .errors import NodeProximityError, StepUnderflowError
from .params import PairConfiguration, PairVelocity, PhysicalParams, SpinStatistics
from .wavefunction import initial_density_peak

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

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_PI_ALPHA = 0.7 / 5.0  # PI controller exponents for a 5(4) pair
_PI_BETA = 0.4 / 5.0


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
    """Sampled pair trajectory: (configuration, velocity) at each sample time."""

    samples: tuple[tuple[PairConfiguration, PairVelocity], ...]
    status: TrajectoryStatus

    @property
    def times(self) -> np.ndarray:
        return np.array([c.t for c, _ in self.samples])

    def as_arrays(self) -> dict[str, np.ndarray]:
        """Column arrays (t, x1, y1, x2, y2, vy1, vy2) for serialization."""
        cols = {
            "t": [c.t for c, _ in self.samples],
            "x1": [c.x1 for c, _ in self.samples],
            "y1": [c.y1 for c, _ in self.samples],
            "x2": [c.x2 for c, _ in self.samples],
            "y2": [c.y2 for c, _ in self.samples],
            "vy1": [v.vy1 for _, v in self.samples],
            "vy2": [v.vy2 for _, v in self.samples],
        }
        return {k: np.array(v) for k, v in cols.items()}

    @property
    def endpoint(self) -> PairConfiguration:
        return self.samples[-1][0]


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
    StepUnderflowError
        If error control would need a step below h_min.
    """
    if t_end <= initial.t:
        raise ValueError("t_end must exceed the initial time")
    tau = p.tau
    t0 = initial.t
    if sample_times is None:
        sample_times = (t0, t_end)
    out_t = [float(t) for t in sample_times]
    if out_t[0] != t0 or out_t[-1] != t_end or any(
        b <= a for a, b in zip(out_t, out_t[1:])
    ):
        raise ValueError("sample_times must run strictly from initial.t to t_end")

    sign = stats.sign
    beta = p.beta
    n2 = 0.5 / (1.0 + sign * math.exp(-(beta**2)))
    # Peak of the dimensionless density; the SI peak carries 1/sigma0^2.
    peak = initial_density_peak(stats, p) * p.sigma0**2
    floor = cfg.density_floor * peak

    T_end = (t_end - t0) / tau
    out_T = [(t - t0) / tau for t in out_t]
    # Step bounds are configured in seconds; the loop runs in scaled time.
    h, h_min, h_max = (v / tau for v in cfg.resolved_steps(t_end - t0))
    rtol, atol = cfg.rel_tol, cfg.abs_tol

    e1 = initial.y1 / p.sigma0
    e2 = initial.y2 / p.sigma0
    T = 0.0
    if reduced_density(e1, e2, T, sign, beta, n2) < floor:
        raise ValueError("initial density below density_floor")

    recorded: list[tuple[float, float, float, float, float]] = []
    aborted = False
    try:
        k1 = reduced_velocity(e1, e2, T, beta, sign)
        recorded.append((0.0, e1, e2, *k1))
        out_idx = 1
        err_prev = 1.0
        while out_idx < len(out_T):
            target = out_T[out_idx]
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
                    recorded.append((T, e1, e2, *k7))
                    out_idx += 1
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
                    raise StepUnderflowError(
                        f"needed step {h_next * tau:.3e} s below h_min {h_min * tau:.3e} s"
                    )
                h = h_next
    except NodeProximityError:
        aborted = True

    if aborted and (not recorded or recorded[-1][0] < T):
        # Truncate at the last accepted state; k1 is the velocity there.
        recorded.append((T, e1, e2, *k1))

    scale = p.sigma0 / tau
    vx = p.x_speed
    samples = []
    for T_s, a, b, w1, w2 in recorded:
        t_s = t0 + T_s * tau
        conf = PairConfiguration(
            initial.x1 + vx * (t_s - t0),
            a * p.sigma0,
            initial.x2 + vx * (t_s - t0),
            b * p.sigma0,
            t_s,
        )
        samples.append((conf, PairVelocity(vx, w1 * scale, vx, w2 * scale)))
    status = TrajectoryStatus.NODE_PROXIMITY_ABORT if aborted else TrajectoryStatus.COMPLETED
    return Trajectory(samples=tuple(samples), status=status)
