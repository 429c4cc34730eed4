"""Trajectory objects from integrator.integrate_pairs, a helper for the tests.

The package transports pairs as an (n, 2) release array in and a sample table
out; these wrappers turn the table back into one Trajectory per pair, so that
tests can read its columns, and endpoint reads its last sample. A batch below
integrator._BATCH_MIN pairs, a lone pair included, runs the scalar step loop,
as the CLI's small fans do. map_trajectory_to_double_slit is the reflection
that fourslit.property_report applies to the table directly.
"""

from dataclasses import dataclass, replace

import numpy as np

from pairslit import PairConfiguration, PhysicalParams, SlitRegion, TrajectoryStatus
from pairslit.integrator import integrate_pairs


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
    def from_rows(cls, rows, status, p: PhysicalParams, x1=0.0, x2=0.0):
        """Trajectory from SI sample rows (t, y1, y2, vy1, vy2), released at x1, x2 at t = 0."""
        t = rows[:, 0]
        dx = p.x_speed * t
        vx = np.full(t.shape, p.x_speed)
        return cls(t, x1 + dx, rows[:, 1], x2 + dx, rows[:, 2], vx, rows[:, 3], vx, rows[:, 4],
                   status)


def trajectories(initial, t_end, cfg, stats, p, times=None, x1=0.0, x2=0.0):
    """integrate_pairs as one Trajectory per pair released at x1, x2, or None if not integrated.

    Each Trajectory's status is the TrajectoryStatus member of its pair's end code.
    """
    table, count, status = integrate_pairs(initial, t_end, cfg, stats, p, times)
    return [
        None if code == TrajectoryStatus.NOT_INTEGRATED
        else Trajectory.from_rows(table[i, : count[i]], TrajectoryStatus(int(code)), p, x1, x2)
        for i, code in enumerate(status)
    ]


def integrate_one(start, t_end, cfg, stats, p, times=None):
    """The Trajectory of one pair released at the PairConfiguration start, or None.

    start.t must be 0: integrate_pairs releases every pair at t = 0.
    """
    assert start.t == 0.0
    initial = np.array([(start.y1, start.y2)])
    return trajectories(initial, t_end, cfg, stats, p, times, start.x1, start.x2)[0]


def endpoint(traj):
    """The last sample of a Trajectory as a PairConfiguration of floats."""
    last = (traj.x1, traj.y1, traj.x2, traj.y2, traj.t)
    return PairConfiguration(*(float(col[-1]) for col in last))


def map_trajectory_to_double_slit(traj, region):
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
