"""Trajectory objects from integrator.integrate_pairs, a helper for the tests.

The package transports pairs as an (n, 2) release array in and a sample table
out; these wrappers turn the table back into one Trajectory per pair, so that
tests can read its columns, and endpoint reads its last sample. A batch below
integrator._BATCH_MIN pairs, a lone pair included, runs the scalar step loop,
as the CLI's small fans do.
"""

import numpy as np

from pairslit import PairConfiguration, Trajectory
from pairslit.integrator import integrate_pairs


def trajectories(initial, t_end, cfg, stats, p, times=None, x1=0.0, x2=0.0):
    """integrate_pairs as one Trajectory, or None, per pair released at x1, x2."""
    table, count, status = integrate_pairs(initial, t_end, cfg, stats, p, times)
    return [
        None if st is None else Trajectory.from_rows(table[i, : count[i]], st, p, x1, x2)
        for i, st in enumerate(status)
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
