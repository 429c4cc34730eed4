"""Work done before timing starts: cold caches and the first calls.

The same warm-up runs in the measured process and in each set-up probe, so
setup_s times exactly what the timed passes no longer pay for.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

import pairslit

# Workload -> (longitudinal speed in m/s, flight time in s).
REGIMES = {
    "ensemble_slow": (2.0e6, 1.0e-7),
    "ensemble_fast": (2.0e7, 1.0e-8),
    "cli_scenarios": (2.0e6, 1.0e-7),
}


def warm_up(workload: str) -> dict[str, float]:
    """Fill the bin-mass cache for both statistics and transport a first pair."""
    x_speed, t_end = REGIMES[workload]
    p = pairslit.PhysicalParams.baseline(x_speed=x_speed)
    t0 = perf_counter()
    for stats in pairslit.SpinStatistics:
        pairslit.binned_tv_distance(np.zeros((1, 2)), t_end, stats, p)
    t1 = perf_counter()
    for i, stats in enumerate(pairslit.SpinStatistics):
        sampler = pairslit.SamplerConfig(method="exact_rejection", n_pairs=1, seed=i)
        pairslit.run_ensemble(sampler, pairslit.IntegratorConfig(), stats, p, t_end)
    t2 = perf_counter()
    return {"bin_masses_cold_s": t1 - t0, "first_pair_s": t2 - t1}
