"""Work against accuracy of integrate_pairs, measured on the exact endpoint map.

A runnable helper beside endpoint_oracle.py, not a test module. From the
repository root:

    PYTHONPATH=src python tests/work_precision.py --pairs 2000 --tol 1e-8 1e-9 1e-10

(those are the defaults). For each tolerance (rel_tol = abs_tol, the default density floor), regime
and statistics it integrates --pairs exact-rejection pairs, drawn in chunks
of at most _CHUNK from the seeds --seed, --seed + 1, ..., and prints

- evals: velocity-kernel evaluations per pair on the (0, t_end) grid, the
  start calls of integrate_pairs included;
- endpoint: the worst endpoint distance to oracle_endpoints, in sigma0;
- rms: the root mean square of those distances, a steadier measure of the
  curve than the worst of a sample;
- interior: the worst distance of the 99 interior samples of the CLI's
  101-sample grid to oracle_paths, in sigma0;
- open: pairs that did not complete (they count in evals, not in the errors).
"""

import argparse

import numpy as np

from pairslit import IntegratorConfig, PhysicalParams, SamplerConfig, SpinStatistics, sample_initial
from pairslit import integrator
from pairslit.integrator import TrajectoryStatus, integrate_pairs

from endpoint_oracle import oracle_paths

REGIMES = {
    "fast": (PhysicalParams.baseline(x_speed=2.0e7), 1e-8),
    "slow": (PhysicalParams.baseline(x_speed=2.0e6), 1e-7),
}
_CHUNK = 1000


def counted_run(initial, t_end, cfg, stats, p):
    """integrate_pairs on the (0, t_end) grid and the kernel evaluations it made."""
    scalar, array = integrator.reduced_velocity, integrator.reduced_velocity_array
    evals = 0

    def counted_scalar(*args):
        nonlocal evals
        evals += 1
        return scalar(*args)

    def counted_array(d, *args):
        nonlocal evals
        evals += np.size(d)
        return array(d, *args)

    integrator.reduced_velocity, integrator.reduced_velocity_array = counted_scalar, counted_array
    try:
        return integrate_pairs(initial, t_end, cfg, stats, p), evals
    finally:
        integrator.reduced_velocity, integrator.reduced_velocity_array = scalar, array


def measure(tol, regime, stats, pairs, seed):
    """(evals per pair, worst and rms endpoint error, worst interior error, open pairs)."""
    p, t_end = REGIMES[regime]
    cfg = IntegratorConfig(rel_tol=tol, abs_tol=tol)
    times = np.linspace(0.0, t_end, 101)
    evals, worst_inner, open_pairs, end_errors = 0, 0.0, 0, [np.zeros(0)]
    for k, start in enumerate(range(0, pairs, _CHUNK)):
        n = min(_CHUNK, pairs - start)
        initial = sample_initial(SamplerConfig("exact_rejection", n, seed + k), stats, p,
                                 np.random.default_rng(seed + k))
        (table, count, status), used = counted_run(initial, t_end, cfg, stats, p)
        evals += used
        dense, _, dense_status = integrate_pairs(initial, t_end, cfg, stats, p, times)
        done = (status == TrajectoryStatus.COMPLETED) & (dense_status == TrajectoryStatus.COMPLETED)
        open_pairs += n - int(done.sum())
        if not done.any():
            continue
        want = oracle_paths(initial[done], times, stats, p)
        end_errors.append(np.abs(table[done, 1, 1:3] - want[:, -1]).max(axis=1))
        worst_inner = max(worst_inner, np.abs(dense[done, 1:-1, 1:3] - want[:, 1:-1]).max())
    end = np.concatenate(end_errors) / p.sigma0
    worst, rms = (end.max(), np.sqrt(np.mean(end**2))) if end.size else (0.0, 0.0)
    return evals / pairs, worst, rms, worst_inner / p.sigma0, open_pairs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pairs", type=int, default=2000, help="pairs per regime and statistics")
    parser.add_argument("--tol", type=float, nargs="+", default=[1e-8, 1e-9, 1e-10],
                        help="rel_tol = abs_tol values to sweep")
    parser.add_argument("--seed", type=int, default=5000, help="sampler seed of the first chunk")
    parser.add_argument("--regime", choices=sorted(REGIMES), nargs="+", default=sorted(REGIMES))
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    print(f"{args.pairs} pairs per regime and statistics, exact_rejection seeds {args.seed}+")
    print(f"{'tol':>7}  {'regime':6}  {'stats':7}  {'evals':>7}  {'endpoint':>8}  {'rms':>8}  "
          f"{'interior':>8}  open")
    for tol in args.tol:
        for regime in args.regime:
            for stats in SpinStatistics:
                evals, end, rms, inner, open_pairs = measure(tol, regime, stats, args.pairs, args.seed)
                print(f"{tol:7.0e}  {regime:6}  {stats.value:7}  {evals:7.2f}  "
                      f"{end:8.2e}  {rms:8.2e}  {inner:8.2e}  {open_pairs}")


if __name__ == "__main__":
    main()
