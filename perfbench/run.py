"""Benchmark entry point for pairslit.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ensemble_slow --seed 1 --seconds 20 --trace 0

Prints every metric with its unit and, as the last line, one JSON object
with the keys correct, attempted, failed and metrics. Exits 1 when a
correctness gate fails and 2 when the checkout holds no pairslit sources.
"""

from __future__ import annotations

import argparse
import sys

import env


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("ensemble_slow", "ensemble_fast", "cli_scenarios"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    env.prepare()  # pins threads before numpy loads
    import harness

    return harness.run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
