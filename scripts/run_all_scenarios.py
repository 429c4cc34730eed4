"""Run every built-in scenario into one output tree and summarize the results.

Usage:
    python3 scripts/run_all_scenarios.py [--root RUNS_DIR] [--seed SEED]

Each scenario writes trajectory CSVs plus summary.json into
RUNS_DIR/<scenario>/ through the CLI's run_scenario, which prints the
scenario's own lines, or one "error:" line on stderr when the run fails.
The script then prints "<scenario>: exit <code>", goes on with the next
scenario and exits with the worst code. The configs pass the same validator
as the CLI's flags, so a negative seed prints its config error and exits 1
before any scenario runs.
"""

import argparse
import sys
from pathlib import Path

from pairslit import ConfigError
from pairslit.cli import SCENARIOS, run_scenario, validate_config


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default="runs", help="output root directory (default: runs)")
    ap.add_argument("--seed", type=int, default=None, help="override the sampler seed everywhere")
    args = ap.parse_args(argv)

    root = Path(args.root)
    # every config passes the CLI's validator before any scenario runs
    try:
        configs = [
            validate_config(None, name, {"--out": str(root / name), "--seed": args.seed})
            for name in SCENARIOS
            if name != "custom"
        ]
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 1
    worst = 0
    for cfg in configs:
        code = run_scenario(cfg)
        print(f"{cfg.scenario}: exit {code}")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
