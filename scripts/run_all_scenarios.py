"""Run every built-in scenario into one output tree and summarize the results.

Usage:
    python3 scripts/run_all_scenarios.py [--root RUNS_DIR] [--seed SEED]

Each scenario writes trajectory CSVs plus summary.json into
RUNS_DIR/<scenario>/. The script prints one line per scenario and exits
nonzero if any scenario does. The configs pass the same validator as the
CLI's flags, so a negative seed prints its config error and exits 1 before
any scenario runs.
"""

import argparse
import json
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
        name = cfg.scenario
        code = run_scenario(cfg)
        worst = max(worst, code)
        summary_path = root / name / "summary.json"
        note = ""
        if summary_path.exists():
            summary = json.loads(summary_path.read_text())
            done = summary.get("n_completed")
            if done is not None:
                note = f" ({done}/{cfg.sampler.n_pairs} trajectories)"
            elif "all_passed" in summary:
                note = f" (all_passed={summary['all_passed']})"
        print(f"{name}: exit {code}{note} -> {root / name}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
