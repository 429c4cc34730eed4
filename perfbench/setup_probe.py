"""Time set-up in a fresh interpreter: import pairslit, then warm up.

Usage: python3 perfbench/setup_probe.py <workload>
Prints one JSON object with setup_s, its parts, and the factor that maps
them to the nominal host of reference.py.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

import env
import reference


def main() -> None:
    env.prepare()
    workload = sys.argv[1]
    before = reference.loop_seconds()
    t0 = perf_counter()
    importlib.import_module("pairslit.cli" if workload == "cli_scenarios" else "pairslit")
    import warmup

    t1 = perf_counter()
    parts = warmup.warm_up(workload)
    parts["import_s"] = t1 - t0
    parts["setup_s"] = perf_counter() - t0
    parts["scale"] = reference.NOMINAL_S / (0.5 * (before + reference.loop_seconds()))
    print(json.dumps(parts))


if __name__ == "__main__":
    main()
