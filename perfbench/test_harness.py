"""Smoke test of the benchmark harness at a tiny size.

Run from the repository root (takes about a minute):

    python3 -m pytest -q perfbench/test_harness.py

It checks that every metric named in BENCHMARK.json is printed with its unit,
that the exact counters repeat for a repeated seed, and that the correctness
gates fire on deliberately wrong outputs.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import env  # noqa: E402

env.prepare()

import harness  # noqa: E402
import pairslit  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SLOW = pairslit.PhysicalParams.baseline(x_speed=2.0e6)
T_SLOW = 1.0e-7
_runs: dict = {}


def bench(workload: str, trace: int, seed: int = 3, fresh: bool = False):
    """Run the benchmark command for its shortest time; cached per arguments."""
    key = (workload, trace, seed)
    if fresh or key not in _runs:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
             "--seconds", "0.2", "--trace", str(trace)],
            capture_output=True, text=True, timeout=300, cwd=ROOT,
        )
        lines = done.stdout.strip().splitlines()
        assert lines, done.stderr
        _runs[key] = (done.returncode, lines, json.loads(lines[-1]))
    return _runs[key]


def printed(lines, name):
    return next(line for line in lines if line.startswith(f"{name} = "))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    code, lines, result = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert f" {unit}  (" in printed(lines, name)
    assert printed(lines, "failed_fraction")
    assert any(line.startswith("pairslit benchmark:") and "seed=3" in line for line in lines)
    assert result["attempted"] >= 1
    assert code == (0 if result["correct"] else 1)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_workload_passes_every_gate(workload):
    code, _, result = bench(workload, 0)
    assert (code, result["correct"], result["failed"]) == (0, True, 0)


@pytest.mark.parametrize("workload", ["ensemble_fast", "cli_scenarios"])
def test_exact_counters_repeat_for_a_repeated_seed(workload):
    _, first, one = bench(workload, 1)
    _, second, two = bench(workload, 1, fresh=True)
    for name in ("kernels.evals_per_pair", "cli.rows_written"):
        assert one["metrics"][name]["value"] == two["metrics"][name]["value"]
    for prefix in ("digest of pass 0:", "failed_fraction ="):
        assert [x for x in first if x.startswith(prefix)] == [x for x in second if x.startswith(prefix)]


def _scored(points, stats=pairslit.SpinStatistics.BOSON):
    distance, baseline = pairslit.density_distance(points, stats, SLOW, T_SLOW)
    return SimpleNamespace(endpoints=points, aborted_count=0,
                           density_distance=distance, density_distance_baseline=baseline)


def test_density_gate_passes_exact_draws_and_fires_on_untransported_endpoints():
    rng = np.random.default_rng(5)
    stats = pairslit.SpinStatistics.BOSON
    right = pairslit.sample_joint_y(250, T_SLOW, stats, SLOW, rng)
    wrong = pairslit.sample_joint_y(250, 0.0, stats, SLOW, rng)
    assert harness.ensemble_problems(_scored(right), 250) == []
    assert any("density distance" in p for p in harness.ensemble_problems(_scored(wrong), 250))


def test_ensemble_gate_fires_on_missing_or_broken_endpoints():
    rng = np.random.default_rng(6)
    ends = pairslit.sample_joint_y(120, T_SLOW, pairslit.SpinStatistics.BOSON, SLOW, rng)
    assert harness.ensemble_problems(_scored(ends), 121)  # one pair unaccounted for
    broken = _scored(ends)
    broken.endpoints = ends.copy()
    broken.endpoints[0, 0] = np.nan
    assert harness.ensemble_problems(broken, 120)
    broken = _scored(ends)
    broken.density_distance = None
    assert harness.ensemble_problems(broken, 120)


def test_fig4b_gate():
    assert harness.fig4b_problems(list(harness.FIG4B_ORACLE)) == []
    shifted = [(y1 + 2e-5, y2) for y1, y2 in harness.FIG4B_ORACLE]
    assert harness.fig4b_problems(shifted)
    assert harness.fig4b_problems(list(harness.FIG4B_ORACLE[:2]))


def test_strict_json_rejects_nan():
    assert harness.load_strict_json('{"a": 1.5, "b": null}') == {"a": 1.5, "b": None}
    for text in ('{"a": NaN}', '{"a": Infinity}', '{"a": -Infinity}'):
        with pytest.raises(ValueError):
            harness.load_strict_json(text)


def test_cli_gates_fire_on_exit_code_summary_and_four_slit_report(tmp_path):
    def scenario(name, code, summary_text):
        out = tmp_path / name
        out.mkdir()
        (out / "summary.json").write_text(summary_text)
        return harness.ScenarioRun(name, out, code, None, "FAIL  some property\n")

    runs = [
        scenario("fig3a", 2, '{"n_requested": 25}'),
        scenario("fig3b", 0, '{"n_requested": 25, "same_side_fraction": NaN}'),
        scenario("four-slit-check", 0, '{"all_passed": false}'),
        scenario("fig4a", 0, '{"n_requested": 3}'),
    ]
    outcome = harness.CliWorkload(0, tmp_path).check((tmp_path, runs))
    assert (outcome.attempted, outcome.failed) == (4, 3)
    assert any("exit code 2: FAIL  some property" in p for p in outcome.problems)
    assert any("summary.json unreadable" in p for p in outcome.problems)
    assert any("all_passed" in p for p in outcome.problems)
    assert not tmp_path.exists()  # the pass directory is removed after checking


def test_cli_gate_fires_on_truncated_trajectory_csv(tmp_path):
    out = tmp_path / "fig4a"
    out.mkdir()
    (out / "summary.json").write_text('{"n_requested": 2}')
    (out / "trajectory_000.csv").write_text("t,y1,y2\n")
    (out / "trajectory_001.csv").write_text("t,y1,y2\n0.0,1.5\n")
    run = harness.ScenarioRun("fig4a", out, 0, None, "")
    outcome = harness.CliWorkload(0, tmp_path).check((tmp_path, [run]))
    assert (outcome.attempted, outcome.failed) == (1, 1)
    assert any("trajectory_000.csv holds no data rows" in p for p in outcome.problems)
    assert any("trajectory_001.csv: no y1, y2 endpoint" in p for p in outcome.problems)


def test_escaping_exception_is_counted_and_the_pass_goes_on(monkeypatch):
    workload = harness.EnsembleWorkload("ensemble_fast", seed=1)
    real = pairslit.run_ensemble

    def flaky(sampler, integrator, stats, p, t_end):
        if stats is pairslit.SpinStatistics.FERMION:
            raise pairslit.StepUnderflowError("needed step below h_min")
        return real(sampler, integrator, stats, p, t_end)

    monkeypatch.setattr(pairslit, "run_ensemble", flaky)
    _, outcome = harness.run_pass(workload, 0)
    n = harness.ENSEMBLE_PAIRS
    assert (outcome.attempted, outcome.failed, outcome.problems) == (2 * n, n, [])
    assert outcome.errors == ["fermion: StepUnderflowError: needed step below h_min"]


def test_failed_setup_probe_and_warm_up_are_counted(monkeypatch):
    def broken_probe(*args, **kwargs):
        raise subprocess.CalledProcessError(1, args[0], "", "Traceback\nStepUnderflowError: h\n")

    def broken_warm_up(name):
        raise pairslit.StepUnderflowError("needed step below h_min")

    monkeypatch.setattr(harness.subprocess, "run", broken_probe)
    monkeypatch.setattr(harness.warmup, "warm_up", broken_warm_up)
    totals = harness.PassOutcome()
    assert harness.set_up("ensemble_fast", totals) == []
    n = harness.SETUP_REPEATS + 1
    assert (totals.attempted, totals.failed, len(totals.problems)) == (n, n, n)
    assert "set-up: probe failed: StepUnderflowError: h" in totals.problems
    assert "set-up: warm-up: StepUnderflowError: needed step below h_min" in totals.problems
