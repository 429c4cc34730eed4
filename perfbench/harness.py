"""Workloads, correctness gates and metrics of the pairslit benchmark.

One run executes one workload as a closed loop of passes, one after the
other in a single process, until the time budget is spent. Pass inputs are
derived from the run seed and the pass index, so the same seed gives the
same passes. Gates are checked after each pass, outside the timed region.

With tracing off the run reports the end-to-end metrics. With tracing on it
alternates an untraced and a traced execution of each pass and reports the
per-layer metrics from the traced ones.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import pairslit
import pairslit.cli
import reference
import tracer as tracing
import warmup

HERE = Path(__file__).resolve().parent
CLI_SCENARIOS = ("fig3a", "fig3b", "fig4a", "fig4b", "four-slit-check")
# Scenarios run at their shipped default seed rather than the pass seed.
# four-slit-check draws its test points from the seed, and its factorization
# property fails for about 12% of seeds (a defect in pairslit; see README.md).
DEFAULT_SEED_SCENARIOS = ("four-slit-check",)
ENSEMBLE_PAIRS = 250  # pairs per statistics in one ensemble pass
# An untraced run makes at least this many passes, so that at least ten pass
# times lie beyond the p75 reported as wall_s_p75.
MIN_PASSES = 40
COUNTED_PASSES = 4  # traced passes at least; exact counters are taken over them
SETUP_REPEATS = 11
TAIL_PERCENTILE = 75
TV_RATIO_BOUND = 1.5  # acceptance criterion 7
FIG4B_TOLERANCE = 1e-5  # in sigma0
# fig4b endpoints (y1, y2) / sigma0 for the lower particle released at
# -3.5, -5.0 and -6.5 sigma0, frozen from an independent high-order
# integration of the closed-form field (boson, slow regime).
FIG4B_ORACLE = (
    (5.3605167638, 3.4506732101),
    (4.7970700886, -4.7970700886),
    (4.9836632316, -13.7948532057),
)


@dataclass
class PassOutcome:
    attempted: int = 0
    failed: int = 0
    pairs: int = 0
    rows: int = 0
    aborted: int = 0
    problems: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    digest: str = ""

    def add(self, other: "PassOutcome") -> None:
        """Accumulate another pass's operation counts and gate results."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.aborted += other.aborted
        self.problems += other.problems
        self.errors += other.errors

    def fail_setup(self, text: str) -> None:
        """Count a failed set-up step as one failed operation and a failed gate."""
        self.attempted += 1
        self.failed += 1
        self.problems.append(f"set-up: {text}")


def pass_seeds(seed: int, index: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence([seed, index]).generate_state(count)]


def load_strict_json(text: str):
    """json.loads that refuses NaN and +-Infinity, which JSON does not allow."""

    def refuse(token):
        raise ValueError(f"non-JSON constant {token}")

    return json.loads(text, parse_constant=refuse)


def ensemble_problems(result, n_pairs: int) -> list[str]:
    """Gate failures of one transported ensemble (empty when it passes)."""
    ends = np.asarray(result.endpoints)
    problems = []
    if ends.ndim != 2 or ends.shape[1] != 2 or not np.all(np.isfinite(ends)):
        problems.append("endpoints are not a finite (n, 2) array")
    elif ends.shape[0] + result.aborted_count != n_pairs:
        problems.append(
            f"{ends.shape[0]} completed + {result.aborted_count} aborted != {n_pairs} requested"
        )
    distance, baseline = result.density_distance, result.density_distance_baseline
    if distance is None or baseline is None:
        problems.append("no density distance (fewer than 100 completed pairs)")
    elif not distance <= TV_RATIO_BOUND * baseline:
        problems.append(
            f"density distance {distance:.4f} > {TV_RATIO_BOUND} x baseline {baseline:.4f}"
        )
    return problems


def fig4b_problems(endpoints: list[tuple[float, float]]) -> list[str]:
    """Compare fig4b endpoints (units of sigma0) with the frozen oracle."""
    if len(endpoints) != len(FIG4B_ORACLE):
        return [f"fig4b wrote {len(endpoints)} trajectories, oracle has {len(FIG4B_ORACLE)}"]
    worst = max(
        abs(got - want)
        for end, ref in zip(endpoints, FIG4B_ORACLE)
        for got, want in zip(end, ref)
    )
    if not worst <= FIG4B_TOLERANCE:
        return [f"fig4b endpoint off the oracle by {worst:.3e} sigma0 (bound {FIG4B_TOLERANCE})"]
    return []


def _exception_text(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


class EnsembleWorkload:
    """run_ensemble on exact-rejection draws, boson then fermion, endpoints only."""

    def __init__(self, name: str, seed: int):
        x_speed, self.t_end = warmup.REGIMES[name]
        self.params = pairslit.PhysicalParams.baseline(x_speed=x_speed)
        self.seed = seed

    def inputs(self, index: int):
        seeds = pass_seeds(self.seed, index, 2)
        return [
            (stats, pairslit.SamplerConfig("exact_rejection", ENSEMBLE_PAIRS, s))
            for stats, s in zip(pairslit.SpinStatistics, seeds)
        ]

    def execute(self, inputs, tracer=None):
        runs = []
        for stats, sampler in inputs:
            try:
                result = pairslit.run_ensemble(
                    sampler, pairslit.IntegratorConfig(), stats, self.params, self.t_end
                )
            except Exception as exc:  # counted as failed pairs; the run goes on
                result = exc
            runs.append((stats, result))
        return runs

    def check(self, runs) -> PassOutcome:
        out = PassOutcome()
        digest = hashlib.sha256()
        for stats, result in runs:
            n = ENSEMBLE_PAIRS
            out.attempted += n
            out.pairs += n
            if isinstance(result, Exception):
                out.failed += n
                out.errors.append(f"{stats.value}: {_exception_text(result)}")
                digest.update(repr(result).encode())
                continue
            problems = ensemble_problems(result, n)
            out.aborted += result.aborted_count
            out.failed += n if problems else result.aborted_count
            out.problems += [f"{stats.value}: {p}" for p in problems]
            digest.update(stats.value.encode())
            digest.update(np.ascontiguousarray(result.endpoints, dtype=np.float64).tobytes())
            digest.update(str(result.aborted_count).encode())
        out.digest = digest.hexdigest()
        return out


@dataclass
class ScenarioRun:
    name: str
    out: Path
    code: int | None
    error: str | None
    output: str


class CliWorkload:
    """pairslit.cli.main on five scenarios, each into a fresh output directory."""

    def __init__(self, seed: int, out_root: Path):
        self.seed = seed
        self.out_root = out_root

    def inputs(self, index: int):
        pass_dir = Path(tempfile.mkdtemp(prefix=f"pass{index}-", dir=self.out_root))
        (cli_seed,) = pass_seeds(self.seed, index, 1)
        return pass_dir, [
            (name, [name, "--out", str(pass_dir / name)]
             + ([] if name in DEFAULT_SEED_SCENARIOS else ["--seed", str(cli_seed)]))
            for name in CLI_SCENARIOS
        ]

    def execute(self, inputs, tracer=None):
        pass_dir, calls = inputs
        runs = []
        for name, argv in calls:
            span = tracer.span("bench", f"scenario:{name}") if tracer else contextlib.nullcontext()
            captured = io.StringIO()
            code, error = None, None
            with span, contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                try:
                    code = pairslit.cli.main(argv)
                except Exception as exc:  # counted as a failed invocation
                    error = _exception_text(exc)
            runs.append(ScenarioRun(name, pass_dir / name, code, error, captured.getvalue()))
        return pass_dir, runs

    def check(self, executed) -> PassOutcome:
        pass_dir, runs = executed
        out = PassOutcome()
        digest = hashlib.sha256()
        try:
            for run in runs:
                out.attempted += 1
                try:
                    problems = self._scenario_problems(run, out, digest)
                except (ValueError, TypeError, KeyError, AttributeError) as exc:
                    problems = [f"outputs unreadable: {_exception_text(exc)}"]
                if run.error is not None:
                    out.failed += 1
                    out.errors.append(f"{run.name}: {run.error}")
                elif problems:
                    out.failed += 1
                    out.problems += [f"{run.name}: {p}" for p in problems]
        finally:
            shutil.rmtree(pass_dir, ignore_errors=True)
        out.digest = digest.hexdigest()
        return out

    @staticmethod
    def _scenario_problems(run: ScenarioRun, out: PassOutcome, digest) -> list[str]:
        digest.update(f"{run.name}:{run.code}:{run.error}".encode())
        if run.error is not None:
            return []
        problems = []
        if run.code != 0:
            lines = run.output.strip().splitlines() or [""]
            reason = next((line for line in lines if line.startswith("FAIL")), lines[-1])
            problems.append(f"exit code {run.code}: {reason}")
        try:
            summary = load_strict_json((run.out / "summary.json").read_text())
        except (OSError, ValueError) as exc:
            return problems + [f"summary.json unreadable: {exc}"]
        out.pairs += int(summary.get("n_requested", 0))
        if run.name == "four-slit-check" and summary.get("all_passed") is not True:
            problems.append("four-slit-check did not report all_passed")
        digest.update(json.dumps({k: v for k, v in summary.items() if k != "config"},
                                 sort_keys=True).encode())
        endpoints = []
        for csv_path in sorted(run.out.glob("trajectory_*.csv")):
            text = csv_path.read_text()
            digest.update(text.encode())
            lines = text.splitlines()
            if len(lines) < 2:
                problems.append(f"{csv_path.name} holds no data rows")
                continue
            out.rows += len(lines) - 1
            header = lines[0].split(",")
            last = lines[-1].split(",")
            try:
                endpoints.append(tuple(float(last[header.index(col)]) for col in ("y1", "y2")))
            except (ValueError, IndexError) as exc:
                problems.append(f"{csv_path.name}: no y1, y2 endpoint ({exc})")
        if run.name == "fig4b":
            sigma0 = pairslit.PhysicalParams.baseline().sigma0
            problems += fig4b_problems([(y1 / sigma0, y2 / sigma0) for y1, y2 in endpoints])
        return problems


def make_workload(name: str, seed: int, out_root: Path):
    if name == "cli_scenarios":
        return CliWorkload(seed, out_root)
    return EnsembleWorkload(name, seed)


def run_pass(workload, index: int, tracer=None, instrumentation=None):
    """Execute one pass; only the calls into the program are timed."""
    inputs = workload.inputs(index)
    patched = instrumentation if instrumentation is not None else contextlib.nullcontext()
    with patched:
        if tracer is not None:
            tracer.begin_pass()
        span = tracer.span("bench", f"pass:{index}") if tracer else contextlib.nullcontext()
        t0 = perf_counter()
        with span:
            executed = workload.execute(inputs, tracer)
        wall = perf_counter() - t0
    return wall, workload.check(executed)


def set_up(workload: str, totals: PassOutcome) -> list[dict]:
    """Probe set-up time in SETUP_REPEATS fresh interpreters, then warm up here.

    A probe or warm-up that fails is counted in totals and the run goes on.
    Returns the probes that succeeded.
    """
    probes = []
    for _ in range(SETUP_REPEATS):
        try:
            done = subprocess.run(
                [sys.executable, str(HERE / "setup_probe.py"), workload],
                capture_output=True, text=True, timeout=120, check=True,
            )
            probes.append(json.loads(done.stdout.strip().splitlines()[-1]))
        except subprocess.CalledProcessError as exc:
            lines = exc.stderr.strip().splitlines() or [f"exit code {exc.returncode}"]
            totals.fail_setup(f"probe failed: {lines[-1]}")
        except (subprocess.TimeoutExpired, ValueError, IndexError) as exc:
            totals.fail_setup(f"probe failed: {_exception_text(exc)}")
    try:
        warmup.warm_up(workload)
    except Exception as exc:  # counted; the timed passes still run
        totals.fail_setup(f"warm-up: {_exception_text(exc)}")
    return probes


def machine_facts() -> str:
    pinned = ",".join(f"{v}={os.environ.get(v)}" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"))
    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={np.__version__} pairslit={pairslit.__version__} threads: {pinned}")


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def _untraced_metrics(workload, seconds, totals, warm):
    clock = reference.HostClock()
    walls, scaled, pairs = [], [], 0
    deadline = perf_counter() + seconds
    index = 0
    while index < MIN_PASSES or perf_counter() < deadline:
        wall, outcome = run_pass(workload, index)
        scaled.append(wall * clock.scale())
        if index == 0 and outcome.digest != warm.digest:
            totals.problems.append("pass 0 gave different outputs on its second execution")
        totals.add(outcome)
        walls.append(wall)
        pairs += outcome.pairs
        index += 1
    _print_host(clock)
    tail = float(np.percentile(scaled, TAIL_PERCENTILE))
    beyond = sum(1 for w in scaled if w > tail)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "pairs_per_s": (pairs / sum(scaled), "pairs/s",
                        f"{pairs} pairs; raw {pairs / sum(walls):.6g} pairs/s"),
        "wall_s": (_median(scaled), "s",
                   f"median of {len(walls)} passes; raw {_median(walls):.6g} s"),
        f"wall_s_p{TAIL_PERCENTILE}": (
            tail, "s", f"p{TAIL_PERCENTILE} of {len(walls)} passes, {beyond} beyond it; "
            f"raw {np.percentile(walls, TAIL_PERCENTILE):.6g} s"),
        "peak_rss_mb": (peak_rss_mb, "MB", "peak resident set of the measuring process"),
    }


def _print_host(clock) -> None:
    loop = _median(clock.loops)
    print(f"host: calibration loop median {loop * 1e3:.3f} ms over {len(clock.loops)} runs, "
          f"nominal {reference.NOMINAL_S * 1e3:.3f} ms; times below are rescaled to the "
          f"nominal host (raw values in brackets)")


def _traced_metrics(workload, name, seed, seconds, totals, out_root):
    tracer = tracing.Tracer()
    instrumentation = tracing.Instrumentation(tracer)
    clock = reference.HostClock()
    plain, traced, stats = [], [], []
    counted_pairs = counted_evals = 0
    rows_first = None
    deadline = perf_counter() + seconds
    index = 0
    while index < COUNTED_PASSES or perf_counter() < deadline:
        wall0, outcome0 = run_pass(workload, index)
        plain.append(wall0 * clock.scale())
        wall1, outcome1 = run_pass(workload, index, tracer, instrumentation)
        scale = clock.scale()
        traced.append(wall1 * scale)
        stats.append((tracer.stats, scale))
        if outcome0.digest != outcome1.digest:
            totals.problems.append(f"pass {index} gave different outputs when traced")
        totals.add(outcome0)
        totals.add(outcome1)
        if index < COUNTED_PASSES:
            counted_pairs += outcome1.pairs
            counted_evals += tracer.stats.counts["evals"]
        if rows_first is None:
            rows_first = outcome1.rows
        index += 1
    _print_host(clock)

    def med(pick):  # a time per pass, rescaled to the nominal host
        return _median([pick(s) * scale for s, scale in stats])

    def rate(count, time):
        return _ratio(sum(count(s) for s, _ in stats), sum(time(s) * k for s, k in stats))

    metrics = {
        "kernels.evals_per_pair": (
            _ratio(counted_evals, counted_pairs), "count",
            f"{counted_evals} velocity evaluations over {counted_pairs} pairs "
            f"in the first {COUNTED_PASSES} passes"),
        "kernels.evals_per_s": (
            rate(lambda s: s.counts["evals"], lambda s: s.eval_s), "evals/s",
            "inside velocity-kernel spans"),
        "kernels.self_s": (med(lambda s: s.self_s["kernels"]), "s", "median per pass"),
        "integrator.self_s": (med(lambda s: s.self_s["integrator"]), "s", "median per pass"),
        "integrator.pairs_per_s": (
            rate(lambda s: s.counts["integrated"], lambda s: s.incl_s["integrator"]), "pairs/s",
            "trajectories returned per second inside integrator spans"),
        "ensemble.self_s": (med(lambda s: s.self_s["ensemble"]), "s", "median per pass"),
        "sampling.self_s": (med(lambda s: s.self_s["sampling"]), "s", "median per pass"),
        "sampling.draws_per_s": (
            rate(lambda s: s.counts["draws"], lambda s: s.incl_s["sampling"]), "draws/s",
            "initial pairs drawn per second inside sampler spans"),
        "scoring.tv_s": (med(lambda s: s.name_s["binned_tv_distance"]), "s", "median per pass"),
        "scoring.baseline_draw_s": (
            med(lambda s: s.incl_s[tracing.BASELINE_DRAW]), "s", "median per pass"),
        "cli.write_s": (med(lambda s: s.incl_s["cli.write"]), "s", "median per pass"),
        "cli.rows_written": (rows_first or 0, "count", "CSV data rows written by pass 0"),
    }
    for scenario in CLI_SCENARIOS:
        metrics[f"cli.scenario_s.{scenario}"] = (
            med(lambda s, k=f"scenario:{scenario}": s.name_s[k]), "s", "median per pass")
    metrics["fourslit.self_s"] = (med(lambda s: s.self_s["fourslit"]), "s", "median per pass")
    metrics["trace.overhead_ratio"] = (
        _ratio(_median(traced), _median(plain)), "ratio",
        f"median traced over median untraced pass, {len(traced)} pairs of passes")

    dump_path = out_root / f"trace-{name}-seed{seed}.json"
    with open(dump_path, "w") as fh:
        json.dump({"workload": name, "seed": seed, **tracer.dump()}, fh)
    print(f"spans: {len(tracer.spans)} recorded, {len(tracer.aggregated)} aggregated, "
          f"written to {dump_path.relative_to(out_root.parent)}")
    return metrics


def run(name: str, seed: int, seconds: float, trace: bool) -> int:
    out_root = HERE.parent / ".bench_out"
    out_root.mkdir(exist_ok=True)
    print(f"pairslit benchmark: workload={name} seed={seed} seconds={seconds} "
          f"trace={int(trace)} pairs_per_ensemble={ENSEMBLE_PAIRS}")
    print(f"machine: {machine_facts()}")

    totals = PassOutcome()  # over set-up and every executed pass
    probes = set_up(name, totals)
    workload = make_workload(name, seed, out_root)
    _, warm = run_pass(workload, 0)  # warm-up pass, re-executed as timed pass 0
    totals.add(warm)

    if trace:
        metrics = _traced_metrics(workload, name, seed, seconds, totals, out_root)
        metrics["scoring.bin_masses_cold_s"] = (
            _median([p["bin_masses_cold_s"] * p["scale"] for p in probes]), "s",
            f"median of {len(probes)} fresh processes")
    else:
        metrics = _untraced_metrics(workload, seconds, totals, warm)
        metrics["setup_s"] = (
            _median([p["setup_s"] * p["scale"] for p in probes]), "s",
            f"median of {len(probes)} fresh processes: import + warm-up; "
            f"raw {_median([p['setup_s'] for p in probes]):.6g} s")

    for metric, (value, unit, detail) in metrics.items():
        print(f"{metric} = {value:.6g} {unit}  ({detail})")
    failed_fraction = _ratio(totals.failed, totals.attempted)
    print(f"failed_fraction = {failed_fraction:.6g}  ({totals.failed} of {totals.attempted} "
          f"operations; {totals.aborted} node-proximity aborts, {len(totals.errors)} escaped "
          f"exceptions, {len(totals.problems)} gate failures)")
    print(f"digest of pass 0: {warm.digest}")
    for line, count in Counter(totals.errors).most_common(10):
        print(f"exception (x{count}): {line}")
    for line, count in Counter(totals.problems).most_common(10):
        print(f"GATE FAILED (x{count}): {line}")
    correct = not totals.problems
    print(json.dumps({
        "correct": correct,
        "attempted": totals.attempted,
        "failed": totals.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0 if correct else 1
