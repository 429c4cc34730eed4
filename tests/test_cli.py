import contextlib
import csv
import importlib.util
import io
import json
import math
import os
import re
import struct
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pairslit import (
    ConfigError,
    SpinStatistics,
    TrajectoryStatus,
    __version__,
)
from pairslit.cli import (
    SCENARIOS,
    ScenarioConfig,
    _BATCH_ROWS,
    _build_parser,
    _format_csv_rows,
    _write_trajectory_csvs,
    default_config,
    main,
    run_scenario,
    serialize_config,
    validate_config,
)
from pairslit.integrator import integrate_pairs
from pairslit.params import _MAX_BETA


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def test_scenario_names_complete():
    assert set(SCENARIOS) == {
        "fig3a",
        "fig3b",
        "fig4a",
        "fig4b",
        "four-slit-check",
        "equivariance",
        "custom",
    }


def test_default_configs():
    fast = default_config("fig3a")
    slow = default_config("fig3b")
    assert fast.params.x_speed == pytest.approx(2e7)
    assert slow.params.x_speed == pytest.approx(2e6)
    assert fast.sampler.method == "independent_gaussian" and fast.sampler.n_pairs == 25
    assert default_config("fig4a").sampler.method == "exact_rejection"
    assert default_config("equivariance").sampler.method == "exact_rejection"
    assert default_config("custom").stats is SpinStatistics.BOSON
    with pytest.raises(ConfigError):
        default_config("fig5")


def test_serialize_round_trip(tmp_path):
    for scenario in SCENARIOS:
        cfg = default_config(scenario)
        path = write_json(tmp_path / f"{scenario}.json", serialize_config(cfg))
        assert validate_config(path, expected_scenario=scenario) == cfg


def test_readme_schema_is_the_custom_default():
    # the section keys come from the dataclass fields, so a new field would
    # widen the config schema; the README documents it in field order
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = json.loads(readme.split("```json\n", 1)[1].split("```", 1)[0])
    schema = serialize_config(default_config("custom"))
    assert block == schema
    for section in ("params", "sampler", "integrator"):
        assert list(block[section]) == list(schema[section])


def test_validate_collects_all_problems(tmp_path):
    payload = {
        "scenario": "custom",
        "junk": 1,
        "params": {"sigma0": -2.0, "bogus": 7},
        "sampler": {"n_pairs": "ten", "seed": 1.5},
        "integrator": {"rel_tol": "tight", "abs_tol": 0},
        "stats": "anyon",
        "output_dir": "",
    }
    path = write_json(tmp_path / "bad.json", payload)
    with pytest.raises(ConfigError) as exc:
        validate_config(path)
    problems = "\n".join(exc.value.problems)
    for needle in (
        "junk: unknown key",
        "params.bogus: unknown key",
        "params.sigma0 must be > 0",
        "sampler.n_pairs: expected an integer",
        "sampler.seed: expected an integer",
        "integrator.rel_tol: expected a number",
        "integrator.abs_tol must be finite and > 0",
        "stats: expected 'boson' or 'fermion'",
        "output_dir: expected a non-empty string",
    ):
        assert needle in problems
    # each tolerance is checked on its own, so a problem names its key
    path = write_json(tmp_path / "tol.json", {"integrator": {"rel_tol": -1, "abs_tol": 0}})
    with pytest.raises(ConfigError) as exc:
        validate_config(path)
    assert exc.value.problems == ["integrator.rel_tol must be finite and > 0"]


def test_named_scenario_pins_physics(tmp_path):
    path = write_json(tmp_path / "pin.json", {"scenario": "fig3a", "params": {"sigma0": 2e-6}})
    with pytest.raises(ConfigError, match="pins this"):
        validate_config(path, expected_scenario="fig3a")
    # an exact echo of the pinned values is not an override
    pinned = serialize_config(default_config("fig3a"))["params"]
    path = write_json(tmp_path / "echo.json", {"scenario": "fig3a", "params": pinned})
    assert validate_config(path, expected_scenario="fig3a") == default_config("fig3a")


# the settings each scenario's run does not read: fig4a and fig4b start three
# pairs from fixed releases, and the four-slit checks test both statistics
# and integrate boson pairs of their own; such a setting would be recorded
# in summary.json but not used
PINNED = {
    "fig4a": ("sampler.method", "sampler.n_pairs"),
    "fig4b": ("sampler.method", "sampler.n_pairs"),
    "four-slit-check": ("sampler.method", "sampler.n_pairs", "stats"),
}
OVERRIDES = {"sampler.method": "independent_gaussian", "sampler.n_pairs": 7, "stats": "fermion"}
# the config key each flag sets
FLAG_KEYS = {"--seed": "sampler.seed", "--n-pairs": "sampler.n_pairs", "--stats": "stats",
             "--rel-tol": "integrator.rel_tol", "--abs-tol": "integrator.abs_tol",
             "--out": "output_dir"}
FLAG_OF = {key: flag for flag, key in FLAG_KEYS.items()}


def nested(values):
    """A config object holding values, keyed by dotted config keys."""
    config = {}
    for key, value in values.items():
        section, _, name = key.rpartition(".")
        (config.setdefault(section, {}) if section else config)[name] = value
    return config


@pytest.mark.parametrize("scenario", list(PINNED))
def test_fixed_release_scenarios_pin_their_sampler(tmp_path, capsys, scenario):
    keys = PINNED[scenario]
    path = write_json(tmp_path / "pin.json",
                      {"scenario": scenario, **nested({k: OVERRIDES[k] for k in keys})})
    with pytest.raises(ConfigError) as exc:
        validate_config(path, expected_scenario=scenario)
    assert [problem.split(":")[0] for problem in exc.value.problems] == list(keys)
    assert all("pins this" in problem for problem in exc.value.problems)
    assert run_main(tmp_path, scenario, "--config", path) == 1
    assert not (tmp_path / "out").exists()
    # a flag is refused alike, and named first
    flags = [arg for key in keys if key in FLAG_OF for arg in (FLAG_OF[key], str(OVERRIDES[key]))]
    capsys.readouterr()
    assert run_main(tmp_path, scenario, *flags) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"config error: {FLAG_OF[problem.split(':')[0]]}: {problem}"
        for problem in exc.value.problems if problem.split(":")[0] in FLAG_OF]
    assert not (tmp_path / "out").exists()
    # an exact echo validates, and the seed stays settable
    echo = serialize_config(default_config(scenario))
    pinned = {**echo["sampler"], "seed": 5}
    path = write_json(tmp_path / "echo.json", {"scenario": scenario, "sampler": pinned,
                                               "stats": echo["stats"]})
    cfg = validate_config(path, expected_scenario=scenario)
    assert cfg.sampler == replace(default_config(scenario).sampler, seed=5)
    assert validate_config(None, scenario, {"--seed": 5, "--n-pairs": pinned["n_pairs"],
                                            "--stats": echo["stats"]}) == cfg


def test_scenario_subcommand_mismatch(tmp_path):
    path = write_json(tmp_path / "mismatch.json", {"scenario": "fig3a"})
    with pytest.raises(ConfigError, match="subcommand"):
        validate_config(path, expected_scenario="fig3b")


def test_config_version_checked(tmp_path, capsys):
    # version 1 carried params.ky, version 2 the integrator step bounds
    for version in (1, 2, 9):
        path = write_json(tmp_path / "v.json", {"scenario": "custom", "config_version": version})
        with pytest.raises(ConfigError, match="config_version"):
            validate_config(path)
        assert run_main(tmp_path, "custom", "--config", path, "--n-pairs", "5") == 1
        assert "config error: config_version: " in capsys.readouterr().err


@pytest.mark.parametrize("integrator", [
    {"h_max": -math.inf},
    {"h_min": 1e-9, "h_init": 1e-20},
    {"h_max": 1e-30},
])
def test_step_bounds_are_unknown_keys(tmp_path, capsys, integrator):
    # the controller sizes every step from the tolerances alone
    path = write_json(tmp_path / "c.json", {"integrator": integrator})
    assert run_main(tmp_path, "custom", "--config", path, "--n-pairs", "5") == 1
    err = capsys.readouterr().err
    for key in integrator:
        assert f"config error: integrator.{key}: unknown key" in err


def test_invalid_json_reported(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        validate_config(str(path))


def test_missing_file_reported(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        validate_config(str(tmp_path / "nope.json"))


def test_custom_config_overrides(tmp_path):
    payload = {
        "scenario": "custom",
        "stats": "fermion",
        "params": {"Y": 4e-6, "sigma0": 2e-6},
        "sampler": {"method": "independent_gaussian", "n_pairs": 5, "seed": 42},
        "integrator": {"rel_tol": 1e-8, "density_floor": 1e-10},
        "output_dir": "elsewhere",
    }
    cfg = validate_config(write_json(tmp_path / "c.json", payload), expected_scenario="custom")
    assert cfg.stats is SpinStatistics.FERMION
    assert cfg.params.Y == 4e-6 and cfg.params.sigma0 == 2e-6
    assert cfg.sampler.n_pairs == 5 and cfg.sampler.seed == 42
    assert cfg.integrator.rel_tol == 1e-8 and cfg.integrator.density_floor == 1e-10
    assert cfg.output_dir == "elsewhere"


def test_empty_config_is_baseline(tmp_path):
    path = write_json(tmp_path / "empty.json", {})
    assert validate_config(path, expected_scenario="custom") == default_config("custom")


def run_main(tmp_path, *argv):
    return main([*argv, "--out", str(tmp_path / "out")])


def test_main_custom_run(tmp_path):
    code = run_main(tmp_path, "custom", "--n-pairs", "6", "--seed", "3")
    assert code == 0
    out = tmp_path / "out"
    csvs = sorted(out.glob("trajectory_*.csv"))
    assert len(csvs) == 6
    with open(csvs[0]) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "x1", "y1", "x2", "y2", "vy1", "vy2"]
    assert len(rows) == 1 + 101
    start = [float(v) for v in rows[1]]
    assert start[0] == 0.0 and start[1] == 0.0
    end = [float(v) for v in rows[-1]]
    assert end[0] == pytest.approx(1e-8)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["scenario"] == "custom"
    assert summary["seed"] == 3
    assert summary["version"] == __version__
    assert summary["n_completed"] == 6
    assert summary["config"]["sampler"]["n_pairs"] == 6


def test_main_fig4a_symmetric_tracks(tmp_path):
    code = run_main(tmp_path, "fig4a")
    assert code == 0
    out = tmp_path / "out"
    csvs = sorted(out.glob("trajectory_*.csv"))
    assert len(csvs) == 3
    for path in csvs:
        with open(path) as fh:
            rows = list(csv.reader(fh))[1:]
        for row in rows:
            y1, y2 = float(row[2]), float(row[4])
            assert y2 == -y1


def test_main_fig4b_crossing(tmp_path):
    assert run_main(tmp_path, "fig4b") == 0
    with open(tmp_path / "out" / "trajectory_000.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    assert float(rows[0][4]) == pytest.approx(-3.5e-6)
    assert float(rows[-1][4]) > 0.0  # lower-slit particle ends above the axis


def test_main_stats_flag(tmp_path):
    assert run_main(tmp_path, "custom", "--n-pairs", "4", "--stats", "fermion") == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["config"]["stats"] == "fermion"


def test_main_n_pairs_refused_for_pinned_initials(tmp_path, capsys):
    # a flag passes the checks of the key it sets: fig4a pins sampler.n_pairs
    assert run_main(tmp_path, "fig4a", "--n-pairs", "7") == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: --n-pairs: sampler.n_pairs: the 'fig4a' scenario pins this")
    assert not (tmp_path / "out").exists()
    # an exact echo of the pinned count runs
    assert run_main(tmp_path, "fig4a", "--n-pairs", "3") == 0
    assert len(list((tmp_path / "out").glob("trajectory_*.csv"))) == 3


def test_main_bad_config_exit_code(tmp_path, capsys):
    # JSON reads 1e400 as inf; Infinity and NaN are extensions that json accepts.
    # sigma0 1e-300 underflows tau to 0; L 1e-300 underflows the flight time to
    # 0; m 1e300 overflows tau to inf. Y 1e8 = 1e14 sigma0 is beyond what float64
    # positions resolve on the 0.02 sigma0 grid of the t = 0 density peak; at
    # Y 1e13 its grid indices overflowed int64 and the run ended in a TypeError.
    for bad in (
        '"params": {"sigma0": -1}',
        '"sampler": {"seed": -1}',
        '"integrator": {"rel_tol": 1e400}',
        '"params": {"sigma0": Infinity}',
        '"params": {"L": NaN}',
        '"params": {"sigma0": 1e-300}',
        '"params": {"L": 1e-300}',
        '"params": {"m": 1e300}',
        '"params": {"Y": 1e8}',
        '"params": {"Y": 1e13}',
    ):
        path = tmp_path / "bad.json"
        path.write_text(f'{{"scenario": "custom", {bad}}}')
        code = run_main(tmp_path, "custom", "--config", str(path), "--n-pairs", "5")
        assert code == 1
        assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("section, key", [("params", "sigma0"), ("integrator", "rel_tol")])
def test_integer_beyond_the_float_range_is_a_config_error(tmp_path, capsys, section, key):
    # JSON reads it as an exact int, which overflowed where the run made it a float
    path = tmp_path / "big.json"
    path.write_text(f'{{"{section}": {{"{key}": 1{"0" * 400}}}}}')
    assert run_main(tmp_path, "custom", "--config", str(path), "--n-pairs", "2") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {section}.{key}: expected a finite number, got 1000")
    assert "Traceback" not in err and not (tmp_path / "out").exists()


def test_successive_main_calls_see_only_their_own_arguments(tmp_path, monkeypatch):
    # the parser is built once per process and reused by every main call
    assert _build_parser() is _build_parser()
    seen = []
    monkeypatch.setattr("pairslit.cli.run_scenario", lambda cfg: seen.append(cfg) or 0)
    config = write_json(tmp_path / "c.json", {"integrator": {"density_floor": 1e-9}})
    assert main(["custom", "--config", config, "--seed", "7", "--stats", "fermion",
                 "--rel-tol", "1e-8", "--out", str(tmp_path / "a")]) == 0
    assert main(["fig3a", "--n-pairs", "4"]) == 0
    first, second = seen
    assert (first.scenario, first.sampler.seed, first.stats) == ("custom", 7, SpinStatistics.FERMION)
    assert (first.integrator.rel_tol, first.integrator.density_floor) == (1e-8, 1e-9)
    assert first.output_dir == str(tmp_path / "a")
    assert second == replace(default_config("fig3a"),
                             sampler=replace(default_config("fig3a").sampler, n_pairs=4))


@pytest.mark.parametrize("scenario", [s for s in SCENARIOS if s != "custom"])
def test_replayed_config_reproduces_the_run(tmp_path, capsys, scenario):
    # summary.json records the resolved config; running it again as --config
    # must write the same files
    first, second = tmp_path / "first", tmp_path / "second"
    stats = [] if "stats" in PINNED.get(scenario, ()) else ["--stats", "fermion"]
    assert main([scenario, "--seed", "7", *stats, "--out", str(first)]) in (0, 2)
    summary = json.loads((first / "summary.json").read_text())
    config = write_json(tmp_path / "replay.json", summary["config"])
    assert main([scenario, "--config", config, "--out", str(second)]) in (0, 2)
    csvs = sorted(path.name for path in first.glob("*.csv"))
    assert csvs == sorted(path.name for path in second.glob("*.csv"))
    for name in csvs:
        assert (first / name).read_bytes() == (second / name).read_bytes()
    replayed = json.loads((second / "summary.json").read_text())
    assert replayed["config"].pop("output_dir") == str(second)
    summary["config"].pop("output_dir")
    assert replayed == summary


def test_main_bad_usage_exit_code(capsys):
    assert main(["fig9"]) == 1
    assert main([]) == 1


def test_main_version_flag(capsys):
    assert main(["--version"]) == 0
    assert __version__ in capsys.readouterr().out


def test_module_entry_point_runs_the_cli():
    # python -m runs src/pairslit/__main__.py, which nothing imports
    path = [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run([sys.executable, "-m", "pairslit", "--version"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, f"pairslit {__version__}\n", "")


def test_main_abort_threshold_exit_code(tmp_path, capsys):
    payload = {
        "scenario": "custom",
        "sampler": {"n_pairs": 5, "method": "exact_rejection"},
        "integrator": {"density_floor": 0.9},
    }
    path = write_json(tmp_path / "aborty.json", payload)
    code = run_main(tmp_path, "custom", "--config", path)
    assert code == 2
    assert "abort fraction" in capsys.readouterr().err


def test_run_scenario_four_slit_check(tmp_path, capsys):
    cfg = replace(default_config("four-slit-check"), output_dir=str(tmp_path / "fsc"))
    assert isinstance(cfg, ScenarioConfig)
    assert run_scenario(cfg) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5 and "FAIL" not in out
    report = json.loads((tmp_path / "fsc" / "summary.json").read_text())
    assert report["all_passed"] is True
    assert len(report["checks"]) == 5


@pytest.mark.parametrize("seed", range(40))
def test_four_slit_check_passes_for_every_seed(tmp_path, capsys, seed):
    assert run_main(tmp_path, "four-slit-check", "--seed", str(seed)) == 0
    assert "FAIL" not in capsys.readouterr().out


def _refuse_nan(token):
    raise ValueError(f"non-standard JSON constant {token}")


# no step above 1e-12 of the span meets these tolerances
UNDERFLOW = {"rel_tol": 1e-100, "abs_tol": 1e-100}


@pytest.mark.parametrize("integrator", [{"density_floor": 0.99}, UNDERFLOW],
                         ids=["start_below_floor", "step_underflow"])
def test_four_slit_check_fails_when_a_pair_is_not_integrated(tmp_path, capsys, integrator):
    path = write_json(tmp_path / "c.json", {"integrator": integrator})
    assert run_main(tmp_path, "four-slit-check", "--config", path) == 2
    out, err = capsys.readouterr()
    assert "FAIL  mapped trajectories" in out and "2 of 2 pairs could not be integrated" in out
    assert "Traceback" not in err
    text = (tmp_path / "out" / "summary.json").read_text()
    assert json.loads(text, parse_constant=_refuse_nan)["all_passed"] is False


@pytest.mark.parametrize("scenario", ["custom", "four-slit-check"])
def test_step_budget_ends_a_run_that_cannot_meet_its_tolerance(tmp_path, scenario):
    # at 1e-25 error control accepts only steps just above the smallest one, so
    # a pair would need far more steps than its budget allows; the run ends
    n_pairs = ["--n-pairs", "1"] if scenario == "custom" else []  # four-slit-check pins it
    code = run_main(tmp_path, scenario, "--rel-tol", "1e-25", "--abs-tol", "1e-25", *n_pairs)
    assert code == 2
    text = (tmp_path / "out" / "summary.json").read_text()
    summary = json.loads(text, parse_constant=_refuse_nan)
    if scenario == "custom":
        assert (summary["n_completed"], summary["aborted_count"]) == (0, 1)
    else:
        assert summary["all_passed"] is False


def test_wide_slits_run_in_bounded_memory(tmp_path):
    # Y = 1000 sigma0: a 2-D search for the t = 0 density peak would need a
    # 1e10-point grid (75 GiB). Y = 1 m = 1e6 sigma0: the whole line y2 = -y1
    # would need 1e8 points (763 MiB); the search evaluates about 1,200. Y = 9e7 m
    # is just below the widest accepted, 0.02 * 2**52 sigma0.
    for Y in (1e-3, 1.0, 1e4, 9e7):
        path = write_json(tmp_path / "c.json", {"params": {"Y": Y}})
        assert run_main(tmp_path, "custom", "--config", path, "--n-pairs", "5") == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["n_completed"] == 5


@pytest.mark.parametrize("source", ["flag", "config"])
def test_pair_count_too_large_to_allocate_is_an_error(tmp_path, capsys, source):
    # numpy refuses the (10^15, 2) float64 release array (16 PB, beyond any
    # address space) before it allocates any of it
    n_pairs = 10**15
    if source == "flag":
        args = ("--n-pairs", str(n_pairs))
    else:
        args = ("--config", write_json(tmp_path / "c.json", {"sampler": {"n_pairs": n_pairs}}))
    assert run_main(tmp_path, "fig3a", *args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_summary_is_strict_json_when_nothing_completes(tmp_path):
    path = write_json(tmp_path / "floor.json", {
        "scenario": "custom",
        "sampler": {"n_pairs": 3},
        "integrator": {"density_floor": 0.99},
    })
    assert run_main(tmp_path, "custom", "--config", path) == 2
    text = (tmp_path / "out" / "summary.json").read_text()
    summary = json.loads(text, parse_constant=_refuse_nan)
    assert summary["n_completed"] == 0
    assert summary["same_side_fraction"] is None


def test_step_underflow_is_counted_as_abort(tmp_path, capsys):
    # 3 pairs take the scalar loop, 40 the batch loop; in both, an underflow
    # leaves the pair's status None
    for n_pairs in (3, 40):
        path = write_json(tmp_path / "underflow.json", {
            "scenario": "equivariance",
            "sampler": {"n_pairs": n_pairs},
            "integrator": UNDERFLOW,
        })
        assert run_main(tmp_path, "equivariance", "--config", path) == 2
        assert "abort fraction" in capsys.readouterr().err
        text = (tmp_path / "out" / "summary.json").read_text()
        summary = json.loads(text, parse_constant=_refuse_nan)
        assert (summary["n_requested"], summary["aborted_count"]) == (n_pairs, n_pairs)
        assert summary["n_completed"] == 0 and summary["same_side_fraction"] is None


def test_ky_config_is_a_config_error(tmp_path, capsys):
    path = write_json(tmp_path / "ky.json", {"scenario": "custom", "params": {"ky": 1000.0}})
    assert run_main(tmp_path, "custom", "--config", path) == 1
    assert "params.ky: unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--n-pairs", "0"),
    ("--n-pairs", str(2**53 + 1)),
    ("--n-pairs", str(2**63)),  # numpy refuses this shape with a ValueError
    ("--rel-tol", "-1"),
    ("--abs-tol", "0"),
    ("--rel-tol", "nan"),
    ("--abs-tol", "inf"),
    ("--seed", "-1"),
])
def test_bad_flag_value_is_a_config_error(tmp_path, capsys, flag, value):
    assert run_main(tmp_path, "fig3a", flag, value) == 1
    assert f"config error: {flag}: " in capsys.readouterr().err


X_SPEED = 2e6


def _savetxt_bytes(rows):
    """np.savetxt of one pair's sample rows (t, y1, y2, vy1, vy2), released at x = 0."""
    t, y1, y2, vy1, vy2 = rows.T
    buf = io.BytesIO()
    np.savetxt(buf, np.column_stack((t, X_SPEED * t, y1, X_SPEED * t, y2, vy1, vy2)),
               fmt="%.15e", delimiter=",", newline="\r\n", header="t,x1,y1,x2,y2,vy1,vy2",
               comments="")
    return buf.getvalue()


def test_trajectory_csv_matches_savetxt(tmp_path):
    # t, and with it x1 = x2 = X_SPEED t, takes the values that stay finite
    # times X_SPEED; y and v take every value, the huge ones too, so each
    # kind of value lands in a column the CSV holds
    moderate = [-1.5, 0.0, -0.0, 5e-324, 2.2250738585072014e-308, -3.25e-7, 123456.789, 0.1,
                -2e-310, 7.0]
    values = moderate + [1.7976931348623157e308, 1e300]
    rows = np.column_stack([moderate, np.resize(np.array(values), (4, len(moderate))).T])
    # a pair without samples, which gets no file, ahead of the pair that has them
    samples = np.stack([np.full_like(rows, np.nan), rows])
    _write_trajectory_csvs([tmp_path / "ours.csv"], samples, np.array([0, len(rows)]), X_SPEED)
    assert list(tmp_path.iterdir()) == [tmp_path / "ours.csv"]
    assert (tmp_path / "ours.csv").read_bytes() == _savetxt_bytes(rows)


def _percent_rows(block):
    return b"".join((",".join("%.15e" % v for v in row) + "\r\n").encode()
                    for row in block.tolist())


def _bits_to_float(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


any_float = st.one_of(st.integers(0, 2**64 - 1).map(_bits_to_float), st.floats())


@settings(max_examples=300, deadline=None)
@given(values=st.lists(any_float, max_size=70), cols=st.integers(1, 7))
@example(values=[1234567890123456.5], cols=1)  # exact ties at the 17th digit: half to even
@example(values=[-1234567890123457.5], cols=1)
@example(values=[np.nextafter(1e-30, 0.0), np.nextafter(1e-30, 1.0)], cols=2)
@example(values=[np.nextafter(1e15, 0.0), np.nextafter(1e15, 2e15)], cols=2)
@example(values=[5e-324, 0.0, -0.0, math.nan, math.inf, -math.inf], cols=3)
def test_formatted_rows_equal_percent_formatting(values, cols):
    block = np.resize(np.array(values, dtype=np.float64), len(values) // cols * cols)
    block = block.reshape(-1, cols)
    data, starts = _format_csv_rows(block)
    expected = _percent_rows(block)
    assert data.tobytes() == expected
    assert starts.tolist() == [0, *np.cumsum([len(line) + 2 for line in
                                              expected.split(b"\r\n")[:-1]])]


def _random_rows(rng, n_rows, aborted=False):
    """SI-scaled random samples on a 1e-8 s grid; an abort ends at an off-grid time."""
    t = np.linspace(0.0, 1e-8, max(n_rows, 101))[:n_rows]
    if aborted:
        t = np.append(t[:-1], t[-2] + rng.uniform(0.1, 0.9) * 1e-10)
    return np.column_stack([t, rng.normal(size=(len(t), 2)) * 1e-6,
                            rng.normal(size=(len(t), 2)) * 10.0 ** rng.integers(-3, 4)])


def _check_files_match_savetxt(tmp_path, pair_rows):
    """Write pair_rows as one table, each pair followed by an empty one; check every file."""
    samples = np.full((2 * len(pair_rows), max(map(len, pair_rows), default=1), 5), np.nan)
    count = np.zeros(len(samples), dtype=np.intp)
    for i, rows in enumerate(pair_rows):
        samples[2 * i, :len(rows)] = rows
        count[2 * i] = len(rows)
    paths = [tmp_path / f"trajectory_{i:04d}.csv" for i in range(len(pair_rows))]
    _write_trajectory_csvs(paths, samples, count, X_SPEED)
    assert sorted(tmp_path.iterdir()) == paths
    for path, rows in zip(paths, pair_rows):
        assert path.read_bytes() == _savetxt_bytes(rows), path.name


def test_files_of_unequal_length_match_savetxt(tmp_path):
    rng = np.random.default_rng(12)
    pair_rows = [_random_rows(rng, 101), _random_rows(rng, 37, aborted=True),
                 _random_rows(rng, 1), _random_rows(rng, 2, aborted=True), _random_rows(rng, 101)]
    assert pair_rows[1][-1, 0] not in np.linspace(0.0, 1e-8, 101)
    _check_files_match_savetxt(tmp_path, pair_rows)


def test_files_split_across_batches_match_savetxt(tmp_path):
    # 101-row files fill batches of five; 256 + 256 rows fill one batch
    # exactly, and a file longer than a batch is formatted on its own
    rng = np.random.default_rng(13)
    lengths = [101] * 6 + [_BATCH_ROWS // 2] * 2 + [1] + [_BATCH_ROWS + 88] + [3]
    pair_rows = [_random_rows(rng, n) for n in lengths]
    assert [len(rows) for rows in pair_rows] == lengths
    _check_files_match_savetxt(tmp_path, pair_rows)


def test_no_trajectory_writes_no_file(tmp_path):
    _check_files_match_savetxt(tmp_path, [])


def test_a_thousand_two_row_files_match_savetxt(tmp_path):
    rng = np.random.default_rng(14)
    _check_files_match_savetxt(tmp_path, [_random_rows(rng, 2) for _ in range(1000)])


def test_only_pairs_with_a_status_get_numbered_files(tmp_path, monkeypatch):
    # A floor of half the peak leaves some releases below it (status None,
    # no samples) and ends the others in flight; the table is the one the
    # run itself integrates.
    runs = []

    def recorded(*args, **kwargs):
        runs.append(integrate_pairs(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr("pairslit.ensemble.integrate_pairs", recorded)
    n = 40
    path = write_json(tmp_path / "floor.json", {
        "scenario": "custom", "sampler": {"n_pairs": n}, "integrator": {"density_floor": 0.5},
    })
    assert run_main(tmp_path, "custom", "--config", path) == 2
    (table, count, status), = runs
    integrated = [i for i, st in enumerate(status) if st is not None]
    assert 0 < len(integrated) < n
    out = tmp_path / "out"
    files = sorted(out.glob("trajectory_*.csv"))
    assert [f.name for f in files] == [f"trajectory_{k:03d}.csv" for k in range(len(integrated))]
    x_speed = default_config("custom").params.x_speed
    for path, i in zip(files, integrated):
        t, y1, y2, vy1, vy2 = table[i, count[i] - 1].tolist()
        last = (t, x_speed * t, y1, x_speed * t, y2, vy1, vy2)
        lines = path.read_bytes().split(b"\r\n")
        assert (len(lines), lines[-1]) == (2 + count[i], b"")
        assert lines[-2].decode() == ",".join("%.15e" % v for v in last)
    summary = json.loads((out / "summary.json").read_text())
    completed = sum(st is TrajectoryStatus.COMPLETED for st in status)
    assert (summary["n_requested"], summary["n_completed"]) == (n, completed)
    assert summary["aborted_count"] == n - completed >= n - len(integrated)


def test_empty_out_is_a_config_error(tmp_path, capsys, monkeypatch):
    # "" would write into the current directory, and "output_dir": "" in the
    # summary would fail validate_config
    monkeypatch.chdir(tmp_path)
    assert main(["fig4a", "--out", ""]) == 1
    assert "config error: --out: " in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_scenario_script_refuses_a_bad_seed(tmp_path, capsys):
    # the script's configs pass the CLI's validator before any scenario runs
    path = Path(__file__).resolve().parent.parent / "scripts" / "run_all_scenarios.py"
    spec = importlib.util.spec_from_file_location("run_all_scenarios", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["--root", str(tmp_path / "runs"), "--seed", "-1"]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", "config error: --seed: sampler.seed must be >= 0\n")
    assert list(tmp_path.iterdir()) == []


def test_run_that_fails_creates_no_output_directory(tmp_path, capsys):
    out = tmp_path / "runs" / "big"
    assert main(["fig3a", "--n-pairs", str(10**15), "--out", str(out)]) == 1
    assert "error: out of memory" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_four_slit_check_that_fails_creates_no_output_directory(tmp_path, capsys, monkeypatch):
    def no_memory(*args):
        raise MemoryError("Unable to allocate")

    monkeypatch.setattr("pairslit.cli.property_report", no_memory)
    out = tmp_path / "runs" / "fsc"
    assert main(["four-slit-check", "--out", str(out)]) == 1
    assert "error: out of memory" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


# Draws for the whole config_version 3 schema and the flags. Each value is
# valid seven times in eight, so that many draws run; the rest are wrong:
# numbers over the float range, non-finite or extreme ones, wrong types and
# empty strings. Valid numbers range over decades too; valid tolerances stop
# at 1e-16, near the float64 epsilon, and smaller ones come from the wrong
# draws' whole float range.
_BASELINE = default_config("custom").params
_wrong_type = st.sampled_from(("", "1", True, None, [], {}))
_odd_number = st.sampled_from(
    (0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e308, 5e-324, 10**30, -(10**30))
)
_any_magnitude = st.builds(lambda e, s: s * 10.0**e, st.floats(-300.0, 300.0),
                           st.sampled_from((1.0, -1.0)))
_wrong = st.one_of(_any_magnitude, _odd_number, st.integers(-5, 5), _wrong_type)


def _mostly(valid, wrong=_wrong):
    return st.integers(0, 7).flatmap(lambda k: wrong if k == 0 else valid)


def _decades(value, below, above):
    return st.floats(-below, above).map(lambda e: value * 10.0**e)


def _section(values):
    """A section with any subset of its keys; now and then an unknown key or a non-object."""
    known = st.fixed_dictionaries({}, optional=values)
    return _mostly(known, st.one_of(known.map(lambda s: {**s, "extra": 1}), _wrong_type))


# at most 5 pairs, or a count that is refused before anything is allocated
_pair_count = _mostly(st.integers(1, 5),
                      st.sampled_from((0, -1, 2.5, "3", 10**15, 2**53 + 1, 2**63, 10**30)))
_seed = _mostly(st.integers(0, 2**64), st.sampled_from((-1, 10**30, 1.5, "", None)))
_stats = _mostly(st.sampled_from(("boson", "fermion")), st.sampled_from(("anyon", "", 1)))
_tolerance = _mostly(_decades(1.0, 16.0, 2.0))
_SCHEMA = {
    "config_version": _mostly(st.just(3), st.sampled_from((2, "3", 3.5, None))),
    "stats": _stats,
    "output_dir": _mostly(st.just("out_file"), _wrong_type),
    "params": _section({k: _mostly(_decades(getattr(_BASELINE, k), 3.0, 3.0))
                        for k in ("m", "hbar", "sigma0", "Y", "kx", "d", "L")}),
    "sampler": _section({
        "method": _mostly(
            st.sampled_from(("exact_rejection", "independent_gaussian")),
            st.sampled_from(("", "gibbs", 1, "all_symmetric"))),
        "seed": _seed,
    }),
    "integrator": _section({"rel_tol": _tolerance, "abs_tol": _tolerance,
                            "density_floor": _mostly(_decades(1e-12, 4.0, 12.0))}),
}


def _flag_value(value):
    return value if isinstance(value, str) else json.dumps(value)


@st.composite
def _cli_inputs(draw):
    """(subcommand, config or None, flags), running at most 5 pairs.

    A pair count and stats are drawn only for the scenarios that read them;
    the others pin them, and would refuse nearly every draw.
    """
    scenario = draw(st.sampled_from(SCENARIOS))
    pinned = PINNED.get(scenario, ())
    schema = {key: values for key, values in _SCHEMA.items() if key not in pinned}
    config = draw(st.one_of(st.none(), st.fixed_dictionaries({}, optional={
        **schema, "scenario": _mostly(st.just(scenario), st.sampled_from(SCENARIOS + ("", 1))),
    })))
    flags = []
    count = draw(_pair_count)
    # the default counts run 25 to 1,000 pairs: every run that reads one gets one of _pair_count
    sampler = config.get("sampler") if config is not None else None
    if "sampler.n_pairs" in pinned:
        pass
    elif isinstance(sampler, dict) and draw(st.booleans()):
        sampler["n_pairs"] = count
    else:
        flags.append(f"--n-pairs={_flag_value(count)}")
    for flag, values in (
        ("--seed", _seed),
        *([] if "stats" in pinned else [("--stats", _stats)]),
        ("--rel-tol", _tolerance),
        ("--abs-tol", _tolerance),
        ("--out", _mostly(st.just("out_flag"), st.just(""))),
    ):
        if draw(st.booleans()):
            flags.append(f"{flag}={_flag_value(draw(values))}")
    return scenario, config, flags


@st.composite
def _corner_inputs(draw):
    """(custom, config, flags) drawn at beta = Y / sigma0 and T_end = flight_time / tau.

    The per-key draws of _cli_inputs seldom reach small beta or long flights,
    where pairs stall in the sampler or abort on the density floor. With the
    baseline sigma0 and kx, Y = beta sigma0 and L = 2 kx sigma0^2 T_end.
    """
    beta = 10.0 ** draw(st.floats(-3.0, math.log10(_MAX_BETA)))
    t_end = 10.0 ** draw(st.floats(-3.0, 6.0))
    sigma0 = _BASELINE.sigma0
    config = {
        "stats": draw(st.sampled_from(("boson", "fermion"))),
        "params": {"Y": beta * sigma0, "L": 2.0 * _BASELINE.kx * sigma0**2 * t_end},
    }
    return "custom", config, [f"--n-pairs={draw(st.integers(1, 5))}"]


def _main_in(directory, argv):
    """main(argv) run in directory, so that a relative output directory lands there.

    Returns the exit code and what main wrote to stderr.
    """
    err = io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            return main(argv), err.getvalue()
    finally:
        os.chdir(cwd)


@settings(max_examples=500, deadline=None)
@given(inputs=st.one_of(_cli_inputs(), _corner_inputs()))
@example(inputs=("custom", {"params": {"Y": 1e13}}, ["--n-pairs=2"]))
# beta = 0.01 fermions stall in the sampler (exit 1); at T_end = 6e5 pairs
# abort on the density floor (exit 2); a flight time of 4.3e-322 s is refused
@example(inputs=("custom", {"stats": "fermion", "params": {"Y": 1e-8}}, ["--n-pairs=2"]))
@example(inputs=("custom", {"params": {"L": 207311.8}}, ["--n-pairs=5"]))
@example(inputs=("custom", {"params": {"L": 5e-26, "kx": 1e300}}, ["--n-pairs=2"]))
@example(inputs=("fig3a", None, [f"--n-pairs={10**15}"]))
@example(inputs=("fig3a", None, [f"--n-pairs={2**63}"]))
@example(inputs=("fig4a", None, ["--out="]))
# the rows of the old table of inputs that once ran unbounded or ended in a traceback
@example(inputs=("custom", {"sampler": {"seed": -1}}, ["--n-pairs=2"]))
@example(inputs=("custom", {"params": {"sigma0": 1e-300}}, ["--n-pairs=2"]))
@example(inputs=("custom", {"params": {"L": 1e-300}}, ["--n-pairs=2"]))
@example(inputs=("custom", {"params": {"m": 1e300}}, ["--n-pairs=2"]))
@example(inputs=("custom", {"params": {"Y": 1e-3}}, ["--n-pairs=2"]))
@example(inputs=("custom", {"params": {"Y": 1.0}}, ["--n-pairs=2"]))
@example(inputs=("custom", {"integrator": {"rel_tol": math.inf}}, ["--n-pairs=2"]))
@example(inputs=("custom", {"integrator": {"h_min": 1e-9, "h_init": 1e-20, "h_max": 1.0}},
                 ["--n-pairs=2"]))
def test_any_input_exits_cleanly(inputs):
    scenario, config, flags = inputs
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        argv = [scenario, *flags]
        if config is not None:
            argv += ["--config", write_json(tmp / "config.json", config)]
        code, err = _main_in(tmp, argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        for path in tmp.rglob("summary.json"):
            summary = json.loads(path.read_text(), parse_constant=_refuse_nan)
            echo = write_json(tmp / "echo.json", summary["config"])
            assert serialize_config(validate_config(echo, summary["scenario"])) == summary["config"]


# Flag values that argparse accepts. Each run has at most 5 pairs: a scenario
# that reads the pair count always gets one, valid or refused before anything
# is allocated.
_bad_tolerance = st.sampled_from((0.0, -1.0, math.inf, math.nan))
_FLAG_VALUES = {
    "--seed": _mostly(st.integers(0, 2**64), st.just(-1)),
    "--stats": st.sampled_from(("boson", "fermion")),
    "--rel-tol": _mostly(_decades(1e-8, 2.0, 2.0), _bad_tolerance),
    "--abs-tol": _mostly(_decades(1e-8, 2.0, 2.0), _bad_tolerance),
    "--out": _mostly(st.just("out_flag"), st.just("")),
}


@st.composite
def _flag_runs(draw):
    """(subcommand, {flag: value}) for flags that argparse accepts."""
    scenario = draw(st.sampled_from(SCENARIOS))
    pinned = PINNED.get(scenario, ())
    flags = {}
    if "sampler.n_pairs" in pinned:  # an echo, or a count the run does not read
        if draw(st.booleans()):
            flags["--n-pairs"] = draw(st.sampled_from((3, 7, 1000, 0)))
    else:
        flags["--n-pairs"] = draw(_mostly(st.integers(1, 5), st.sampled_from((0, -1, 2**63))))
    for flag, values in _FLAG_VALUES.items():
        if draw(st.booleans()):
            flags[flag] = draw(values)
    return scenario, flags


@settings(max_examples=100, deadline=None)
@given(run=_flag_runs())
@example(run=("fig4a", {"--n-pairs": 7}))
@example(run=("four-slit-check", {"--stats": "fermion", "--rel-tol": -1.0}))
@example(run=("fig3a", {"--n-pairs": 2, "--seed": -1, "--abs-tol": math.nan, "--out": ""}))
def test_flags_and_file_give_the_same_run(run):
    # a flag is validated as the key it sets: the run is the same as with a
    # file holding those keys, and only the problems' "--flag: " prefix differs
    scenario, flags = run
    with tempfile.TemporaryDirectory() as tmp:
        by_flag, by_file = Path(tmp, "flag"), Path(tmp, "file")
        by_flag.mkdir()
        by_file.mkdir()
        config = write_json(Path(tmp, "config.json"),
                            nested({FLAG_KEYS[flag]: value for flag, value in flags.items()}))
        flag_code, flag_err = _main_in(by_flag, [scenario, *(f"{f}={v}" for f, v in flags.items())])
        file_code, file_err = _main_in(by_file, [scenario, "--config", config])
        assert flag_code == file_code
        assert [re.sub(r"^config error: --[a-z-]+: ", "config error: ", line)
                for line in flag_err.splitlines()] == file_err.splitlines()
        assert not any(line.startswith(f"config error: {FLAG_KEYS[flag]}")
                       for line in flag_err.splitlines() for flag in flags)
        summaries = [sorted(root.rglob("summary.json")) for root in (by_flag, by_file)]
        assert [[p.relative_to(root) for p in found]
                for root, found in zip((by_flag, by_file), summaries)] == [
            [p.relative_to(by_file) for p in summaries[1]]] * 2
        for flag_summary, file_summary in zip(*summaries):
            assert flag_summary.read_text() == file_summary.read_text()
