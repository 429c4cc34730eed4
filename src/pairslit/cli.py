"""Command-line front end: named scenarios, config files, CSV/JSON export.

Each subcommand runs one scenario of the _SCENARIOS table and writes
per-trajectory CSV files plus a summary.json into the output directory.
Physics for the named scenarios is pinned in code; a JSON config file
(documented in the README, versioned via config_version) can adjust batch
settings everywhere, except those a scenario's run does not read, and the
physics for the custom scenario. Each flag sets one config key (_FLAGS), wins
over the file's value and is validated with the file by validate_config.

Exit codes: 0 success; 1 a configuration problem or an error that ends the run
(an unwritable output path, an array too large to allocate), with nothing on
stdout; 2 a failed gate (abort fraction above threshold, a failed four-slit check).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .ensemble import run_ensemble, transport_ensemble
from .errors import ConfigError, PairslitError
from .fourslit import property_report
from .integrator import IntegratorConfig
from .params import PhysicalParams, SpinStatistics
from .sampling import SamplerConfig

_SPEED_FAST = 2.0e7
_SPEED_SLOW = 2.0e6
_ABORT_THRESHOLD = 1e-3
_CONFIG_VERSION = 3


@dataclass(frozen=True)
class _Scenario:
    """One row of the scenario table."""

    help: str
    speed: float  # longitudinal speed (m/s)
    sampler: SamplerConfig  # the default batch
    n_times: int = 101  # sample times per trajectory
    # fixed (y1, y2) releases from the physics, which take the sampler's place
    releases: Callable[[PhysicalParams], np.ndarray] | None = None
    # config keys the run does not read; each validates only as an exact echo
    pins: tuple[str, ...] = ()


_FAN = SamplerConfig(method="independent_gaussian", n_pairs=25)
_THREE = SamplerConfig(n_pairs=3)
# the sampler settings of a run that draws no releases from it
_UNSAMPLED = ("sampler.method", "sampler.n_pairs")
_SCENARIOS = {
    "fig3a": _Scenario("fan of sampled pair trajectories, fast flight (packets barely spread)",
                       _SPEED_FAST, _FAN),
    "fig3b": _Scenario("fan of sampled pair trajectories, slow flight (packets strongly spread)",
                       _SPEED_SLOW, _FAN),
    "fig4a": _Scenario(
        "three mirror-symmetric pairs whose tracks stay symmetric", _SPEED_SLOW, _THREE,
        releases=lambda p: np.array(
            [(y, -y) for y in (p.Y - 1.5 * p.sigma0, p.Y, p.Y + 1.5 * p.sigma0)]),
        pins=_UNSAMPLED),
    "fig4b": _Scenario(
        "three pairs released off-axis; one lower track crosses the axis", _SPEED_SLOW, _THREE,
        releases=lambda p: np.array(
            [(p.Y, y2) for y2 in (-p.Y + 1.5 * p.sigma0, -p.Y, -p.Y - 1.5 * p.sigma0)]),
        pins=_UNSAMPLED),
    # property_report reads the physics, the integrator and the seed only
    "four-slit-check": _Scenario("pass/fail property report for the facing double-slit setup",
                                 _SPEED_SLOW, SamplerConfig(), pins=(*_UNSAMPLED, "stats")),
    "equivariance": _Scenario("transported ensemble scored against the exact density",
                              _SPEED_SLOW, SamplerConfig(n_pairs=1000), n_times=2),
    # only the four-slit checks place sources at +-d
    "custom": _Scenario("physics and batch settings taken from a config file",
                        _SPEED_FAST, SamplerConfig(), pins=("params.d",)),
}
SCENARIOS = tuple(_SCENARIOS)

# The config file's sections; each one's keys are its dataclass's fields.
_SECTIONS = {"params": PhysicalParams, "sampler": SamplerConfig, "integrator": IntegratorConfig}
_TOP_KEYS = ("config_version", "scenario", "stats", "output_dir", *_SECTIONS)
# Each flag sets the config key it names, with its argparse keywords.
_FLAGS = {
    "--seed": ("sampler.seed", {"type": int, "help": "sampler seed"}),
    "--n-pairs": ("sampler.n_pairs", {"type": int, "help": "batch size"}),
    "--out": ("output_dir", {"help": "output directory"}),
    "--stats": ("stats", {"choices": ["boson", "fermion"], "help": "exchange statistics"}),
    "--rel-tol": ("integrator.rel_tol", {"type": float, "help": "integrator relative tolerance"}),
    "--abs-tol": ("integrator.abs_tol",
                  {"type": float, "help": "integrator absolute tolerance (units of sigma0)"}),
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything one scenario run needs, fully validated."""

    scenario: str
    params: PhysicalParams
    sampler: SamplerConfig
    integrator: IntegratorConfig
    stats: SpinStatistics
    output_dir: str


def default_config(scenario: str) -> ScenarioConfig:
    """Pinned defaults for a named scenario (electron baseline geometry)."""
    if scenario not in SCENARIOS:
        raise ConfigError([f"scenario: unknown name {scenario!r}"])
    spec = _SCENARIOS[scenario]
    return ScenarioConfig(
        scenario=scenario,
        params=PhysicalParams.baseline(x_speed=spec.speed),
        sampler=spec.sampler,
        integrator=IntegratorConfig(),
        stats=SpinStatistics.BOSON,
        output_dir="runs_" + scenario.replace("-", "_"),
    )


def serialize_config(cfg: ScenarioConfig) -> dict:
    """JSON-ready dict; validate_config of the dump reproduces cfg exactly."""
    return {
        "config_version": _CONFIG_VERSION,
        "scenario": cfg.scenario,
        "stats": cfg.stats.value,
        "output_dir": cfg.output_dir,
        **{name: dataclasses.asdict(getattr(cfg, name)) for name in _SECTIONS},
    }


def _typed_section(raw, name: str, section: type, problems: list[str]) -> dict:
    """The values of raw's known keys that have their field's type; any other value is a problem.

    A field's type is that of its default: int fields take integers only,
    float fields finite numbers, and str fields are left to the dataclass.
    """
    if not isinstance(raw, dict):
        problems.append(f"{name}: expected an object")
        return {}
    kinds = {field.name: type(field.default) for field in dataclasses.fields(section)}
    for key in sorted(set(raw) - set(kinds)):
        problems.append(f"{name}.{key}: unknown key")
    values = {}
    for key, kind in kinds.items():
        if key not in raw:
            continue
        value = raw[key]
        if kind is str:
            values[key] = value
        elif isinstance(value, bool) or not isinstance(value, int if kind is int else (int, float)):
            expected = "an integer" if kind is int else "a number"
            problems.append(f"{name}.{key}: expected {expected}, got {value!r}")
        # JSON reads 1e400 as inf and accepts Infinity and NaN; an int compares
        # exactly, and one beyond the float range would overflow on conversion
        elif not abs(value) <= sys.float_info.max:
            problems.append(f"{name}.{key}: expected a finite number, got {value!r}")
        else:
            values[key] = value
    return values


def validate_config(path, expected_scenario: str, flags: dict | None = None) -> ScenarioConfig:
    """Load and fully validate a JSON scenario config, with flags laid over it.

    path names the JSON file; with None the config starts empty.
    expected_scenario is the subcommand's scenario, which the file's
    "scenario" key may only repeat. flags maps flags of _FLAGS to their
    values (None for a flag not given); each given flag sets the key it
    names, over the file's value, so it passes the same checks as that key,
    and a problem with its value names the flag first.
    Unknown keys anywhere are rejected. Named scenarios may not override the
    params section (the scenario pins the physics), nor the keys their run
    does not read (_Scenario.pins); a pinned key validates only as an exact
    echo. The other batch settings (sampler seed, integrator, stats,
    output_dir) may be adjusted for any scenario. Raises ConfigError carrying
    one diagnostic per offending field.
    """
    problems: list[str] = []
    raw = {}
    if path is not None:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError([f"cannot read config: {exc}"]) from exc
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError([f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"]) from exc
        if not isinstance(raw, dict):
            raise ConfigError(["top level: expected an object"])
    given = {flag: value for flag, value in (flags or {}).items() if value is not None}
    for flag, value in given.items():
        name, _, key = _FLAGS[flag][0].rpartition(".")
        if not name:
            raw[key] = value
        elif isinstance(raw.setdefault(name, {}), dict):  # else the section is a problem
            raw[name] = {**raw[name], key: value}

    for key in sorted(set(raw) - set(_TOP_KEYS)):
        problems.append(f"{key}: unknown key")
    version = raw.get("config_version", _CONFIG_VERSION)
    if version != _CONFIG_VERSION:
        problems.append(f"config_version: expected {_CONFIG_VERSION}, got {version!r}")

    scenario = raw.get("scenario", expected_scenario)
    if scenario not in SCENARIOS:
        problems.append(f"scenario: must be one of {', '.join(SCENARIOS)}")
        raise ConfigError(problems)
    if scenario != expected_scenario:
        problems.append(
            f"scenario: file says {scenario!r} but the {expected_scenario!r} subcommand was invoked"
        )

    cfg = default_config(scenario)
    pins = _SCENARIOS[scenario].pins

    def check_echo(key, value, echo, why="its run does not read it"):
        # tolerate an exact echo of a pinned value, so that a serialized
        # config validates; reject any actual override
        if value != echo:
            problems.append(f"{key}: the {scenario!r} scenario pins this to {echo!r}; {why}")

    for name, section in _SECTIONS.items():
        if name not in raw:
            continue
        values = _typed_section(raw[name], name, section, problems)
        current = getattr(cfg, name)
        if name == "params" and scenario != "custom":
            for key in list(values):
                check_echo(f"params.{key}", values.pop(key), getattr(current, key),
                           "only 'custom' accepts overrides")
        for key in [k for k in values if f"{name}.{k}" in pins]:
            check_echo(f"{name}.{key}", values.pop(key), getattr(current, key))
        try:
            cfg = replace(cfg, **{name: replace(current, **values)})
        except ValueError as exc:  # one line per offending field
            problems += [f"{name}.{line}" for line in str(exc).splitlines()]

    if "stats" in pins and "stats" in raw:
        check_echo("stats", raw["stats"], cfg.stats.value)
    elif "stats" in raw:
        try:
            cfg = replace(cfg, stats=SpinStatistics(raw["stats"]))
        except ValueError:
            problems.append(f"stats: expected 'boson' or 'fermion', got {raw['stats']!r}")
    if "output_dir" in raw:
        if isinstance(raw["output_dir"], str) and raw["output_dir"]:
            cfg = replace(cfg, output_dir=raw["output_dir"])
        else:
            problems.append("output_dir: expected a non-empty string")

    if problems:
        for flag in given:
            key = _FLAGS[flag][0]
            problems = [f"{flag}: {problem}" if problem.startswith((f"{key}:", f"{key} "))
                        else problem for problem in problems]
        raise ConfigError(problems)
    return cfg


_CSV_HEADER = b"t,x1,y1,x2,y2,vy1,vy2\r\n"
_BATCH_ROWS = 512  # rows of whole files formatted in one call

# _format_csv_rows lays each field out in a 28-byte slot and then drops the
# bytes a field does not use. Columns: 2 sign, 3 leading digit, 4 point, 5-19
# the other 15 digits, 20-24 "e", the exponent's sign and three digits (the
# hundreds kept only when nonzero), 25-26 the separator. Columns 4-19 are the
# uint32 words 1-4, which take the 16 digits four at a time; word 5 takes the
# exponent's first four bytes.
_SLOT = 28
_DIGITS4 = np.stack(np.meshgrid(*[np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)] * 4,
                                 indexing="ij"), axis=-1).view(np.uint32).ravel()
_EXP_MIN = -324  # row e - _EXP_MIN of _EXPONENTS holds "e", the sign and 3 digits of e
_EXPONENTS = (
    np.array([f"e{e:+04d}" for e in range(_EXP_MIN, 309)], "S8").view(np.uint32).reshape(-1, 2)
)
_SPLIT = 134217729.0  # 2**27 + 1: Dekker's split into two 26-bit halves
_EXACT_RANGE = (1e-280, 1e280)  # 10^(15 - e) and every split product stay normal here
_TIE_MARGIN = 1e-6


@functools.cache
def _pow10(k: int) -> tuple[float, float, float, float]:
    """10^k as hi + lo with hi correctly rounded, and hi's Dekker split."""
    num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
    hi = num / den  # int / int is correctly rounded
    hi_num, hi_den = hi.as_integer_ratio()
    lo = (num * hi_den - hi_num * den) / (den * hi_den)
    scaled = _SPLIT * hi
    hi_high = scaled - (scaled - hi)
    return hi, hi_high, hi - hi_high, lo


def _round_to_16_digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(q, e, settled): "%.15e" % x has the digits of q and the exponent e where settled.

    For a nonzero |x| in _EXACT_RANGE, e = floor(log10|x|) and |x| 10^(15 - e)
    is formed as an exact double-double product (Dekker 1971) and rounded to
    the 16-digit integer q. A zero is settled with q = e = 0. Not settled: a
    value outside the range other than 0, a non-finite value, one whose
    rounding lies within _TIE_MARGIN of a tie, and one whose scaled value or
    its rounding falls outside [10^15, 10^16).
    """
    v = np.abs(x)
    zero = v == 0.0
    in_range = (v >= _EXACT_RANGE[0]) & (v <= _EXACT_RANGE[1])
    v[~in_range] = 1.0  # a stand-in: these are settled only if 0
    e = np.floor(np.log10(v)).astype(np.int64)
    k_min = 15 - int(e.max(initial=0))
    powers = np.array([_pow10(k) for k in range(k_min, 16 - int(e.min(initial=0)))]).T
    p_hi, p_high, p_low, p_lo = powers[:, 15 - k_min - e]
    # v * p_hi == hi + lo exactly (Dekker's product); then lo gains v * p_lo
    hi = v * p_hi
    v_high = _SPLIT * v
    v_high -= v_high - v
    v_low = v - v_high
    lo = ((v_high * p_high - hi) + v_high * p_low + v_low * p_high) + v_low * p_low
    lo += v * p_lo
    whole = np.floor(hi)
    frac = (hi - whole) + lo
    carry = np.floor(frac)
    frac -= carry
    q = whole.astype(np.int64) + carry.astype(np.int64) + (frac > 0.5)
    settled = zero | (
        in_range & ((hi > 1e15) | ((hi == 1e15) & (lo >= 0.0))) & (q < 10**16)
        & (np.abs(frac - 0.5) >= _TIE_MARGIN)
    )
    q[zero] = 0  # e is already 0 there
    return q, e, settled


def _format_csv_rows(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The bytes of ",".join("%.15e" % x for x in row) + "\r\n" for every row of block.

    Returns the uint8 bytes and the offset at which each row starts, followed
    by the end. Values that _round_to_16_digits leaves unsettled are formatted
    by "%.15e" itself, one at a time.
    """
    rows, cols = block.shape
    x = np.ascontiguousarray(block, dtype=np.float64).ravel()
    q, e, settled = _round_to_16_digits(x)

    template = np.zeros((cols, _SLOT), np.uint8)
    template[:, 2] = ord("-")
    template[:, 25] = ord(",")
    template[-1, 25:27] = np.frombuffer(b"\r\n", np.uint8)
    out = np.empty((rows, cols, _SLOT), np.uint8)
    out[:] = template
    out = out.reshape(-1, _SLOT)
    words = out.view(np.uint32)
    head = q // 10**8
    tail = q - head * 10**8
    for word, digits in enumerate((head, tail)):
        top = digits // 10**4
        words[:, 2 * word + 1] = _DIGITS4[top]
        words[:, 2 * word + 2] = _DIGITS4[digits - top * 10**4]
    out[:, 3] = out[:, 4]
    out[:, 4] = ord(".")
    exponent = _EXPONENTS[e - _EXP_MIN]
    words[:, 5] = exponent[:, 0]
    out[:, 24] = exponent[:, 1]

    template = np.zeros((cols, _SLOT), bool)
    template[:, 3:26] = True
    template[-1, 26] = True
    keep = np.empty((rows, cols, _SLOT), bool)
    keep[:] = template
    keep = keep.reshape(-1, _SLOT)
    keep[:, 2] = np.signbit(x)
    keep[:, 22] = np.abs(e) >= 100
    widths = 21 + keep[:, 2] + keep[:, 22]
    for i in np.flatnonzero(~settled):
        text = np.frombuffer(("%.15e" % x[i]).encode(), np.uint8)
        out[i, 2:2 + len(text)] = text
        keep[i, 2:25] = False
        keep[i, 2:2 + len(text)] = True
        widths[i] = len(text)
    row_ends = np.cumsum(widths.reshape(rows, cols).sum(axis=1) + cols + 1)
    return out[keep], np.concatenate([[0], row_ends])


def _write_trajectory_csvs(paths: list[Path], samples: np.ndarray, count: np.ndarray,
                           x_speed: float) -> None:
    """Write each pair's samples to its path: a header, then a row of "%.15e" fields per sample.

    samples and count are integrate_pairs' table and sample counts. Pairs with
    a count of 0 get no file; the others take the paths in pair order. Both
    particles are released at x = 0, so x1 = x2 = x_speed t.
    Whole files are formatted together in batches of at most _BATCH_ROWS rows
    (a longer file is a batch of its own), and the bytes are cut into files by row.
    """
    pairs = np.flatnonzero(count)
    lengths = count[pairs].tolist()
    first = 0
    while first < len(pairs):
        last, rows = first + 1, lengths[first]
        while last < len(pairs) and rows + lengths[last] <= _BATCH_ROWS:
            rows += lengths[last]
            last += 1
        batch = pairs[first:last]
        in_file = np.arange(samples.shape[1]) < count[batch, None]
        t, y1, y2, vy1, vy2 = samples[batch][in_file].T
        x = x_speed * t
        data, starts = _format_csv_rows(np.column_stack((t, x, y1, x, y2, vy1, vy2)))
        row = 0
        for path, n_rows in zip(paths[first:last], lengths[first:last]):
            with open(path, "wb") as fh:
                fh.write(_CSV_HEADER)
                fh.write(data[starts[row]:starts[row + n_rows]])
            row += n_rows
        first = last


def _write_summary(out: Path, cfg: ScenarioConfig, fields: dict) -> None:
    summary = {
        "scenario": cfg.scenario,
        "seed": cfg.sampler.seed,
        "version": __version__,
        "config": serialize_config(cfg),
    }
    summary.update(fields)
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, allow_nan=False)
        fh.write("\n")


def run_scenario(cfg: ScenarioConfig) -> int:
    """Run one validated scenario, write its files, print its lines and return the exit code.

    The record (summary.json's fields, stdout lines, any reason for exit 2) is
    built before anything is written or printed. Exit 2 prints the reason on stderr;
    a PairslitError, OSError or MemoryError prints one "error:" line there and exits 1.
    """
    out = Path(cfg.output_dir)
    spec = _SCENARIOS[cfg.scenario]
    # run_ensemble seeds its own streams; the other runs draw from this generator
    rng = np.random.default_rng(cfg.sampler.seed)
    result = None  # the ensemble whose trajectories become the CSVs
    try:
        if cfg.scenario == "four-slit-check":
            checks = property_report(cfg.params, cfg.integrator, rng)
            failed = sum(not ok for _, ok, _ in checks)
            fields = {"checks": [{"name": name, "passed": ok, "detail": detail}
                                 for name, ok, detail in checks], "all_passed": not failed}
            lines = [f"{'PASS' if ok else 'FAIL'}  {name}  ({detail})"
                     for name, ok, detail in checks]
            failure = f"{failed} of {len(checks)} four-slit checks failed" if failed else None
        else:
            t_end = cfg.params.flight_time
            sample_times = np.linspace(0.0, t_end, spec.n_times)
            # Pinned releases skip the sampler; everything after sampling is shared.
            if spec.releases is None:
                result = run_ensemble(cfg.sampler, cfg.integrator, cfg.stats, cfg.params, t_end,
                                      sample_times=sample_times)
            else:
                # three pairs, too few to score, so the baseline draw never runs
                result = transport_ensemble(spec.releases(cfg.params), cfg.integrator, cfg.stats,
                                            cfg.params, t_end, sample_times=sample_times, rng=rng)
            same_side = result.same_side_fraction
            aborted, n_requested = result.aborted_count, result.n_requested
            fields = {
                "n_requested": n_requested,
                "n_completed": result.n_completed,
                "aborted_count": aborted,
                "same_side_fraction": None if math.isnan(same_side) else same_side,
                "delta_y0_estimate": result.delta_y0_estimate,
                "density_distance": result.density_distance,
                "density_distance_baseline": result.density_distance_baseline,
            }
            lines = [f"{cfg.scenario}: {result.n_completed}/{n_requested} trajectories completed, "
                     f"{aborted} aborted, output in {out}"]
            failure = (f"abort fraction {aborted / n_requested:.2%} exceeds {_ABORT_THRESHOLD:.1%}"
                       if aborted > _ABORT_THRESHOLD * n_requested else None)

        out.mkdir(parents=True, exist_ok=True)
        if result is not None:
            files = int(np.count_nonzero(result.sample_count))
            width = max(3, len(str(files - 1)))
            paths = [out / f"trajectory_{i:0{width}d}.csv" for i in range(files)]
            _write_trajectory_csvs(paths, result.samples, result.sample_count, cfg.params.x_speed)
        _write_summary(out, cfg, fields)
        print("\n".join(lines))
    except (PairslitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy names the array it could not allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    if failure is not None:
        print(failure, file=sys.stderr)
    return 0 if failure is None else 2


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; each parse_args fills a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="pairslit",
        description="Two-particle double-slit trajectory simulator",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="scenario", required=True)
    for name, spec in _SCENARIOS.items():
        sp = sub.add_parser(name, help=spec.help)
        sp.add_argument("--config", help="JSON config file (flags win over file values)")
        for flag, (_, kwargs) in _FLAGS.items():
            sp.add_argument(flag, **kwargs)
    return parser


def main(argv=None) -> int:
    """Parse argv and validate its config (bad ones exit 1), then return run_scenario's code."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage; fold that into the config-error code.
        return 0 if exc.code in (0, None) else 1
    flags = {flag: getattr(args, flag[2:].replace("-", "_")) for flag in _FLAGS}  # argparse's dests
    try:
        cfg = validate_config(args.config, args.scenario, flags)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 1
    return run_scenario(cfg)


if __name__ == "__main__":
    sys.exit(main())
