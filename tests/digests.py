"""One SHA-256 per named case over the program's outputs, for "bitwise the same" claims.

A runnable helper beside work_precision.py, not a test module. From the
repository root:

    PYTHONPATH=src python tests/digests.py > tree.txt

prints one line, "<case> <sha256>", per case:

- integrate_pairs (table, count, status) in dispatch, batch-only and
  scalar-only modes, over both regimes and statistics, density floors 1e-12,
  1e-4 and 1e-2 and 2, 11 and 101 samples, and at the default floor on an
  uneven grid (UNEVEN); fermion batches add releases on and next to the
  diagonal; the boson releases NEAR_DIAGONAL at 101 samples in each mode,
  whose steps and samples fold back at d = 0; and 4,096 slow pairs per
  statistics in dispatch mode with 2 samples, the default IntegratorConfig.
  Each pair's outcome is hashed by name, None, "completed" or
  "node_proximity_abort", whether the tree returns int8 end codes or an
  object array of TrajectoryStatus members and None, as trees before the
  codes did;
- sample_joint_y draws and the generator's end state, and sample_initial for
  each method;
- run_ensemble as the benchmark runs it (exact rejection, 250 pairs, the
  default IntegratorConfig, endpoints only) over both regimes and statistics
  at seeds 5 and 31, every EnsembleResult field by value and Python type;
- binned_tv_distance on points on the grid's edges, at +-inf and NaN;
- joint_density_y on both TV grids' quadrature nodes at t = 0 and t_end,
  and at small beta next to the fermion diagonal; normalization_N from
  beta = 1e-6 to 10;
- the four-slit amplitudes on point arrays, and the velocities at points;
- every file that scripts/run_all_scenarios.py --seed SEED writes.

To compare two trees, run the helper on each and diff the outputs, for
example against a checkout of another commit in DIR:

    python tests/digests.py --repo DIR > other.txt
    diff other.txt tree.txt

--repo takes pairslit from DIR/src and runs DIR/scripts/run_all_scenarios.py.
Run each side once as is and once with numpy's AVX-512 paths off
(NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"): their last bits
differ from libm's. No digest is kept in the repository, since hosts and
libm differ in the last bits too.
"""

import argparse
import dataclasses
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent


def sha(*parts) -> str:
    """SHA-256 over parts: arrays by dtype, shape and bytes, anything else by repr."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(f"{part.dtype}{part.shape}".encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


# The outcome names of end codes 0, 1 and 2: None for a pair not integrated,
# then the string values of the statuses of trees before the codes.
OUTCOMES = (None, "completed", "node_proximity_abort")


def digest(table, count, status) -> str:
    """sha over an integrate_pairs result, each pair's outcome by name (see OUTCOMES)."""
    status = np.asarray(status)
    if status.dtype == object:
        names = [None if s is None else s.value for s in status]
    else:
        names = [OUTCOMES[code] for code in status.tolist()]
    return sha(table, np.asarray(count, np.int64), names)


# A sample grid that is not linspace, as fractions of t_end: several samples
# inside one step, steps that cover none, and a sample just below t_end.
UNEVEN = np.array((0.0, 1e-6, 2e-6, 1e-3, 0.3, 0.3 + 1e-9, 1.0 - 1e-6, 1.0))

# Boson pairs released within 1e-9 sigma0 of the diagonal, on either side of
# it, as (y1, y2) / sigma0. At beta = 5 the flow contracts d toward 0, far
# below abs_tol, so some steps overshoot 0 within the tolerance (15 of them
# on these 42 pairs in either regime, with numpy's AVX-512 paths on or off)
# and the continuous extension dips below 0 between states (168 slow and 387
# fast samples at 101 sample times).
NEAR_DIAGONAL = np.array([(c + s * d, c - s * d)
                          for c in (-1.0, 0.3, 2.0) for s in (1.0, -1.0)
                          for d in (1e-13, 3e-13, 1e-12, 3e-12, 1e-11, 1e-10, 1e-9)])


def integrate_cases(pairslit):
    from pairslit import integrator

    modes = {"dispatch": integrator._BATCH_MIN, "batch": 1, "scalar": 10**9}

    def in_modes(*args, **kwargs):
        for mode, batch_min in modes.items():
            integrator._BATCH_MIN = batch_min
            try:
                out = integrator.integrate_pairs(*args, **kwargs)
            finally:
                integrator._BATCH_MIN = modes["dispatch"]
            yield mode, out

    for regime, speed in (("fast", 2.0e7), ("slow", 2.0e6)):
        p = pairslit.PhysicalParams.baseline(x_speed=speed)
        t_end = p.flight_time
        for k, stats in enumerate(pairslit.SpinStatistics):
            sampler = pairslit.SamplerConfig(n_pairs=40, seed=100 + k)
            initial = pairslit.sample_initial(sampler, stats, p, np.random.default_rng(sampler.seed))
            if stats is pairslit.SpinStatistics.FERMION:
                s0 = p.sigma0
                near = [(y, y - gap * s0) for y in (0.3 * s0, -1.1 * s0, p.Y)
                        for gap in (0.0, 1e-9, 1e-6, 1e-3)]
                initial = np.concatenate([initial, near])
            grids = {f"floor={floor:g}/S={samples}": (floor, np.linspace(0.0, t_end, samples))
                     for floor in (1e-12, 1e-4, 1e-2) for samples in (2, 11, 101)}
            grids["grid=uneven"] = (pairslit.IntegratorConfig().density_floor, t_end * UNEVEN)
            for label, (floor, times) in grids.items():
                cfg = pairslit.IntegratorConfig(density_floor=floor)
                for mode, out in in_modes(initial, t_end, cfg, stats, p, sample_times=times):
                    yield f"integrate_pairs/{regime}/{stats.value}/{label}/{mode}", digest(*out)
        times = np.linspace(0.0, t_end, 101)
        for mode, out in in_modes(NEAR_DIAGONAL * p.sigma0, t_end, pairslit.IntegratorConfig(),
                                  pairslit.SpinStatistics.BOSON, p, sample_times=times):
            yield f"integrate_pairs/{regime}/boson/near-diagonal/{mode}", digest(*out)
    # one wide batch per statistics, which the batch loop carries for
    # hundreds of steps at thousands of lanes
    p = pairslit.PhysicalParams.baseline(x_speed=2.0e6)
    for k, stats in enumerate(pairslit.SpinStatistics):
        sampler = pairslit.SamplerConfig(n_pairs=4096, seed=200 + k)
        initial = pairslit.sample_initial(sampler, stats, p, np.random.default_rng(sampler.seed))
        out = integrator.integrate_pairs(initial, p.flight_time, pairslit.IntegratorConfig(), stats, p)
        yield f"integrate_pairs/slow/{stats.value}/n=4096/S=2/dispatch", digest(*out)


def sampling_cases(pairslit):
    for regime, speed in (("fast", 2.0e7), ("slow", 2.0e6)):
        p = pairslit.PhysicalParams.baseline(x_speed=speed)
        for stats in pairslit.SpinStatistics:
            for t in (0.0, p.tau, p.flight_time):
                for n in (1, 250, 5000):
                    rng = np.random.default_rng(7)
                    draws = pairslit.sample_joint_y(n, t, stats, p, rng)
                    yield (f"sample_joint_y/{regime}/{stats.value}/T={t / p.tau:.6g}/n={n}",
                           sha(draws, rng.bit_generator.state))
            for method in ("exact_rejection", "independent_gaussian"):
                cfg = pairslit.SamplerConfig(method=method, n_pairs=300, seed=11)
                initial = pairslit.sample_initial(cfg, stats, p, np.random.default_rng(cfg.seed))
                yield f"sample_initial/{regime}/{stats.value}/{method}", sha(initial)


def ensemble_cases(pairslit):
    for regime, speed in (("fast", 2.0e7), ("slow", 2.0e6)):
        p = pairslit.PhysicalParams.baseline(x_speed=speed)
        for stats in pairslit.SpinStatistics:
            for seed in (5, 31):
                sampler = pairslit.SamplerConfig("exact_rejection", 250, seed)
                result = pairslit.run_ensemble(
                    sampler, pairslit.IntegratorConfig(), stats, p, p.flight_time)
                fields = [getattr(result, f.name) for f in dataclasses.fields(result)]
                yield (f"run_ensemble/{regime}/{stats.value}/seed={seed}",
                       sha(*fields, [type(v).__name__ for v in fields]))


def scoring_cases(pairslit):
    from pairslit.ensemble import _exact_bin_masses

    for regime, speed in (("fast", 2.0e7), ("slow", 2.0e6)):
        p = pairslit.PhysicalParams.baseline(x_speed=speed)
        for stats in pairslit.SpinStatistics:
            for t in (0.0, p.flight_time):
                edges = _exact_bin_masses(t, stats, p)[0]
                rng = np.random.default_rng(3)
                on_edges = rng.choice(edges, size=(500, 2))
                odd = np.array([[np.inf, 0.0], [-np.inf, 0.0], [0.0, np.nan], [np.nan, np.nan],
                                [edges[-1], edges[-1]], [edges[0], edges[-1]],
                                [np.nextafter(edges[-1], np.inf), 0.0]])
                cases = {"edges": on_edges, "odd": odd,
                         "mixed": np.concatenate([on_edges, odd, rng.normal(size=(500, 2))])}
                for label, points in cases.items():
                    tv = pairslit.binned_tv_distance(points * p.sigma0, t, stats, p)
                    yield (f"binned_tv_distance/{regime}/{stats.value}/"
                           f"T={t / p.tau:.6g}/{label}", sha(np.float64(tv)))


def density_cases(pairslit):
    """joint_density_y on the TV grids' quadrature nodes and next to the diagonal; normalization_N.

    The TV grids are the nodes of ensemble._exact_bin_masses. The small-beta
    points take sigma0 = tau = 1, so beta, eta and T reach the density
    unrounded, with half-separations from 1e-9 to 1 at centres 0 and 1.3.
    """
    from pairslit.ensemble import _GL_PER_BIN, _exact_bin_masses
    from pairslit.quadrature import gauss_legendre

    def unit(beta):
        return pairslit.PhysicalParams(m=0.5, hbar=1.0, sigma0=1.0, Y=beta, kx=1.0, d=1.0, L=1.0)

    for regime, speed in (("fast", 2.0e7), ("slow", 2.0e6)):
        p = pairslit.PhysicalParams.baseline(x_speed=speed)
        for stats in pairslit.SpinStatistics:
            for t in (0.0, p.flight_time):
                edges = _exact_bin_masses(t, stats, p)[0]
                x = gauss_legendre(edges[:-1, None], edges[1:, None], _GL_PER_BIN)[0].ravel()
                y = x * p.sigma0
                yield (f"joint_density_y/{regime}/{stats.value}/T={t / p.tau:.6g}/tv_grid",
                       sha(pairslit.joint_density_y(y[:, None], y[None, :], t, stats, p)))
    d = np.concatenate([-np.logspace(-9.0, 0.0, 37), [0.0], np.logspace(-9.0, 0.0, 37)])
    for beta in (1e-6, 1e-4, 1e-2, 0.3, 1.0, 5.0):
        for stats in pairslit.SpinStatistics:
            for T in (0.0, 0.1, 1.0):
                values = [pairslit.joint_density_y(c + d, c - d, T, stats, unit(beta))
                          for c in (0.0, 1.3)]
                yield (f"joint_density_y/unit/{stats.value}/beta={beta:g}/T={T:g}/near_diagonal",
                       sha(np.stack(values)))
    for stats in pairslit.SpinStatistics:
        values = [pairslit.normalization_N(stats, unit(float(beta)))
                  for beta in np.logspace(-6.0, 1.0, 57)]
        yield f"normalization_N/{stats.value}", sha(np.array(values))


def fourslit_cases(pairslit):
    from pairslit import fourslit

    for regime, speed in (("fast", 2.0e7), ("slow", 2.0e6)):
        p = pairslit.PhysicalParams.baseline(x_speed=speed)
        rng = np.random.default_rng(5)
        s0, t = p.sigma0, p.flight_time / 3
        n = 200
        x_out = p.d + rng.uniform(0.0, 4.0 * s0, size=(2, n))
        ys = rng.uniform(-3.0 * s0, 3.0 * s0, size=(2, n))
        regions = {fourslit.SlitRegion.RIGHT_LEFT: (x_out[0], -x_out[1]),
                   fourslit.SlitRegion.LEFT_RIGHT: (-x_out[0], x_out[1])}
        for stats in pairslit.SpinStatistics:
            x1 = rng.uniform(-3 * s0, 3 * s0, size=n)
            x2 = rng.uniform(-3 * s0, 3 * s0, size=n)
            c = pairslit.PairConfiguration(x1, ys[0], x2, ys[1], t)
            yield (f"naive_four_slit_psi/{regime}/{stats.value}",
                   sha(fourslit.naive_four_slit_psi(stats, c, p)))
            velocities = []
            for i in range(20):
                point = pairslit.PairConfiguration(float(x1[i]), float(ys[0, i]), float(x2[i]),
                                                   float(ys[1, i]), t)
                try:
                    velocities.append(fourslit.naive_velocity(point, stats, p))
                except pairslit.PairslitError as exc:
                    velocities.append(type(exc).__name__)
            yield f"naive_velocity/{regime}/{stats.value}", sha(velocities)
        for region, (x1, x2) in regions.items():
            c = pairslit.PairConfiguration(x1, ys[0], x2, ys[1], t)
            yield (f"corrected_four_slit_psi/{regime}/{region.value}",
                   sha(fourslit.corrected_four_slit_psi(region, c, p)))
            velocities = [
                fourslit.corrected_velocity(region, pairslit.PairConfiguration(
                    float(x1[i]), float(ys[0, i]), float(x2[i]), float(ys[1, i]), t), p)
                for i in range(20)
            ]
            yield f"corrected_velocity/{regime}/{region.value}", sha(velocities)


def scenario_files(repo: Path, seed: int):
    """Digest each file that the repo's scenario script writes, by its path under the root."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(repo / "src"), os.environ.get("PYTHONPATH")]))}
    with tempfile.TemporaryDirectory() as tmp:
        # a relative root, so summary.json records the same output_dir on every tree
        subprocess.run([sys.executable, str(repo / "scripts" / "run_all_scenarios.py"),
                        "--root", "runs", "--seed", str(seed)],
                       cwd=tmp, env=env, check=True, stdout=subprocess.DEVNULL)
        root = Path(tmp)
        for path in sorted(root.rglob("*")):
            if path.is_file():
                yield f"run_all_scenarios/{path.relative_to(root)}", sha(path.read_bytes())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repo", type=Path, default=REPO,
                    help="tree whose src/ and scripts/ are digested (default: this one)")
    ap.add_argument("--seed", type=int, default=5, help="seed of the scenario script run")
    args = ap.parse_args(argv)
    repo = args.repo.resolve()
    sys.path.insert(0, str(repo / "src"))
    import pairslit

    if not Path(pairslit.__file__).resolve().is_relative_to(repo):
        raise SystemExit(f"pairslit was imported from {pairslit.__file__}, not from {repo}")
    for cases in (integrate_cases(pairslit), sampling_cases(pairslit), ensemble_cases(pairslit),
                  scoring_cases(pairslit), density_cases(pairslit), fourslit_cases(pairslit),
                  scenario_files(repo, args.seed)):
        for name, digest in cases:
            print(name, digest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
