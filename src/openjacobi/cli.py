"""Reproducible experiment driver.

One JSON config (or inline flags) fully determines a run: every random
number flows from a single mandatory master seed, outputs embed the
resolved config, and results are byte-identical across repeated runs and
worker counts.  Exit codes: 0 success, 2 config/validation error (a bad
config, an invalid model, a point off the simplex), 3 numerical-diagnostic
failure (divergence, low sampler quality, under-resolved discretization),
4 any other error, which is a bug.  Errors go to stderr as single-line JSON.

The library returns result types and writes no file: each ``cmd_*`` lays
out its report, whose keys and columns are field names unless it says not.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import traceback
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, astuple, fields
from pathlib import Path

import numpy as np

from . import boundary as boundary_mod
from . import invariant as invariant_mod
from . import pdlimit as pdlimit_mod
from . import portfolio as portfolio_mod
from . import sde as sde_mod
from ._util import SEED_LIMIT, mean_and_se, write_csv, write_json
from .simplex import (
    DivergentIntegralError,
    InvalidModelError,
    ModelParams,
    QuadratureError,
    SimplexError,
    as_simplex,
    ranked_weights,
    require_valid,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIAGNOSTIC = 3
EXIT_INTERNAL = 4


class ConfigError(ValueError):
    """The config or the command line does not describe a valid run."""


class DiagnosticError(RuntimeError):
    pass


def _fail(kind, exc, code):
    payload = {"error": kind, "detail": str(exc)}
    index = getattr(exc, "violated_index", None)
    if index is not None:
        payload["violated_index"] = index
    if code == EXIT_INTERNAL:
        payload["detail"] = f"{type(exc).__name__}: {exc}"
        payload["traceback"] = "".join(traceback.format_exception(exc))
    sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")
    return code


def load_config(path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"config key {key!r} is required")
    return cfg[key]


@contextmanager
def _config_block(name: str):
    """Read the config block ``name``: a missing key, a value of the wrong
    type or one its constructor rejects becomes a ``ConfigError``."""
    try:
        yield
    except (ConfigError, InvalidModelError, SimplexError):
        raise
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ConfigError(f"bad {name} block: {exc}") from exc


def _real(value) -> float:
    """A finite real number, read by ``float``; a bool is no number, and
    neither are the ``NaN`` and ``Infinity`` that JSON readers accept."""
    if isinstance(value, bool):
        raise ValueError(f"expected a number, got {value!r}")
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"expected a finite number, got {value!r}")
    return number


def _reals(values) -> list:
    """A JSON list of real numbers, each read by ``_real``."""
    if not isinstance(values, list):
        raise ValueError(f"expected a list of numbers, got {values!r}")
    return [_real(v) for v in values]


def _positive(value) -> float:
    value = _real(value)
    if not value > 0:
        raise ValueError(f"expected a positive number, got {value}")
    return value


def _count(value, minimum: int = 1) -> int:
    """A count (paths, draws, a size, a degree, a name, a rank or a seed): a
    whole number >= ``minimum``.  Integers are taken exactly, never through
    float, so 64-bit seeds keep every bit; a whole float (``1e5``) or an
    integer string ("7") is its integer; a bool is no count."""
    if isinstance(value, bool):
        number = None
    elif isinstance(value, (int, str)):
        number = int(value)
    else:
        number = float(value)
        number = int(number) if number.is_integer() else None
    if number is None or number < minimum:
        raise ValueError(f"expected a whole number >= {minimum}, got {value!r}")
    return number


def _counts(values) -> list:
    """A JSON list of counts (names or dimensions), each read by ``_count``."""
    if not isinstance(values, list):
        raise ValueError(f"expected a list of whole numbers, got {values!r}")
    return [_count(v) for v in values]


def model_from_config(cfg: dict) -> ModelParams:
    block = _require(cfg, "model")
    with _config_block("model"):
        a = _reals(block["a"])
        params = ModelParams(
            a=a,
            gamma=_reals(block.get("gamma", [0.0] * len(a))),
            sigma=_real(block.get("sigma", 1.0)),
        )
    require_valid(params)
    return params


def _x0(cfg_block, d):
    x0 = cfg_block.get("x0", "uniform")
    if isinstance(x0, str):
        if x0 != "uniform":
            raise ConfigError(f"unknown x0 spec {x0!r}")
        return np.full(d, 1.0 / d)
    x0 = as_simplex(_reals(x0))
    if x0.size != d:
        raise ConfigError(f"x0 has {x0.size} entries for a model with d={d}")
    return x0


def _parallel_batches(params, x0, T, dt, seed, n_paths, threads, observers):
    """Simulate consecutive path ranges on a worker pool, which share the
    observers (``run_paths`` copies them per chunk), and join their batches
    in path order, so the outcome does not depend on the number of workers."""
    jobs = [c for c in np.array_split(np.arange(n_paths), threads) if c.size]

    def run(job):
        return sde_mod.run_paths(params, x0, T, dt, seed, n_paths=job.size,
                                 observers=observers, path_offset=int(job[0]))

    if threads <= 1 or len(jobs) == 1:
        return sde_mod.join_batches([run(job) for job in jobs])
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return sde_mod.join_batches(list(pool.map(run, jobs)))


def _euler_meta():
    """``meta`` entries of a report whose run took Euler steps."""
    return {"euler_backend": sde_mod.euler_backend()}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(cfg, out, threads):
    params = model_from_config(cfg)
    with _config_block("sim"):
        sim = _require(cfg, "sim")
        T, dt = _positive(sim["T"]), _positive(sim["dt"])
        n_paths = _count(sim.get("paths", 1))
        x0 = _x0(sim, params.d)
    seed = cfg["seed"]
    batch = sde_mod.run_paths(params, x0, T, dt, seed, n_paths=n_paths, store=True)
    header = ["time"] + [f"x_{i}" for i in range(1, params.d + 1)]
    for path in batch.paths:
        write_csv(out / f"path_{path.path_index:04d}.csv", header,
                  np.column_stack((path.times, path.states)))
    summary = {name: getattr(batch, name) for name in (
        "n_paths", "n_steps", "dt", "horizon", "projection_rate", "under_resolved")}
    summary["per_path_projected"] = batch.n_projected
    write_json(out / "simulate_summary.json", {"results": summary}, cfg, meta=_euler_meta())
    if batch.under_resolved:
        raise DiagnosticError(
            f"under-resolved run: projection rate {batch.projection_rate:.2%} > 1%"
        )
    return EXIT_OK


def cmd_invariant(cfg, out, threads):
    params = model_from_config(cfg)
    with _config_block("sampler"):
        sampler = cfg.get("sampler", {})
        n = _count(sampler.get("n", 10_000))
        kind = sampler.get("kind", "ranked")
        method = sampler.get("method")
        if kind not in ("ranked", "named"):
            raise ConfigError(f"sampler kind must be 'ranked' or 'named', not {kind!r}")
        if method not in (None, *invariant_mod.SAMPLER_METHODS):
            raise ConfigError(f"unknown sampler method {method!r}")
        ergodic_cfg = cfg.get("ergodic")
        if ergodic_cfg:
            funcs = {name: invariant_mod.make_statistic(name, params.d)
                     for name in ergodic_cfg.get("functions", ["y1"])}
            T, dt = _positive(ergodic_cfg["T"]), _positive(ergodic_cfg["dt"])
            n_paths = _count(ergodic_cfg.get("paths", 8), minimum=2)
            z_threshold = _positive(cfg.get("tolerances", {}).get("ergodic_z", 3.0))
    seed = cfg["seed"]
    # the ergodic check needs named draws; ranking them gives back the
    # sampler's ranked rows, so one draw serves both
    sample = invariant_mod.sample_invariant(params, n, seed, method=method,
                                            kind="named" if ergodic_cfg else kind)
    draws = ranked_weights(sample.draws) if kind != sample.kind else sample.draws
    write_csv(out / "invariant_samples.csv",
              [f"x_{i}" for i in range(1, params.d + 1)], draws)
    payload = {
        "results": {
            "method": sample.method,
            "acceptance_rate": sample.acceptance_rate,
            "ess": sample.ess,
            "warnings": sample.warnings,
        }
    }
    report = None
    if ergodic_cfg:
        report = invariant_mod.ergodic_compare(
            params, funcs, sample, T=T, dt=dt, n_paths=n_paths, seed=seed,
            z_threshold=z_threshold,
        )
        payload["results"]["ergodic"] = [     # each entry's ``passed`` is written as "pass"
            {"pass" if key == "passed" else key: value for key, value in asdict(entry).items()}
            for entry in report.entries]
        payload["results"]["ergodic_pass"] = report.passed
    write_json(out / "invariant_report.json", payload, cfg,
               meta=_euler_meta() if report is not None else None)
    if sample.warnings:
        raise DiagnosticError("; ".join(sample.warnings))
    if report is not None and report.under_resolved:
        raise DiagnosticError("ergodic comparison ran under-resolved")
    return EXIT_OK


def cmd_growth(cfg, out, threads):
    params = model_from_config(cfg)
    with _config_block("growth"):
        n_top = _count(_require(cfg, "open_market_size"))
        exists, detail = portfolio_mod.growth_exists(params, n_top)     # checks 1 <= N < d
        growth_cfg = cfg.get("growth", {})
        method = growth_cfg.get("method", "mc")
        if method not in ("mc", "quadrature"):
            raise ConfigError(f"unknown growth method {method!r}")
        n = _count(growth_cfg.get("n", 100_000), minimum=2 if method == "mc" else 1)
        sim = growth_cfg.get("sim")
        if sim:
            T, dt = _positive(sim["T"]), _positive(sim["dt"])
            n_paths = _count(sim.get("paths", 4))
            x0 = _x0(sim, params.d)
    seed = cfg["seed"]
    payload = {"results": {"exists": exists, "existence_report": detail}}
    growth = batch = None
    if exists:
        try:
            growth = portfolio_mod.robust_growth_rate(params, n_top, method=method, n=n,
                                                      seed=seed)
            payload["results"]["robust_growth"] = asdict(growth)
            if growth.method != "mc":           # only the sampler gives warnings
                del payload["results"]["robust_growth"]["warnings"]
        except portfolio_mod.GrowthConditionError:
            pass                # the robust rate needs strict margins on a rank model
    if exists and sim:
        observer = portfolio_mod.WealthObserver(
            lambda x: portfolio_mod.growth_optimal_theta(x, params, n_top), params.sigma)
        batch = _parallel_batches(params, x0, T, dt, seed, n_paths, threads, {"wealth": observer})
        wealth = batch.observations["wealth"]
        payload["results"]["backtest"] = {
            "per_path_log_wealth": wealth["log_wealth"],
            "mean_rate": float(wealth["log_wealth"].mean() / batch.horizon),
            "horizon": batch.horizon,
            "n_guarded": wealth["n_guarded"],
            "projection_rate": batch.projection_rate,
        }
    write_json(out / "growth_report.json", payload, cfg,
               meta=None if batch is None else _euler_meta())
    if growth is not None and growth.warnings:
        raise DiagnosticError("; ".join(growth.warnings))
    if batch is not None and batch.under_resolved:
        raise DiagnosticError("wealth backtest ran under-resolved")
    return EXIT_OK


def cmd_boundary(cfg, out, threads):
    params = model_from_config(cfg)
    with _config_block("boundary"):
        block = _require(cfg, "boundary")
        query = boundary_mod.BoundaryQuery(
            kind=block.get("kind", "rank_hits"),
            k=None if block.get("k") is None else _count(block["k"]),
            names=tuple(_counts(block.get("names", []))),
        )
        query.analytic_avoids(params)       # checks k or the names against d
        T, dt = _positive(block.get("T", 50.0)), _positive(block.get("dt", 1e-3))
        eps = tuple(_positive(e) for e in _reals(block.get("eps", [1e-2, 1e-3, 1e-4])))
        n_paths = _count(block.get("paths", 500))
    table = boundary_mod.mc_hit_frequency(
        params, query, T=T, eps=eps, n_paths=n_paths, dt=dt, seed=cfg["seed"],
    )
    columns = ["eps", "frequency", "ci_lo", "ci_hi"]
    write_csv(out / "boundary_frequencies.csv", columns,
              zip(*(getattr(table, name) for name in columns)))
    verdict = asdict(table)
    verdict.update(verdict.pop("query"))      # kind, k and names at the top level
    write_json(out / "boundary_verdict.json", {"results": verdict}, cfg, meta=_euler_meta())
    if table.under_resolved:
        raise DiagnosticError("boundary simulation ran under-resolved")
    return EXIT_OK


def cmd_pd(cfg, out, threads):
    with _config_block("pd"):
        block = _require(cfg, "pd")
        theta = _real(_require(block, "theta"))
        n = _count(block.get("n", 100_000), minimum=2)
        pdlimit_mod.PDConfig(theta=theta)
        pdlimit_mod.require_stick_cap(theta, n)
        max_degree = _count(block.get("max_degree", 6), minimum=2)
    sums, tail_mass = pdlimit_mod.pd_power_sums(theta, n, cfg["seed"], max_degree)
    rows = []
    table = {}
    for ms in _multisets_up_to(max_degree):
        exact = pdlimit_mod.moment_recursion(theta, ms)
        vals = np.ones(n)
        for m in ms:
            vals = vals * sums[m - 2]
        mc, se = mean_and_se(vals)
        key = "*".join(f"phi{m}" for m in ms)
        rows.append((key, exact, mc, se))
        table[key] = exact
    write_csv(out / "pd_moments.csv", ["product", "recursion", "mc", "se"], rows)
    write_json(out / "pd_report.json", {
        "results": {
            "theta": theta,
            "n": n,
            "max_tail_mass": float(tail_mass.max()),
            "recursion_table": table,
        }
    }, cfg)
    return EXIT_OK


def _multisets_up_to(total):
    out = []

    def grow(prefix, remaining, minimum):
        for m in range(minimum, remaining + 1):
            out.append(tuple(prefix + [m]))
            grow(prefix + [m], remaining - m, m)

    grow([], total, 2)
    return sorted(out, key=lambda ms: (sum(ms), ms))


def cmd_limit(cfg, out, threads):
    with _config_block("limit"):
        block = _require(cfg, "pd")
        pd_cfg = pdlimit_mod.PDConfig(
            theta=_real(_require(block, "theta")),
            tilt=tuple(_reals(block.get("tilt", []))),
        )
        sched_block = _require(cfg, "schedule")
        if sched_block.get("tail", "flat") != "flat":
            raise ConfigError("schedule.tail must be 'flat', the schedule that reaches PD(theta)")
        schedule = pdlimit_mod.make_schedule(pd_cfg.theta, pd_cfg.tilt,
                                             d_list=_counts(sched_block["d_list"]))
        limit_block = cfg.get("limit", {})
        n = _count(limit_block.get("n", 100_000), minimum=2)
        pdlimit_mod.require_stick_cap(pd_cfg.theta, n)
        func_names = limit_block.get("functions", ["phi2"])
        funcs = {name: invariant_mod.make_statistic(name, min(schedule))
                 for name in func_names}
        growth_block = limit_block.get("growth")
        if growth_block:
            sigma = _positive(growth_block.get("sigma", 1.0))
            if _real(growth_block.get("N", pd_cfg.n_tilted)) != pd_cfg.n_tilted:
                raise ConfigError("limit.growth.N must equal the number of tilts")
            pdlimit_mod.require_limit_growth(pd_cfg)
    estimate = pdlimit_mod.tilted_estimator(pd_cfg, n, cfg["seed"], width=min(schedule))
    report = pdlimit_mod.convergence_experiment(schedule, estimate, funcs, n, cfg["seed"])
    write_csv(out / "limit_convergence.csv",
              [f.name for f in fields(pdlimit_mod.ConvergenceRow)],
              [astuple(row) for row in report.rows])
    payload = {"results": {"passed": report.passed, "final_gap_z": report.final_gap_z}}
    if growth_block:
        est = pdlimit_mod.limit_growth_rate(pd_cfg, sigma, estimate)
        payload["results"]["limit_growth"] = {
            "value": est.value, "se": est.se, "ess": est.ess,
        }
    write_json(out / "limit_report.json", payload, cfg)
    return EXIT_OK


COMMANDS = {
    "simulate": cmd_simulate,
    "invariant": cmd_invariant,
    "growth": cmd_growth,
    "boundary": cmd_boundary,
    "pd": cmd_pd,
    "limit": cmd_limit,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="openjacobi",
        description="Simulation and verification experiments for open-market "
                    "growth optimality under hybrid Jacobi market-weight dynamics.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", type=Path, help="JSON experiment config")
    parser.add_argument("--seed", type=int, help="master seed (overrides config)")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker pool size of the growth backtest; "
                             "the other commands ignore it")
    parser.add_argument("--out", type=Path, default=Path("."), help="output directory")
    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else {}
        if args.seed is not None:
            cfg["seed"] = args.seed
        if "seed" not in cfg:
            raise ConfigError("a master seed is required (config 'seed' or --seed)")
        with _config_block("seed"):
            cfg["seed"] = _count(cfg["seed"], minimum=0)
        if cfg["seed"] >= SEED_LIMIT:
            raise ConfigError("seed must be an integer in [0, 2**64)")
        if args.threads < 1:
            raise ConfigError(f"--threads must be a whole number >= 1, got {args.threads}")
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        handler = COMMANDS[args.command]
        return handler(cfg, out, args.threads)
    except (ConfigError, InvalidModelError, SimplexError) as exc:
        return _fail("validation", exc, EXIT_CONFIG)
    except (DiagnosticError, DivergentIntegralError, QuadratureError,
            invariant_mod.SamplerStallError, pdlimit_mod.HeavyTiltError,
            pdlimit_mod.TruncationError) as exc:
        return _fail("diagnostic", exc, EXIT_DIAGNOSTIC)
    except Exception as exc:           # a bug: report it with its traceback
        return _fail("internal", exc, EXIT_INTERNAL)


def main():  # console entry point
    sys.exit(run())


if __name__ == "__main__":
    main()
