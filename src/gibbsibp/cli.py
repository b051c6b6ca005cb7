"""Command-line runs for simulation, primitives, growth statistics,
calibration, model fitting, and sampler diagnostics.

Every subcommand resolves its flags into a RunConfig, executes
deterministically under --seed, and writes its artifacts (CSV data, a JSON
manifest, and a re-runnable key=value config file) into --outdir.

Exit codes: 0 success, 2 usage error (before any draw: a flag out of range, a
size limit, data that is not a finite matrix, or a calibrate target E[B_n]
never reaches), 3 numeric failure or a run out of memory.
"""

import argparse
import csv
import json
import math
import os
import sys
import warnings
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .gibbs_weights import (
    MIN_MC_SAMPLES,
    GibbsModel,
    McConfig,
    McDegeneracyError,
    NormalizationError,
    _calibrate,
    build_primitive_cache,
    build_weight_table,
    check_calibration_target,
    load_weight_table,
    save_weight_table,
    table_cache_path,
)
from .ibp import (
    export_allocation_csv,
    export_statistics_csv,
    feature_statistics,
    powerlaw_constant,
    simulate_ibp,
)
from .inference import GEWEKE_MIN_ROUNDS, ChainConfig, Priors, geweke_check, run_chain
from .special_functions import TableSizeError

MODEL_CHOICES = ("dp", "py", "ngg", "nig")
CACHE_DIR_ENV = "GIBBSIBP_CACHE_DIR"
CALIBRATE_N = 50  # calibrate's --n when none is given


class UsageError(ValueError):
    """A usage error a runner finds only once it reads its input."""


@dataclass
class RunConfig:
    """Resolved flags for one run; serializes to a key=value file that
    re-executes to byte-identical CSV output."""

    subcommand: str
    model: str = None
    alpha: float = None
    theta: float = None
    beta: float = None
    gamma: float = 1.0
    n: int = None
    n_max: int = None
    p: int = None
    seed: int = 0
    samples: int = 100_000
    outdir: str = "."
    cache_dir: str = None
    models: list = None
    family: str = None
    target: float = None
    data: str = None
    iterations: int = 1000
    burn_in: int = 0
    thin: int = 1
    rounds: int = 10_000
    lambda1: float = 1.0
    lambda2: float = 1.0
    sigma_y: float = 1.0
    sigma_w: float = 1.0
    sigma_a: float = 1.0
    fix_gamma: bool = False
    update_scales: bool = False
    update_theta: bool = False
    update_alpha: bool = False

    @classmethod
    def from_args(cls, args):
        known = {f.name for f in fields(cls)}
        values = {k: v for k, v in vars(args).items() if k in known and v is not None}
        return cls(**values)

    def to_text(self):
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            if f.name == "models":
                value = " ".join(value)
            elif isinstance(value, bool):
                value = "true" if value else "false"
            lines.append(f"{f.name} = {value}")
        return "\n".join(lines) + "\n"

    def build_model(self):
        """GibbsModel from the singular model flags."""
        if self.model is None:
            raise ValueError("--model is required")
        return _model_from_parts(
            self.model, self.alpha, self.theta, self.beta, self.samples, self.seed
        )


def read_config_file(path):
    """Parse a key = value config file (one key per line, # comments); each
    value takes the type its RunConfig field declares."""
    values = {}
    types = {f.name: f.type for f in fields(RunConfig)}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line: {raw!r}")
        key, _, text = line.partition("=")
        key = key.strip().replace("-", "_")
        text = text.strip()
        kind = types.get(key)
        if kind is None:
            raise ValueError(f"unknown config key {key!r}")
        if kind is bool:
            if text not in ("true", "false"):
                raise ValueError(f"{key} must be true or false, got {text!r}")
            values[key] = text == "true"
        elif kind is list:
            values[key] = text.split()
        else:
            values[key] = kind(text)
    return values


def _model_from_parts(variant, alpha, theta, beta, samples, seed):
    variant = variant.lower()
    if variant == "dp":
        if theta is None:
            raise ValueError("dp needs --theta")
        return GibbsModel.dp(theta)
    if variant == "py":
        if alpha is None or theta is None:
            raise ValueError("py needs --alpha and --theta")
        return GibbsModel.py(alpha, theta)
    mc = McConfig(samples=samples, seed=seed)
    if variant == "ngg":
        if alpha is None or beta is None:
            raise ValueError("ngg needs --alpha and --beta")
        return GibbsModel.ngg(alpha, beta, mc_config=mc)
    if variant == "nig":
        if beta is None:
            raise ValueError("nig needs --beta")
        return GibbsModel.nig(beta, mc_config=mc)
    raise ValueError(f"unknown model {variant!r}")


def _model_from_spec(text, samples, seed):
    """Parse a compact spec like py:alpha=0.5,theta=1 or dp:theta=1."""
    variant, _, body = text.partition(":")
    params = {}
    if body:
        for item in body.split(","):
            key, _, value = item.partition("=")
            if not value:
                raise ValueError(f"bad model spec {text!r}")
            params[key.strip()] = float(value)
    allowed = {"alpha", "theta", "beta"}
    if set(params) - allowed:
        raise ValueError(f"bad model spec {text!r}")
    return _model_from_parts(
        variant, params.get("alpha"), params.get("theta"), params.get("beta"),
        samples, seed,
    )


def _cached_table(model, n_max, cache_dir):
    """Load a weight table from the disk cache named by --cache-dir or
    GIBBSIBP_CACHE_DIR, building on a miss; with neither, store nothing."""
    directory = cache_dir or os.environ.get(CACHE_DIR_ENV)
    if not directory:
        return build_weight_table(model, n_max)
    path = table_cache_path(model, n_max, directory)
    if path.exists():
        table, _ = load_weight_table(path)
        return table
    table = build_weight_table(model, n_max)
    save_weight_table(table, model, path)
    return table


def _cache_for(model, n, cache_dir):
    table = None if model.is_closed_form else _cached_table(model, n, cache_dir)
    return build_primitive_cache(model, n, table=table)


def _prepare_outdir(config):
    outdir = Path(config.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir


def _finish(outdir, config, outputs, extra=None):
    (outdir / "config.txt").write_text(config.to_text())
    manifest = {
        "config": {k: v for k, v in asdict(config).items() if v is not None},
        "outputs": sorted(outputs),
    }
    if extra:
        manifest.update(extra)
    with open(outdir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    for name in sorted(outputs) + ["config.txt", "manifest.json"]:
        print(outdir / name)


def _validate(config):
    models = []
    if config.seed < 0:
        raise ValueError("--seed must be >= 0")
    if config.gamma < 0:
        raise ValueError("--gamma must be >= 0")
    if config.subcommand in ("simulate", "primitives", "fit", "geweke"):
        models.append(config.build_model())
    if config.subcommand in ("simulate", "primitives", "geweke") and (
        config.n is None or config.n < 1
    ):
        raise ValueError("--n must be a positive integer")
    if config.subcommand in ("fit", "geweke"):
        for name in ("lambda1", "lambda2", "sigma_y", "sigma_w", "sigma_a"):
            if not getattr(config, name) > 0:
                raise ValueError(f"--{name.replace('_', '-')} must be positive")
        for name in ("sigma_y", "sigma_w", "sigma_a"):
            # the samplers divide by the variance, so it must be a
            # positive normal double
            value = getattr(config, name)
            if not sys.float_info.min <= value * value <= sys.float_info.max:
                raise ValueError(
                    f"--{name.replace('_', '-')} squared must be a positive normal "
                    f"double (about 2.2e-308 to 1.8e308), got {value}"
                )
    if config.subcommand == "stats":
        if not config.models:
            raise ValueError("stats needs at least one --model spec")
        if config.n_max is None or config.n_max < 1:
            raise ValueError("--n-max must be a positive integer")
        for spec in config.models:
            models.append(_model_from_spec(spec, config.samples, config.seed))
    monte_carlo = any(not model.is_closed_form for model in models)
    if config.subcommand == "calibrate":
        if config.family is None or config.family.lower() not in MODEL_CHOICES:
            raise ValueError(f"--family must be one of {MODEL_CHOICES}")
        if config.target is None:
            raise ValueError("calibrate needs --target")
        if config.n is not None and config.n < 1:
            raise ValueError("--n must be a positive integer")
        if config.family.lower() in ("py", "ngg") and not (
            config.alpha is not None and 0 < config.alpha < 1
        ):
            raise ValueError(f"--family {config.family.lower()} needs --alpha in (0, 1)")
        monte_carlo = config.family.lower() in ("ngg", "nig")
    if monte_carlo and config.samples < MIN_MC_SAMPLES:
        raise ValueError(
            f"--samples must be at least {MIN_MC_SAMPLES} for Monte Carlo weights, "
            f"got {config.samples}"
        )
    if config.subcommand == "calibrate":
        n = CALIBRATE_N if config.n is None else config.n
        mc = McConfig(samples=config.samples, seed=config.seed)
        check_calibration_target(config.family.upper(), config.target, n, config.alpha, mc)
    if config.subcommand == "fit":
        if config.data is None:
            raise ValueError("fit needs --data")
        if not Path(config.data).exists():
            raise ValueError(f"data file not found: {config.data}")
        if config.iterations < 0 or config.burn_in < 0:
            raise ValueError("--iterations and --burn-in must be >= 0")
        if config.thin < 1:
            raise ValueError("--thin must be a positive integer")
        if config.iterations >= 1 and config.iterations - config.burn_in < config.thin:
            raise ValueError(
                f"--iterations {config.iterations} with --burn-in {config.burn_in} and "
                f"--thin {config.thin} keeps no sweep"
            )
        if config.update_alpha and models[0].variant not in ("PY", "NGG"):
            raise ValueError(
                f"--update-alpha needs a free discount (py or ngg); "
                f"{models[0].describe()} fixes alpha = {models[0].stable_index:g}"
            )
    if config.subcommand == "geweke":
        if config.p is None or config.p < 1:
            raise ValueError("--p must be a positive integer")
        if config.rounds < GEWEKE_MIN_ROUNDS:
            raise ValueError(f"--rounds must be at least {GEWEKE_MIN_ROUNDS}")


def run_simulate(config):
    outdir = _prepare_outdir(config)
    model = config.build_model()
    cache = _cache_for(model, config.n, config.cache_dir)
    allocation = simulate_ibp(model, config.gamma, config.n, config.seed, cache=cache)
    alloc_path = outdir / "allocation.csv"
    if allocation.dishes == 0:
        alloc_path.write_text("customer\r\n")
    else:
        export_allocation_csv(allocation, alloc_path)
    statistics = feature_statistics(allocation)
    export_statistics_csv(statistics, outdir / "statistics.csv")
    _finish(
        outdir, config, ["allocation.csv", "statistics.csv"],
        extra={"model": model.to_payload(), "dishes": allocation.dishes},
    )


def run_primitives(config):
    outdir = _prepare_outdir(config)
    model = config.build_model()
    n = config.n
    table = None if model.is_closed_form else _cached_table(model, n + 1, config.cache_dir)
    wide = build_primitive_cache(model, n + 1, table=table)
    deep = build_primitive_cache(model, n, table=table)
    path = outdir / "primitives.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "g10", "g11", "gs1"])
        for m in range(1, n + 1):
            gs1 = math.exp(deep.log_gs1[m - 1])
            writer.writerow([m, float(wide.g10[m]), float(wide.g11[m]), gs1])
    _finish(outdir, config, ["primitives.csv"], extra={"model": model.to_payload()})


def _stats_rows(spec, config):
    model = _model_from_spec(spec, config.samples, config.seed)
    cache = _cache_for(model, config.n_max, config.cache_dir)
    alpha = model.stable_index
    grid = np.arange(1, config.n_max + 1)
    expected = config.gamma * np.cumsum(cache.g11[: config.n_max])
    singles = config.gamma * grid * cache.g11[: config.n_max]
    scale = grid.astype(float) ** alpha if alpha > 0 else np.ones(grid.size)
    constant = powerlaw_constant(model)
    rows = [
        [spec, int(m), expected[m - 1], singles[m - 1], expected[m - 1] / scale[m - 1]]
        for m in grid
    ]
    return rows, {
        "model": model.to_payload(),
        "powerlaw_constant": constant,
        "expected_dishes_at_n_max": expected[-1],
    }


def run_stats(config):
    outdir = _prepare_outdir(config)
    results = [_stats_rows(spec, config) for spec in config.models]
    path = outdir / "stats.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["model", "n", "expected_dishes", "expected_singleton_dishes",
             "expected_dishes_scaled"]
        )
        for rows, _ in results:
            writer.writerows(rows)
    summaries = {spec: summary for spec, (_, summary) in zip(config.models, results)}
    _finish(outdir, config, ["stats.csv"], extra={"models": summaries})


def run_calibrate(config):
    outdir = _prepare_outdir(config)
    family = config.family.upper()
    n = CALIBRATE_N if config.n is None else config.n
    mc = McConfig(samples=config.samples, seed=config.seed)
    fitted, achieved, mc_error = _calibrate(family, config.target, n, config.alpha, mc)
    report = {
        "family": family,
        "alpha": config.alpha,
        "parameter_name": "theta" if family in ("DP", "PY") else "beta",
        "fitted_parameter": fitted,
        "target": config.target,
        "achieved": achieved,
        "mc_error": mc_error,
        "n": n,
        "samples": config.samples,
        "seed": config.seed,
    }
    with open(outdir / "calibration.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    _finish(outdir, config, ["calibration.json"], extra={"calibration": report})


def _chain_config(config):
    return ChainConfig(
        iterations=config.iterations,
        burn_in=config.burn_in,
        thin=config.thin,
        seed=config.seed,
        priors=Priors(lambda1=config.lambda1, lambda2=config.lambda2),
        update_gamma=not config.fix_gamma,
        update_alpha=config.update_alpha,
        update_theta=config.update_theta,
        update_scales=config.update_scales,
        sigma_y=config.sigma_y,
        sigma_w=config.sigma_w,
        sigma_a=config.sigma_a,
        gamma_init=config.gamma,
        mc_samples=config.samples,
    )


def _read_data(path):
    """The data matrix of a fit: a non-empty 2-D CSV matrix of finite
    numbers, or a UsageError that names what is wrong (for a non-finite
    cell, the first one, counting rows and columns from 1)."""
    with warnings.catch_warnings():
        # an empty file warns before it is refused below
        warnings.simplefilter("ignore", UserWarning)
        try:
            y = np.loadtxt(path, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise UsageError(f"data file {path} is not a CSV matrix of numbers: {exc}") from None
    if y.size == 0:  # loadtxt's ndmin=2 makes every other file 2-D
        raise UsageError(f"data file {path} holds no data matrix")
    bad = np.argwhere(~np.isfinite(y))
    if bad.size:
        row, col = bad[0].tolist()
        raise UsageError(
            f"data must be finite: row {row + 1}, column {col + 1} of {path} is {y[row, col]}"
        )
    return y


def run_fit(config):
    outdir = _prepare_outdir(config)
    model = config.build_model()
    y = _read_data(config.data)
    archive = run_chain(y, model, _chain_config(config))
    archive.to_csv(outdir / "samples.csv")
    dishes = archive.column("dishes")
    extra = {
        "chain": archive.manifest,
        "n": int(y.shape[0]),
        "p": int(y.shape[1]),
        "retained": len(archive.records),
        "dishes_mean": float(dishes.mean()) if len(dishes) else None,
    }
    _finish(outdir, config, ["samples.csv"], extra=extra)


def run_geweke(config):
    outdir = _prepare_outdir(config)
    model = config.build_model()
    scores = geweke_check(
        model, config.n, config.p, _chain_config(config),
        rounds=config.rounds, seed=config.seed,
    )
    path = outdir / "zscores.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["statistic", "z_score"])
        for name, z in scores.items():
            writer.writerow([name, z])
    _finish(
        outdir, config, ["zscores.csv"],
        extra={"model": model.to_payload(), "z_scores": scores},
    )


_RUNNERS = {
    "simulate": run_simulate,
    "primitives": run_primitives,
    "stats": run_stats,
    "calibrate": run_calibrate,
    "fit": run_fit,
    "geweke": run_geweke,
}


def _add_common(sub):
    sub.add_argument("--seed", type=int, help="RNG seed (default 0)")
    sub.add_argument("--samples", type=int, help="Monte Carlo sample count")
    sub.add_argument("--outdir", help="output directory (default .)")
    sub.add_argument("--config", help="key = value config file with flag defaults")
    sub.add_argument("--cache-dir", dest="cache_dir",
                     help="weight-table cache directory (or set GIBBSIBP_CACHE_DIR)")


def _add_prior_flags(sub):
    sub.add_argument("--lambda1", type=float, help="gamma prior shape")
    sub.add_argument("--lambda2", type=float, help="gamma prior rate")
    sub.add_argument("--sigma-y", dest="sigma_y", type=float, help="noise scale (fit: initial)")
    sub.add_argument("--sigma-w", dest="sigma_w", type=float, help="weight scale (fit: initial)")
    sub.add_argument("--sigma-a", dest="sigma_a", type=float, help="loading scale (fit: initial)")


def _add_model_flags(sub):
    sub.add_argument("--model", choices=MODEL_CHOICES, help="model variant")
    sub.add_argument("--alpha", type=float, help="discount in (0,1)")
    sub.add_argument("--theta", type=float, help="concentration (dp/py)")
    sub.add_argument("--beta", type=float, help="tilt parameter (ngg/nig)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gibbsibp",
        description="Simulation, diagnostics, and inference for Gibbs-type "
        "feature allocation models.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    registry = {}

    p = registry["simulate"] = sub.add_parser(
        "simulate", help="draw one feature allocation and its statistics")
    _add_model_flags(p)
    p.add_argument("--gamma", type=float, help="mass parameter (default 1)")
    p.add_argument("--n", type=int, help="number of customers")
    _add_common(p)

    p = registry["primitives"] = sub.add_parser(
        "primitives", help="tabulate g_m(1,0), g_m(1,1), g_{n-s}(s,1)")
    _add_model_flags(p)
    p.add_argument("--n", type=int, help="table depth")
    _add_common(p)

    p = registry["stats"] = sub.add_parser(
        "stats", help="expected dish-count trajectories and power-law constants")
    p.add_argument(
        "--model", dest="models", action="append", metavar="SPEC",
        help="compact model spec, e.g. py:alpha=0.5,theta=1 (repeatable)")
    p.add_argument("--gamma", type=float, help="mass parameter (default 1)")
    p.add_argument("--n-max", dest="n_max", type=int, help="largest n to tabulate")
    _add_common(p)

    p = registry["calibrate"] = sub.add_parser(
        "calibrate", help="solve for the parameter hitting a target block count")
    p.add_argument("--family", choices=MODEL_CHOICES, help="model family")
    p.add_argument("--alpha", type=float, help="discount (py/ngg)")
    p.add_argument("--target", type=float, help="desired expected block count")
    p.add_argument("--n", type=int, help="partition size (default 50)")
    _add_common(p)

    p = registry["fit"] = sub.add_parser(
        "fit", help="posterior sampling for the latent feature model")
    _add_model_flags(p)
    p.add_argument("--data", help="CSV matrix of observations (no header)")
    p.add_argument("--gamma", type=float, help="initial mass parameter")
    p.add_argument("--iterations", type=int, help="total sweeps (default 1000)")
    p.add_argument("--burn-in", dest="burn_in", type=int, help="discarded sweeps")
    p.add_argument("--thin", type=int, help="keep every thin-th sweep")
    _add_prior_flags(p)
    p.add_argument("--fix-gamma", dest="fix_gamma", action="store_true",
                   help="hold gamma at its initial value")
    p.add_argument("--update-scales", dest="update_scales", action="store_true",
                   help="draw the scale parameters from their inverse-gamma conditionals")
    p.add_argument("--update-theta", dest="update_theta", action="store_true",
                   help="slice-sample theta (dp/py) or beta (ngg/nig)")
    p.add_argument("--update-alpha", dest="update_alpha", action="store_true",
                   help="slice-sample the discount")
    _add_common(p)

    p = registry["geweke"] = sub.add_parser(
        "geweke", help="joint-distribution z-scores for the posterior sampler")
    _add_model_flags(p)
    p.add_argument("--n", type=int, help="rows in the synthetic data")
    p.add_argument("--p", type=int, help="columns in the synthetic data")
    p.add_argument("--rounds", type=int, help="rounds per side (default 10000)")
    _add_prior_flags(p)
    _add_common(p)

    return parser, registry


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, registry = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            file_values = read_config_file(args.config)
            stored = file_values.pop("subcommand", args.subcommand)
            if stored != args.subcommand:
                parser.error(
                    f"config file was written for {stored!r}, not {args.subcommand!r}"
                )
            models = file_values.pop("models", None)
            registry[args.subcommand].set_defaults(**file_values)
            args = parser.parse_args(argv)
            if models and not getattr(args, "models", None):
                args.models = models
        config = RunConfig.from_args(args)
        _validate(config)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValueError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    try:
        _RUNNERS[config.subcommand](config)
    except (TableSizeError, UsageError) as exc:
        # the library refuses a table or draw set past its limit before
        # building any of it; fit refuses its data before any draw
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (McDegeneracyError, NormalizationError, ValueError, RuntimeError,
            FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"out of memory: {str(exc) or 'the run needs more memory than is free'}",
              file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
