"""Benchmark for the gibbsibp library and CLI.

    python3 perfbench/run.py --workload fit-py --seed 1 --seconds 25 --trace 0

Workloads (see perfbench/DESIGN.md for why each exists):
  fit-py   one op = one posterior sweep, PY(0.5, 1) with every move on
  fit-ngg  one op = one posterior sweep, NGG(0.5, 1) with the beta move
  prior    one op = one pass of the prior-side CLI and library calls

Each run does a fixed amount of work: ``--seconds`` times a nominal op rate
(OPS_PER_SECOND), so two commits given the same arguments run the same ops;
only a run whose ops take OP_TIME_CAP times longer than that stops early.
Ops run as a closed loop from one process; every op's output is checked
against exact references.  The last line of standard output is the result
object; the line before it is a report with run metadata, a host-speed
probe, sample counts and, with ``--trace 1``, the full per-layer table.

``--trace 0`` reports the end-to-end metrics.  Their times are rescaled to
a reference host speed by a fixed loop timed between ops (hostspeed.py),
because the shared host's own speed wanders more than any bound; the
report holds the wall times too.  ``--trace 1`` builds two
copies of the workload from the same seed and runs each op on both, first
untraced and then traced.  It reports the per-layer metrics of the traced
copy and the tracing overhead between the two, and checks that tracing left
every output unchanged.
"""

import argparse
import contextlib
import csv
import ctypes
import glob
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"

OPS_PER_SECOND = {"fit-py": 16.0, "fit-ngg": 0.8, "prior": 0.1}
SMALL_OPS = {"fit-py": 8, "fit-ngg": 2, "prior": 1}
CHAINS = {"fit-py": 32, "fit-ngg": 1}
SETUP_PROBES = 3
OP_TIME_CAP = 2.0  # stop after this many times --seconds of op time
SPIN_ROUNDS = 2_000_000

# Replicate counts for the prior pass; "small" is the self-test size.
PRIOR_SIZES = {
    "full": {"samples": 20_000, "rounds": 3000, "blocks": 10_000, "stick": 20_000},
    "small": {"samples": 10_000, "rounds": 3000, "blocks": 1000, "stick": 2000},
}
PY_SPEC = "py:alpha=0.25,theta=12.216190"
NGG_SPEC = "ngg:alpha=0.75,beta=0.635436"
MC_SAMPLES = 20_000
TV_TOLERANCE = 0.02  # acceptance criterion 11
Z_LIMIT = 4.0
# geweke_check's chain-side SE comes from 50 batch means, which at 3000
# rounds are 60 sweeps long and too short for the chain's autocorrelation:
# over 60 seeds of this pass the z-scores had sd 1.4-1.6, not 1, and
# |z| < 4 failed about 2% of passes of a correct sampler.  The limit is four
# of those sds; criterion 12 keeps 4 at 1e5 rounds.
GEWEKE_Z_LIMIT = 6.0

PER_LAYER = (
    ("inference.gibbs_sweep.self_ms", "ms"),
    ("inference.gibbs_sweep.calls", "count"),
    ("inference.self_ms", "ms"),
    ("inference.slice_sample.calls", "count"),
    ("inference.slice_sample.evals", "count"),
    ("inference.dishes.mean", "count"),
    ("gibbs_weights.self_ms", "ms"),
    ("gibbs_weights.build_primitive_cache.self_ms", "ms"),
    ("gibbs_weights.build_primitive_cache.calls", "count"),
    ("gibbs_weights.weight_table_from_sampler.calls", "count"),
    ("gibbs_weights.NggWeightSampler.calls", "count"),
    ("gibbs_weights.build_weight_table.calls", "count"),
    ("gibbs_weights.mc_rel_se.max", "ratio"),
    ("stable_sampling.sample_tilted_stable.calls", "count"),
    ("stable_sampling.sample_tilted_stable.draws", "count"),
    ("special_functions.build_gfc_table.calls", "count"),
    ("special_functions.positive_stable_density.calls", "count"),
    ("ibp.self_ms", "ms"),
    ("ibp.simulate_ibp.calls", "count"),
    ("ibp.log_joint.calls", "count"),
    ("cli.table_cache.hits", "count"),
    ("cli.table_cache.misses", "count"),
    ("cli.table_cache.bytes", "B"),
    ("cli.stats.concurrency", "ratio"),
)


def import_gibbsibp():
    """Import the package from this checkout's src/, never an installed one."""
    sys.path.insert(0, str(SRC))
    import gibbsibp
    from gibbsibp import (  # noqa: F401  (loads every layer module)
        cli, gibbs_weights, ibp, inference, partition, special_functions,
        stable_sampling, stick_breaking,
    )

    if Path(gibbsibp.__file__).resolve().parent != SRC / "gibbsibp":
        raise ImportError(f"gibbsibp resolved to {gibbsibp.__file__}, not {SRC}")
    return gibbsibp


def _seeds(seed, count):
    import numpy as np

    return [int(s) for s in np.random.default_rng(seed).integers(1, 2 ** 31, size=count)]


# ---------------------------------------------------------------- fits


def planted_data(seed):
    """Criterion-13 recipe: n=100, p=20, ten planted features, sigma_y=0.25."""
    import numpy as np

    n, p, k = 100, 20, 10
    z = np.zeros((n, k), dtype=np.uint8)
    z[:50, 0] = 1
    z[25:75, 1] = 1
    for j in range(8):
        z[80 + j, 2 + j] = 1
    rng = np.random.default_rng(seed)
    w = rng.normal(0.0, 1.0, size=(n, k))
    a = rng.standard_normal((k, p))
    return (w * z) @ a + rng.normal(0.0, 0.25, size=(n, p))


class FitWorkload:
    """Sweeps of the posterior sampler, driven as run_chain drives them.

    A run holds CHAINS[name] chains, each on its own planted data set and
    started from a prior draw as run_chain starts, and op i sweeps chain
    i mod CHAINS[name].  A PY sweep costs about linearly in the dish count
    K, and one chain's K drifts from ~25 toward ~10 at its own pace over
    hundreds of sweeps, so a single fit-py chain spread the sweep rate ~30%
    between seeds, and sixteen chains still ~10%; 32 chains average that
    out.  An NGG sweep's cost
    hardly depends on K.
    """

    def __init__(self, gb, name, seed, size):
        self.gb = gb
        self.name = name
        self.seeds = _seeds(seed, 2 * CHAINS[name])

    def setup(self):
        gb = self.gb
        if self.name == "fit-py":
            model = gb.GibbsModel.py(0.5, 1.0)
            moves = dict(update_alpha=True, update_theta=True, update_scales=True)
        else:
            model = gb.GibbsModel.ngg(0.5, 1.0)
            moves = dict(update_theta=True)
        self.chains = []
        for data_seed, chain_seed in zip(self.seeds[::2], self.seeds[1::2]):
            y = planted_data(data_seed)
            config = gb.ChainConfig(
                seed=chain_seed, sigma_y=0.25, sigma_w=1.0, sigma_a=1.0,
                mc_samples=MC_SAMPLES, **moves,
            )
            self.chains.append((y, config, gb.inference.initial_state(model, y, config)))

    def op(self, i, step=None):
        gb = self.gb
        y, config, state = self.chains[i % len(self.chains)]
        gb.inference.gibbs_sweep(state, y, config)
        log_joint = gb.ibp.log_joint(
            state.allocation, state.model, state.gamma, cache=state.cache
        ) + gb.inference.log_likelihood(y, state.z, state.w, state.a, state.sigma_y)
        return {"log_joint": log_joint}

    def check(self, i, record):
        y, _, state = self.chains[i % len(self.chains)]
        n, p = y.shape
        k = state.dishes
        record["dishes"] = k
        failures = []
        if not math.isfinite(record["log_joint"]):
            failures.append(f"log joint {record['log_joint']}")
        if k < 1:
            failures.append("no dishes")
        shapes = (state.z.shape, state.w.shape, state.a.shape, state.sigma_a.shape)
        if shapes != ((n, k), (n, k), (k, p), (p,)):
            failures.append(f"inconsistent state shapes {shapes}")
        if state.table is not None:
            record["mc_rel_se"] = max(
                float(state.table.rel_se_row(m).max())
                for m in range(1, state.table.n_max + 1)
            )
            failures += _check_draws(state.table, MC_SAMPLES)
        return failures


def _check_draws(table, samples):
    # a Monte Carlo table must rest on the draws it was asked for; its
    # relative standard errors are reported, not bounded
    drawn = table.provenance.samples
    if drawn is None or drawn < samples:
        return [f"weight table built from {drawn} draws, asked for {samples}"]
    return []


# --------------------------------------------------------------- prior


def _run_cli(gb, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = gb.cli.main([str(a) for a in argv])
    return {"code": code, "stderr": err.getvalue()}


def _read_stats(path):
    curves = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            curves.setdefault(row["model"], []).append(float(row["expected_dishes"]))
    return curves


def _tv(a, b):
    return 0.5 * sum(abs(x - y) for x, y in zip(a, b))


def _frequencies(draws, width):
    import numpy as np

    return np.bincount(draws, minlength=width)[:width] / draws.size


class PriorWorkload:
    """Prior-side passes: growth/calibration study plus sampler self-tests."""

    def __init__(self, gb, name, seed, size):
        self.gb = gb
        self.sizes = PRIOR_SIZES[size]
        self.pass_seeds = _seeds(seed, 64)
        self.workdir = RUN_DIR / f"work-{os.getpid()}-{id(self)}"
        self._refs = None

    def setup(self):
        pass

    def op(self, i, step=None):
        """One pass; step(), if given, is called between its calls."""
        gb, sizes, seed = self.gb, self.sizes, self.pass_seeds[i]
        work = self.workdir / f"pass{i}"
        stats = [
            "stats", "--model", PY_SPEC, "--model", NGG_SPEC, "--n-max", 100,
            "--samples", sizes["samples"], "--seed", seed,
            "--cache-dir", work / "cache",
        ]
        commands = {
            "stats_cold": stats + ["--outdir", work / "stats_cold"],
            "stats_warm": stats + ["--outdir", work / "stats_warm"],
            "calibrate": [
                "calibrate", "--family", "ngg", "--alpha", 0.75, "--target", 25,
                "--n", 50, "--samples", sizes["samples"], "--seed", seed,
                "--outdir", work / "calibrate",
            ],
            "simulate": [
                "simulate", "--model", "py", "--alpha", 0.5, "--theta", 1,
                "--n", 1000, "--seed", seed, "--outdir", work / "simulate",
            ],
            "geweke": [
                "geweke", "--model", "dp", "--theta", 1, "--n", 8, "--p", 4,
                "--rounds", sizes["rounds"], "--seed", seed,
                "--outdir", work / "geweke",
            ],
        }
        step = step or (lambda: None)
        record = {"work": work, "seed": seed}
        for name, argv in commands.items():
            record[name] = _run_cli(gb, argv)
            step()
        record["blocks"] = gb.partition.sample_block_counts(
            gb.GibbsModel.py(0.5, 1.0), 200, sizes["blocks"], seed
        )
        step()
        stick_model = gb.GibbsModel.py(0.2, 1.0)
        rounds = gb.stick_breaking.suggest_rounds(stick_model)
        record["stick"] = gb.stick_breaking.sample_truncated_feature_counts(
            stick_model, 1.0, 20, rounds, sizes["stick"], seed + 1
        )
        return record

    def _references(self):
        # exact values, from closed-form tables
        if self._refs is None:
            gb = self.gb
            self._refs = {
                "blocks": gb.expected_blocks(gb.GibbsModel.py(0.5, 1.0), 200),
                "simulate": gb.expected_features(gb.GibbsModel.py(0.5, 1.0), 1.0, 1000),
                "stick": gb.expected_features(gb.GibbsModel.py(0.2, 1.0), 1.0, 20),
            }
        return self._refs

    def check(self, i, record):
        gb, refs, work, seed = self.gb, self._references(), record["work"], record["seed"]
        failures = []
        for step in ("stats_cold", "stats_warm", "calibrate", "simulate", "geweke"):
            if record[step]["code"] != 0:
                failures.append(f"{step} exited {record[step]['code']}: {record[step]['stderr'][-300:]}")
        if failures:
            return failures

        cold = _read_stats(work / "stats_cold" / "stats.csv")
        warm = _read_stats(work / "stats_warm" / "stats.csv")
        for spec, curve in cold.items():
            if not all(b > a for a, b in zip(curve, curve[1:])):
                failures.append(f"stats: expected dishes not increasing in n for {spec}")
            gap = max(abs(a - b) / abs(a) for a, b in zip(curve, warm.get(spec, [])))
            if len(warm.get(spec, [])) != len(curve) or gap > 1e-12:
                failures.append(f"stats: disk-cache read differs from the build for {spec}")
        model = gb.GibbsModel.ngg(
            0.75, 0.635436, mc_config=gb.McConfig(samples=self.sizes["samples"], seed=seed)
        )
        table, _ = gb.load_weight_table(gb.gibbs_weights.table_cache_path(model, 100, work / "cache"))
        record["mc_rel_se"] = max(
            float(table.rel_se_row(m).max()) for m in range(1, table.n_max + 1)
        )
        failures += _check_draws(table, self.sizes["samples"])

        calibration = json.loads((work / "calibrate" / "calibration.json").read_text())
        record["calibrate_achieved"] = calibration["achieved"]
        if not abs(calibration["achieved"] - 25.0) <= 0.05:
            failures.append(f"calibrate: achieved {calibration['achieved']} vs target 25")

        # K_n of one buffet is Poisson with mean gamma * sum_j g_{j-1}(1,1)
        dishes = json.loads((work / "simulate" / "manifest.json").read_text())["dishes"]
        lam = refs["simulate"]
        record["simulate_dishes"] = dishes
        if not abs(dishes - lam) <= 5.0 * math.sqrt(lam):
            failures.append(f"simulate: {dishes} dishes, Poisson mean {lam:.2f}")

        z_scores = json.loads((work / "geweke" / "manifest.json").read_text())["z_scores"]
        record["geweke_max_z"] = max(abs(z) for z in z_scores.values())
        if not record["geweke_max_z"] < GEWEKE_Z_LIMIT:
            failures.append(f"geweke: max |z| {record['geweke_max_z']:.2f}")

        blocks = record.pop("blocks")
        se = float(blocks.std(ddof=1)) / math.sqrt(blocks.size)
        record["blocks_z"] = (float(blocks.mean()) - refs["blocks"]) / se
        if not abs(record["blocks_z"]) <= Z_LIMIT:
            failures.append(f"sample_block_counts: mean {blocks.mean():.3f} vs {refs['blocks']:.3f}")

        failures += self._check_stick(record, seed)
        return failures

    def _check_stick(self, record, seed):
        # Criterion 11: total variation against sample_feature_counts below
        # TV_TOLERANCE.  The sampled TV exceeds the true one by at most the
        # two sampling errors, so fail when it exceeds the tolerance by more
        # than mean + 4 sd of those errors, simulated from the exact Poisson
        # law of K_n.  The truncation bias is reported, not hidden.
        import numpy as np
        from scipy import stats as sstats

        gb, lam = self.gb, self._references()["stick"]
        stick = record.pop("stick")
        reference = gb.sample_feature_counts(
            gb.GibbsModel.py(0.2, 1.0), 1.0, 20, 10 * stick.size, seed + 2
        )
        width = int(max(stick.max(), reference.max())) + 1
        tv = _tv(_frequencies(stick, width), _frequencies(reference, width))
        pmf = sstats.poisson(lam).pmf(np.arange(width + 20))
        pmf /= pmf.sum()
        rng = np.random.default_rng(seed + 3)
        noise = [
            _tv(rng.multinomial(stick.size, pmf) / stick.size, pmf)
            + _tv(rng.multinomial(reference.size, pmf) / reference.size, pmf)
            for _ in range(200)
        ]
        limit = TV_TOLERANCE + statistics.fmean(noise) + 4.0 * statistics.stdev(noise)
        record["stick_tv"] = tv
        record["stick_tv_limit"] = limit
        record["stick_bias"] = float(stick.mean()) - lam
        record["stick_bias_se"] = float(stick.std(ddof=1)) / math.sqrt(stick.size)
        if not tv <= limit:
            return [f"stick-breaking: TV {tv:.4f} > {limit:.4f}"]
        return []

    def cleanup(self, i):
        shutil.rmtree(self.workdir / f"pass{i}", ignore_errors=True)

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {"fit-py": FitWorkload, "fit-ngg": FitWorkload, "prior": PriorWorkload}


# ------------------------------------------------------------ measuring


def spin_probe():
    """Seconds for a fixed pure-Python loop: host speed, not program speed."""
    start = time.perf_counter()
    acc = 0
    for i in range(SPIN_ROUNDS):
        acc += i * i % 7
    return time.perf_counter() - start


def blas_threads():
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def metadata():
    import numpy
    import scipy

    head = ROOT / ".git" / "HEAD"
    sha = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        sha = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            sha = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
    }


def probe_setup(args):
    """Seconds from spawning a fresh interpreter to its first op being ready,
    as (wall, rescaled to the reference host speed)."""
    from hostspeed import reference_seconds, rescale

    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
    ]
    ref_before = reference_seconds()
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=170)
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return elapsed, rescale(elapsed, ref_before, reference_seconds())


def run_op(workload, i, tracer=None, clock=None):
    """Run and check op i; returns (seconds, record, failure messages).

    With a HostClock the op is timed in the clock's segments, and the
    seconds leave out the reference timings between them.

    The record is None for an op that raised; record["failed"] marks an op
    that failed a check.
    """
    start = time.perf_counter()
    try:
        if clock is not None:
            clock.start(i)
            try:
                record = workload.op(i, step=clock.lap)
            finally:
                clock.lap()
        elif tracer is None:
            record = workload.op(i)
        else:
            tracer.op = f"op{i}"
            try:
                record = tracer.span("bench.op", workload.op, i)
            finally:
                tracer.op = None
    except Exception as exc:  # an op that raises counts as failed
        elapsed = clock.op_wall if clock is not None else time.perf_counter() - start
        return elapsed, None, [f"op {i} raised {type(exc).__name__}: {exc}"]
    elapsed = clock.op_wall if clock is not None else time.perf_counter() - start
    try:
        problems = workload.check(i, record)
    except Exception as exc:
        problems = [f"check raised {type(exc).__name__}: {exc}"]
    record.pop("work", None)
    record["failed"] = bool(problems)
    if hasattr(workload, "cleanup"):
        workload.cleanup(i)
    return elapsed, record, [f"op {i}: {p}" for p in problems]


def run_ops(workloads, n_ops, budget, tracers, clock=None):
    """Closed loop over n_ops ops of each workload, interleaved op by op.

    Stops early once one workload's ops have taken `budget` seconds, so a
    host or a commit far slower than the nominal rate still ends in time.
    Returns per workload the per-op seconds and records, and all failures.
    """
    times = [[] for _ in workloads]
    records = [[] for _ in workloads]
    failures = []
    for i in range(n_ops):
        if budget is not None and sum(times[0]) > budget:
            break
        for k, (workload, tracer) in enumerate(zip(workloads, tracers)):
            elapsed, record, problems = run_op(workload, i, tracer, clock)
            times[k].append(elapsed)
            records[k].append(record)
            failures += problems
    return times, records, failures


def failed_ops(records):
    return sum(1 for r in records if r is None or r["failed"])


def percentile(values, q):
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def op_plan(args):
    """(ops to run, op-time budget in seconds) for this run."""
    if args.size == "small":
        return SMALL_OPS[args.workload], None
    ops = max(1, int(args.seconds * OPS_PER_SECOND[args.workload] + 0.5))
    return ops, OP_TIME_CAP * args.seconds


def _op_ms_summary(ops_ms):
    summary = {"p50": statistics.median(ops_ms), "p90": None,
               "min": min(ops_ms), "max": max(ops_ms)}
    if len(ops_ms) >= 100:  # p90 only with at least ten ops beyond it
        summary["p90"] = percentile(ops_ms, 0.9)
    return summary


def end_to_end(args, report):
    """End-to-end run.  Every time metric is rescaled to the reference host
    speed (see hostspeed.py); the report holds the wall times beside them."""
    from hostspeed import NOMINAL_S, HostClock

    probes = [probe_setup(args) for _ in range(SETUP_PROBES)]
    report["setup_probe_s"] = {"wall": [w for w, _ in probes], "rescaled": [r for _, r in probes]}
    import_start = time.perf_counter()
    gb = import_gibbsibp()
    workload = WORKLOADS[args.workload](gb, args.workload, args.seed, args.size)
    workload.setup()
    report["main_setup_s"] = time.perf_counter() - import_start
    planned, budget = op_plan(args)
    clock = HostClock()
    try:
        (_,), (records,), failures = run_ops([workload], planned, budget, [None], clock)
    finally:
        getattr(workload, "close", lambda: None)()
    clock.close()
    per_op = clock.op_seconds()
    n_ops = len(records)
    wall = [per_op[i][0] for i in range(n_ops)]
    scaled = [per_op[i][1] for i in range(n_ops)]
    setup_s = statistics.median(report["setup_probe_s"]["rescaled"])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["samples"] = {"ops": n_ops, "planned_ops": planned, "setup_probes": SETUP_PROBES,
                         "references": len(clock.refs)}
    report["op_ms"] = _op_ms_summary([t * 1000.0 for t in scaled])
    report["host_reference_s"] = {
        "nominal": NOMINAL_S, "min": min(clock.refs),
        "median": statistics.median(clock.refs), "max": max(clock.refs),
    }
    report["wall"] = {
        "setup_s": statistics.median(report["setup_probe_s"]["wall"]),
        "ops_per_s": n_ops / sum(wall),
        "op_ms": _op_ms_summary([t * 1000.0 for t in wall]),
    }
    report["failed_ratio"] = failed_ops(records) / n_ops
    report["mc_rel_se_max"] = max((r.get("mc_rel_se", 0.0) for r in records if r), default=0.0)
    report["records"] = _summarize_records(records)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (n_ops / sum(scaled), "1/s"),
        "op_ms.p50": (report["op_ms"]["p50"], "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return n_ops, failed_ops(records), failures, metrics


def _summarize_records(records):
    summary = {}
    for record in records:
        for key, value in (record or {}).items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                summary.setdefault(key, []).append(value)
    return {
        key: {"min": min(v), "median": statistics.median(v), "max": max(v)}
        for key, v in summary.items()
    }


def _comparable(records):
    # the outputs that tracing must leave unchanged
    keep = ("log_joint", "dishes", "mc_rel_se", "calibrate_achieved",
            "simulate_dishes", "geweke_max_z", "blocks_z", "stick_tv")
    return [None if r is None else {k: r[k] for k in keep if k in r} for r in records]


def traced(args, report):
    """Per-layer run: each op runs untraced and then traced, on two copies
    of the workload built from the same seed, so the overhead compares the
    same work at the same moment."""
    from spans import Tracer, self_times

    gb = import_gibbsibp()
    planned, budget = op_plan(args)
    plain = WORKLOADS[args.workload](gb, args.workload, args.seed, args.size)
    plain.setup()
    tracer = Tracer()
    tracer.install(gb)
    workload = WORKLOADS[args.workload](gb, args.workload, args.seed, args.size)
    try:
        tracer.op = "setup"
        try:
            tracer.span("bench.setup", workload.setup)
        finally:
            tracer.op = None
        (plain_times, times), (plain_records, records), failures = run_ops(
            [plain, workload], planned, budget, [None, tracer]
        )
    finally:
        tracer.restore()
        for each in (plain, workload):
            getattr(each, "close", lambda: None)()
    if not tracer.restored():
        failures.append("tracer left a wrapper in place")
    n_ops = len(times)
    if _comparable(records) != _comparable(plain_records):
        failures.append("tracing changed the program's outputs")

    RUN_DIR.mkdir(exist_ok=True)
    spans_path = RUN_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans_path)

    layers = layer_table(tracer.spans, self_times(tracer.spans), times, n_ops)
    dishes = [r["dishes"] for r in records if r and "dishes" in r]
    layers["per_op"]["inference.dishes.mean"] = statistics.fmean(dishes) if dishes else 0.0
    layers["per_op"]["gibbs_weights.mc_rel_se.max"] = max(
        (r.get("mc_rel_se", 0.0) for r in records if r), default=0.0
    )
    report["samples"] = {"ops": n_ops, "spans": len(tracer.spans)}
    report["wrapped_sites"] = tracer.patch_count
    report["spans_file"] = str(spans_path.relative_to(ROOT))
    report["tracing_overhead_pct"] = (sum(times) / sum(plain_times) - 1.0) * 100.0
    report["untraced_ops_per_s"] = n_ops / sum(plain_times)
    report["traced_ops_per_s"] = n_ops / sum(times)
    report["layers"] = layers
    report["records"] = _summarize_records(records)
    metrics = {name: (layers["per_op"].get(name, 0.0), unit) for name, unit in PER_LAYER}
    return 2 * n_ops, failed_ops(plain_records + records), failures, metrics


def layer_table(spans, self_s, op_times, n_ops):
    """Per-op calls, counts and self time per function and module.

    Also checks the bookkeeping: the main thread's self times within an op
    must add up to that op's wall time.
    """
    main = threading.get_ident()
    per_op, setup = {}, {}

    def add(table, key, value):
        table[key] = table.get(key, 0.0) + value

    stats_busy = 0.0
    stats_windows = [(s.start, s.end) for s in spans if s.name == "cli.run_stats"]
    op_self = {}
    for span in spans:
        table = setup if span.op == "setup" else per_op
        ms = self_s[span.sid] * 1000.0
        add(table, f"{span.name}.calls", 1)
        add(table, f"{span.name}.self_ms", ms)
        add(table, f"{span.name.split('.')[0]}.self_ms", ms)
        if span.count is not None:
            suffix = {"inference.slice_sample": "evals",
                      "stable_sampling.sample_tilted_stable": "draws"}.get(span.name, "bytes")
            add(table, f"{span.name}.{suffix}", span.count)
        if span.site == "cli" and span.name == "gibbs_weights.load_weight_table":
            add(table, "cli.table_cache.hits", 1)
            add(table, "cli.table_cache.bytes", span.count)
        if span.site == "cli" and span.name == "gibbs_weights.save_weight_table":
            add(table, "cli.table_cache.misses", 1)
            add(table, "cli.table_cache.bytes", span.count)
        if span.thread == main and span.op != "setup":
            op_self[span.op] = op_self.get(span.op, 0.0) + self_s[span.sid]
        elif span.parent is None and any(a <= span.start and span.end <= b for a, b in stats_windows):
            stats_busy += span.end - span.start
    stats_wall = sum(b - a for a, b in stats_windows)
    per_op = {k: v / n_ops for k, v in per_op.items()}
    per_op["cli.stats.concurrency"] = stats_busy / stats_wall if stats_wall else 0.0
    gaps = [abs(op_self.get(f"op{i}", 0.0) - t) / t for i, t in enumerate(op_times)]
    return {
        "per_op": dict(sorted(per_op.items())),
        "setup": dict(sorted(setup.items())),
        "self_time_gap_max": max(gaps),
    }


def setup_probe(args):
    gb = import_gibbsibp()
    WORKLOADS[args.workload](gb, args.workload, args.seed, args.size).setup()
    print("ready", flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small shrinks every op for the self-test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "gibbsibp" / "__init__.py").is_file():
        print(f"no gibbsibp sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args)
        return 0

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "size": args.size, "host_spin_s": spin_probe()}
    runner = traced if args.trace else end_to_end
    attempted, failed, failures, metrics = runner(args, report)
    report["metadata"] = metadata()
    report["failures"] = failures
    print(json.dumps({"report": report}, default=str))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
