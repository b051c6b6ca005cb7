import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import gammaln

from gibbsibp import cli, gibbs_weights, inference
from gibbsibp.cli import CACHE_DIR_ENV, RunConfig, main, read_config_file
from gibbsibp.gibbs_weights import MAX_FROZEN_DRAWS
from gibbsibp.inference import synthesize_data
from gibbsibp.special_functions import MAX_TABLE_DEPTH


def run_cli(*argv):
    return main([str(a) for a in argv])


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestSimulate:
    def test_refuses_oversized_buffet(self, tmp_path, capsys):
        # E[K_1000] is about 6e7 dishes at gamma 10^6: refused as a usage
        # error before the buffet allocates anything
        out = tmp_path / "big"
        assert run_cli("simulate", "--model", "py", "--alpha", 0.5, "--theta", 1,
                       "--gamma", 1e6, "--n", 1000, "--outdir", out) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("usage error: n = 1000 customers with E[K_n] = ")
        assert "MAX_BUFFET_CELLS" in err[0]
        assert not (out / "allocation.csv").exists()

    def test_mean_dish_count(self, tmp_path):
        # DP(1), n = 3: E[K_3] = 1 + 1/2 + 1/3
        total = 0
        runs = 300
        for seed in range(runs):
            out = tmp_path / f"run{seed}"
            assert run_cli("simulate", "--model", "dp", "--theta", 1, "--gamma", 1,
                           "--n", 3, "--seed", seed, "--outdir", out) == 0
            header = read_csv(out / "allocation.csv")[0]
            total += len(header) - 1
        mean = total / runs
        se = math.sqrt(11.0 / 6.0 / runs)
        assert abs(mean - 11.0 / 6.0) < 4 * se

    def test_gamma_zero_header_only(self, tmp_path):
        assert run_cli("simulate", "--model", "dp", "--theta", 1, "--gamma", 0,
                       "--n", 3, "--seed", 7, "--outdir", tmp_path) == 0
        assert (tmp_path / "allocation.csv").read_text().strip() == "customer"

    def test_same_seed_byte_identical(self, tmp_path):
        args = ("simulate", "--model", "py", "--alpha", 0.5, "--theta", 1,
                "--gamma", 1.5, "--n", 12, "--seed", 3)
        assert run_cli(*args, "--outdir", tmp_path / "a") == 0
        assert run_cli(*args, "--outdir", tmp_path / "b") == 0
        for name in ("allocation.csv", "statistics.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()
        assert run_cli(*args[:-1], 4, "--outdir", tmp_path / "c") == 0
        assert (tmp_path / "a" / "allocation.csv").read_bytes() != (
            tmp_path / "c" / "allocation.csv"
        ).read_bytes()

    def test_stored_config_reexecutes_identically(self, tmp_path):
        assert run_cli("simulate", "--model", "py", "--alpha", 0.3, "--theta", 2,
                       "--gamma", 2, "--n", 20, "--seed", 11,
                       "--outdir", tmp_path / "a") == 0
        assert run_cli("simulate", "--config", tmp_path / "a" / "config.txt",
                       "--outdir", tmp_path / "b") == 0
        assert (tmp_path / "a" / "allocation.csv").read_bytes() == (
            tmp_path / "b" / "allocation.csv"
        ).read_bytes()
        # flags passed alongside --config win over stored values
        assert run_cli("simulate", "--config", tmp_path / "a" / "config.txt",
                       "--seed", 12, "--outdir", tmp_path / "c") == 0
        assert (tmp_path / "a" / "allocation.csv").read_bytes() != (
            tmp_path / "c" / "allocation.csv"
        ).read_bytes()

    def test_manifest_contents(self, tmp_path):
        assert run_cli("simulate", "--model", "nig", "--beta", 1, "--gamma", 1,
                       "--n", 6, "--seed", 2, "--samples", 20000,
                       "--cache-dir", tmp_path / "cache",
                       "--outdir", tmp_path / "out") == 0
        manifest = json.load(open(tmp_path / "out" / "manifest.json"))
        assert manifest["config"]["subcommand"] == "simulate"
        assert manifest["config"]["seed"] == 2
        assert manifest["model"]["variant"] == "NIG"
        assert set(manifest["outputs"]) == {"allocation.csv", "statistics.csv"}


class TestPrimitives:
    def test_py_anchor_row(self, tmp_path):
        assert run_cli("primitives", "--model", "py", "--alpha", 0.5, "--theta", 1,
                       "--n", 3, "--outdir", tmp_path) == 0
        rows = read_csv(tmp_path / "primitives.csv")
        assert rows[0] == ["n", "g10", "g11", "gs1"]
        assert float(rows[1][1]) == pytest.approx(0.5, rel=1e-12)
        assert float(rows[1][2]) == pytest.approx(0.75, rel=1e-12)

    def test_dp_new_dish_column(self, tmp_path):
        assert run_cli("primitives", "--model", "dp", "--theta", 1,
                       "--n", 8, "--outdir", tmp_path) == 0
        rows = read_csv(tmp_path / "primitives.csv")
        for row in rows[1:]:
            m = int(row[0])
            assert float(row[2]) == pytest.approx(1.0 / (m + 1), rel=1e-12)

    def test_persistence_column_closed_form(self, tmp_path):
        alpha, theta, n = 0.4, 1.3, 9
        assert run_cli("primitives", "--model", "py", "--alpha", alpha,
                       "--theta", theta, "--n", n, "--outdir", tmp_path) == 0
        rows = read_csv(tmp_path / "primitives.csv")
        for row in rows[1:]:
            s = int(row[0])
            r = n - s
            expect = math.exp(
                gammaln(theta + 1) + gammaln(theta + alpha + r)
                - gammaln(theta + alpha) - gammaln(theta + r + s)
            )
            assert float(row[3]) == pytest.approx(expect, rel=1e-10)


class TestStats:
    def test_dp_trajectory_is_harmonic(self, tmp_path):
        assert run_cli("stats", "--model", "dp:theta=1", "--gamma", 1,
                       "--n-max", 30, "--outdir", tmp_path) == 0
        rows = read_csv(tmp_path / "stats.csv")
        harmonic = np.cumsum(1.0 / np.arange(1, 31))
        for row in rows[1:]:
            assert float(row[2]) == pytest.approx(harmonic[int(row[1]) - 1], rel=1e-12)

    def test_single_row_when_n_max_one(self, tmp_path):
        assert run_cli("stats", "--model", "dp:theta=2", "--n-max", 1,
                       "--outdir", tmp_path) == 0
        rows = read_csv(tmp_path / "stats.csv")
        assert len(rows) == 2
        assert float(rows[1][2]) == pytest.approx(1.0 / 3.0 * 2 * 1.5, rel=1e-12)

    def test_multiple_models_ordered_and_scaled(self, tmp_path):
        assert run_cli("stats", "--model", "py:alpha=0.5,theta=1",
                       "--model", "dp:theta=1", "--gamma", 2.0,
                       "--n-max", 400, "--outdir", tmp_path) == 0
        rows = read_csv(tmp_path / "stats.csv")
        assert rows[1][0] == "py:alpha=0.5,theta=1"  # flag order preserved
        assert rows[400][1] == "400" and rows[401][0] == "dp:theta=1"
        py_scaled = float(rows[400][4])
        assert py_scaled == pytest.approx(float(rows[400][2]) / 20.0, rel=1e-12)
        manifest = json.load(open(tmp_path / "manifest.json"))
        constant = manifest["models"]["py:alpha=0.5,theta=1"]["powerlaw_constant"]
        assert constant == pytest.approx(2.256758334191025, rel=1e-9)
        assert manifest["models"]["dp:theta=1"]["powerlaw_constant"] is None

    def test_bad_spec_is_usage_error(self, tmp_path):
        assert run_cli("stats", "--model", "py:alpha=0.5", "--n-max", 5,
                       "--outdir", tmp_path) == 2
        assert run_cli("stats", "--model", "py:alpha=0.5,theta=1,junk=2",
                       "--n-max", 5, "--outdir", tmp_path) == 2

    def test_degenerate_row_on_worker_exits_3(self, tmp_path, monkeypatch, capsys):
        # the Monte Carlo rows are filled on worker threads; their numeric
        # failure must still reach main as a numeric failure
        from gibbsibp import gibbs_weights

        def underflowed(shifted, ratio_min, alpha, beta):
            raise gibbs_weights.McDegeneracyError("estimate underflowed")

        monkeypatch.setattr(gibbs_weights, "_usable_cores", lambda: 2)
        monkeypatch.setattr(gibbs_weights, "_shifted_moments", underflowed)
        assert run_cli("stats", "--model", "ngg:alpha=0.5,beta=1", "--n-max", 6,
                       "--samples", 10_000, "--cache-dir", tmp_path / "cache",
                       "--outdir", tmp_path) == 3
        assert "numeric failure: estimate underflowed" in capsys.readouterr().err


class TestCalibrate:
    def test_hits_target(self, tmp_path):
        assert run_cli("calibrate", "--family", "py", "--alpha", 0.5,
                       "--target", 25, "--outdir", tmp_path) == 0
        report = json.load(open(tmp_path / "calibration.json"))
        assert abs(report["achieved"] - 25.0) < 0.05
        assert report["parameter_name"] == "theta"

    def test_deterministic_for_closed_family(self, tmp_path):
        for sub in ("a", "b"):
            assert run_cli("calibrate", "--family", "dp", "--target", 10,
                           "--outdir", tmp_path / sub) == 0
        assert (tmp_path / "a" / "calibration.json").read_bytes() == (
            tmp_path / "b" / "calibration.json"
        ).read_bytes()

    def test_unreachable_target(self, tmp_path, capsys):
        assert run_cli("calibrate", "--family", "dp", "--target", 80,
                       "--n", 50, "--outdir", tmp_path) == 2
        assert "unreachable" in capsys.readouterr().err

    def test_target_below_ngg_floor(self, tmp_path, capsys, monkeypatch):
        # E[B_30] of NGG(0.5, beta) falls to that of PY(0.5, 0), 6.1547, as
        # beta -> 0: a lower target is a usage error, found before any draw
        def refuse(*args, **kwargs):
            raise AssertionError("built frozen draws for an unreachable target")

        monkeypatch.setattr(gibbs_weights, "NggWeightSampler", refuse)
        assert run_cli("calibrate", "--family", "ngg", "--alpha", 0.5, "--target", 5,
                       "--n", 30, "--samples", 10_000, "--outdir", tmp_path) == 2
        err = capsys.readouterr().err
        assert "usage error" in err and "unreachable" in err and "6.1547" in err
        assert not (tmp_path / "manifest.json").exists()

    def test_reports_mc_error(self, tmp_path):
        assert run_cli("calibrate", "--family", "ngg", "--alpha", 0.75, "--target", 25,
                       "--n", 50, "--samples", 20_000, "--seed", 1,
                       "--outdir", tmp_path / "ngg") == 0
        report = json.load(open(tmp_path / "ngg" / "calibration.json"))
        assert abs(report["achieved"] - 25.0) < 0.05
        assert 0.0 < report["mc_error"] < 0.01
        assert run_cli("calibrate", "--family", "dp", "--target", 10,
                       "--outdir", tmp_path / "dp") == 0
        assert json.load(open(tmp_path / "dp" / "calibration.json"))["mc_error"] is None

    def test_degenerate_monte_carlo_root(self, tmp_path, capsys):
        assert run_cli("calibrate", "--family", "ngg", "--alpha", 0.5, "--target", 49,
                       "--n", 50, "--samples", 10_000, "--seed", 1,
                       "--outdir", tmp_path) == 3
        assert "degenerate Monte Carlo surface" in capsys.readouterr().err
        assert not (tmp_path / "calibration.json").exists()


class TestFitAndGeweke:
    def write_data(self, tmp_path):
        z = np.zeros((25, 2), dtype=np.uint8)
        z[:15, 0] = 1
        z[8:20, 1] = 1
        scales = {"sigma_y": 0.3, "sigma_w": 1.0, "sigma_a": 1.0}
        y = synthesize_data(25, 5, z, scales, seed=4)
        path = tmp_path / "data.csv"
        np.savetxt(path, y, delimiter=",")
        return path

    def test_fit_archive_and_manifest(self, tmp_path):
        data = self.write_data(tmp_path)
        out = tmp_path / "fit"
        assert run_cli("fit", "--model", "py", "--alpha", 0.5, "--theta", 1,
                       "--data", data, "--iterations", 60, "--burn-in", 20,
                       "--thin", 2, "--sigma-y", 0.3, "--seed", 9,
                       "--outdir", out) == 0
        rows = read_csv(out / "samples.csv")
        assert len(rows) == 21  # header + (60 - 20) / 2
        assert rows[0][0] == "iteration"
        manifest = json.load(open(out / "manifest.json"))
        assert manifest["retained"] == 20
        assert manifest["n"] == 25 and manifest["p"] == 5
        assert manifest["chain"]["model"]["variant"] == "PY"
        assert len(manifest["chain"]["cache_hash"]) == 64

    def test_fit_deterministic(self, tmp_path):
        data = self.write_data(tmp_path)
        args = ("fit", "--model", "dp", "--theta", 1, "--data", data,
                "--iterations", 30, "--seed", 2)
        assert run_cli(*args, "--outdir", tmp_path / "a") == 0
        assert run_cli(*args, "--outdir", tmp_path / "b") == 0
        assert (tmp_path / "a" / "samples.csv").read_bytes() == (
            tmp_path / "b" / "samples.csv"
        ).read_bytes()

    def test_missing_data_file(self, tmp_path, capsys):
        assert run_cli("fit", "--model", "dp", "--theta", 1,
                       "--data", tmp_path / "absent.csv",
                       "--outdir", tmp_path) == 2
        assert "not found" in capsys.readouterr().err

    def test_divergent_fit_is_numeric_failure(self, tmp_path, capsys, monkeypatch):
        # finite data whose log joint comes out NaN (data that is not
        # finite is refused before the run: TestRefusedRuns)
        data = self.write_data(tmp_path)
        monkeypatch.setattr(inference, "log_likelihood", lambda *args: math.nan)
        assert run_cli("fit", "--model", "dp", "--theta", 1, "--data", data,
                       "--iterations", 0, "--outdir", tmp_path) == 3
        assert "numeric failure: log joint diverged" in capsys.readouterr().err

    def test_degenerate_beta_trial_is_numeric_failure(self, tmp_path, capsys, monkeypatch):
        # the start beta scores fine; the first beta trial's first-moment
        # read is not finite, inside a sweep, and the fit exits 3 without
        # writing its outputs
        data = self.write_data(tmp_path)
        exp_sums = gibbs_weights._Segments.exp_sums

        def degenerate_trial(segments, beta):
            sums = exp_sums(segments, beta)
            if beta not in (1.0, 2.0):
                sums[0] = np.nan
            return sums

        monkeypatch.setattr(gibbs_weights._Segments, "exp_sums", degenerate_trial)
        out = tmp_path / "fit"
        assert run_cli("fit", "--model", "ngg", "--alpha", 0.5, "--beta", 1,
                       "--update-theta", "--samples", 10_000, "--data", data,
                       "--iterations", 2, "--outdir", out) == 3
        assert "numeric failure: Monte Carlo weight estimate underflowed" in (
            capsys.readouterr().err
        )
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize(
        "extra",
        [("--theta", 1e308), ("--theta", 1e300, "--update-theta")],
        ids=["theta-1e308", "theta-1e300-update-theta"],
    )
    def test_fit_at_huge_theta(self, extra, tmp_path, capsys):
        # the closed forms keep their digits at any theta, and a theta
        # trial whose e^x overflows scores -inf
        data = tmp_path / "data.csv"
        np.savetxt(data, np.random.default_rng(2).standard_normal((30, 5)), delimiter=",")
        out = tmp_path / "fit"
        assert run_cli("fit", "--model", "dp", *extra, "--data", data,
                       "--iterations", 50, "--seed", 1, "--outdir", out) == 0
        assert capsys.readouterr().err == ""
        rows = read_csv(out / "samples.csv")
        header = rows[0]
        for row in rows[1:]:
            for name in ("gamma", "Theta", "log_joint"):
                assert math.isfinite(float(row[header.index(name)])), name

    def test_geweke_emits_z_table(self, tmp_path):
        assert run_cli("geweke", "--model", "dp", "--theta", 1, "--n", 4,
                       "--p", 2, "--rounds", 1500, "--seed", 3,
                       "--outdir", tmp_path) == 0
        rows = read_csv(tmp_path / "zscores.csv")
        assert rows[0] == ["statistic", "z_score"]
        names = {row[0] for row in rows[1:]}
        assert {"dishes", "gamma", "data_sq_mean"} <= names
        for row in rows[1:]:
            assert math.isfinite(float(row[1]))


class TestRefusedRuns:
    """A fit refused before its run, or failed during it, says so in one
    line of stderr, with no traceback, and exits with its stated code."""

    @pytest.mark.parametrize(
        "case, code, message",
        [
            ("tiny-sigma-y", 2, "usage error: --sigma-y squared must be a positive normal"),
            ("huge-sigma-a", 2, "usage error: --sigma-a squared must be a positive normal"),
            ("nan-data", 2, "usage error: data must be finite: row 2, column 4 of"),
            ("empty-data", 2, "holds no data matrix"),
            ("ragged-data", 2, "is not a CSV matrix of numbers"),
            ("memory", 3, "out of memory: Unable to allocate 7.28 TiB"),
            ("bare-memory", 3, "out of memory: the run needs more memory than is free"),
            ("dp-update-alpha", 2, "usage error: --update-alpha needs a free discount "
             "(py or ngg); DP(theta=1) fixes alpha = 0"),
            ("nig-update-alpha", 2, "usage error: --update-alpha needs a free discount "
             "(py or ngg); NIG(beta=1) fixes alpha = 0.5"),
            ("oversized-start", 2, "usage error: a start with K = "),
        ],
        ids=["tiny-sigma-y", "huge-sigma-a", "nan-data", "empty-data", "ragged-data",
             "memory", "bare-memory", "dp-update-alpha", "nig-update-alpha",
             "oversized-start"],
    )
    def test_one_line_and_exit_code(self, case, code, message, tmp_path, capsys,
                                    monkeypatch):
        y = np.random.default_rng(2).standard_normal((30, 5))
        data = tmp_path / "data.csv"
        argv = ["fit", "--model", "dp", "--theta", 1, "--data", data,
                "--iterations", 2, "--outdir", tmp_path / "fit"]
        if case == "tiny-sigma-y":
            argv += ["--sigma-y", 1e-200]  # its square underflows to 0
        elif case == "huge-sigma-a":
            argv += ["--sigma-a", 1e200]  # its square overflows to inf
        elif case == "nan-data":
            y[1, 3] = y[4, 0] = y[7, 2] = np.nan
        elif case in ("memory", "bare-memory"):
            error = MemoryError("Unable to allocate 7.28 TiB for an array")
            if case == "bare-memory":
                error = MemoryError()

            def exhausted(config):
                raise error

            monkeypatch.setitem(cli._RUNNERS, "fit", exhausted)
        elif case == "dp-update-alpha":
            argv += ["--update-alpha"]
        elif case == "nig-update-alpha":
            argv[2:5] = ["nig", "--beta", 1]
            argv += ["--update-alpha"]
        elif case == "oversized-start":
            # the prior start draws ~1e5 dishes (a few MB of Z), and the
            # first sweep would need their K x K Gram: refused before W and A
            argv[2:5] = ["py", "--alpha", 0.5, "--theta", 1]
            argv += ["--gamma", 1e4, "--fix-gamma"]
        np.savetxt(data, y, delimiter=",")
        if case == "empty-data":
            data.write_text("")
        elif case == "ragged-data":
            data.write_text("1,2\n3\n")
        assert run_cli(*argv) == code
        err = capsys.readouterr().err
        assert message in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "fit" / "manifest.json").exists()


class TestConfigFile:
    def test_round_trip_every_field(self, tmp_path):
        # every field set to a value of its declared type, none the default
        config = RunConfig(
            subcommand="fit", model="ngg", alpha=0.25, theta=0.5, beta=1.5,
            gamma=2.5, n=7, n_max=9, p=3, seed=11, samples=20_000,
            outdir=str(tmp_path / "out"), cache_dir=str(tmp_path / "cache"),
            models=["py:alpha=0.5,theta=1", "dp:theta=2"], family="nig",
            target=4.5, data="y.csv", iterations=12, burn_in=2, thin=3,
            rounds=50, lambda1=1.5, lambda2=0.5, sigma_y=0.25, sigma_w=0.75,
            sigma_a=1.25, fix_gamma=True, update_scales=True,
            update_theta=True, update_alpha=True,
        )
        path = tmp_path / "config.txt"
        path.write_text(config.to_text())
        values = read_config_file(path)
        assert RunConfig(**values) == config
        for name, value in values.items():
            assert type(value) is type(getattr(config, name)), name

    def test_bool_key_must_be_true_or_false(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text("update_alpha = yes\n")
        with pytest.raises(ValueError, match="update_alpha must be true or false"):
            read_config_file(path)


class TestUsageErrors:
    def test_missing_model_parameter(self, capsys):
        assert run_cli("simulate", "--model", "dp", "--n", 3) == 2
        assert "theta" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "c.txt"
        cfg.write_text("bogus = 1\n")
        assert run_cli("simulate", "--model", "dp", "--theta", 1, "--n", 2,
                       "--config", cfg) == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_config_subcommand_mismatch(self, tmp_path):
        cfg = tmp_path / "c.txt"
        cfg.write_text("subcommand = stats\n")
        assert run_cli("simulate", "--model", "dp", "--theta", 1, "--n", 2,
                       "--config", cfg, "--outdir", tmp_path) == 2

    def test_invalid_parameter_value(self):
        assert run_cli("simulate", "--model", "py", "--alpha", 1.5,
                       "--theta", 1, "--n", 3) == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("stats", "--model", "dp:theta=nan", "--n-max", 10), "theta must be finite, got nan"),
            (("simulate", "--model", "dp", "--theta", math.nan, "--n", 10),
             "theta must be finite, got nan"),
            (("simulate", "--model", "py", "--alpha", 0.5, "--theta", math.inf, "--n", 10),
             "theta must be finite, got inf"),
            (("simulate", "--model", "ngg", "--alpha", math.nan, "--beta", 1, "--n", 10),
             "alpha must be finite, got nan"),
            (("simulate", "--model", "nig", "--beta", math.inf, "--n", 10),
             "beta must be finite, got inf"),
        ],
        ids=["stats-dp-nan", "simulate-dp-nan", "simulate-py-inf", "simulate-ngg-nan",
             "simulate-nig-inf"],
    )
    def test_non_finite_parameter(self, argv, message, tmp_path, capsys):
        # refused before the run, in one line with no warning
        assert run_cli(*argv, "--outdir", tmp_path) == 2
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("simulate", "--model", "ngg", "--alpha", 0.5, "--beta", 1, "--n", 5),
            ("primitives", "--model", "nig", "--beta", 1, "--n", 5),
            ("stats", "--model", "py:alpha=0.5,theta=1", "--model",
             "ngg:alpha=0.5,beta=1", "--n-max", 5),
            ("stats", "--model", "nig:beta=1", "--n-max", 5),
            ("calibrate", "--family", "ngg", "--alpha", 0.5, "--target", 5, "--n", 20),
            ("calibrate", "--family", "nig", "--target", 5, "--n", 20),
            ("fit", "--model", "ngg", "--alpha", 0.5, "--beta", 1, "--iterations", 1),
            ("geweke", "--model", "nig", "--beta", 1, "--n", 4, "--p", 2),
        ],
        ids=["simulate", "primitives", "stats-ngg", "stats-nig", "calibrate-ngg",
             "calibrate-nig", "fit", "geweke"],
    )
    def test_too_few_monte_carlo_samples(self, argv, tmp_path, capsys):
        data = tmp_path / "data.csv"
        np.savetxt(data, np.zeros((3, 2)), delimiter=",")
        extra = ("--data", data) if argv[0] == "fit" else ()
        assert run_cli(*argv, *extra, "--samples", 50, "--outdir", tmp_path) == 2
        err = capsys.readouterr().err
        assert "usage error" in err and "--samples" in err
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("fit", "--thin", 0),
            ("fit", "--iterations", -1),
            ("fit", "--burn-in", -1),
            ("fit", "--gamma", -1),
            ("fit", "--sigma-y", -1),
            ("fit", "--lambda1", 0),
            ("fit", "--lambda2", -1),
            ("stats", "--model", "dp:theta=1", "--n-max", 5, "--gamma", -1),
            ("simulate", "--model", "dp", "--theta", 1, "--n", 3, "--seed", -1),
            ("geweke", "--model", "dp", "--theta", 1, "--n", 3, "--p", 2, "--rounds", 1),
            ("geweke", "--model", "dp", "--theta", 1, "--n", 0, "--p", 2, "--rounds", 60),
            ("geweke", "--model", "dp", "--theta", 1, "--n", 3, "--p", 0, "--rounds", 60),
            ("geweke", "--model", "dp", "--theta", 1, "--n", 3, "--p", 2, "--rounds", 60,
             "--sigma-a", 0),
            ("calibrate", "--family", "dp", "--target", 5, "--n", 0),
            ("calibrate", "--family", "py", "--alpha", 0.5, "--target", 5, "--n", -3),
            ("calibrate", "--family", "py", "--target", 5),
            ("calibrate", "--family", "ngg", "--target", 5),
            ("calibrate", "--family", "py", "--alpha", 1.5, "--target", 5),
        ],
        ids=["fit-thin", "fit-iterations", "fit-burn-in", "fit-gamma", "fit-sigma-y",
             "fit-lambda1", "fit-lambda2", "stats-gamma", "simulate-seed",
             "geweke-rounds", "geweke-n", "geweke-p", "geweke-sigma-a",
             "calibrate-n-zero", "calibrate-n-negative", "calibrate-py-alpha",
             "calibrate-ngg-alpha", "calibrate-alpha-range"],
    )
    def test_out_of_range_flag(self, argv, tmp_path, capsys):
        data = tmp_path / "data.csv"
        np.savetxt(data, np.zeros((3, 2)), delimiter=",")
        extra = ()
        if argv[0] == "fit":
            extra = ("--model", "dp", "--theta", 1, "--data", data)
        assert run_cli(*argv, *extra, "--outdir", tmp_path) == 2
        assert "usage error" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize(
        "iterations, burn_in, thin, code",
        [(10, 20, 1, 2), (10, 10, 1, 2), (10, 8, 3, 2), (10, 7, 3, 0), (0, 20, 1, 0)],
    )
    def test_fit_that_keeps_no_sweep(self, iterations, burn_in, thin, code, tmp_path, capsys):
        # a burn-in and thinning that keep no sweep are a usage error;
        # --iterations 0 archives the start
        data = tmp_path / "data.csv"
        np.savetxt(data, np.zeros((3, 2)), delimiter=",")
        out = tmp_path / "fit"
        assert run_cli("fit", "--model", "dp", "--theta", 1, "--data", data,
                       "--iterations", iterations, "--burn-in", burn_in, "--thin", thin,
                       "--outdir", out) == code
        if code == 2:
            assert "keeps no sweep" in capsys.readouterr().err
            assert not (out / "manifest.json").exists()
        else:
            rows = (out / "samples.csv").read_text().strip().split("\n")
            assert len(rows) == 2  # the header and one kept sweep

    @pytest.mark.parametrize(
        "argv",
        [
            ("simulate", "--model", "ngg", "--alpha", 0.5, "--beta", 1,
             "--n", MAX_TABLE_DEPTH + 1),
            ("primitives", "--model", "nig", "--beta", 1, "--n", MAX_TABLE_DEPTH),
            ("stats", "--model", "py:alpha=0.5,theta=1", "--model", "nig:beta=1",
             "--n-max", MAX_TABLE_DEPTH + 1),
            ("calibrate", "--family", "nig", "--target", 5, "--n", MAX_TABLE_DEPTH + 1),
        ],
        ids=["simulate-ngg", "primitives-nig", "stats-nig", "calibrate-nig"],
    )
    def test_table_depth_past_limit(self, argv, tmp_path, capsys):
        assert run_cli(*argv, "--samples", 10_000, "--outdir", tmp_path) == 2
        err = capsys.readouterr().err
        assert "usage error" in err and "depth" in err
        assert not (tmp_path / "manifest.json").exists()

    @pytest.fixture
    def refuse_draws(self, monkeypatch):
        # a missing frozen-draw guard fails at once instead of drawing 2^27
        # values
        def refuse(*args):
            raise AssertionError("drew past the frozen-draw limit")

        monkeypatch.setattr(gibbs_weights, "_fill_shifted_ratio_rows", refuse)

    @pytest.mark.parametrize("family", ["ngg", "nig"])
    def test_calibrate_frozen_draws_past_limit(self, family, tmp_path, capsys,
                                               refuse_draws):
        # calibrate freezes n x samples draws: past the limit it is a usage
        # error, found before any draw
        n = 1000
        samples = MAX_FROZEN_DRAWS // n + 1
        assert run_cli("calibrate", "--family", family, "--alpha", 0.5, "--target", 5,
                       "--n", n, "--samples", samples, "--outdir", tmp_path) == 2
        err = capsys.readouterr().err
        assert "usage error" in err and "frozen draws" in err
        assert not (tmp_path / "manifest.json").exists()

    def test_fit_frozen_draws_past_limit(self, tmp_path, capsys, refuse_draws):
        # fit learns its row count from the data, so its sampler refuses
        # the draws at run time: still a usage error, before any draw
        data = tmp_path / "y.csv"
        np.savetxt(data, np.random.default_rng(1).standard_normal((3, 2)), delimiter=",")
        samples = (MAX_FROZEN_DRAWS + 1) // 3
        assert run_cli("fit", "--model", "ngg", "--alpha", 0.5, "--beta", 1,
                       "--data", data, "--iterations", 1, "--samples", samples,
                       "--outdir", tmp_path / "fit") == 2
        err = capsys.readouterr().err
        assert "usage error" in err and "frozen draws" in err

    def test_fit_table_depth_past_limit(self, tmp_path, capsys, refuse_draws):
        # one data row past the limit needs a table one row too deep
        data = tmp_path / "y.csv"
        np.savetxt(data, np.zeros((MAX_TABLE_DEPTH + 1, 1)), delimiter=",")
        assert run_cli("fit", "--model", "ngg", "--alpha", 0.5, "--beta", 1,
                       "--data", data, "--iterations", 1,
                       "--outdir", tmp_path / "fit") == 2
        err = capsys.readouterr().err
        assert "usage error" in err and "depth" in err
        assert not (tmp_path / "fit" / "manifest.json").exists()

    @pytest.mark.parametrize("model", [("ngg", "--alpha", 0.5, "--beta", 1),
                                       ("nig", "--beta", 1)],
                             ids=["ngg", "nig"])
    def test_geweke_table_depth_past_limit(self, model, tmp_path, capsys, refuse_draws):
        assert run_cli("geweke", "--model", *model, "--n", MAX_TABLE_DEPTH + 1,
                       "--p", 2, "--rounds", 50, "--outdir", tmp_path) == 2
        err = capsys.readouterr().err
        assert "usage error" in err and "depth" in err
        assert not (tmp_path / "manifest.json").exists()

    def test_closed_forms_past_table_limit(self, tmp_path):
        # DP/PY primitives are closed forms: no table, so no depth limit
        n = MAX_TABLE_DEPTH + 1
        assert run_cli("simulate", "--model", "py", "--alpha", 0.5, "--theta", 1,
                       "--n", n, "--outdir", tmp_path / "sim") == 0
        assert run_cli("stats", "--model", "dp:theta=1", "--n-max", n,
                       "--outdir", tmp_path / "stats") == 0
        for family in (("dp",), ("py", "--alpha", 0.5)):
            outdir = tmp_path / f"calibrate-{family[0]}"
            assert run_cli("calibrate", "--family", *family, "--target", 5, "--n", n,
                           "--outdir", outdir) == 0
            report = json.loads((outdir / "calibration.json").read_text())
            assert abs(report["achieved"] - 5) <= 0.05

    def test_few_samples_fine_for_closed_forms(self, tmp_path):
        assert run_cli("stats", "--model", "py:alpha=0.5,theta=1", "--n-max", 5,
                       "--samples", 50, "--outdir", tmp_path) == 0
        assert run_cli("calibrate", "--family", "py", "--alpha", 0.5, "--target", 5,
                       "--n", 20, "--samples", 50, "--outdir", tmp_path) == 0


class TestCacheSharing:
    def test_table_cache_reused(self, tmp_path):
        cache_dir = tmp_path / "cache"
        args = ("simulate", "--model", "ngg", "--alpha", 0.5, "--beta", 1,
                "--gamma", 1, "--n", 8, "--seed", 1, "--samples", 20000,
                "--cache-dir", cache_dir)
        assert run_cli(*args, "--outdir", tmp_path / "a") == 0
        cached = list(cache_dir.glob("weights_*.json"))
        assert len(cached) == 1
        stamp = cached[0].stat().st_mtime_ns
        assert run_cli(*args, "--outdir", tmp_path / "b") == 0
        assert cached[0].stat().st_mtime_ns == stamp  # loaded, not rebuilt
        assert (tmp_path / "a" / "allocation.csv").read_bytes() == (
            tmp_path / "b" / "allocation.csv"
        ).read_bytes()

    def test_no_cache_without_a_named_directory(self, tmp_path, monkeypatch):
        # with neither --cache-dir nor GIBBSIBP_CACHE_DIR nothing is written
        # outside --outdir, and the output is the cached run's
        home = tmp_path / "home"
        home.mkdir()
        monkeypatch.setenv("HOME", str(home))
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        args = ("stats", "--model", "ngg:alpha=0.5,beta=1", "--n-max", 20,
                "--samples", 10_000)
        assert run_cli(*args, "--outdir", tmp_path / "plain") == 0
        assert list(home.rglob("*")) == []
        assert run_cli(*args, "--outdir", tmp_path / "cached",
                       "--cache-dir", tmp_path / "cache") == 0
        assert len(list((tmp_path / "cache").glob("weights_*.json"))) == 1
        assert (tmp_path / "plain" / "stats.csv").read_bytes() == (
            tmp_path / "cached" / "stats.csv"
        ).read_bytes()

    def test_cache_dir_env_names_the_cache(self, tmp_path, monkeypatch):
        # GIBBSIBP_CACHE_DIR stands in for --cache-dir, and the flag wins
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "env"))
        args = ("stats", "--model", "nig:beta=1", "--n-max", 10, "--samples", 10_000)
        assert run_cli(*args, "--outdir", tmp_path / "a") == 0
        assert len(list((tmp_path / "env").glob("weights_nig_*.json"))) == 1
        assert run_cli(*args, "--outdir", tmp_path / "b",
                       "--cache-dir", tmp_path / "flag") == 0
        assert len(list((tmp_path / "flag").glob("weights_nig_*.json"))) == 1
        assert len(list((tmp_path / "env").glob("*"))) == 1


def test_console_script_help():
    # the child imports the package these tests import, wherever pytest
    # found it (the pythonpath setting, PYTHONPATH or an installed copy)
    src = str(Path(gibbs_weights.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "gibbsibp.cli", "--help"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "simulate" in proc.stdout and "geweke" in proc.stdout
