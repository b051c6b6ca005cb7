"""Self-test of the benchmark at its small size.

    python3 -m pytest -q perfbench/selftest.py

Checks that two traced runs of the same code and seed repeat every count
exactly, that self times add up to op wall time, that the tracer puts every
wrapped function back, that the host clock keeps reference timings out of
op times, that the printed metrics match BENCHMARK.json, and
that the benchmark refuses to run without the program's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNT_SUFFIXES = (".calls", ".evals", ".draws", ".bytes", ".hits", ".misses", ".mean")
WORKLOADS = ("fit-py", "fit-ngg", "prior")


def _run(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "small"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def _parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first_report, first = _parse(_run(workload, 1))
    second_report, second = _parse(_run(workload, 1))
    for report, result in ((first_report, first), (second_report, second)):
        assert result["correct"] and result["failed"] == 0, report["failures"]
        assert report["layers"]["self_time_gap_max"] < 0.03
    assert set(first["metrics"]) == {m["name"] for m in _spec()["per_layer"]}

    def counts(report):
        return {
            key: value for key, value in report["layers"]["per_op"].items()
            if key.endswith(COUNT_SUFFIXES)
        }

    assert counts(first_report) == counts(second_report)
    assert counts(first_report)  # the tracer saw the program's layers
    for name, metric in first["metrics"].items():
        if name.endswith(COUNT_SUFFIXES + ("mc_rel_se.max",)):
            assert metric == second["metrics"][name], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    report, result = _parse(_run(workload, 0))
    assert result["correct"] and result["failed"] == 0, report["failures"]
    assert result["attempted"] >= 1
    for metric in _spec()["end_to_end"]:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert entry["value"] > 0
    assert report["failed_ratio"] == 0.0
    assert report["samples"]["ops"] == result["attempted"]


def test_tracer_restores_every_wrapper():
    sys.path.insert(0, str(HERE))
    import run
    from spans import Tracer

    gb = run.import_gibbsibp()
    originals = {
        name: getattr(getattr(gb, name), attr)
        for name, attr in (("inference", "gibbs_sweep"), ("cli", "build_weight_table"),
                           ("ibp", "build_primitive_cache"))
    }
    init = gb.NggWeightSampler.__dict__["__init__"]
    runner = gb.cli._RUNNERS["stats"]
    tracer = Tracer()
    tracer.install(gb)
    try:
        assert gb.inference.gibbs_sweep is not originals["inference"]
        assert gb.cli._RUNNERS["stats"] is not runner
        tracer.op = "probe"
        gb.ibp.build_primitive_cache(gb.GibbsModel.py(0.5, 1.0), 5)
        tracer.op = None
        gb.ibp.build_primitive_cache(gb.GibbsModel.py(0.5, 1.0), 5)
    finally:
        tracer.restore()
    assert [s.name for s in tracer.spans] == ["gibbs_weights.build_primitive_cache"]
    assert tracer.restored()
    for name, attr in (("inference", "gibbs_sweep"), ("cli", "build_weight_table"),
                       ("ibp", "build_primitive_cache")):
        assert getattr(getattr(gb, name), attr) is originals[name]
    assert gb.NggWeightSampler.__dict__["__init__"] is init
    assert gb.cli._RUNNERS["stats"] is runner


def test_refuses_to_run_without_sources():
    bare = ROOT / ".perfbench_run" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = _run("fit-py", 0, cwd=bare, script=bare / "perfbench" / "run.py")
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def test_host_clock_times_segments_between_references(monkeypatch):
    sys.path.insert(0, str(HERE))
    import hostspeed

    clock = hostspeed.HostClock()
    monkeypatch.setattr(hostspeed, "EVERY_S", 0.0)  # a reference after every lap
    for op in range(3):
        clock.start(op)
        for _ in range(op + 1):
            sum(range(20_000))
            clock.lap()
    clock.close()
    per_op = clock.op_seconds()
    assert sorted(per_op) == [0, 1, 2]
    assert len(clock.refs) == 1 + 1 + 2 + 3
    for op, (wall, scaled) in per_op.items():
        assert 0 < wall < 1 and scaled > 0
    assert hostspeed.rescale(2.0, 0.5 * hostspeed.NOMINAL_S, 2.0 * hostspeed.NOMINAL_S) == 2.0
    assert hostspeed.rescale(1.0, 2 * hostspeed.NOMINAL_S, 2 * hostspeed.NOMINAL_S) == 0.5
