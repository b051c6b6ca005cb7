import gibbsibp


def test_all_is_sorted_unique_and_resolves():
    names = gibbsibp.__all__
    assert names == sorted(names)
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(gibbsibp, name)] == []


def test_one_size_refusal_type():
    # every size guard raises the type the CLI maps to a usage error
    from gibbsibp import cli, gibbs_weights, special_functions

    assert gibbsibp.TableSizeError is special_functions.TableSizeError
    assert gibbs_weights.TableSizeError is special_functions.TableSizeError
    assert cli.TableSizeError is special_functions.TableSizeError


def test_every_span_target_resolves():
    # the benchmark's tracer wraps each spans.TARGETS entry with getattr, so
    # a name the package lost stops a traced run before its first op; the
    # file is read and run here, never imported, so nothing is written
    # beside it
    import importlib
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spans = {"__name__": "perfbench_spans"}
    exec(compile(path.read_text(), str(path), "exec"), spans)
    modules = {"package": gibbsibp}
    modules.update(
        {name: importlib.import_module(f"gibbsibp.{name}") for name in spans["MODULES"]}
    )
    assert spans["TARGETS"]
    missing = [
        f"{module}.{name}" for module, name, _ in spans["TARGETS"]
        if not hasattr(modules[module], name)
    ]
    assert missing == []


def _run_fresh(code):
    # a fresh interpreter importing the package these tests import: other
    # tests load scipy.optimize, scipy.integrate and mpmath in this process
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(gibbsibp.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_import_loads_no_solver_quadrature_or_mpmath():
    # root-finding, quadrature and 60-digit arithmetic load on first use
    # only, so a process that never needs them never pays for them
    loaded = _run_fresh(
        "import sys, gibbsibp, gibbsibp.cli\n"
        "print(*(m for m in ('scipy.optimize', 'scipy.integrate', 'mpmath')"
        " if m in sys.modules))"
    )
    assert loaded == []


def test_deferred_imports_keep_their_values():
    # each of the four functions that load those modules, in a fresh
    # process, keeps the bits it had when the modules loaded with the package
    got = _run_fresh(
        "from gibbsibp import calibrate, ngg_weights_smalln\n"
        "from gibbsibp.special_functions import "
        "positive_stable_density, tilted_stable_integral\n"
        "print(*map(float.hex, [calibrate('DP', 10.0, 100),"
        " positive_stable_density(0.3, 0.05), positive_stable_density(0.7, 2.0),"
        " tilted_stable_integral(0.4, 1.5),"
        " ngg_weights_smalln(0.5, 1.0, 4).log_weight(4, 2)]))"
    )
    assert got == [
        "0x1.493dbefc1f38fp+1",
        "0x1.9d705265f8030p+0",
        "0x1.b91769f654926p-4",
        "0x1.dcb70cfa81452p+0",
        "-0x1.499558e662e29p+1",
    ]
