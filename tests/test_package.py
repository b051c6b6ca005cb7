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
