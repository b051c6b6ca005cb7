"""Outside-in span tracing for the gibbsibp benchmark.

A Tracer wraps public functions of the gibbsibp modules at every place a
caller looks them up: module globals that hold the function (the package
imports with ``from ... import``, so each importing module has its own
reference) and module-level dicts that hold it as a value (the CLI's
subcommand table).  Wrappers record one span per call while an op label is
set and cost one attribute read otherwise.  ``restore`` puts every original
back.

Spans keep name, start, end, parent span, thread and op label.  Span stacks
are per thread, so calls made on the ``stats`` thread pool become root spans
of their worker thread, tagged with the op that was running.
"""

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass


@dataclass
class Span:
    sid: int
    name: str
    site: str
    parent: int
    thread: int
    op: str
    start: float
    end: float
    count: float = None  # evals, draws or bytes, where the target defines one


def _slice_evals(call, args, kwargs):
    # count log-density evaluations by wrapping the density argument
    evals = [0]
    density = args[0]

    def counted(x):
        evals[0] += 1
        return density(x)

    result = call((counted,) + tuple(args[1:]), kwargs)
    return result, evals[0]


def _tilted_draws(call, args, kwargs):
    size = kwargs.get("size", args[2] if len(args) > 2 else None)
    return call(args, kwargs), 1 if size is None else int(size)


def _loaded_bytes(call, args, kwargs):
    path = kwargs.get("path", args[0] if args else None)
    return call(args, kwargs), os.path.getsize(path)


def _saved_bytes(call, args, kwargs):
    path = call(args, kwargs)
    return path, os.path.getsize(path)


# (module, public name, counter).  A counter runs the call and returns
# (result, count); the count lands in Span.count.
TARGETS = (
    ("inference", "initial_state", None),
    ("inference", "gibbs_sweep", None),
    ("inference", "slice_sample", _slice_evals),
    ("inference", "log_likelihood", None),
    ("inference", "geweke_check", None),
    ("gibbs_weights", "build_weight_table", None),
    ("gibbs_weights", "weight_table_from_sampler", None),
    ("gibbs_weights", "build_primitive_cache", None),
    ("gibbs_weights", "NggWeightSampler", None),
    ("gibbs_weights", "calibrate", None),
    ("gibbs_weights", "save_weight_table", _saved_bytes),
    ("gibbs_weights", "load_weight_table", _loaded_bytes),
    ("stable_sampling", "sample_tilted_stable", _tilted_draws),
    ("special_functions", "build_gfc_table", None),
    ("special_functions", "positive_stable_density", None),
    ("partition", "sample_block_counts", None),
    ("ibp", "simulate_ibp", None),
    ("ibp", "log_joint", None),
    ("ibp", "powerlaw_constant", None),
    ("stick_breaking", "sample_truncated_feature_counts", None),
    ("cli", "main", None),
    ("cli", "run_stats", None),
    ("cli", "run_calibrate", None),
    ("cli", "run_simulate", None),
    ("cli", "run_geweke", None),
)

MODULES = (
    "inference", "gibbs_weights", "stable_sampling", "special_functions",
    "partition", "ibp", "stick_breaking", "cli",
)


class Tracer:
    """Span recorder; create one per traced run and call restore() after."""

    def __init__(self):
        self.spans = []
        self.op = None  # label of the op being traced; None records nothing
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches = []  # (owner, key, original, is_mapping)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name, site, call, args, kwargs, counter):
        op = self.op
        if op is None:
            return call(args, kwargs)
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        count = None
        start = time.perf_counter()
        try:
            if counter is None:
                result = call(args, kwargs)
            else:
                result, count = counter(call, args, kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                Span(sid, name, site, parent, threading.get_ident(), op, start, end, count)
            )
        return result

    def span(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span of the benchmark's own."""
        return self._record(name, "bench", lambda a, k: fn(*a, **k), args, kwargs, None)

    def _function_wrapper(self, name, site, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer._record(name, site, lambda a, k: fn(*a, **k), args, kwargs, counter)

        return traced

    def install(self, package):
        """Wrap every TARGETS entry wherever a gibbsibp module holds it."""
        modules = {"package": package}
        modules.update({name: getattr(package, name) for name in MODULES})
        for module_name, attr, counter in TARGETS:
            original = getattr(modules[module_name], attr)
            name = f"{module_name}.{attr}"
            if isinstance(original, type):
                init = original.__dict__["__init__"]
                wrapped = self._function_wrapper(name, module_name, init, counter)
                self._patches.append((original, "__init__", init, False))
                setattr(original, "__init__", wrapped)
                continue
            for site, module in modules.items():
                namespace = vars(module)
                for key, value in list(namespace.items()):
                    if value is original:
                        wrapped = self._function_wrapper(name, site, original, counter)
                        self._patches.append((module, key, original, False))
                        setattr(module, key, wrapped)
                    elif isinstance(value, dict) and not key.startswith("__"):
                        for dkey, dvalue in list(value.items()):
                            if dvalue is original:
                                wrapped = self._function_wrapper(name, site, original, counter)
                                self._patches.append((value, dkey, original, True))
                                value[dkey] = wrapped

    def restore(self):
        for owner, key, original, is_mapping in reversed(self._patches):
            if is_mapping:
                owner[key] = original
            else:
                setattr(owner, key, original)

    def restored(self):
        """True when every patched place holds its original again."""
        for owner, key, original, is_mapping in self._patches:
            current = owner[key] if is_mapping else (
                owner.__dict__[key] if isinstance(owner, type) else getattr(owner, key)
            )
            if current is not original:
                return False
        return True

    @property
    def patch_count(self):
        return len(self._patches)

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def self_times(spans):
    """Span id -> duration minus the time its child spans cover.

    Children share their parent's thread and run one after another, so the
    covered time is the sum of their durations.
    """
    child_time = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    return {span.sid: span.end - span.start - child_time[span.sid] for span in spans}
