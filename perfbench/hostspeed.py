"""Op times rescaled to a reference host speed.

The benchmark runs on a few cores of a shared host whose speed wanders by
tens of percent over seconds to minutes, as other tenants load the same
physical cores.  A fixed amount of program work timed in 30-40 s windows
spread 15-30% (quartile spread over median) on that host, more than any
bound a benchmark may set.  The wandering slows every piece of code that
runs at the same moment, by similar though not equal factors, so a fixed
reference loop timed right before and after a piece of program work tells
how fast the host ran then.  Rescaling the work's time by NOMINAL_S over that reference time
gives its time on a host where the reference takes NOMINAL_S.  On the
same windows the rescaled times spread 2-8%.

The reference is the benchmark's own code and never calls the program, so
a change to the program moves rescaled times in the same proportion as
wall times.  Wall times are reported beside the rescaled ones.
"""

import math
import time

import numpy as np

# Seconds of one reference_work() call on a host running at its usual speed
# (the median on a 2-vCPU shared VM with Python 3.11 and numpy 2.4).  Only
# the ratio of two commits' values matters; this constant sets the scale.
NOMINAL_S = 0.016
EVERY_S = 0.1  # time the reference after at least this much program work

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((100, 20))
_B = _rng.standard_normal((20, 16))


def reference_work():
    """A fixed mix of interpreted Python and small numpy calls, as in a sweep."""
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    x = _A
    for _ in range(800):
        (x @ _B).sum(axis=0)
        x = _A * 1.0001
    return acc


def reference_seconds():
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def rescale(seconds, ref_before, ref_after):
    """Seconds of work at the reference speed, from the references around it."""
    return seconds * NOMINAL_S / math.sqrt(ref_before * ref_after)


class HostClock:
    """Times ops in segments and rescales each segment to the reference speed.

    An op is start(op), then any number of lap() calls at step boundaries,
    then lap() at its end.  After at least EVERY_S seconds of segments the
    reference is timed, outside every segment, so each segment lies between
    two reference timings.  Call close() after the last op.
    """

    def __init__(self):
        reference_work()  # warm-up
        self.refs = [reference_seconds()]
        self._segments = []  # (op, wall seconds, index of the reference before)
        self._since_ref = 0.0
        self._op = None
        self._start = None
        self.op_wall = 0.0  # wall seconds of the current op so far

    def start(self, op):
        self._op = op
        self.op_wall = 0.0
        self._start = time.perf_counter()

    def lap(self):
        wall = time.perf_counter() - self._start
        self._segments.append((self._op, wall, len(self.refs) - 1))
        self.op_wall += wall
        self._since_ref += wall
        if self._since_ref >= EVERY_S:
            self.refs.append(reference_seconds())
            self._since_ref = 0.0
        self._start = time.perf_counter()

    def close(self):
        if self._segments and self._segments[-1][2] == len(self.refs) - 1:
            self.refs.append(reference_seconds())

    def op_seconds(self):
        """{op: (wall seconds, rescaled seconds)}, after close()."""
        out = {}
        for op, wall, k in self._segments:
            total_wall, total_scaled = out.get(op, (0.0, 0.0))
            scaled = rescale(wall, self.refs[k], self.refs[k + 1])
            out[op] = (total_wall + wall, total_scaled + scaled)
        return out
