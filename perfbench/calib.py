"""Host-speed normalisation of the end-to-end timings.

On a host that shares its processors with other tenants, the same code runs
anywhere from 1x to 1.7x slower from one second to the next and by a
similar margin from one run to the next.  Process CPU time slows down with
wall time, so the slowdown is the processor's, not time spent descheduled,
and no choice of clock removes it.

While a workload runs, an interval timer interrupts the main thread every
``PERIOD_S`` and times a fixed reference kernel there, in the thread's own
CPU time.  It runs in the main thread, between two bytecodes of the
measured work, so it measures the processor that work runs on (a sampler
thread would mostly run on another, idle, processor, whose speed can differ
by 2x); CPU time leaves out any wait for the GIL while other threads of the
workload run.  The kernel does the kinds of work the pipeline does: a
dict-heavy Python loop, small NumPy operations, and scattered reads from a
heap far larger than the processor's caches (compiles and large batches
miss the caches; a kernel that only hits them tracked batch times less
well).  Each end-to-end timing is scaled by ``NOMINAL_S`` over the median
of the kernel times taken during it, so it is reported at the host speed
at which the kernel takes ``NOMINAL_S``.  A slower program still reads
slower by the same factor; a slower host does not.  Raw wall times are
kept in the run's metadata line.

Sampling costs the workload about 3% of its time, the same on every
commit.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from typing import List, NamedTuple

import numpy as np

#: Reference kernel time at the nominal host speed (about its median on
#: the 2-vCPU host the figures in README.md come from).
NOMINAL_S = 0.002
#: Time between two kernel samples.
PERIOD_S = 0.08
#: Samples taken up to this long before or after an operation count for
#: it.
PAD_S = 0.5
#: An operation is scaled by the median of at least this many references
#: (the nearest ones, when fewer fall inside its padded interval).
MIN_REFS = 3

_WORDS = np.arange(512, dtype=np.int64)
#: Large integers the kernel reads in a scattered order (about 40 MB), and
#: how many it reads per sample.
HEAP_INTS = 1_000_000
HEAP_VISITS = 2000


def reference_data():
    """The kernel's data.  Nothing in it is a container the garbage
    collector tracks, and the kernel allocates none: a collection started
    inside a sample would bill the workload's whole heap to the kernel."""
    rng = np.random.default_rng(0)
    heap = [int(v) for v in rng.integers(1 << 40, 1 << 41, size=HEAP_INTS)]
    order = rng.permutation(HEAP_INTS)[:HEAP_VISITS].tolist()
    return heap, order, dict.fromkeys(range(1024), 0)


def kernel(data) -> int:
    heap, order, acc = data
    for i in range(800):
        k = i & 1023
        acc[k] = acc[k] + i
    total = 0
    for _ in range(100):
        w = _WORDS * 3
        w &= 0xFF
        total += int(w.sum())
    for j in order:
        total += heap[j] & 0xFFFF
    return total


class Timed(NamedTuple):
    """A measured quantity and the wall interval it was measured over."""

    value: float
    t0: float
    t1: float


class Calibration:
    """Reference-kernel times, in the order they were taken.

    Use as a context manager around the measured work: samples are taken
    from ``__enter__`` until ``__exit__``.  ``built_s`` is the time
    ``__enter__`` spent building the kernel's data.
    """

    def __init__(self) -> None:
        self.at: List[float] = []
        self.took: List[float] = []
        self.built_s = 0.0
        self._data = None
        self._previous = None

    def __enter__(self) -> "Calibration":
        t0 = time.perf_counter()
        self._data = reference_data()
        self.built_s = time.perf_counter() - t0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        c0 = time.thread_time()
        kernel(self._data)
        took = time.thread_time() - c0
        self.at.append(time.perf_counter())
        self.took.append(took)

    def factor(self, t0: float, t1: float) -> float:
        """``NOMINAL_S`` over the host's reference time around [t0, t1]."""
        at = self.at
        lo = bisect.bisect_left(at, t0 - PAD_S)
        hi = bisect.bisect_right(at, t1 + PAD_S)
        while hi - lo < MIN_REFS and (lo > 0 or hi < len(at)):
            if lo > 0 and (hi == len(at) or t0 - at[lo - 1] <= at[hi] - t1):
                lo -= 1
            else:
                hi += 1
        return NOMINAL_S / statistics.median(self.took[lo:hi])

    def seconds(self, m: Timed) -> float:
        """A duration at nominal host speed."""
        return m.value * self.factor(m.t0, m.t1)

    def median_took(self) -> float:
        return statistics.median(self.took)


class Unscaled(Calibration):
    """Raw wall times: every factor is 1."""

    def factor(self, t0: float, t1: float) -> float:
        return 1.0
