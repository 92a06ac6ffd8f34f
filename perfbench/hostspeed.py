"""Host-speed calibration for timings taken on a shared, noisy machine.

On a small shared host the speed of pure-Python code drifts by tens of
percent within seconds, and whole runs can sit in a slow phase, so raw wall
times of one code version spread wider than any useful regression bound.
``HostSpeed`` samples the speed while the workload runs: an interval timer
interrupts the main thread every ``INTERVAL_S`` and the handler times a fixed
pure-Python kernel of the benchmark's own (it never calls the package, so a
faster package does not make the kernel faster).

The kernel does what the package does most: it builds small int tuples and
hashes them into a set, reading from a table of a few MiB.  Across host
phases its time moved with the package's request times at a log-log slope
of 0.97, where a cache-resident tuple loop gave 0.81 and a plain-ratio
normalization would over-correct.

``normalized(t0, t1)`` turns the wall interval [t0, t1] into seconds at the
reference speed: the interval minus the handler's own time, times
``REF_KERNEL_S`` over the mean kernel time of the samples in the interval
(widened to the nearest ``MIN_SAMPLES`` for intervals shorter than a few
timer periods).  Raw times are kept next to the normalized ones in the run
record.
"""

from __future__ import annotations

import bisect
import gc
import random
import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.04
# Kernel time on the reference host (2 vCPUs, Intel Xeon, CPython 3.11) in
# its fast phase; normalized seconds read as wall seconds on that host.
REF_KERNEL_S = 0.0008
MIN_SAMPLES = 4
_ROWS = 20_000
_PROBES = 400
_MAP = {i: (5 * i + 3) & 7 for i in range(8)}
_ID = tuple(range(8))


class Kernel:
    """Fixed work: ``_PROBES`` seeded table reads, each mapped to a new tuple
    and added to a set."""

    def __init__(self) -> None:
        rng = random.Random(0)
        self.table = [tuple((i + j) & 7 for j in range(8)) for i in range(_ROWS)]
        self.probes = [rng.randrange(_ROWS) for _ in range(_PROBES)]

    def __call__(self) -> int:
        found = set()
        for index in self.probes:
            found.add(tuple(_MAP[(p + q) & 7] for p, q in zip(self.table[index], _ID)))
        return len(found)


class HostSpeed:
    def __init__(self) -> None:
        self.kernel = Kernel()
        self.ends: list[float] = []       # sample end times, increasing
        self.kernel_s: list[float] = []   # kernel duration of each sample
        self.busy: list[float] = [0.0]    # handler time up to each sample
        self._previous = None

    def _sample(self, signum, frame) -> None:
        # The kernel's allocations must not run a collection of the
        # workload's heap here; it still counts them and collects later.
        collecting = gc.isenabled()
        gc.disable()
        start = perf_counter()
        self.kernel()
        end = perf_counter()
        if collecting:
            gc.enable()
        self.ends.append(end)
        self.kernel_s.append(end - start)
        self.busy.append(self.busy[-1] + perf_counter() - start)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def _busy_at(self, t: float) -> float:
        return self.busy[bisect.bisect_right(self.ends, t)]

    def normalized(self, t0: float, t1: float) -> float:
        """Seconds at the reference speed for the wall interval [t0, t1].

        Call after ``stop``, so that samples after t1 exist."""
        lo = bisect.bisect_left(self.ends, t0)
        hi = bisect.bisect_right(self.ends, t1)
        if hi - lo < MIN_SAMPLES:
            lo = max(lo - MIN_SAMPLES // 2, 0)
            hi = min(hi + MIN_SAMPLES // 2, len(self.ends))
        if lo >= hi:
            raise RuntimeError("no host-speed samples; run longer than the timer period")
        own = t1 - t0 - (self._busy_at(t1) - self._busy_at(t0))
        return own * REF_KERNEL_S / statistics.fmean(self.kernel_s[lo:hi])

    def summary(self) -> dict:
        """Kernel-time quartiles over the run, for the run record."""
        q = statistics.quantiles(self.kernel_s, n=4) if len(self.kernel_s) > 1 else [0.0] * 3
        return {"samples": len(self.kernel_s), "interval_s": INTERVAL_S,
                "ref_kernel_s": REF_KERNEL_S,
                "kernel_s_q1": q[0], "kernel_s_median": q[1], "kernel_s_q3": q[2],
                "handler_s": self.busy[-1]}
