"""Host speed, measured by a fixed kernel run between the timed calls.

On a shared virtual machine the speed of a virtual CPU changes while a run
lasts: a fixed loop of small numpy calls took between 1.0 and 1.6 times
its fastest time within one minute on a 2-core x86-64 VM, with no steal
time counted. Some slow spells last seconds; the rest of the changes
decorrelate within about 50 ms. A benchmark that reports raw times then
measures the neighbours. The kernel below does the same kind of work as
the library (small dense solves and products driven by Python loops) but
none of its code, so a change to lqgames does not change it. It takes
about 2 ms and runs every PROBE_INTERVAL_S of wall time (or at the next
gap between timed calls), outside every timed region. Each timed quantity
is scaled by REFERENCE_S over the kernel's median time near it: the
scaled figures read as times on a host that runs the kernel in
REFERENCE_S. Between raw and scaled times, the spread across seeds of the
median latency fell from 0.05-0.21 to 0.02-0.04 of the median.
"""

import bisect
import statistics
import time

import numpy as np

PROBE_INTERVAL_S = 0.05
# CPU seconds of one kernel() on the 2-core x86-64 VM the baseline was
# recorded on, in its faster state (Python 3.11, numpy 2.4, OpenBLAS 0.3
# with one thread).
REFERENCE_S = 0.00175
WINDOW_S = 0.25          # probes within this distance of a time are used
MIN_PROBES = 5           # or the nearest this many, when fewer are within

_rng = np.random.default_rng(12345)
_A = _rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
_B = _rng.standard_normal((3, 2))
_REPS = 150


def kernel() -> float:
    """Fixed work: small solves, products and reductions under a Python
    loop. Returns a checksum so nothing can be skipped."""
    a, b = _A, _B
    total = 0.0
    for i in range(_REPS):
        x = np.linalg.solve(a, b)
        y = a @ x - b
        total += float(np.abs(y).sum()) + 1e-9 * i
        d = {j: j * j for j in range(16)}
        total += 1e-12 * sum(d.values())
    return total


class Speed:
    """Kernel times, stamped with the wall clock, and the time they took
    from the run. `spent_wall` and `spent_cpu` let a caller remove probes
    that ran inside a timed call."""

    def __init__(self):
        self.stamps: list[float] = []      # increasing
        self.seconds: list[float] = []
        self.spent_wall = 0.0
        self.spent_cpu = 0.0
        self._last = -float("inf")

    def probe(self) -> None:
        start, start_cpu = time.perf_counter(), time.process_time()
        kernel()
        cpu = time.process_time() - start_cpu
        end = time.perf_counter()
        self.stamps.append(0.5 * (start + end))
        self.seconds.append(cpu)
        self.spent_wall += end - start
        self.spent_cpu += cpu
        self._last = end

    def maybe_probe(self) -> None:
        if time.perf_counter() - self._last >= PROBE_INTERVAL_S:
            self.probe()

    def factor(self, t0: float, t1: float | None = None) -> float:
        """REFERENCE_S over the median kernel time of the probes within
        WINDOW_S of [t0, t1], or of the MIN_PROBES nearest."""
        t1 = t0 if t1 is None else t1
        near = self.seconds[bisect.bisect_left(self.stamps, t0 - WINDOW_S):
                            bisect.bisect_right(self.stamps, t1 + WINDOW_S)]
        if len(near) < MIN_PROBES:
            order = sorted(range(len(self.stamps)),
                           key=lambda i: _gap(self.stamps[i], t0, t1))
            near = [self.seconds[i] for i in order[:MIN_PROBES]]
        return REFERENCE_S / statistics.median(near)

    def summary(self) -> dict:
        return {"probes": len(self.seconds),
                "kernel_median_s": statistics.median(self.seconds),
                "kernel_min_s": min(self.seconds),
                "kernel_max_s": max(self.seconds),
                "reference_s": REFERENCE_S}


def _gap(t: float, t0: float, t1: float) -> float:
    return max(t0 - t, 0.0, t - t1)
