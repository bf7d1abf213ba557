"""Host-speed calibration for timings on a shared machine.

The same work can take 1.5× longer from one second to the next on a shared
sandbox, and that drift, not the program, dominates run-to-run spread. So
the run times a probe, fixed work that does not touch `vora`, before and
after every timed operation (`Calibrator.probe`), and reports each
operation at a reference speed:

    calibrated = raw × REFERENCE_S / median(NEAREST probes before and after it)

The probe has two parts, timed separately. The compute part (small BLAS
products, elementwise ops, a Python loop) calibrates training steps, decodes,
merges and eval. The memory part (allocating and filling fresh 1 MB arrays,
which page-faults) calibrates checkpoint save and load, which are dominated
by allocation and copies and slow down with the host's memory system rather
than its CPU.

A calibrated time is the time the operation would take on a host where the
probe takes exactly its reference time (about its typical time on the 2-CPU
sandbox this benchmark was written on), so calibrated values read as
milliseconds. Host speed changes within a second, so only nearby probes
track it: on six seeds of two workloads, the three nearest compute probes on
each side gave quartile spreads of 0.02-0.14 against 0.09-0.46 raw, 0.03-0.18
for the two adjacent probes alone and 0.04-0.30 for the run's median probe.
With the memory part, and a new file for every save, the spreads of
checkpoint save and load fell from up to 0.45 to 0.02-0.05 on ten seeds. Raw times are kept in the detailed record.
"""

import bisect
import statistics
import time

import numpy as np

REFERENCE_S = {"compute": 1.0e-3, "memory": 0.25e-3}
NEAREST = 3


class Calibrator:
    """The run's probe series, and operation times scaled by it.

    Compute part of the probe: small BLAS products, elementwise ops and a
    Python loop, like a tape step. Memory part: four fresh 1 MB arrays, filled.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.random((48, 64), dtype=np.float32)
        self._w = rng.random((64, 64), dtype=np.float32) / 64
        self.times = []  # probe start times, increasing
        self.durations = {kind: [] for kind in REFERENCE_S}

    def probe(self):
        t0 = time.perf_counter()
        x = self._x
        for _ in range(60):
            y = x @ self._w
            x = (y * 0.5 + 1.0) / (1.0 + np.abs(y))
        acc = 0
        for i in range(3000):
            acc += i * i
        t1 = time.perf_counter()
        for _ in range(4):
            np.empty(1 << 18, dtype=np.float32).fill(1.0)
        self.times.append(t0)
        self.durations["compute"].append(t1 - t0)
        self.durations["memory"].append(time.perf_counter() - t1)

    def calibrate(self, t0, t1, kind="compute"):
        """Calibrated seconds of an operation that ran from t0 to t1."""
        lo = max(0, bisect.bisect_left(self.times, t0) - NEAREST)
        hi = bisect.bisect_left(self.times, t1) + NEAREST
        near = self.durations[kind][lo:hi]
        if not near:
            raise ValueError("no speed probe near the operation")
        return (t1 - t0) * REFERENCE_S[kind] / statistics.median(near)
