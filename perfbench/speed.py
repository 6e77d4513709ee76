"""The host's speed, measured with a fixed kernel alongside the workload.

The benchmark runs on a few cores of a shared host whose speed drifts by tens
of percent within seconds to minutes, as other tenants come and go.  The drift
is larger than any bound a regression check can use, so the end-to-end times
are expressed at a fixed host speed: the benchmark times a fixed kernel,
interleaved with the operations, and scales each measured time by
``REFERENCE_S`` over the mean kernel time in a window around it.

The kernel does the kind of work that dominates the library's trials (small
dense complex matrices through numpy: ``eigh``, the square root of a spectrum,
products, ``kron``), called from a Python loop.  On a 2-vCPU Intel Xeon VM,
over 25-second windows in which the mean ``qubit-sweep`` operation time moved
between 103 and 191 ms, its ratio to the mean kernel time stayed within 23.6
to 26.5.  It is the benchmark's own code: no change to martonlab moves it, so
a speed-up of the library moves a scaled metric by the same factor as the raw
one.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# mean kernel time on the 2-vCPU Intel Xeon VM that set the bounds
REFERENCE_S = 0.0070
# share of a timed phase spent in the kernel
SHARE = 0.10
# a measured time is scaled by the kernel passes that start within this many
# seconds of it: long enough to average some twenty passes, short enough to
# follow the host's changes of speed
WINDOW_S = 1.5
_ITERATIONS = 100
_BASE = (np.eye(4) * 0.5 + 0.1).astype(complex)


def kernel() -> float:
    """One pass of the fixed kernel; returns its checksum."""
    total = 0.0
    for i in range(_ITERATIONS):
        w, v = np.linalg.eigh(_BASE + i * 1e-3)
        m = (v * np.sqrt(np.abs(w))) @ v.conj().T
        total += float(np.real(np.trace(np.kron(m[:2, :2], m[2:, 2:]))))
    return total


class Probe:
    """Kernel timings taken during one phase of a run."""

    def __init__(self):
        self.starts = []
        self.times = []
        kernel()  # warm-up, not timed

    def once(self) -> None:
        t0 = time.perf_counter()
        kernel()
        self.starts.append(t0)
        self.times.append(time.perf_counter() - t0)

    def keep_share(self, elapsed: float) -> None:
        """Run the kernel until it has taken ``SHARE`` of ``elapsed`` seconds."""
        while sum(self.times) < SHARE * elapsed:
            self.once()

    def scale(self) -> float:
        """Mean factor over the whole phase, for the record."""
        if not self.times:
            self.once()
        return REFERENCE_S / statistics.fmean(self.times)

    def scaled(self, start: float, seconds: float) -> float:
        """A time measured from ``start`` (a ``perf_counter`` reading),
        expressed at the reference speed.

        The factor is ``REFERENCE_S`` over the mean of the kernel passes that
        start within ``WINDOW_S`` of the measured interval; the whole phase's
        passes if none does.
        """
        near = [t for s, t in zip(self.starts, self.times)
                if start - WINDOW_S <= s <= start + seconds + WINDOW_S]
        if not near:
            return seconds * self.scale()
        return seconds * REFERENCE_S / statistics.fmean(near)
