"""Correction of timings for the speed of a shared host.

The host running the benchmark is shared: the same solve takes 15 ms in one
second and 23 ms a few seconds later, and the slow and fast spells last from
seconds to minutes.  No run length averages that away.  So a fixed kernel
that does the same kinds of work as the program (numpy FFTs at the sizes the
workloads use, elementwise complex arithmetic, interpreter-bound Python) but
never calls fnlswaves is timed every CAL_EVERY seconds during the timed loop,
and each op's time is divided by the kernel's slowdown, around that op,
against the kernel's reference time.  A change to fnlswaves cannot move the kernel, so the
corrected times still move with the program.  The raw times are printed too.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np

CAL_EVERY = 0.25  # seconds between kernel samples in a timed loop
WINDOW = 2.0  # seconds either side of an op whose samples set its factor


@dataclass(frozen=True)
class Kernel:
    """FFT round trips (size, repeats) plus float-formatting iterations.

    Each workload gets the mix of work its ops spend their time in, because
    the host's slow spells do not slow every kind of work alike.
    ``reference_s`` is the kernel's median time on the machine the baseline
    was measured on (2 vCPUs, Python 3.11.7, numpy 2.4.6) in a slow spell;
    corrected times read as times on that machine in that state.
    """

    ffts: tuple
    formatting: int
    reference_s: float


# Solves and CLI commands: FFTs at every grid size, and interpreter work
# (per-call overhead, parsing, CSV formatting) in about equal measure.
MIXED = Kernel(((1024, 5), (2048, 3), (4096, 2), (8192, 1), (16384, 1)), 2000, 5.0e-3)
# Evolution segments: FFTs and elementwise arithmetic at n=2048 and 8192.
EVOLVE = Kernel(((2048, 8), (8192, 3)), 0, 2.5e-3)


class SpeedProbe:
    """Samples a kernel and turns samples into per-op slowdown factors."""

    def __init__(self, kernel: Kernel = MIXED):
        self.spec = kernel
        self.arrays = {}
        for n, _ in kernel.ffts:
            x = np.linspace(-8.0, 8.0, n)
            self.arrays[n] = (np.exp(1j * x) / np.cosh(x), 1.0 + np.abs(np.fft.fftfreq(n)) ** 1.5)
        self.samples: list = []
        self.kernel()  # first call builds FFT plans; not a sample

    def kernel(self) -> float:
        total = 0.0
        for n, reps in self.spec.ffts:
            u, sym = self.arrays[n]
            for _ in range(reps):
                lu = np.fft.ifft(sym * np.fft.fft(u))
                g = np.abs(u) ** 2 * u
                total += float(np.sum((lu * np.conj(g)).real))
        cells = {}
        for i in range(self.spec.formatting):
            total += i * 1e-9
            cells[i & 255] = "%.17e" % total
        return total

    def sample(self) -> float:
        t0 = time.perf_counter()
        self.kernel()
        t1 = time.perf_counter()
        self.samples.append((0.5 * (t0 + t1), t1 - t0))
        return t1 - t0

    def due(self, t: float) -> bool:
        """Whether the last sample is CAL_EVERY seconds older than t."""
        return not self.samples or t - self.samples[-1][0] >= CAL_EVERY

    def factor_at(self, t: float) -> float:
        """Kernel slowdown around time t: median of nearby samples / reference."""
        near = [d for ts, d in self.samples if abs(ts - t) <= WINDOW]
        if len(near) < 3:
            near = [d for _, d in sorted(self.samples, key=lambda s: abs(s[0] - t))[:5]]
        return statistics.median(near) / self.spec.reference_s

    def factor(self) -> float:
        return statistics.median(d for _, d in self.samples) / self.spec.reference_s
