"""The machine's pace, measured by a fixed kernel while a round runs.

The speed of this benchmark's host drifts with the load of the other tenants
that share it.  Within five minutes, the median time of the same 20-step
training, taken over 30-second windows, ranged from 0.059 s to 0.090 s, with
all of its wall time spent on the CPU.  A round's raw time therefore moves by
20-25% between runs of the same code.

A fixed kernel that does not use hermflow (a taped forward and backward
pass through residual `tanh` layers on 90 nodes and 128 hidden units, and a
small `eigvalsh`: the mix of a taped Adam step and an assembly) is timed at
the start and end of every timed round, and whenever a wrapped call into
hermflow returns `INTERVAL_S` or more after the last sample.  A stretch's
pace is its mean kernel time divided by `REFERENCE_S`, about the kernel's
time when this host was fast.
The mean, not the median: a round's time is the sum of its stretches, slow
ones included, and the median passed over bursts of slowness that the round
felt.  A paced time is the raw time, with the kernel's own time taken out,
divided by the pace: the time it would take at the reference pace.  Raw and
paced times move alike with the program's work; the paced one stays steadier
when the host slows down.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

REFERENCE_S = 0.0020  # kernel time at the reference pace, about the fastest seen
INTERVAL_S = 0.05  # program time between two samples


class Pacer:
    """Samples the kernel; `spent` is the total time taken by samples."""

    LAYERS = 6

    def __init__(self):
        rng = np.random.default_rng(20240607)
        self._x = np.linspace(-8.0, 8.0, 90)[:, None]
        self._w = [rng.standard_normal((1, 128)) / 8.0 for _ in range(self.LAYERS)]
        self._b = [rng.uniform(-3.0, 3.0, (1, 128)) for _ in range(self.LAYERS)]
        self._v = [rng.standard_normal((128, 1)) / 32.0 for _ in range(self.LAYERS)]
        s = rng.standard_normal((60, 60))
        self._s = s + s.T
        self.samples: list[float] = []
        self.spent = 0.0
        self._due = 0.0
        for _ in range(3):  # first calls load code and fill caches
            self.kernel()

    def kernel(self) -> float:
        """A taped forward and backward pass through a few residual layers on 90
        nodes with 128 hidden units, as closures on a list, then an `eigvalsh`."""
        tape = []
        x = self._x
        for w, b, v in zip(self._w, self._b, self._v):
            t = np.tanh(x * w + b)
            e = np.exp(-0.5 * t * t)
            y = (t * e) @ v

            def push(g, t=t, e=e, w=w, v=v):
                dt = (g @ v.T) * e * (1.0 - t * t) * (1.0 - t * t)
                return g + 0.1 * (dt @ w.T)

            tape.append(push)
            x = x + 0.1 * y
        g = np.ones_like(x)
        for push in reversed(tape):
            g = push(g)
        return float(g.sum()) + float(np.linalg.eigvalsh(self._s)[0])

    def sample(self):
        # No cyclic collection may start inside the kernel: the program's collections,
        # and with them its peak memory, must fall where they fall without the pacer.
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        self.kernel()
        end = time.perf_counter()
        if enabled:
            gc.enable()
        self.samples.append(end - start)
        self.spent += end - start
        self._due = end + INTERVAL_S

    def tick(self):
        """Take a sample if one is due; called when a paced call returns."""
        if time.perf_counter() >= self._due:
            start = time.perf_counter()
            self.sample()
            # The check and the bookkeeping count as the sample's time too.
            self.spent += (time.perf_counter() - start) - self.samples[-1]

    def begin(self):
        """Start a new stretch of samples (one round)."""
        self.samples = []
        self.sample()

    def pace(self, since: int = 0) -> float:
        """Mean kernel time over the reference, of the stretch's samples from `since` on."""
        return statistics.fmean(self.samples[since:]) / REFERENCE_S

    def end(self) -> float:
        """Close the stretch with one more sample; the stretch's pace."""
        self.sample()
        return self.pace()
