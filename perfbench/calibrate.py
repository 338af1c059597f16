"""Host-speed calibration.

The benchmark's host shares its cores with other machines, and its speed
switches between a fast and a slow state (about 1.6x apart) on a scale of
seconds to minutes. A run that happens to spend most of its time in the slow
state would read as a regression. So each timed unit of work is followed by
a fixed reference kernel, and the unit's time is scaled by how long the
kernel took around it (see ``Calibrator``).

The kernel is a GRU forward pass and a backward-style sweep in plain numpy.
It uses nothing from ``dualcan``, so a change to the program does not move
it. Two shapes mimic the two kinds of work the program does: small arrays
where interpreter overhead dominates (synthetic profile), and 100-wide
matrices where the arithmetic dominates (gossipcop dimensions).
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Shape:
    hidden: int
    inputs: int
    columns: int
    steps: int
    reference_s: float   # one kernel call on the reference host, fast state


# reference_s: the kernel's time per call in the fast state of a 2-core
# Intel Xeon host (Python 3.11, numpy 2.4, OpenBLAS on one thread)
SYNTHETIC = Shape(hidden=8, inputs=16, columns=8, steps=20, reference_s=0.46e-3)
PAPER = Shape(hidden=100, inputs=100, columns=48, steps=10, reference_s=2.9e-3)


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


class Kernel:
    """A fixed GRU over ``steps`` columns of random input, then a sweep back
    over the steps that multiplies by the transposed weights."""

    def __init__(self, shape: Shape):
        rng = np.random.default_rng(0)
        h, d = shape.hidden, shape.inputs
        self.w = [rng.standard_normal((h, d)) * 0.1 for _ in range(3)]
        self.u = [rng.standard_normal((h, h)) * 0.1 for _ in range(3)]
        self.x = rng.standard_normal((shape.steps, d, shape.columns))
        self.h0 = np.zeros((h, shape.columns))

    def run(self) -> float:
        w, u, h = self.w, self.u, self.h0
        saved = []
        for x in self.x:
            z = _sigmoid(w[0] @ x + u[0] @ h)
            r = _sigmoid(w[1] @ x + u[1] @ h)
            c = np.tanh(w[2] @ x + u[2] @ (r * h))
            saved.append((z, r, c))
            h = (1.0 - z) * h + z * c
        g = np.ones_like(h)
        for z, r, c in reversed(saved):
            g = g * (1.0 - z) + u[2].T @ (g * z * (1.0 - c * c) * r)
        return float(g[0, 0])


class Speed:
    """Kernel time and calls sampled around one phase of work, and the
    phase's time not yet followed by the kernel."""

    def __init__(self, shape: Shape):
        self.reference_s = shape.reference_s
        self.seconds = 0.0
        self.calls = 0
        self.pending = 0.0

    def scale(self) -> float:
        """Reference kernel time over the mean kernel time sampled here:
        multiplying the phase's time by it gives the time on the reference
        host."""
        return self.reference_s * self.calls / self.seconds


class Calibrator:
    """Runs the kernel after timed units, for ``share`` of their time.

    The kernel thus samples the host in proportion to the time of the work
    it follows, and its mean time sees the same mix of fast and slow
    stretches as that work. Units shorter than ``quantum_s`` are gathered
    until their time reaches it, so that the kernel runs for a stretch of
    many calls: the first call after other work runs slower, with cold
    caches.
    """

    def __init__(self, shape: Shape, share: float, quantum_s: float):
        self.shape = shape
        self.kernel = Kernel(shape)
        self.share = share
        self.quantum_s = quantum_s
        self.kernel.run()  # warm-up: the first call is not a sample

    def speed(self) -> Speed:
        return Speed(self.shape)

    def after(self, seconds: float, speed: Speed) -> None:
        """Count ``seconds`` of work in ``speed``; once the work not yet
        followed by the kernel reaches ``quantum_s``, run the kernel."""
        speed.pending += seconds
        if speed.pending >= self.quantum_s:
            self.finish(speed)

    def finish(self, speed: Speed) -> None:
        """Run the kernel for ``share`` of the pending work (one call at
        least, none if nothing is pending) and add its time to ``speed``."""
        if not speed.pending:
            return
        # the kernel makes no reference cycles; with the collector on, it
        # would pay for collections of the program's garbage at random
        collecting = gc.isenabled()
        gc.disable()
        try:
            spent, calls = 0.0, 0
            while calls == 0 or spent < self.share * speed.pending:
                start = time.perf_counter()
                self.kernel.run()
                spent += time.perf_counter() - start
                calls += 1
        finally:
            if collecting:
                gc.enable()
        speed.seconds += spent
        speed.calls += calls
        speed.pending = 0.0
