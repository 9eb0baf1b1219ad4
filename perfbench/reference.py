"""Reference kernel: fixed work that tracks how fast the machine runs now.

On a shared host the same op can take 1.4x to 2x longer while neighbours are
busy, in states that last from seconds to minutes.  A probe of this kernel
runs between every two timed calls (ops and set-ups).  A call's time is
reported in seconds at the reference speed: its wall time times
`UNIT_S` over the mean of the probes before and after it, i.e. the time the
call would take on a host that runs one kernel unit in `UNIT_S` seconds.
For CPU-bound code that moves with the call's own cost, much less with the
neighbours.

The kernel mixes what the workloads do (a Python loop of small 2x2
products, batched 2x2 products and transcendentals over 4096 points, and
plain interpreter arithmetic) and never calls cocyclelab, so its cost is the
same on every commit.  Changing it, or `UNIT_S`, changes every timing.
"""

import time

import numpy as np

# seconds per kernel unit that define the reference speed: about what an
# idle core of a 2-core Intel Xeon KVM guest takes (Python 3.11, numpy 2.4)
UNIT_S = 0.004


class Reference:
    UNITS = 6  # kernel units per probe

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.mats = rng.normal(size=(4096, 2, 2)) + 0j
        self.vec = np.ones((1, 2), dtype=complex)
        self.probes = []

    def _unit(self):
        # a Python loop of tiny numpy calls, like an orbit walk
        w = self.vec
        for k in range(100):
            w = np.einsum("tij,tj->ti", self.mats[k : k + 1], w)
            w = w / np.sqrt(np.sum(np.abs(w) ** 2))
        # batched 2x2 products and transcendentals, like a tree eval
        for _ in range(2):
            prod = self.mats @ self.mats
            np.angle(np.exp(1j * prod[..., 0, 0])).sum()
        # plain interpreter work
        acc = 0.0
        for i in range(5000):
            acc += (i * 0.5) % 7.0
        return acc

    def probe(self):
        """Mean wall time of one kernel unit over a short burst; recorded."""
        t0 = time.perf_counter()
        for _ in range(self.UNITS):
            self._unit()
        value = (time.perf_counter() - t0) / self.UNITS
        self.probes.append(value)
        return value

    def last(self):
        """The latest probe, taken now if there is none: the probe before
        a call, shared with the call before it."""
        return self.probes[-1] if self.probes else self.probe()

    def rescale(self, seconds, before):
        """`seconds` of wall time since the probe `before`, in seconds at
        the reference speed; takes the probe after."""
        return seconds * UNIT_S / ((before + self.probe()) / 2.0)
