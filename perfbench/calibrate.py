"""Host-speed sampling, so times measured on a drifting host compare.

The benchmark host is a small shared VM whose speed switches between a fast
and a slow state several times a second with its neighbours' load; plain
medians of the same code spread by 20-40 % from run to run.  ``Sampler``
runs a tiny fixed probe every ``INTERVAL_S`` of wall time (from SIGALRM,
between bytecodes of whatever the process is doing) and keeps each probe's
duration.  The runner scales a measured time by ``REFERENCE_S / mean probe
duration`` over the same interval: the time the work would have taken at
the speed the host has when the probe takes ``REFERENCE_S``.  The probes
never call bscbounds, so a change to the program cannot move them, and
they cost the measured process the same small share of time on every
commit.

Until numpy is imported (the set-up phase) the probe is pure Python; after
``use_numpy`` it mixes what the program does: scalar float math, numpy calls
on 12-element arrays and a popcount over a block of words.

This module imports nothing heavy, so the worker can start sampling before
it imports bscbounds.
"""

from __future__ import annotations

import math
import signal
import time

INTERVAL_S = 0.02
# probe durations on the benchmark host in its fast state (about the fastest
# tenth of probes seen there)
REFERENCE_S = {"pure": 3.2e-4, "mixed": 3.5e-4}


class Sampler:
    def __init__(self) -> None:
        self.samples: list = []          # (kind, monotonic time, seconds)
        self._np = None
        self._small = self._block = None

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def use_numpy(self) -> None:
        import numpy as np

        self._small = np.linspace(0.01, 0.2, 12)
        self._block = np.arange(1 << 13, dtype=np.uint32)
        self._np = np

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        acc = 0.0
        if self._np is None:
            kind = "pure"
            for i in range(1, 4000):
                x = i * 1e-4
                acc += x * x - 0.5 * x
        else:
            kind, np = "mixed", self._np
            for i in range(1, 800):
                x = i * 1e-3
                acc += -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)
            for _ in range(30):
                acc += float(np.log2(self._small + 1.0
                                     + np.sqrt(self._small * self._small)).sum())
            acc += int((np.bitwise_count(self._block ^ np.uint32(7919))
                        == 5).sum())
        self.samples.append((kind, time.monotonic(), time.perf_counter() - t0))

    def slowdown(self, kind: str, t0: float, t1: float) -> float:
        """Mean probe duration over REFERENCE_S, for probes in [t0, t1]."""
        durations = [d for k, t, d in self.samples
                     if k == kind and t0 <= t <= t1]
        if not durations:
            return 1.0
        return sum(durations) / len(durations) / REFERENCE_S[kind]
