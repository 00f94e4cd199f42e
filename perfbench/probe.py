"""Machine-speed probe: a fixed reference kernel sampled all through an operation.

Other tenants of a shared machine slow the same code by up to 2x, in phases
of seconds to minutes, so plain wall times measure the machine as much as
the codec. A SpeedProbe runs `reference_s` on SIGALRM every INTERVAL_S
while one operation runs, on the same thread and core, so the kernel sees
the same phase as the operation. `normalize` takes the kernel's own time
out of the operation's wall time and rescales the rest to the kernel's
nominal speed:

    normalized = (wall - kernel time inside it) * NOMINAL_S / median kernel time

The kernel is not codec code, so a codec change moves normalized times
exactly as it moves wall times on a steady machine.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.1
# The median of reference_s() on a quiet 2-core machine; only a scale.
NOMINAL_S = 0.0057

_rng = np.random.default_rng(0)
_TILES = _rng.normal(size=(24, 8, 8))
_A = _rng.normal(size=(256, 60))
_W = _rng.normal(size=(60, 40))


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def reference_s() -> float:
    """Wall time of a fixed kernel of the codec's three kinds of work: 8x8
    tile transforms, a small dense layer and a Python integer loop."""
    m = _TILES[0]
    t = monotonic()
    for _ in range(30):
        np.einsum("ij,...jk,lk->...il", m, _TILES, m)
    for _ in range(10):
        np.tanh(_A @ _W).T @ _A
    acc = 0
    for i in range(20000):
        acc = (acc * 31 + i) & 0xFFFF
    return monotonic() - t


class SpeedProbe:
    """Context manager: samples the kernel on entry, every INTERVAL_S of wall
    time until `stop`, and on exit. Only timer samples fall inside the
    operation, and `spent` is their total time."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        t = monotonic()
        self.samples.append(reference_s())
        self.spent += monotonic() - t
        self._busy = False

    def __enter__(self) -> "SpeedProbe":
        self.samples.append(reference_s())
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def __exit__(self, *exc) -> None:
        self.stop()
        signal.signal(signal.SIGALRM, self._old)
        self.samples.append(reference_s())

    def normalize(self, wall: float) -> float:
        return (wall - self.spent) * NOMINAL_S / statistics.median(self.samples)


def speed_scale(n: int = 15) -> float:
    """NOMINAL_S over the median of n kernel runs: the factor that rescales
    a time just measured to the kernel's nominal speed."""
    return NOMINAL_S / statistics.median(reference_s() for _ in range(n))
