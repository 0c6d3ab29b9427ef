"""Wall time in reference seconds, with the machine's speed divided out.

On a shared host the same code can run up to twice as slowly for
seconds at a time, and process CPU time slows with it, so a plain
wall-clock median of a few runs moves by more than any bound a
regression check can use.  ``Sampler`` times a call on the wall clock
and, every ``interval`` seconds while the call runs (SIGALRM), and
once right before and once right after it, times a fixed pure-Python
reference kernel (sparse GF(p) row reduction on dict rows, as in
cupone's own eliminators).  Each stretch of the call between two kernel
runs is scaled by ``REF_S`` over their mean kernel time, so a stretch
that ran at half speed counts half.  The sum is the call's time in
reference seconds: what it would take on a machine where the kernel
takes ``REF_S``.  Kernel time is never part of the call's time.

Code that gets slower costs more reference seconds in full; only the
speed of the machine, as the kernel sees it, is divided out.
"""
from __future__ import annotations

import gc
import random
import signal
import time

# About the kernel's median time on an idle 2-vCPU Intel Xeon VM with
# CPython 3.11; a fixed unit, not a measurement.
REF_S = 0.9e-3

_RNG = random.Random(12345)
_P = 10007
_N = 32
_ROWS = [{_RNG.randrange(_N): _RNG.randrange(1, _P) for _ in range(4)}
         for _ in range(2 * _N)]


def kernel() -> int:
    """Reduce the fixed rows over GF(p); returns the rank."""
    p = _P
    pivots: dict = {}
    for row in _ROWS:
        row = dict(row)
        while row:
            c = min(row)
            if c not in pivots:
                inv = pow(row[c], p - 2, p)
                pivots[c] = {k: v * inv % p for k, v in row.items()}
                break
            f = row[c]
            for k, v in pivots[c].items():
                nv = (row.get(k, 0) - f * v) % p
                if nv:
                    row[k] = nv
                else:
                    row.pop(k, None)
    return len(pivots)


def timed_kernel() -> tuple[float, float]:
    """(start, duration) of one kernel run, garbage collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    kernel()
    t1 = time.perf_counter()
    if enabled:
        gc.enable()
    return t0, t1 - t0


def warm_up(runs: int = 20) -> None:
    """Let the interpreter specialise the kernel before it is timed."""
    for _ in range(runs):
        kernel()


class Sampler:
    """Times calls in reference seconds; one per process."""

    def __init__(self, interval: float = 0.03):
        self.interval = interval
        self._ticks: list[tuple[float, float]] = []
        self._active = False
        self._busy = False
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        if self._active and not self._busy:
            self._busy = True
            try:
                self._ticks.append(timed_kernel())
            finally:
                self._busy = False

    def measure(self, fn, head: float = 0.0):
        """Run ``fn``; returns (its result, wall s, ref s, kernel ticks).

        An exception from ``fn`` propagates.  ``head`` is time spent before
        the call that belongs to it (e.g. interpreter start-up); it is
        counted at the speed of the kernel run just before the call.
        """
        _, before = timed_kernel()
        self._ticks = []
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            t1 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            self._active = False
        _, after = timed_kernel()
        ticks = [(s, d) for s, d in self._ticks if t0 <= s and s + d <= t1]
        # Stretches of the call between kernel runs, each scaled by the
        # mean speed of the kernel runs on either side of it.
        edges = [(t0, before)] + ticks + [(t1, after)]
        wall, ref = head, head * REF_S / before
        for (s0, d0), (s1, d1) in zip(edges, edges[1:]):
            span = s1 - (s0 + d0 if s0 > t0 else t0)
            wall += span
            ref += span * REF_S * (1 / d0 + 1 / d1) / 2
        return result, wall, ref, len(ticks)
