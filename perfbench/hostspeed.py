"""How fast the shared host lets this process run, from a fixed probe.

The measuring host gives the benchmark two vCPUs of a machine it shares
with other tenants.  For tens of seconds to minutes at a time the cores
run up to 1.7x slower.  The probe is a fixed piece of interpreter and
numpy work, independent of fuzzyarith: a loop of integer arithmetic,
numpy calls on Python floats (the way the library calls a custom
correlation) and a small vectorized reduction.  Its best times over a
run say how fast the host let interpreted code run during that run;
code bound by memory or by process start-up slows less.

A time scaled by ``scale()`` reads as if the host had run at the
reference speed ``REF_PROBE_MS``; see NOTES.md ("Host speed").
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Best probe time on the host the baseline was measured on: 2 vCPUs of
# an Intel Xeon, Python 3.11.7, numpy 2.4.6.  Scaled times read as if
# every run had that speed; a different host only rescales them all.
REF_PROBE_MS = 0.128

_XS = np.linspace(0.0, 1.0, 512)
_POINTS = tuple(0.01 * i for i in range(40))


def probe() -> float:
    """Seconds one probe took."""
    t = time.perf_counter()
    s = 0
    for i in range(1500):
        s += i * i
    for x in _POINTS:
        s += float(np.exp(x)) + float(np.arctan(x))
    for _ in range(8):
        s += float(np.sin(_XS).sum())
    return time.perf_counter() - t


class HostSpeed:
    """Probe times taken at fixed slots of a pass, alongside the timed
    operations.

    ``best_median()`` is the median over slots of each slot's best time
    over the passes: the same statistic as the operations' p50, so that
    it moves with the host the way theirs does.
    """

    def __init__(self, warm: bool = False) -> None:
        # warm: read the best of three probes in a row, for a process
        # whose caches a child process has just cleared
        self.warm = warm
        self.best: dict[int, float] = {}

    def take(self, slot: int) -> None:
        t = min(probe() for _ in range(3)) if self.warm else probe()
        self.best[slot] = min(self.best.get(slot, t), t)

    def best_median(self) -> float:
        return statistics.median(self.best.values())

    def scale(self) -> float:
        """Factor that brings a time measured in this run to the reference
        speed: REF_PROBE_MS over the probe's own statistic."""
        return REF_PROBE_MS / (self.best_median() * 1e3)


def moment_scale(window_s: float = 0.05) -> float:
    """Scale for a one-off measurement just taken: REF_PROBE_MS over the
    median probe time in the next ``window_s`` seconds."""
    times, end = [], time.perf_counter() + window_s
    while time.perf_counter() < end:
        times.append(probe())
    return REF_PROBE_MS / (statistics.median(times) * 1e3)
