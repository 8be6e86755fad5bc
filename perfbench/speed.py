"""Host-speed calibration: measured spans restated at one reference speed.

The CPU of the reference host (a 2-vCPU Intel Xeon virtual machine) runs at
speeds that differ by a factor of 1.6 to 3. The speed changes at any
moment, for stretches from under two seconds to most of a minute, and
``time.thread_time`` slows with it, so the process is not descheduled; the
CPU itself is slower. A run that falls wholly in a slow stretch reads up to
twice the time of one that does not, whatever statistic it takes.

So every timed span is bracketed by ``calibrate()``, a fixed computation on
41-element arrays (the trajectory length the planner works on), timed right
before and right after the span. The span's time is scaled by
``REFERENCE_S`` over the mean of its two calibration times, which restates
it at the speed on which ``calibrate()`` takes ``REFERENCE_S``: the fast
state of that host. On that host, numpy-bound and mixed code such as a
plan call slows down by about the same factor as ``calibrate()``; pure Python
loops slow down less, so their scaled times read low in slow stretches.
"""
from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.215e-3   # calibrate() in the fast state of the reference host

_A = np.linspace(0.0, 1.0, 41)
_B = _A[::-1].copy()


def calibrate() -> float:
    """Run the fixed calibration computation; returns how long it took (s)."""
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(40):
        d = np.hypot(_A - _B, _B * 0.5)
        acc += float(np.max(np.maximum(d, 0.1)))
    return time.perf_counter() - t0


class SpeedClock:
    """A sequence of calibrated marks; the work between marks is timed and scaled."""

    def __init__(self) -> None:
        self._marks: list = []   # (start, end, calibration seconds)

    def mark(self) -> int:
        """Calibrate now; returns the mark's index."""
        start = time.perf_counter()
        cal = calibrate()
        self._marks.append((start, time.perf_counter(), cal))
        return len(self._marks) - 1

    def intervals(self) -> tuple:
        """Raw and scaled seconds of the work between each pair of consecutive marks."""
        m = np.asarray(self._marks)
        raw = m[1:, 0] - m[:-1, 1]
        return raw, raw * (REFERENCE_S / ((m[1:, 2] + m[:-1, 2]) / 2.0))
