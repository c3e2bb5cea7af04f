"""Correction of host times for the machine's drifting speed.

On a shared machine the same pure-Python code runs up to about 1.8 times
slower for stretches of 0.5 s to tens of seconds, when other tenants load
the physical core.  A pass of a workload spans several such stretches, so
raw wall times of identical passes spread by 20-35 %, and medians of whole
runs by as much.  ``SpeedSampler`` follows the speed while the benchmark
runs: every ``INTERVAL_S`` of wall time a SIGALRM handler times a fixed
snippet of interpreter work that shares no code with the simulator.  An
interval's corrected time is its wall time multiplied by the mean of
``REFERENCE_NS / snippet_ns`` over the samples taken inside it, that is,
the time the interval would have taken on a core where the snippet runs in
``REFERENCE_NS``.

Snippets were compared by the spread of corrected run medians, all sampled
in the same runs: a small-dict loop and a pure arithmetic loop both left
about 5 %; a loop walking 0.6 MB of objects over-corrected and left 8-11 %.
"""

from __future__ import annotations

import signal
import time
from array import array

INTERVAL_S = 0.01
# The snippet's duration on an unloaded core of the 2-CPU machine the
# benchmark was written on; corrected times read close to that machine's
# fastest wall times.  Changing it rescales every corrected time.
REFERENCE_NS = 32_000


def _snippet() -> int:
    table: dict[int, int] = {}
    total = 0
    for i in range(300):
        table[i & 63] = i
        total += len(table)
    return total


class SpeedSampler:
    """Samples the snippet's duration from a SIGALRM timer while active."""

    def __init__(self) -> None:
        self.samples = array("q")
        self._previous = None

    def sample(self, *_signal_args) -> None:
        t0 = time.perf_counter_ns()
        _snippet()
        self.samples.append(time.perf_counter_ns() - t0)

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> int:
        """Position to pass to ``factor`` for the interval starting now."""
        return len(self.samples)

    def factor(self, since: int) -> float:
        """Mean speed relative to the reference over the samples since ``since``.

        An interval too short to hold a sample gets one taken now.
        """
        if len(self.samples) == since:
            self.sample()
        window = self.samples[since:]
        return sum(REFERENCE_NS / ns for ns in window) / len(window)
