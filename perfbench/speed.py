"""Reference-speed clock for a host whose CPU speed drifts.

On a shared 2-CPU host the CPU alternates between a fast and a slow speed,
about 1.6x apart, for spells of seconds to minutes; a pure-Python loop took
41 ms or 66 ms and a numpy product 86 ms or 141 ms depending on the spell.
Wall times of the same pass therefore differ by 20 % between runs.

While active, `Speedometer` times a fixed calibration kernel every 50 ms
from a SIGALRM handler, so it samples the speed during long calls too.  A
call's reference time is its time minus the kernel's, times the mean of
REFERENCE_S / kernel time over the samples taken during the call: the time
the call would take on a host where the kernel runs in REFERENCE_S.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
REFERENCE_S = 0.5e-3


class Speedometer:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._matrix = rng.random((200, 400))
        self._vector = rng.random(400)
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous_handler = None

    def _kernel(self) -> None:
        """Interpreter work plus small dense products, like the solver's mix."""
        table: dict[int, float] = {}
        for i in range(800):
            table[i % 97] = table.get(i % 97, 0.0) + i * 0.5
        for _ in range(8):
            y = self._matrix @ self._vector
            self._matrix[int(np.argmax(y)), :] *= 1.0

    def sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        self._kernel()
        took = time.perf_counter() - start
        self.samples.append(took)
        self.spent += took

    def __enter__(self) -> "Speedometer":
        self.sample()
        self._previous_handler = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def mark(self) -> tuple[int, float]:
        return len(self.samples), self.spent

    def reference_seconds(self, seconds: float, mark: tuple[int, float]) -> float:
        """Reference time of a call that took `seconds` since `mark`; a call
        too short to hold a sample uses the latest sample before it."""
        first, spent = mark
        readings = self.samples[first:] or self.samples[first - 1:first]
        busy = seconds - (self.spent - spent)
        return busy * statistics.fmean(REFERENCE_S / took for took in readings)
