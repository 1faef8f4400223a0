"""Core-speed calibration of timed runs.

On a shared virtual machine (the baseline's: 2 vCPUs of an Intel Xeon)
the speed of the core a run gets swings by up to a factor of two within
seconds, in wall and CPU time alike, and a 12 s run of fixed work varies
by 10-25% from one run to the next.  That is the neighbours' doing, not
the program's, and it would hide any change smaller than itself.

So while a run is timed, a timer interrupts it every ``PERIOD_S`` and
times a fixed reference chunk that uses no ``mortval`` code.  The chunk's
time is taken out of the op it interrupted, and the mean chunk time
around an op gives the factor that scales the op's time to a core of
nominal speed.  ``NOMINAL_S`` is the chunk's time on an uncontended core
of the machine the baseline was taken on (2 vCPU Intel Xeon; the 5th
percentile of 2000 chunks).  Raw wall times are reported beside the
scaled ones.

Child processes run on a core the parent cannot time, and chunks timed
inside a child track its speed poorly.  Runs that time children
interleave reference children, fresh interpreters that import numpy and
run ``CHILD_CHUNKS`` chunks: their mean wall time over the run, against
``NOMINAL_CHILD_S``, scales the run's child timings.  A reference child
starts, imports and computes like the children it calibrates.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

PERIOD_S = 0.02
NOMINAL_S = 8.0e-4
CHILD_CHUNKS = 60
NOMINAL_CHILD_S = 0.2

_WIDE = np.linspace(0.0, 1.0, 1 << 17).reshape(32, -1)


def reference_chunk() -> float:
    """Interpreter, small-array and memory-bound array work, like the engine's."""
    a = np.linspace(0.0, 1.0, 1001)
    b = a[::-1].copy()
    for _ in range(60):
        b = np.minimum(a, b + 0.5 * (a - b))
    s = 0.0
    for k in range(1500):
        s += (k * 0.5) ** 0.5
    wide = np.cumsum(_WIDE, axis=1)
    return s + float(b[-1]) + float(wide[0, -1])


def reference_child_args(here: str) -> list[str]:
    """``python`` arguments of a reference child; ``here`` is this directory."""
    return ["-c", f"import sys; sys.path.insert(0, {here!r}); import speed\n"
                  f"for _ in range({CHILD_CHUNKS}): speed.reference_chunk()"]


def child_factor(walls: list[float]) -> float:
    """Nominal over mean wall time of the reference children of a run."""
    return NOMINAL_CHILD_S / (sum(walls) / len(walls))


class SpeedProbe:
    """Times the reference chunk every ``PERIOD_S`` while active."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.samples: list[float] = []
        self.paused = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        reference_chunk()
        spent = time.perf_counter() - start
        self.at.append(start)
        self.samples.append(spent)
        self.paused += spent

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, start: float, end: float, pad: float = 2.5 * PERIOD_S) -> float:
        """Nominal over mean chunk time, for the chunks in [start - pad, end + pad].

        The mean, not the median: an op's time integrates the core's
        slowness over the op, and so does the mean of the chunk times.
        """
        lo = bisect.bisect_left(self.at, start - pad)
        hi = bisect.bisect_right(self.at, end + pad)
        taken = self.samples[lo:hi]
        if not taken:
            return 1.0
        return NOMINAL_S / (sum(taken) / len(taken))
