"""Times normalised to a reference machine speed.

The machine that runs the benchmark is shared, and the speed at which it
runs Python code drifts: on the 2-CPU cloud machine of the reference figures
a fixed-work loop took 11 ms and 15 ms per unit in alternating stretches of
a few seconds, in wall and CPU time alike.  Raw times carry that drift into
every metric.

A ``SpeedSampler`` runs a fixed calibration loop between operations, and
from a SIGALRM handler inside operations that run longer, whenever no sample
is younger than INTERVAL_NS.  ``normalise`` subtracts from each measured
interval the calibration time spent inside it and divides the rest by the
speed factor around it: the median calibration time of the samples from
WINDOW_NS before it to WINDOW_NS after it, over REF_NS.  A normalised time
reads as the time at the speed where one calibration loop takes REF_NS.
The loop is a double-double series sum through small functions, written out
in the benchmark's own files, so no change to ptheta moves it.  Against a mix
of ptheta work (split-route values, direct values and derivatives, a real
scan, a disk solve, a cold spectral value) in 3-second windows over 100
seconds, the ratio of the two varied by 4.0% while the mix varied by 18%; an
inlined loop of the same arithmetic tracked it to only 8.0%.
"""

from __future__ import annotations

import signal
import time
from array import array

import numpy as np

INTERVAL_NS = 100_000_000
WINDOW_NS = 1_000_000_000
CAL_TERMS = 1500
#: calibration-loop time at the reference speed
REF_NS = 1_200_000.0
_SPL = 134217729.0


def _two_prod(a, b):
    p = a * b
    c = _SPL * a; ah = c - (c - a); al = a - ah
    c = _SPL * b; bh = c - (c - b); bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _quick_two_sum(a, b):
    s = a + b
    return s, b - (s - a)


def _dd_mul(ah, al, bh, bl):
    p, e = _two_prod(ah, bh)
    return _quick_two_sum(p, e + (ah * bl + al * bh))


def _dd_add(ah, al, bh, bl):
    s, e = _two_sum(ah, bh)
    return _quick_two_sum(s, e + (al + bl))


def _calibration_loop() -> float:
    """A fixed double-double series sum through small function calls: the
    same kind of interpreted code as ptheta's arithmetic, kept here so that
    no change to ptheta moves it."""
    sh, sl, th, tl = 1.0, 0.0, 1.0, 0.0
    for _ in range(CAL_TERMS):
        th, tl = _dd_mul(th, tl, -0.9999, 0.0)
        sh, sl = _dd_add(sh, sl, th, tl)
    return sh


class SpeedSampler:
    """Speed samples taken between measured intervals and, while started,
    every INTERVAL_NS from a SIGALRM handler inside long intervals."""

    def __init__(self):
        self.at = array("q")
        self.took = array("q")
        self._previous = None
        self._busy = False

    def sample(self) -> None:
        self._busy = True  # a handler run now would append out of order
        t0 = time.perf_counter_ns()
        _calibration_loop()
        t1 = time.perf_counter_ns()
        self.at.append(t0)
        self.took.append(t1 - t0)
        self._busy = False

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self.maybe_sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_NS / 1e9, INTERVAL_NS / 1e9)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def maybe_sample(self, *_signal_args) -> None:
        """Sample if none was taken in the last INTERVAL_NS."""
        if self._busy:
            return
        if not self.at or time.perf_counter_ns() - self.at[-1] >= INTERVAL_NS:
            self.sample()

    def normalise(self, starts_ns, durations_ns) -> np.ndarray:
        """Durations (ns) at the reference speed, one per interval."""
        starts = np.asarray(starts_ns, dtype=np.int64)
        ends = starts + np.asarray(durations_ns, dtype=np.int64)
        blocked = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            at = np.array(self.at, dtype=np.int64)
            took = np.array(self.took, dtype=np.int64)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, blocked)
        if len(at) == 0:
            raise RuntimeError("no speed samples were taken")
        # calibration time spent inside each interval (signal samples)
        cum = np.concatenate(([0], np.cumsum(took)))
        inside = cum[np.searchsorted(at, ends)] - cum[np.searchsorted(at, starts)]
        lo = np.minimum(np.searchsorted(at, starts - WINDOW_NS), len(at) - 1)
        hi = np.maximum(np.searchsorted(at, ends + WINDOW_NS), lo + 1)
        windows = {}
        for a, b in zip(lo.tolist(), hi.tolist()):
            if (a, b) not in windows:
                windows[(a, b)] = float(np.median(took[a:b]))
        speed = np.array([windows[(a, b)] for a, b in zip(lo.tolist(), hi.tolist())])
        return (ends - starts - inside) / (speed / REF_NS)
