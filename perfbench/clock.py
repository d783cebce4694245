"""Op timing corrected for the speed of the machine.

On the shared 2-core virtual machine the benchmark was tuned on, the
same code runs up to 1.8x slower or faster from one stretch of a few
seconds to the next, and a run of a minute or two cannot average that
out (README.md, "Limits of the measurement").  While a ``Clock`` runs,
an interval timer interrupts the process every ``INTERVAL_S`` and times
a short, fixed, pure-Python reference loop.  The time between two
reference samples is scaled by ``REF_S`` over the mean of the two, and
the samples themselves are left out.  A time so scaled reads as seconds
on a machine where the reference loop takes ``REF_S``.  The reference
loop is the benchmark's own code, so a change to the program moves the
scaled times exactly as it moves the raw ones.

The timer fires inside long calls too (between two bytecodes of the
interpreter), so a call of several seconds is scaled piece by piece.
"""

import signal
from bisect import bisect_right
from time import perf_counter

REF_S = 0.002  # about the reference loop's time on the machine the baseline was recorded on
INTERVAL_S = 0.2


def reference():
    """Fixed work: integer arithmetic, then small tuples, sets and a dict."""
    total = 0
    for i in range(6000):
        total += i * i % 7
    table = {}
    for i in range(2000):
        table[(i, i % 13)] = frozenset((i,))
    return total + len(table)


class Clock:
    """Reference samples taken on a timer, and the scaled time between them.

    Segment ``k`` runs from the end of sample ``k`` to the start of
    sample ``k + 1``.
    """

    def __init__(self):
        self.starts = []  # start of each reference sample
        self.ends = []  # end of each reference sample
        self._sampling = False

    def _sample(self, *_):
        if self._sampling:  # a signal that arrived during a sample
            return
        self._sampling = True
        start = perf_counter()
        reference()
        self.starts.append(start)
        self.ends.append(perf_counter())
        self._sampling = False

    def start(self):
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        # the handler stays: a signal raised just before the timer stopped
        # may still be on its way
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._sample()

    def scale(self, k):
        """The factor for raw times in segment k."""
        last = min(k + 1, len(self.starts) - 1)
        ref = (self.ends[k] - self.starts[k]) + (self.ends[last] - self.starts[last])
        return 2 * REF_S / ref

    def scaled(self, t0, t1):
        """Scaled seconds between perf_counter times t0 < t1 (after start()),
        reference samples left out."""
        total = 0.0
        k = max(bisect_right(self.starts, t0) - 1, 0)
        while k < len(self.starts) and self.ends[k] < t1:
            end = self.starts[k + 1] if k + 1 < len(self.starts) else t1
            seconds = min(end, t1) - max(self.ends[k], t0)
            if seconds > 0:
                total += seconds * self.scale(k)
            k += 1
        return total
