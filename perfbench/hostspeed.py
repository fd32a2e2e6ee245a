"""Host speed, sampled inside each benchmark child while the program runs.

The benchmark runs on a few cores of a shared host.  How fast those
cores execute Python changes by up to half within seconds and for
minutes at a time, with the load of other tenants: on a 2-vCPU Intel
Xeon VM the same ``calibrated_hunt`` operation took from 5.1 to 9.8 s,
and its CPU time moved with it.  A longer run does not average that
out, so each child measures the host's speed while it runs, and the
harness reports its times scaled to a fixed reference speed (the raw
times are printed with every result).

A ``Sampler`` runs a small fixed Python workload (``reference``, built
on the standard library only, so no change to the program can make it
faster or slower by itself) every ``INTERVAL_S`` of wall time from a
``SIGALRM`` handler in the child's main thread, and records the thread
CPU time each call took: time spent waiting for a core is not counted,
a core slowed down by its neighbours is.  The median call over a
child's life is its host speed; a time measured in that child is
reported as ``time * REFERENCE_S / median``.  A time measured over a
part of its life (an epoch) is scaled by the median of the samples
taken in that part.  The samples cost under 1%
of the child's time.  Forked pool workers inherit the handler but not
the timer, so they are never interrupted.

The factor is only as good as the likeness between ``reference`` and
the program.  In a parent whose pool workers keep both cores busy the
samples also see those workers (a few percent on ``calibrated_hunt``),
so a change in how busy the workers are moves the factor a little.
"""

from __future__ import annotations

import signal
import statistics
import time
from bisect import bisect_left, bisect_right

#: Wall time between two samples.
INTERVAL_S = 0.05
#: Fewest samples a window of a child's life is scaled by (an epoch of
#: ``weekly_epochs`` takes about ten).
WINDOW_MIN_SAMPLES = 5
#: The reference speed: a round value near the median ``reference``
#: call on a 2-vCPU Intel Xeon VM under CPython 3.11, so that scaled
#: times read close to the raw times seen there.
REFERENCE_S = 0.0004


def reference() -> int:
    """A fixed slice of dictionary, string and sort work."""
    table = {}
    for i in range(200):
        name = f"ns{i * 7919 % 211}.example.net"
        table[name] = (i, name.split("."), name.upper())
    ordered = sorted(table.items(), key=lambda item: item[1][2])
    return sum(len(parts) + i % 5 for _name, (i, parts, _upper) in ordered)


class Sampler:
    def __init__(self) -> None:
        self.samples: list[float] = []
        #: ``time.monotonic()`` at the end of each sample.
        self.taken: list[float] = []

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> float | None:
        """Stop sampling; the median call's CPU time, if any was sampled."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return statistics.median(self.samples) if self.samples else None

    def median_between(self, start: float, end: float) -> float | None:
        """The median sample taken between two ``time.monotonic()``
        readings; the median of all samples if fewer than
        ``WINDOW_MIN_SAMPLES`` were taken there."""
        lo, hi = bisect_left(self.taken, start), bisect_right(self.taken, end)
        window = self.samples[lo:hi]
        if len(window) < WINDOW_MIN_SAMPLES:
            window = self.samples
        return statistics.median(window) if window else None

    def _sample(self, *_frame) -> None:
        start = time.thread_time()
        reference()
        self.samples.append(time.thread_time() - start)
        self.taken.append(time.monotonic())
