"""Per-stage memory accounting for the run manifest.

Two complementary signals, both recorded by the executor into the
run manifest:

* **peak RSS** — the process's resident-set high-water mark, read from
  ``getrusage`` after every stage.  One syscall per stage boundary, so
  it is always on.  The kernel's counter is monotone: a stage's value is
  "the peak *so far*", and the run-level figure is the final high-water
  mark.  Unavailable platforms (no :mod:`resource`) report ``None``.
* **tracemalloc deltas** — per-stage allocated-byte deltas and peaks
  from :mod:`tracemalloc`.  Tracing every allocation costs real time
  (2-4x on allocation-heavy stages), so this is opt-in
  (``repro-hunt profile --memory``); untraced runs skip every
  tracemalloc call.

The sampler owns the tracemalloc lifecycle: it starts tracing only if
nobody else has, and stops only what it started, so it composes with an
outer profiler or test harness that is already tracing.
"""

from __future__ import annotations

import sys
from typing import Any

try:  # Windows has no resource module; RSS degrades to None there.
    import resource
except ImportError:  # pragma: no cover - platform dependent
    resource = None  # type: ignore[assignment]

import tracemalloc


def peak_rss_bytes() -> int | None:
    """The process's resident-set high-water mark, in bytes.

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; None where
    :mod:`resource` does not exist.
    """
    if resource is None:  # pragma: no cover - platform dependent
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - platform dependent
        return int(peak)
    return int(peak) * 1024


def current_rss_bytes() -> int | None:
    """The process's resident set *right now*, in bytes; None off Linux.

    Pool workers sample this at chunk boundaries and ship the reading
    home in their metric snapshots (gauge ``workers.rss_bytes``).  The
    instantaneous figure is the only honest one a forked worker has:
    both ``ru_maxrss`` and ``VmHWM`` are inherited from the parent at
    ``fork()``, so a slim worker forked from a fat parent reports the
    parent's high-water mark through every peak-oriented interface.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):  # pragma: no cover - platform
        pass
    return None


class MemorySampler:
    """Stage-boundary memory probe used by the executor.

    ``trace_allocations=False`` (the default) keeps the probe at one
    ``getrusage`` call per boundary; ``True`` additionally snapshots
    tracemalloc around every stage.
    """

    def __init__(self, trace_allocations: bool = False) -> None:
        self.trace_allocations = trace_allocations
        self._started_tracing = False
        self._stage_current = 0

    # -- run lifecycle -------------------------------------------------------

    def start_run(self) -> None:
        if self.trace_allocations and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_tracing = True

    def finish_run(self) -> dict[str, Any]:
        """The manifest's run-level ``memory`` section."""
        summary: dict[str, Any] = {
            "peak_rss_bytes": peak_rss_bytes(),
            "tracemalloc": self.trace_allocations,
        }
        if self.trace_allocations and tracemalloc.is_tracing():
            current, peak = tracemalloc.get_traced_memory()
            summary["tracemalloc_current_bytes"] = current
            summary["tracemalloc_peak_bytes"] = peak
            if self._started_tracing:
                tracemalloc.stop()
                self._started_tracing = False
        return summary

    # -- stage boundaries ----------------------------------------------------

    def start_stage(self) -> None:
        if self.trace_allocations and tracemalloc.is_tracing():
            self._stage_current = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()

    def finish_stage(self) -> dict[str, Any]:
        """The per-stage ``memory`` dict for :class:`StageMetrics`."""
        sample: dict[str, Any] = {"peak_rss_bytes": peak_rss_bytes()}
        if self.trace_allocations and tracemalloc.is_tracing():
            current, peak = tracemalloc.get_traced_memory()
            sample["tracemalloc_delta_bytes"] = current - self._stage_current
            sample["tracemalloc_peak_bytes"] = peak
        return sample


__all__ = ["MemorySampler", "peak_rss_bytes"]
