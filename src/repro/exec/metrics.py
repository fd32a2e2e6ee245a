"""Per-stage accounting and the JSON run manifest.

Every pipeline run — serial or parallel — produces a :class:`RunMetrics`
recording, for each stage: wall time, input/output cardinalities (the
funnel delta), how many worker tasks ran, how many distinct workers they
landed on, and utilization (busy worker-seconds over the jobs × wall
budget).  The manifest serializes to JSON so runs can be compared across
machines and job counts, and renders as an aligned table for the
``repro-hunt profile`` view.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

MANIFEST_SCHEMA = "repro.exec.run-manifest/6"


@dataclass(frozen=True, slots=True)
class TaskEvent:
    """One dispatched chunk of work, as observed by the backend.

    ``obs`` is the chunk's observability payload off the kernel return
    path — ``(start, end, metrics_snapshot | None)`` with perf-counter
    timestamps measured inside the executing process — consumed by the
    executor for trace task-spans, per-kernel latency histograms, and
    the worker-metrics merge.  It never reaches the manifest directly.
    """

    pid: int
    seconds: float
    items: int
    kernel: str = ""
    obs: tuple | None = None


@dataclass(frozen=True, slots=True)
class RetryEvent:
    """One fault the backend absorbed instead of aborting the run.

    ``kind`` is ``"crash"`` (a worker task raised an injected crash and
    was retried), ``"pool_rebuild"`` (the process pool broke and was
    rebuilt before resubmission), or ``"slow"`` (an injected slowdown —
    recorded, not retried).
    """

    kernel: str
    kind: str
    attempt: int


@dataclass
class StageStats:
    """What a stage reports about its own funnel step."""

    n_in: int
    n_out: int
    detail: dict[str, Any] = field(default_factory=dict)


@dataclass
class StageMetrics:
    """Everything measured about one stage of one run."""

    name: str
    wall_seconds: float
    n_in: int
    n_out: int
    parallel: bool
    tasks: int
    workers_used: int
    busy_seconds: float
    utilization: float
    detail: dict[str, Any] = field(default_factory=dict)
    #: True when the stage was satisfied from the stage cache (no
    #: kernels ran; wall time is the entry load).
    cached: bool = False
    #: Stage-boundary memory sample (``peak_rss_bytes`` — the process
    #: high-water mark after the stage — plus
    #: ``tracemalloc_delta_bytes`` / ``tracemalloc_peak_bytes`` when
    #: allocation tracing was on); None for manifests before schema /5.
    memory: dict[str, Any] | None = None

    @property
    def funnel_delta(self) -> int:
        """How much the funnel narrowed (negative when a stage fans out)."""
        return self.n_in - self.n_out

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "wall_seconds": round(self.wall_seconds, 6),
            "n_in": self.n_in,
            "n_out": self.n_out,
            "funnel_delta": self.funnel_delta,
            "parallel": self.parallel,
            "tasks": self.tasks,
            "workers_used": self.workers_used,
            "busy_seconds": round(self.busy_seconds, 6),
            "utilization": round(self.utilization, 4),
            "cached": self.cached,
            "memory": dict(self.memory) if self.memory is not None else None,
            "detail": dict(self.detail),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> StageMetrics:
        return cls(
            name=data["name"],
            wall_seconds=data["wall_seconds"],
            n_in=data["n_in"],
            n_out=data["n_out"],
            parallel=data["parallel"],
            tasks=data["tasks"],
            workers_used=data["workers_used"],
            busy_seconds=data["busy_seconds"],
            utilization=data["utilization"],
            cached=data.get("cached", False),
            memory=data.get("memory"),
            detail=dict(data.get("detail", {})),
        )


@dataclass
class RunMetrics:
    """One pipeline run's complete accounting."""

    backend: str
    jobs: int
    chunk_size: int | None = None
    wall_seconds: float = 0.0
    stages: list[StageMetrics] = field(default_factory=list)
    funnel: dict[str, int] = field(default_factory=dict)
    #: The run's DataQuality ledger (``DataQuality.to_dict()`` shape);
    #: None for manifests written before schema /2.
    data_quality: dict[str, Any] | None = None
    #: The merged metrics-registry snapshot
    #: (``MetricsRegistry.snapshot()`` shape); None for manifests
    #: written before schema /3.
    metrics: dict[str, Any] | None = None
    #: The run's stage-cache accounting (hits/misses/stores/bytes plus
    #: the cache directory); None when caching was disabled or for
    #: manifests written before schema /4.
    cache: dict[str, Any] | None = None
    #: Run-level memory accounting (``peak_rss_bytes`` high-water mark,
    #: ``tracemalloc`` flag, and final tracemalloc figures when
    #: allocation tracing was on); None for manifests before schema /5.
    memory: dict[str, Any] | None = None
    #: Incremental-epoch accounting (delta identity, dirty-set counts,
    #: domains reused vs recomputed — the shape ``run_epoch`` attaches);
    #: None for ordinary full runs and manifests before schema /6.
    epoch: dict[str, Any] | None = None

    def add_stage(
        self,
        name: str,
        wall_seconds: float,
        stats: StageStats,
        events: list[TaskEvent],
        parallel: bool,
        cached: bool = False,
        memory: dict[str, Any] | None = None,
    ) -> StageMetrics:
        busy = sum(e.seconds for e in events)
        # Utilization is busy time over the stage's *actual* worker-
        # second budget: a serial stage only ever had one process to
        # keep busy, so charging it jobs × wall would cap it at 1/jobs.
        # A cache-satisfied stage ran no kernels at all — its wall time
        # is the entry load — so it reports zero utilization instead of
        # a load-time/wall-time ratio that would pollute the figure.
        budget = (self.jobs if parallel else 1) * wall_seconds
        stage = StageMetrics(
            name=name,
            wall_seconds=wall_seconds,
            n_in=stats.n_in,
            n_out=stats.n_out,
            parallel=parallel,
            tasks=len(events),
            workers_used=len({e.pid for e in events}),
            busy_seconds=0.0 if cached else busy,
            utilization=0.0 if cached else (busy / budget) if budget > 0 else 0.0,
            cached=cached,
            memory=memory,
            detail=dict(stats.detail),
        )
        self.stages.append(stage)
        return stage

    def stage(self, name: str) -> StageMetrics | None:
        for stage in self.stages:
            if stage.name == name:
                return stage
        return None

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": MANIFEST_SCHEMA,
            "backend": self.backend,
            "jobs": self.jobs,
            "chunk_size": self.chunk_size,
            "wall_seconds": round(self.wall_seconds, 6),
            "stages": [stage.to_dict() for stage in self.stages],
            "funnel": dict(self.funnel),
            "data_quality": self.data_quality,
            "metrics": self.metrics,
            "cache": self.cache,
            "memory": self.memory,
            "epoch": self.epoch,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> RunMetrics:
        if data.get("schema") != MANIFEST_SCHEMA:
            raise ValueError(
                f"unsupported manifest schema {data.get('schema')!r} "
                f"(expected {MANIFEST_SCHEMA!r})"
            )
        return cls(
            backend=data["backend"],
            jobs=data["jobs"],
            chunk_size=data.get("chunk_size"),
            wall_seconds=data["wall_seconds"],
            stages=[StageMetrics.from_dict(s) for s in data["stages"]],
            funnel=dict(data.get("funnel", {})),
            data_quality=data.get("data_quality"),
            metrics=data.get("metrics"),
            cache=data.get("cache"),
            memory=data.get("memory"),
            epoch=data.get("epoch"),
        )

    def write(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def read(cls, path: str | Path) -> RunMetrics:
        return cls.from_dict(json.loads(Path(path).read_text()))


def _mib(value: Any) -> str:
    if not isinstance(value, (int, float)):
        return "-"
    return f"{value / (1024 * 1024):.1f}M"


def format_run_metrics(metrics: RunMetrics) -> str:
    """Render a run manifest as the aligned per-stage profile table.

    Manifests carrying per-stage memory samples (schema /5) gain an
    ``rss`` column — the process high-water mark after the stage — and,
    when allocation tracing was on, an ``alloc`` column with the stage's
    tracemalloc delta.  Older manifests render exactly as before.
    """
    with_rss = any(s.memory for s in metrics.stages)
    with_alloc = any(
        s.memory and "tracemalloc_delta_bytes" in s.memory for s in metrics.stages
    )
    header = (
        f"{'stage':<16} {'wall':>9} {'in':>8} {'out':>8} {'delta':>8} "
        f"{'tasks':>6} {'workers':>8} {'util':>7}"
    )
    if with_rss:
        header += f" {'rss':>9}"
    if with_alloc:
        header += f" {'alloc':>10}"
    chunk_size = "auto" if metrics.chunk_size is None else str(metrics.chunk_size)
    lines = [
        f"run profile: backend={metrics.backend} jobs={metrics.jobs} "
        f"chunk_size={chunk_size} wall={metrics.wall_seconds:.3f}s",
        header,
        "-" * len(header),
    ]
    for stage in metrics.stages:
        # A cache-satisfied stage ran no kernels; its utilization is a
        # meaningless 0/0, so the column says what actually happened.
        util = f"{'cached':>6}" if stage.cached else f"{stage.utilization:>6.1%}"
        line = (
            f"{stage.name:<16} {stage.wall_seconds * 1e3:>8.1f}ms "
            f"{stage.n_in:>8} {stage.n_out:>8} {stage.funnel_delta:>8} "
            f"{stage.tasks:>6} {stage.workers_used:>8} {util}"
        )
        memory = stage.memory or {}
        if with_rss:
            line += f" {_mib(memory.get('peak_rss_bytes')):>9}"
        if with_alloc:
            delta = memory.get("tracemalloc_delta_bytes")
            rendered = f"{delta / (1024 * 1024):+.1f}M" if delta is not None else "-"
            line += f" {rendered:>10}"
        lines.append(line)
    if metrics.memory:
        rss = _mib(metrics.memory.get("peak_rss_bytes"))
        traced = ""
        if metrics.memory.get("tracemalloc"):
            traced = (
                f", tracemalloc peak "
                f"{_mib(metrics.memory.get('tracemalloc_peak_bytes'))}"
            )
        lines.append(f"memory: peak rss {rss}{traced}")
    if metrics.cache:
        lines.append(
            f"cache: {metrics.cache.get('hits', 0)} hits, "
            f"{metrics.cache.get('misses', 0)} misses, "
            f"{metrics.cache.get('stores', 0)} stores "
            f"({metrics.cache.get('bytes_read', 0)}B read, "
            f"{metrics.cache.get('bytes_written', 0)}B written)"
        )
    if metrics.funnel:
        hijacked = metrics.funnel.get("n_hijacked")
        targeted = metrics.funnel.get("n_targeted")
        if hijacked is not None:
            lines.append(f"verdicts: {hijacked} hijacked, {targeted} targeted")
    if metrics.data_quality and metrics.data_quality.get("degraded"):
        workers = metrics.data_quality.get("workers", {})
        lines.append(
            "data quality: DEGRADED "
            f"(worker retries={workers.get('retries', 0)}, "
            f"pool rebuilds={workers.get('pool_rebuilds', 0)})"
        )
    return "\n".join(lines)
