"""Observability: tracing, metrics, memory, events, ledger, provenance.

Zero-dependency instrumentation threaded through the staged executor,
both backends, the fault layer, and the CLI:

* ``trace`` — hierarchical spans (run → stage → task-chunk) with fault
  retries / slowdowns / pool rebuilds as span events, exported as JSONL
  and Chrome trace-event JSON (Perfetto / ``chrome://tracing``).
  Opt-in: a disabled tracer is a no-op and untraced runs stay at
  seed-baseline cost.
* ``metrics`` — a process-local registry of named counters, gauges, and
  latency histograms; worker snapshots ride the ``TaskEvent`` return
  path and are merged by the executor into the run manifest's
  ``metrics`` section.
* ``memory`` — stage-boundary peak-RSS sampling (always on, one syscall
  per boundary) plus opt-in tracemalloc allocation deltas, recorded
  into the run manifest.
* ``events`` — live heartbeat events (run/stage/chunk boundaries,
  retries, ETA) through composable sinks: a JSONL ``--events`` stream,
  a TTY progress line, in-memory recording for tests.
* ``ledger`` — an append-only, checksummed on-disk history of every
  pipeline/arena run (schema ``repro-ledger/1``), queryable via
  ``repro-hunt runs``.
* ``sentinel`` — drift detection: the newest run against the median of
  its matching-key ledger history, with configurable tolerances.
* ``exporters`` — Prometheus/OpenMetrics text exposition of the
  metrics registry and ledger summary (``repro-hunt metrics export``).
* ``provenance`` — a typed per-domain evidence trail recording which
  scan snapshots, pDNS rows, CT entries, and routing decisions drove
  each funnel transition; rendered by ``repro-hunt explain``.

See docs/observability.md for the span model and naming conventions.
"""

from repro.obs.events import (
    EVENTS_SCHEMA,
    CompositeEventSink,
    EventRecorder,
    EventSink,
    JsonlEventSink,
    NULL_EVENTS,
    TTYProgressSink,
    read_events,
)
from repro.obs.exporters import render_openmetrics, validate_openmetrics
from repro.obs.ledger import (
    LEDGER_SCHEMA,
    LedgerInfo,
    RunLedger,
    RunRecord,
    ledger_key,
)
from repro.obs.memory import MemorySampler, peak_rss_bytes
from repro.obs.metrics import (
    BUCKET_BOUNDS,
    MetricsRegistry,
    drain_worker_snapshot,
    get_registry,
    mark_worker,
    set_registry,
)
from repro.obs.provenance import (
    EVIDENCE_KINDS,
    EvidenceRef,
    FunnelTransition,
    format_provenance,
    routing_ref,
    trail_from_inspection,
    trail_from_pivot,
    transitions_from_dicts,
    transitions_to_dicts,
)
from repro.obs.sentinel import SentinelReport, Tolerances, check_run, format_sentinel
from repro.obs.trace import NULL_TRACER, Span, SpanEvent, Tracer

__all__ = [
    "BUCKET_BOUNDS",
    "MetricsRegistry",
    "drain_worker_snapshot",
    "get_registry",
    "mark_worker",
    "set_registry",
    "EVENTS_SCHEMA",
    "CompositeEventSink",
    "EventRecorder",
    "EventSink",
    "JsonlEventSink",
    "NULL_EVENTS",
    "TTYProgressSink",
    "read_events",
    "render_openmetrics",
    "validate_openmetrics",
    "LEDGER_SCHEMA",
    "LedgerInfo",
    "RunLedger",
    "RunRecord",
    "ledger_key",
    "MemorySampler",
    "peak_rss_bytes",
    "SentinelReport",
    "Tolerances",
    "check_run",
    "format_sentinel",
    "EVIDENCE_KINDS",
    "EvidenceRef",
    "FunnelTransition",
    "format_provenance",
    "routing_ref",
    "trail_from_inspection",
    "trail_from_pivot",
    "transitions_from_dicts",
    "transitions_to_dicts",
    "NULL_TRACER",
    "Span",
    "SpanEvent",
    "Tracer",
]
