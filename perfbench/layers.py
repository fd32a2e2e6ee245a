"""Per-layer metrics of the traced run, and what each should move.

``MOVES`` states, for every per-layer metric, which end-to-end metric
it should move and on which workload — written down before any change
is measured.  ``layer_metrics`` computes the metrics from the span
summaries of the traced set-up and the traced operation
(``spans.Recorder.summary``) and from the ``RunMetrics`` the program
returned: timings taken inside forked pool workers are lost with the
workers, so worker-side kernel time comes from ``RunMetrics``.

Times are inclusive of child spans unless named ``decode_s``, which is
a stage's ``Stage.run`` wall minus its backend ``map`` calls (the
stage span's self time).  Counts and times are summed over every
pipeline run of the operation (the twelve epochs of ``weekly_epochs``);
ratios are taken of those sums.
"""

from __future__ import annotations

from spans import STAGES, TARGETS

_SIM = "setup_s on calibrated_hunt, weekly_epochs (simulation is set-up only)"
_SEG = "wall_s, peak_rss_mb on calibrated_hunt; wall_s on weekly_epochs"
_EXEC = "wall_s, cpu_s on calibrated_hunt (near zero on the serial workloads)"
_CORE = "wall_s on calibrated_hunt; epoch_p50_s on weekly_epochs"
_EPOCH = "epoch_p50_s, wall_s on weekly_epochs (cache off elsewhere: no change)"
_ALL = "wall_s on both workloads"

MOVES = {
    "cli.import_s": _ALL,
    "world.build_s": _SIM,
    "world.run_study_s": _SIM,
    "scan.engine_s": _SIM,
    "scan.annotate_s": _SIM,
    "pdns.observe_s": _SIM,
    "pdns.observe_calls": _SIM,
    "dns.resolve_s": _SIM,
    "dns.resolve_calls": _SIM,
    "dns.registry_for_s": _SIM,
    "dns.administers_calls": _SIM,
    "dns.administers_per_resolve": _SIM,
    "segments.open_s": _SEG,
    "segments.bytes_mapped": _SEG,
    "segments.write_s": "setup_s on calibrated_hunt, weekly_epochs",
    "exec.start_s": _EXEC,
    "exec.map_s": _EXEC,
    "exec.worker_busy_s": _EXEC,
    "exec.utilization": _EXEC,
    "exec.tasks": _EXEC,
    "exec.retries": _EXEC,
    **{f"core.{stage}_s": _CORE for stage in STAGES},
    **{f"core.{stage}.decode_s": _CORE for stage in STAGES},
    "core.maps": _CORE,
    "core.shortlisted": _CORE,
    "core.findings": _CORE,
    "core.shortlist_yield": _CORE,
    "cache.run_key_s": _EPOCH,
    "cache.get_s": _EPOCH,
    "cache.put_s": _EPOCH,
    "cache.hits": _EPOCH,
    "cache.misses": _EPOCH,
    "cache.bytes_written": _EPOCH,
    "cache.hit_ratio": _EPOCH,
    "epochs.read_delta_s": _EPOCH,
    "epochs.merge_s": _EPOCH,
    "epochs.dirty_s": _EPOCH,
    "epochs.domains_dirty": _EPOCH,
    "epochs.domains_reused": _EPOCH,
    "epochs.reuse_ratio": _EPOCH,
    "io.encode_s": _ALL,
    "io.report_bytes": _ALL,
    "trace.coverage": "none: share of the traced wall inside top-level layer spans",
    "trace.overhead_s": "none: traced wall minus the untraced median wall, both scaled",
}

#: Counts that a deterministic program repeats exactly from run to run.
COUNTS = (
    "pdns.observe_calls",
    "dns.resolve_calls",
    "dns.administers_calls",
    "exec.tasks",
    "exec.retries",
    "core.maps",
    "core.shortlisted",
    "core.findings",
    "cache.hits",
    "cache.misses",
    "epochs.domains_dirty",
    "epochs.domains_reused",
)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(setup_trace: dict, run_trace: dict, run: dict) -> dict[str, float]:
    """Every per-layer metric except the ``trace.*`` pair."""
    setup_spans, run_spans = setup_trace["spans"], run_trace["spans"]

    def field(spans: dict, name: str, key: str) -> float:
        return spans.get(name, {}).get(key, 0)

    def both(name: str, key: str) -> float:
        return field(setup_spans, name, key) + field(run_spans, name, key)

    # The set-up child records only the ``setup`` group, but both
    # children record ``cli.import``: the run's import is the one meant.
    out: dict[str, float] = {"cli.import_s": field(run_spans, "cli.import", "total")}
    for _module, _path, name, mode, group in TARGETS:
        if mode == "span":
            out[f"{name}_s"] = (
                both(name, "total") if group == "setup" else field(run_spans, name, "total")
            )
    for stage in STAGES:
        out[f"core.{stage}.decode_s"] = field(run_spans, f"core.{stage}", "self")
    out["pdns.observe_calls"] = both("pdns.observe", "calls")
    out["dns.resolve_calls"] = both("dns.resolve", "calls")
    out["dns.administers_calls"] = setup_trace["counts"].get(
        "dns.administers", 0
    ) + run_trace["counts"].get("dns.administers", 0)
    out["dns.administers_per_resolve"] = _ratio(
        out["dns.administers_calls"], out["dns.resolve_calls"]
    )
    out["segments.bytes_mapped"] = run.get("bytes_mapped", 0)
    out["io.report_bytes"] = run["report_bytes"]
    out.update(manifest_metrics(run["run_metrics"]))
    return out


def manifest_metrics(run_metrics: list[dict]) -> dict[str, float]:
    """The metrics read from the ``RunMetrics`` of every pipeline run of
    one operation; the harness gets them from untraced operations too."""
    busy = budget = 0.0
    tasks = retries = maps = shortlisted = findings = 0
    hits = misses = written = dirty = reused = domains = 0
    for manifest in run_metrics:
        for stage in manifest["stages"]:
            busy += stage["busy_seconds"]
            tasks += stage["tasks"]
            if not stage["cached"]:
                jobs = manifest["jobs"] if stage["parallel"] else 1
                budget += jobs * stage["wall_seconds"]
            if stage["name"] == "deployment_maps":
                maps += stage["n_out"]
            elif stage["name"] == "shortlist":
                shortlisted += stage["n_out"]
            elif stage["name"] == "assemble":
                findings += stage["n_out"]
        retries += (manifest.get("data_quality") or {}).get("workers", {}).get("retries", 0)
        cache = manifest.get("cache") or {}
        hits += cache.get("hits", 0)
        misses += cache.get("misses", 0)
        written += cache.get("bytes_written", 0)
        epoch = manifest.get("epoch") or {}
        dirty += epoch.get("domains_dirty", 0)
        reused += epoch.get("domains_reused", 0)
        domains += epoch.get("domains", 0)
    return {
        "exec.worker_busy_s": busy,
        "exec.utilization": _ratio(busy, budget),
        "exec.tasks": tasks,
        "exec.retries": retries,
        "core.maps": maps,
        "core.shortlisted": shortlisted,
        "core.findings": findings,
        "core.shortlist_yield": _ratio(shortlisted, maps),
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.bytes_written": written,
        "cache.hit_ratio": _ratio(hits, hits + misses),
        "epochs.domains_dirty": dirty,
        "epochs.domains_reused": reused,
        "epochs.reuse_ratio": _ratio(reused, domains),
    }
