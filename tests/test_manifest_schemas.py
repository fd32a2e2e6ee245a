"""Run-manifest schema: only the current schema loads.

Manifests are written and read by the same build; no reader is kept for
the retired schemas /1–/5.  /6 round-trips losslessly, and any other
schema — a retired one, an unknown one, or none — raises a
``ValueError`` naming /6.
"""

from __future__ import annotations

import pytest

from repro.exec import MANIFEST_SCHEMA, RunMetrics
from repro.exec.metrics import StageStats, TaskEvent


def _stage_dict(name: str = "classify") -> dict:
    return {
        "name": name,
        "wall_seconds": 0.25,
        "n_in": 100,
        "n_out": 40,
        "funnel_delta": 60,
        "parallel": True,
        "tasks": 4,
        "workers_used": 2,
        "busy_seconds": 0.4,
        "utilization": 0.8,
        "detail": {"kinds": {"stable": 90}},
    }


def _manifest_dict(schema: str) -> dict:
    """A run-manifest/6 document, labelled with ``schema``."""
    stage = _stage_dict()
    stage["cached"] = False
    stage["memory"] = {
        "peak_rss_bytes": 50 * 1024 * 1024,
        "tracemalloc_delta_bytes": 1024,
        "tracemalloc_peak_bytes": 4096,
    }
    return {
        "schema": schema,
        "backend": "process-pool",
        "jobs": 2,
        "chunk_size": 16,
        "wall_seconds": 1.5,
        "stages": [stage],
        "funnel": {"n_maps": 100, "n_hijacked": 3},
        "data_quality": {"degraded": False},
        "metrics": {"counters": {}, "gauges": {}, "histograms": {}},
        "cache": {
            "enabled": True, "dir": "/tmp/cache",
            "hits": 3, "misses": 1, "stores": 1,
            "bytes_read": 1024, "bytes_written": 256,
        },
        "memory": {
            "peak_rss_bytes": 51 * 1024 * 1024,
            "tracemalloc": True,
            "tracemalloc_current_bytes": 2048,
            "tracemalloc_peak_bytes": 8192,
        },
        "epoch": {
            "epoch": 1,
            "label": "week-1",
            "delta": "0" * 64,
            "domains": 100,
            "domains_dirty": 3,
            "domains_reused": 97,
            "calendar_changed": False,
            "seeded": True,
            "reuse_disabled": None,
        },
    }


@pytest.mark.parametrize("version", [1, 2, 3, 4, 5])
def test_retired_schema_raises(version):
    data = _manifest_dict(f"repro.exec.run-manifest/{version}")
    with pytest.raises(ValueError, match="run-manifest/6"):
        RunMetrics.from_dict(data)


def test_schema_6_manifest_loads_epoch_section():
    metrics = RunMetrics.from_dict(_manifest_dict(MANIFEST_SCHEMA))
    assert metrics.epoch["epoch"] == 1
    assert metrics.epoch["domains_dirty"] == 3
    assert metrics.epoch["seeded"] is True


def test_schema_6_round_trip_is_lossless(tmp_path):
    metrics = RunMetrics(backend="serial", jobs=1, chunk_size=None)
    metrics.wall_seconds = 0.75
    metrics.add_stage(
        "inspect",
        wall_seconds=0.5,
        stats=StageStats(n_in=10, n_out=4, detail={"positive": 4}),
        events=[TaskEvent(pid=1234, seconds=0.4, items=10, kernel="inspect")],
        parallel=False,
        memory={
            "peak_rss_bytes": 48 * 1024 * 1024,
            "tracemalloc_delta_bytes": 2048,
            "tracemalloc_peak_bytes": 4096,
        },
    )
    metrics.add_stage(
        "pivot",
        wall_seconds=0.001,
        stats=StageStats(n_in=4, n_out=2),
        events=[],
        parallel=False,
        cached=True,
    )
    metrics.funnel = {"n_maps": 10, "n_hijacked": 4}
    metrics.data_quality = {"degraded": False}
    metrics.cache = {
        "enabled": True, "dir": "/tmp/cache",
        "hits": 1, "misses": 4, "stores": 4, "evictions": 0,
        "bytes_read": 512, "bytes_written": 4096,
    }
    metrics.memory = {
        "peak_rss_bytes": 49 * 1024 * 1024,
        "tracemalloc": True,
        "tracemalloc_current_bytes": 1024,
        "tracemalloc_peak_bytes": 8192,
    }
    metrics.epoch = {
        "epoch": 2,
        "label": "week-2",
        "delta": "f" * 64,
        "domains": 10,
        "domains_dirty": 1,
        "domains_reused": 9,
        "calendar_changed": False,
        "seeded": True,
        "reuse_disabled": None,
    }
    metrics.metrics = {
        "counters": {"inspection.inspected": 10},
        "gauges": {"report.findings": 4.0},
        "histograms": {
            "kernel.inspect.seconds": {
                "count": 1, "sum": 0.4, "min": 0.4, "max": 0.4,
                "buckets": [0] * 9 + [1] + [0] * 5,
            }
        },
    }
    path = tmp_path / "manifest.json"
    metrics.write(path)
    loaded = RunMetrics.read(path)
    assert loaded.to_dict() == metrics.to_dict()
    assert loaded.to_dict()["schema"] == MANIFEST_SCHEMA
    assert loaded.epoch == metrics.epoch
    assert loaded.metrics == metrics.metrics
    assert loaded.cache == metrics.cache
    assert loaded.memory == metrics.memory
    assert loaded.stages[0].memory["peak_rss_bytes"] == 48 * 1024 * 1024
    assert loaded.stages[1].cached is True
    assert loaded.stages[1].memory is None
    assert loaded.stages[1].busy_seconds == 0.0


def test_unknown_schema_still_raises():
    with pytest.raises(ValueError, match="unsupported manifest schema.*run-manifest/6"):
        RunMetrics.from_dict(_manifest_dict("repro.exec.run-manifest/99"))


def test_missing_schema_raises():
    data = _manifest_dict(MANIFEST_SCHEMA)
    del data["schema"]
    with pytest.raises(ValueError):
        RunMetrics.from_dict(data)
