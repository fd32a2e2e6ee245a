"""Performance accounting: the ``BENCH_perf.json`` summary.

One JSON document per profiled run, recording the three quantities the
perf trajectory tracks across commits and Python versions:

* per-stage wall times (straight from the run manifest);
* dataset footprint — row/domain counts, resident typed-array bytes of
  the columnar :class:`~repro.scan.table.ScanTable`, and the pickled
  payload the process backends ship to spawn workers;
* worker/cache payload bytes of the deployment-map stage, measured for
  both representations — the legacy object-graph maps and the columnar
  int-tuple encoding — alongside a timed before/after of the kernel
  itself (the pre-columnar row path is kept here as the *before*);
* per-stage funnel timings (``funnel_stages``, when pipeline inputs are
  supplied) — classify, shortlist, inspect, and assemble each measured
  legacy vs columnar, the same retained references the differential
  suites compare for identity.

Everything is measured on the actual study being profiled, never
hand-asserted; ``repro-hunt profile --json FILE`` writes the document
and CI uploads it as an artifact per Python version.
"""

from __future__ import annotations

import gc
import json
import os
import pickle
import platform
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.exec.metrics import RunMetrics
    from repro.net.timeline import Period
    from repro.scan.dataset import ScanDataset

PERF_SCHEMA = "repro.bench.perf/1"


def legacy_domain_maps(
    dataset: ScanDataset,
    periods: tuple[Period, ...],
    max_gap_scans: int = 6,
) -> dict[tuple[str, int], Any]:
    """The pre-columnar deployment kernel, kept as the measured *before*.

    Re-filters each domain's record objects once per period and clusters
    row-at-a-time — exactly what the deployment kernel did before the
    columnar rewrite (maps built without records, as on the wire),
    including the per-call ``scan_dates_in`` recompute the old dataset
    performed.  The differential tests also use it as the row-path
    oracle (there via the memoized dataset API; the oracle is the
    clustering, not the date filter).
    """
    from repro.core.deployment import build_deployment_map

    maps: dict[tuple[str, int], Any] = {}
    for domain in dataset.domains():
        records = list(dataset.records_for(domain))
        for period in periods:
            dates_in_period = tuple(
                d for d in dataset.scan_dates if period.contains(d)
            )
            if not dates_in_period:
                continue
            if not any(period.contains(r.scan_date) for r in records):
                continue
            maps[(domain, period.index)] = build_deployment_map(
                domain, records, period, dates_in_period, max_gap_scans,
                with_records=False,
            )
    return maps


def measure_deployment_kernel(
    dataset: ScanDataset,
    periods: tuple[Period, ...],
    max_gap_scans: int = 6,
) -> dict[str, Any]:
    """Time and weigh the deployment-map kernel, before vs after.

    Two speedups are reported, both measured:

    * ``speedup`` compares the kernels alone — the legacy row path over
      pre-materialized records versus columnar encode + decode (neither
      resolving any records, as on the wire);
    * ``roundtrip_speedup`` adds what the process backend pays on top —
      pickling the worker-result form, unpickling it in the parent, and
      resolving every map's period records (the legacy per-map record
      filter versus reading each decoded map's lazy CSR slice).

    Payload bytes are the pickled worker-result forms: object-graph
    maps before, the run-length int encoding after.
    """
    from repro.core.deployment import decode_domain_maps, encode_domain_maps

    # Pre-materialize the row view: the pre-columnar dataset held eager
    # record objects, so the legacy kernel must not be charged for lazy
    # materialization.  Each phase frees its intermediates and collects
    # before the next so neither timing pays the other's garbage.
    records = {
        domain: list(dataset.records_for(domain)) for domain in dataset.domains()
    }
    gc.collect()

    t0 = time.perf_counter()
    encoded = [
        (domain, encode_domain_maps(dataset, domain, periods, max_gap_scans))
        for domain in dataset.domains()
    ]
    columnar_maps: dict[tuple[str, int], Any] = {}
    for domain, enc in encoded:
        columnar_maps.update(decode_domain_maps(domain, enc, dataset, periods))
    columnar_seconds = time.perf_counter() - t0
    n_maps = len(columnar_maps)
    columnar_maps.clear()
    gc.collect()

    t0 = time.perf_counter()
    encoded_blob = pickle.dumps([pair for pair in encoded if pair[1]], protocol=5)
    for domain, enc in pickle.loads(encoded_blob):
        for _, map_ in decode_domain_maps(domain, enc, dataset, periods):
            len(map_.records)  # resolve the records, as the legacy side does
    columnar_roundtrip = time.perf_counter() - t0
    gc.collect()

    t0 = time.perf_counter()
    legacy = legacy_domain_maps(dataset, periods, max_gap_scans)
    legacy_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    legacy_blob = pickle.dumps(list(legacy.items()), protocol=5)
    legacy_loaded = pickle.loads(legacy_blob)
    for (domain, _), map_ in legacy_loaded:
        map_.records = [
            r for r in records[domain] if map_.period.contains(r.scan_date)
        ]
    legacy_roundtrip = time.perf_counter() - t0
    del legacy, legacy_loaded, records
    gc.collect()

    def _ratio(a: float, b: float) -> float | None:
        return round(a / b, 2) if b > 0 else None

    return {
        "maps": n_maps,
        "legacy_seconds": round(legacy_seconds, 6),
        "columnar_seconds": round(columnar_seconds, 6),
        "speedup": _ratio(legacy_seconds, columnar_seconds),
        "legacy_roundtrip_seconds": round(legacy_roundtrip, 6),
        "columnar_roundtrip_seconds": round(columnar_roundtrip, 6),
        "roundtrip_speedup": _ratio(
            legacy_seconds + legacy_roundtrip,
            columnar_seconds + columnar_roundtrip,
        ),
        "legacy_payload_bytes": len(legacy_blob),
        "encoded_payload_bytes": len(encoded_blob),
        "payload_ratio": _ratio(len(legacy_blob), len(encoded_blob)),
    }


def measure_funnel_stages(inputs: Any, config: Any = None) -> dict[str, Any]:
    """Time funnel stages 2–4 plus assembly, legacy vs columnar.

    Every rewritten stage keeps its row-at-a-time reference alive (the
    differential suites compare the two for identity); this measures
    both on the same inputs so the speedups in ``BENCH_perf.json`` are
    observed, never asserted:

    * **classify** — object-graph :func:`classify` over deployment maps
      versus :func:`classify_encoded` over the deployment wire form
      (plus the parent-side decode, what the stage actually pays);
    * **shortlist** — the datasetless :class:`Shortlister` (per-map
      record filtering) versus the dataset-attached bisect-slice path;
    * **inspect** — the same :class:`Inspector` over the linear pDNS /
      per-base CT indexes (``use_table = False``) versus the CSR and
      bisect kernels;
    * **assemble** — the per-finding victim-infrastructure rescan
      versus the precomputed single-pass index.
    """
    from repro.core.deployment import decode_domain_maps, encode_domain_maps
    from repro.core.inspection import Inspector
    from repro.core.patterns import classify, classify_encoded, decode_classification
    from repro.core.pipeline import PipelineConfig, _FindingBuilder
    from repro.core.shortlist import Shortlister
    from repro.core.types import Verdict

    config = config or PipelineConfig()
    dataset, periods = inputs.scan, inputs.periods

    def _ratio(a: float, b: float) -> float | None:
        return round(a / b, 2) if b > 0 else None

    def _stage(legacy: float, columnar: float) -> dict[str, Any]:
        return {
            "legacy_seconds": round(legacy, 6),
            "columnar_seconds": round(columnar, 6),
            "speedup": _ratio(legacy, columnar),
        }

    # Stage-1 products, shared by both sides: the deployment wire forms
    # and the decoded maps (with period records resolved up front — the
    # legacy shortlist evidence path filters them).
    encoded_items = [
        (domain, encode_domain_maps(dataset, domain, periods, config.max_gap_scans))
        for domain in dataset.domains()
    ]
    maps: dict[tuple[str, int], Any] = {}
    for domain, enc in encoded_items:
        maps.update(decode_domain_maps(domain, enc, dataset, periods))
    for map_ in maps.values():
        len(map_.records)
    date_ords = {
        p.index: tuple(d.toordinal() for d in dataset.scan_dates_in(p))
        for p in periods
    }
    gc.collect()

    # -- stage 2: classify -------------------------------------------------
    t0 = time.perf_counter()
    classifications = {
        key: classify(map_, config.patterns) for key, map_ in maps.items()
    }
    legacy_classify = time.perf_counter() - t0
    gc.collect()
    t0 = time.perf_counter()
    for domain, enc_maps in encoded_items:
        for period_index, enc_deployments in enc_maps:
            encoded = classify_encoded(
                enc_deployments, date_ords[period_index], config.patterns
            )
            decode_classification(maps[(domain, period_index)], encoded)
    columnar_classify = time.perf_counter() - t0
    gc.collect()

    # -- stage 3: shortlist ------------------------------------------------
    known_missing = dataset.known_missing_dates
    reference = Shortlister(inputs.as2org, config.shortlist, known_missing)
    t0 = time.perf_counter()
    reference.evaluate(classifications)
    legacy_shortlist = time.perf_counter() - t0
    gc.collect()
    columnar = Shortlister(
        inputs.as2org, config.shortlist, known_missing, dataset=dataset
    )
    t0 = time.perf_counter()
    entries, _decisions = columnar.evaluate(classifications)
    columnar_shortlist = time.perf_counter() - t0
    gc.collect()

    # -- stage 4: inspect ----------------------------------------------------
    inspector = Inspector(inputs.pdns, inputs.crtsh, config.inspection)
    inputs.pdns.use_table = False
    inputs.crtsh.use_table = False
    try:
        t0 = time.perf_counter()
        inspector.inspect_many(entries)
        legacy_inspect = time.perf_counter() - t0
    finally:
        inputs.pdns.use_table = True
        inputs.crtsh.use_table = True
    gc.collect()
    inputs.pdns.table  # noqa: B018 — prime the lazy builds so the kernel
    inputs.crtsh.search("warmup.invalid")  # timing excludes one-time setup
    t0 = time.perf_counter()
    inspections = inspector.inspect_many(entries)
    columnar_inspect = time.perf_counter() - t0
    gc.collect()

    # -- assembly ------------------------------------------------------------
    flagged = [
        r
        for r in inspections
        if r.verdict in (Verdict.HIJACKED, Verdict.TARGETED)
    ]
    t0 = time.perf_counter()
    builder = _FindingBuilder(inputs)
    for result in flagged:
        builder.from_inspection(result, classifications)
    legacy_assemble = time.perf_counter() - t0
    gc.collect()
    t0 = time.perf_counter()
    builder = _FindingBuilder(inputs, classifications)
    for result in flagged:
        builder.from_inspection(result, classifications)
    columnar_assemble = time.perf_counter() - t0
    gc.collect()

    return {
        "n_maps": len(maps),
        "n_shortlisted": len(entries),
        "n_flagged": len(flagged),
        "classify": _stage(legacy_classify, columnar_classify),
        "shortlist": _stage(legacy_shortlist, columnar_shortlist),
        "inspect": _stage(legacy_inspect, columnar_inspect),
        "assemble": _stage(legacy_assemble, columnar_assemble),
    }


def measure_segments(
    n_domains: int,
    baseline_domains: int | None = None,
    *,
    n_active: int = 200,
    seed: int = 0,
    jobs: int = 2,
) -> dict[str, Any]:
    """Segment data plane vs in-RAM: open latency and pooled peak RSS.

    Builds one ``n_domains`` scale world, writes it as a segment bundle,
    and measures the two quantities the segment format exists for:

    * **open latency** — remapping the bundle versus unpickling the
      in-RAM input bundle (the payload a pickle-shipping backend pays
      per process);
    * **pooled peak RSS** — a segment-backed shard-partitioned pool run
      at ``n_domains`` versus an in-RAM pooled run at
      ``baseline_domains`` (default: ``n_domains``), each probed in a
      fresh interpreter via :mod:`repro.obs.rss_probe` so neither
      inherits the other's high-water mark.

    ``rss_within_baseline`` is the headline invariant CI floors on: a
    segment-backed run at full scale must not out-consume the in-RAM
    path at baseline scale.
    """
    import subprocess
    import tempfile

    import repro
    from repro.segments import load_segment_inputs, write_segments
    from repro.world.scale import scale_world

    if baseline_domains is None:
        baseline_domains = n_domains

    env = dict(os.environ)
    package_root = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )

    def _probe(argv: list[str]) -> dict[str, Any]:
        proc = subprocess.run(
            [sys.executable, "-m", "repro.obs.rss_probe", *argv],
            env=env, capture_output=True, text=True, check=True,
        )
        return json.loads(proc.stdout)

    with tempfile.TemporaryDirectory(prefix="repro-seg-bench-") as tmp:
        directory = Path(tmp) / "segments"

        t0 = time.perf_counter()
        inputs = scale_world(n_domains, n_active=n_active, seed=seed)
        build_seconds = time.perf_counter() - t0

        t0 = time.perf_counter()
        paths = write_segments(inputs, directory)
        write_seconds = time.perf_counter() - t0
        segment_bytes = sum(path.stat().st_size for path in paths.values())

        blob = pickle.dumps(inputs, protocol=5)
        del inputs
        gc.collect()
        t0 = time.perf_counter()
        pickle.loads(blob)
        pickle_load_seconds = time.perf_counter() - t0
        pickle_bytes = len(blob)
        del blob
        gc.collect()

        t0 = time.perf_counter()
        load_segment_inputs(directory)
        open_seconds = time.perf_counter() - t0
        gc.collect()

        seg = _probe(
            ["segment", "--dir", str(directory), "--jobs", str(jobs),
             "--partition", "shard"]
        )
        inram = _probe(
            ["inram", "--scale", str(baseline_domains),
             "--active", str(n_active), "--seed", str(seed),
             "--jobs", str(jobs)]
        )

    return {
        "n_domains": n_domains,
        "baseline_domains": baseline_domains,
        "n_active": n_active,
        "jobs": jobs,
        "build_seconds": round(build_seconds, 6),
        "write_seconds": round(write_seconds, 6),
        "segment_bytes": segment_bytes,
        "pickle_bytes": pickle_bytes,
        "open_seconds": round(open_seconds, 6),
        "pickle_load_seconds": round(pickle_load_seconds, 6),
        "open_speedup": round(pickle_load_seconds / open_seconds, 2)
        if open_seconds > 0
        else None,
        "segment_run": seg,
        "inram_run": inram,
        "rss_within_baseline": seg["peak_rss_bytes"] <= inram["peak_rss_bytes"],
    }


def measure_epochs(
    n_domains: int,
    *,
    n_active: int = 200,
    seed: int = 0,
    fraction: float = 0.01,
) -> dict[str, Any]:
    """Incremental epoch apply vs full cold rerun over the merged data.

    Builds one ``n_domains`` scale world, runs it once against a stage
    cache (the banked base products an operator would already have),
    generates a deterministic ``fraction`` epoch delta, and measures
    the two paths to the same merged-dataset report:

    * ``epoch_seconds`` — :func:`repro.epochs.run_epoch` over the base
      with the warm cache: overlay merge, dirty-set computation, cache
      seeding from the base products, and the seeded pipeline run;
    * ``full_seconds`` — the counterfactual without the epoch engine:
      the merged table rebuilt from the full concatenated row stream
      (interning + CSR indexing, what regenerating the dataset costs),
      then a cold run against a fresh cache (cold fingerprints, every
      stage recomputed and stored).  Row tuples are materialized
      *outside* the timer — reading the source data is common to both
      workflows, the rebuild and the cold run are not.

    ``identical`` is the oracle (byte-identity of the two reports) and
    ``speedup`` the CI-floored headline: a ≤1% delta must not pay for
    the 99% it carried over.
    """
    import tempfile
    from dataclasses import replace

    from repro.cache import StageCache
    from repro.core.pipeline import HijackPipeline
    from repro.epochs import merge_inputs, run_epoch
    from repro.io.golden import encode_report
    from repro.scan.dataset import ScanDataset
    from repro.scan.table import _SENSITIVE, _TRUSTED, ScanTable
    from repro.world.scale import make_delta, scale_world

    inputs = scale_world(n_domains, n_active=n_active, seed=seed)
    delta = make_delta(inputs, seed=seed, fraction=fraction)

    with tempfile.TemporaryDirectory(prefix="repro-epoch-bench-") as tmp:
        cache = StageCache(tmp)
        t0 = time.perf_counter()
        HijackPipeline(inputs).profile(cache=cache)
        base_seconds = time.perf_counter() - t0
        gc.collect()

        t0 = time.perf_counter()
        report, metrics, _dirty = run_epoch(inputs, delta, cache=cache)
        epoch_seconds = time.perf_counter() - t0
    gc.collect()

    merged = merge_inputs(inputs, delta)
    table = merged.scan.table
    rows = [
        (
            table.date_ord[r],
            table.ips[table.ip_id[r]],
            table.asns[table.asn_id[r]],
            table.certs[table.cert_id[r]],
            table.countries[table.country_id[r]],
            table.port_sets[table.ports_id[r]],
            table.name_sets[table.names_id[r]],
            table.base_sets[table.bases_id[r]],
            bool(table.flags[r] & _TRUSTED),
            bool(table.flags[r] & _SENSITIVE),
        )
        for r in range(len(table.date_ord))
    ]
    gc.collect()

    with tempfile.TemporaryDirectory(prefix="repro-epoch-bench-") as tmp:
        t0 = time.perf_counter()
        builder = ScanTable.build()
        for row in rows:
            builder.append_row(*row)
        rebuilt = ScanDataset.from_table(
            builder.finish(),
            merged.scan.scan_dates,
            known_missing_dates=merged.scan.known_missing_dates,
        )
        rebuild_seconds = time.perf_counter() - t0
        t0 = time.perf_counter()
        full_report, _ = HijackPipeline(replace(merged, scan=rebuilt)).profile(
            cache=StageCache(tmp)
        )
        full_run_seconds = time.perf_counter() - t0
    full_seconds = rebuild_seconds + full_run_seconds
    del rows
    gc.collect()

    stats = metrics.epoch or {}
    return {
        "n_domains": n_domains,
        "n_active": n_active,
        "fraction": fraction,
        "delta": delta.counts(),
        "base_seconds": round(base_seconds, 6),
        "epoch_seconds": round(epoch_seconds, 6),
        "rebuild_seconds": round(rebuild_seconds, 6),
        "full_run_seconds": round(full_run_seconds, 6),
        "full_seconds": round(full_seconds, 6),
        "speedup": round(full_seconds / epoch_seconds, 2)
        if epoch_seconds > 0
        else None,
        "domains_dirty": stats.get("domains_dirty"),
        "domains_reused": stats.get("domains_reused"),
        "seeded": stats.get("seeded"),
        "identical": encode_report(report) == encode_report(full_report),
    }


def measure_dataset(dataset: ScanDataset) -> dict[str, Any]:
    """Footprint of the scan dataset in both representations."""
    table = dataset.table
    columnar_pickle = len(pickle.dumps(dataset, protocol=5))
    legacy_pickle = len(pickle.dumps(dataset.records(), protocol=5))
    return {
        "records": len(dataset),
        "domains": len(dataset.domains()),
        "scan_dates": len(dataset.scan_dates),
        "column_bytes": table.column_bytes(),
        "columnar_pickle_bytes": columnar_pickle,
        "legacy_pickle_bytes": legacy_pickle,
        "pickle_ratio": round(legacy_pickle / columnar_pickle, 2)
        if columnar_pickle > 0
        else None,
    }


def perf_summary(
    dataset: ScanDataset,
    periods: tuple[Period, ...],
    metrics: RunMetrics | None = None,
    max_gap_scans: int = 6,
    inputs: Any = None,
    config: Any = None,
) -> dict[str, Any]:
    """The full ``BENCH_perf.json`` document for one profiled run.

    With ``inputs`` (a :class:`~repro.core.pipeline.PipelineInputs`),
    the document additionally carries ``funnel_stages`` — the measured
    legacy-vs-columnar timings of stages 2–4 and assembly.
    """
    summary: dict[str, Any] = {
        "schema": PERF_SCHEMA,
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "dataset": measure_dataset(dataset),
        "deployment_kernel": measure_deployment_kernel(
            dataset, periods, max_gap_scans
        ),
    }
    if inputs is not None:
        summary["funnel_stages"] = measure_funnel_stages(inputs, config)
    if metrics is not None:
        summary["stages"] = [
            {
                "name": stage.name,
                "wall_seconds": round(stage.wall_seconds, 6),
                "n_in": stage.n_in,
                "n_out": stage.n_out,
                "cached": stage.cached,
                "memory": dict(stage.memory) if stage.memory else None,
            }
            for stage in metrics.stages
        ]
        summary["total_wall_seconds"] = round(
            sum(stage.wall_seconds for stage in metrics.stages), 6
        )
        # Run-level memory accounting (run-manifest/5): peak RSS always,
        # tracemalloc figures when the run traced allocations.
        if metrics.memory:
            summary["memory"] = dict(metrics.memory)
    # The segment-vs-in-RAM section is opt-in by environment: building
    # and probing a 10^5-10^6-domain scale world is a CI-budget decision,
    # not something every `profile --json` should pay.
    scale = os.environ.get("REPRO_SEGMENTS_SCALE")
    if scale:
        baseline = os.environ.get("REPRO_SEGMENTS_BASELINE")
        summary["segments"] = measure_segments(
            int(scale), int(baseline) if baseline else None
        )
    # Likewise for the incremental-epoch comparison: one base run plus a
    # full cold rerun at 10^5-10^6 domains is the expensive half of the
    # measurement, so it only runs where CI budgets for it.
    epochs_scale = os.environ.get("REPRO_EPOCHS_SCALE")
    if epochs_scale:
        summary["epochs"] = measure_epochs(int(epochs_scale))
    return summary


def write_perf_summary(path: str | Path, summary: dict[str, Any]) -> None:
    Path(path).write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")


__all__ = [
    "PERF_SCHEMA",
    "legacy_domain_maps",
    "measure_deployment_kernel",
    "measure_dataset",
    "measure_epochs",
    "measure_funnel_stages",
    "measure_segments",
    "perf_summary",
    "write_perf_summary",
]
