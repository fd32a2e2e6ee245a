"""Spans recorded from outside the program, around its public calls.

The traced child process installs wrappers on the functions and methods
listed in ``TARGETS`` — after importing them, so the program's own
code is untouched.  Each call records a span ``(name, start, end,
parent)`` in memory; hot inner calls listed with mode ``count`` are
counted and not timed.  ``Recorder.dump`` writes the spans out when the
run ends and ``Recorder.summary`` folds them into per-name totals:

* ``total`` — the inclusive time of the outermost spans of a name (a
  recursive call inside a span of the same name is not counted twice);
* ``self`` — each span minus the part of it its child spans cover.  A
  stage's only child spans are its backend ``exec.map`` calls, so its
  self time is its parent-side decode time.

Where a module binds a function by name at import time, the binding
that the caller looks up at call time is the one wrapped (for example
``repro.epochs.engine.merge_inputs``, which ``run_epoch`` calls through
its module globals).
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from pathlib import Path

#: ``(module, attribute path, span name, mode, group)``.  ``group`` is
#: ``setup`` for the layers that build a workload's inputs — the set-up
#: child records only those — and ``run`` for the rest.  A span ``name``
#: is reported as the per-layer metric ``name + "_s"`` (``layers.py``).
TARGETS = (
    ("repro.world.scenarios", "paper_world", "world.build", "span", "setup"),
    ("repro.world.scenarios", "run_study", "world.run_study", "span", "setup"),
    ("repro.scan.engine", "ScanEngine.run", "scan.engine", "span", "setup"),
    ("repro.scan.annotate", "Annotator.annotate_dataset", "scan.annotate", "span", "setup"),
    ("repro.pdns.sensor", "SensorNetwork.observe_day", "pdns.observe", "span", "setup"),
    ("repro.dns.resolver", "RecursiveResolver.resolve", "dns.resolve", "span", "setup"),
    ("repro.dns.resolver", "RecursiveResolver.registry_for", "dns.registry_for", "span", "setup"),
    ("repro.dns.registry", "Registry.administers", "dns.administers", "count", "setup"),
    ("repro.segments.inputs", "write_segments", "segments.write", "span", "setup"),
    ("repro.segments.inputs", "load_segment_inputs", "segments.open", "span", "run"),
    ("repro.exec.executor", "PipelineExecutor.execute", "exec.execute", "span", "run"),
    ("repro.exec.backends", "SerialBackend.start", "exec.start", "span", "run"),
    ("repro.exec.backends", "ProcessPoolBackend.start", "exec.start", "span", "run"),
    ("repro.exec.backends", "SerialBackend.map", "exec.map", "span", "run"),
    ("repro.exec.backends", "ProcessPoolBackend.map", "exec.map", "span", "run"),
    ("repro.core.pipeline", "DeploymentMapStage.run", "core.deployment_maps", "span", "run"),
    ("repro.core.pipeline", "ClassificationStage.run", "core.classify", "span", "run"),
    ("repro.core.pipeline", "ShortlistStage.run", "core.shortlist", "span", "run"),
    ("repro.core.pipeline", "InspectionStage.run", "core.inspect", "span", "run"),
    ("repro.core.pipeline", "PivotStage.run", "core.pivot", "span", "run"),
    ("repro.core.pipeline", "AssembleStage.run", "core.assemble", "span", "run"),
    ("repro.cache.fingerprint", "derive_run_key", "cache.run_key", "span", "run"),
    ("repro.cache.store", "StageCache.get", "cache.get", "span", "run"),
    ("repro.cache.store", "StageCache.put", "cache.put", "span", "run"),
    ("repro.epochs.delta", "read_delta", "epochs.read_delta", "span", "run"),
    ("repro.epochs.engine", "run_epoch", "epochs.run_epoch", "span", "run"),
    ("repro.epochs.engine", "merge_inputs", "epochs.merge", "span", "run"),
    ("repro.epochs.engine", "compute_dirty_set", "epochs.dirty", "span", "run"),
    ("repro.io.golden", "encode_report", "io.encode", "span", "run"),
)

STAGES = ("deployment_maps", "classify", "shortlist", "inspect", "pivot", "assemble")


class Recorder:
    """In-memory span store for one traced process."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        #: ``[name, start, end, parent_index, nested]`` per span, in
        #: start order; ``nested`` marks a span inside one of its name.
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._active: dict[str, int] = defaultdict(int)
        self._installed: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def span(self, name: str, fn):
        spans, stack, active, clock = self.spans, self._stack, self._active, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, active[name] > 0])
            stack.append(index)
            active[name] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                active[name] -= 1
                stack.pop()
                spans[index][2] = clock()

        return traced

    def counter(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation --------------------------------------------------------

    def install(self, groups: tuple[str, ...]) -> None:
        for module_name, path, name, mode, group in TARGETS:
            if group not in groups:
                continue
            owner = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            raw = getattr(owner, attr)
            self._installed.append((owner, attr, raw))
            setattr(owner, attr, (self.span if mode == "span" else self.counter)(name, raw))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)

    # -- output --------------------------------------------------------------

    def dump(self, path: Path) -> None:
        with open(path, "w") as handle:
            for index, (name, start, end, parent, _nested) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {"id": index, "name": name, "start": start, "end": end,
                         "parent": parent, "run": self.run_id},
                        separators=(",", ":"),
                    )
                    + "\n"
                )

    def summary(self) -> dict:
        """Per-name ``total``/``self``/``calls`` plus the top-level span
        time and the hot-call counts."""
        covered = [0.0] * len(self.spans)
        top_level = 0.0
        for _name, start, end, parent, _nested in self.spans:
            if parent < 0:
                top_level += end - start
            else:
                covered[parent] += end - start
        names: dict[str, dict] = {}
        for index, (name, start, end, _parent, nested) in enumerate(self.spans):
            entry = names.setdefault(name, {"total": 0.0, "self": 0.0, "calls": 0})
            entry["calls"] += 1
            entry["self"] += (end - start) - covered[index]
            if not nested:
                entry["total"] += end - start
        return {"spans": names, "counts": dict(self.counts), "top_level_s": top_level}
