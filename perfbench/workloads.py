"""The two workloads: how each builds its inputs, runs, and is checked.

Every function here runs in a child process (``child.py``).  ``setup``
functions build a workload's inputs into a directory and, when asked,
its oracle; ``run`` functions perform one operation over those inputs
and return what the harness needs to time and check it.

Oracles:

* ``weekly_epochs`` uses the paper study on one of the golden seeds,
  and its final report must equal the pinned
  ``tests/golden/paper_seed{7,11,13}.json`` bytes.  Each intermediate
  weekly epoch must equal a cold serial run over the study as it stood
  that week, built independently of the epoch engine.
* ``calibrated_hunt`` must equal the in-RAM serial report of the same
  study, computed once at set-up.
"""

from __future__ import annotations

import hashlib
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "golden"
GOLDEN_SEEDS = (7, 11, 13)
PAPER_BACKGROUND = 40
CALIBRATED_BACKGROUND = 1000
JOBS = 2


def study_seed(workload: str, seed: int) -> int:
    """The study seed a workload runs for benchmark seed ``seed``.

    The paper-sized workload is checked against pinned golden
    reports, which exist for seeds 7, 11 and 13 only: other benchmark
    seeds map onto one of those.  ``calibrated_hunt`` computes its own
    oracle, so it runs any seed as given.
    """
    if workload == "calibrated_hunt" or seed in GOLDEN_SEEDS:
        return seed
    return GOLDEN_SEEDS[seed % len(GOLDEN_SEEDS)]


def report_bytes(report) -> bytes:
    from repro.io import golden

    return golden.encode_report(report).encode("utf-8")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def golden_sha256(seed: int) -> str:
    return sha256((GOLDEN_DIR / f"paper_seed{seed}.json").read_bytes())


def _scan_size(inputs) -> dict:
    table = inputs.scan.table
    return {"domains": len(table.domains), "scan_rows": len(table)}


# -- set-up ------------------------------------------------------------------


def setup_calibrated_hunt(seed: int, out: Path) -> dict:
    from repro.core.pipeline import HijackPipeline, PipelineInputs
    from repro.segments import inputs as segments
    from repro.world.scenarios import paper_study

    inputs = PipelineInputs.from_study(
        paper_study(seed=seed, n_background=CALIBRATED_BACKGROUND)
    )
    segments.write_segments(inputs, out / "bundle")

    def oracle() -> dict:
        return {"report_sha256": sha256(report_bytes(HijackPipeline(inputs).run()))}

    return {"oracle": oracle, "sizes": {**_scan_size(inputs), "epochs": 1}}


def setup_weekly_epochs(seed: int, out: Path) -> dict:
    from repro.cache import StageCache
    from repro.core.pipeline import HijackPipeline
    from repro.epochs import write_delta
    from repro.segments import inputs as segments
    from repro.world.scenarios import paper_study

    from weekly import WeeklySplit, self_test

    split = WeeklySplit(paper_study(seed=seed, n_background=PAPER_BACKGROUND))
    base = split.inputs_through(0)
    segments.write_segments(base, out / "base")
    HijackPipeline(segments.load_segment_inputs(out / "base")).profile(
        cache=StageCache(out / "base" / "cache")
    )
    deltas = split.deltas()
    (out / "deltas").mkdir()
    for delta in deltas:
        write_delta(delta, out / "deltas" / f"{delta.epoch:02d}.delta")

    def oracle() -> dict:
        problems = self_test(split, base, deltas, out)
        epochs = [
            sha256(report_bytes(HijackPipeline(split.inputs_through(week)).run()))
            for week in range(1, split.weeks + 1)
        ]
        if epochs[-1] != golden_sha256(seed):
            problems.append("the whole study rebuilt by the splitter misses the golden report")
        return {"report_sha256": golden_sha256(seed), "epoch_sha256": epochs,
                "problems": problems}

    return {"oracle": oracle, "sizes": {**_scan_size(split.inputs), "epochs": split.weeks}}


SETUP = {
    "calibrated_hunt": setup_calibrated_hunt,
    "weekly_epochs": setup_weekly_epochs,
}


# -- one operation -----------------------------------------------------------


def run_calibrated_hunt(inputs_dir: Path, work: Path) -> dict:
    from repro.core.pipeline import HijackPipeline
    from repro.exec import ProcessPoolBackend
    from repro.segments import inputs as segments

    inputs = segments.load_segment_inputs(inputs_dir / "bundle")
    mapped = segments.inputs_bytes_mapped(inputs)
    report, metrics = HijackPipeline(inputs).profile(
        ProcessPoolBackend(jobs=JOBS, partition="shard")
    )
    data = report_bytes(report)
    end = time.monotonic()
    return {"end": end, "reports": [sha256(data)],
            "report_bytes": len(data), "run_metrics": [metrics.to_dict()],
            "bytes_mapped": mapped}


def run_weekly_epochs(inputs_dir: Path, work: Path) -> dict:
    """Replay the 12 weekly deltas over a fresh copy of the banked base
    (the harness makes the copy in ``work`` before the process starts)."""
    from repro.cache import StageCache
    from repro.epochs import delta as epochs_delta
    from repro.epochs import engine
    from repro.segments import inputs as segments

    inputs = segments.load_segment_inputs(work / "base")
    mapped = segments.inputs_bytes_mapped(inputs)
    cache = StageCache(work / "base" / "cache")
    windows, reports, run_metrics = [], [], []
    data = b""
    paths = sorted((inputs_dir / "deltas").glob("*.delta"))
    for index, path in enumerate(paths):
        delta = epochs_delta.read_delta(path)
        start = time.monotonic()
        report, metrics, _dirty = engine.run_epoch(inputs, delta, cache=cache)
        windows.append((start, time.monotonic()))
        data = report_bytes(report)
        reports.append(sha256(data))
        run_metrics.append(metrics.to_dict())
        if index + 1 < len(paths):
            inputs = engine.merge_inputs(inputs, delta)
    end = time.monotonic()
    return {"end": end, "epoch_windows": windows, "reports": reports,
            "report_bytes": len(data), "run_metrics": run_metrics,
            "bytes_mapped": mapped}


RUN = {
    "calibrated_hunt": run_calibrated_hunt,
    "weekly_epochs": run_weekly_epochs,
}
