"""End-to-end benchmark of the retroactive hijack hunt.

    python3 perfbench/run.py --workload weekly_epochs --seed 7 --seconds 20 --trace 0

Run from the root of a checkout.  One harness process runs one workload
as a closed loop with a single client: each operation is a fresh
interpreter, started only after the previous one has ended.  The harness
first sets the workload up (several times, in fresh interpreters, and
reports the median), then runs operations for ``--seconds`` and checks
every report against its oracle.

``--trace 0`` reports the end-to-end metrics, measured with tracing
off; their times are scaled to a fixed host speed sampled in each
child (``hostspeed.py``), and the raw times go to the environment
record.  ``--trace 1`` sets up with tracing, runs the untraced loop for
the baseline, then traced operations, one per set-up, and reports the
per-layer metrics of the first set-up and traced operation.  Either
way the counts in ``layers.COUNTS`` must repeat exactly: across every
operation for those read from ``RunMetrics``, and across the traced
set-up/operation pairs for the rest; a difference makes the result
incorrect.  Both print the environment, a table of every
metric with its unit, and as the last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--workload all`` runs every workload in both modes and prints every
metric by name; its last line merges the results, with each metric
prefixed by its workload.

Work files go to ``.perfbench/`` in the checkout; the run's inputs are
removed when it ends and the spans of the last traced run are kept
under ``.perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
CHILD = HERE / "child.py"

sys.path.insert(0, str(HERE))

from hostspeed import REFERENCE_S  # noqa: E402
from layers import COUNTS, MOVES, layer_metrics, manifest_metrics  # noqa: E402
from workloads import JOBS, RUN  # noqa: E402

WORKLOADS = tuple(RUN)
#: Set-ups per run; ``setup_s`` is their median.  A traced run makes
#: one traced operation per set-up.
SETUP_REPEATS = 2
#: A child that runs longer than this is killed and counts as failed.
CHILD_TIMEOUT_S = 100.0


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _benchmark_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        _fail(f"{path.name} not found in {ROOT}")
    return json.loads(path.read_text())


def _preflight() -> None:
    for needed in ("src/repro/cli.py", "tests/golden"):
        if not (ROOT / needed).exists():
            _fail(f"{needed} not found: run from a checkout of the repository")


# -- environment -------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _source_digest() -> str:
    """Digest of the program's sources, the version of a checkout that
    is not a git repository."""
    digest = hashlib.blake2b(digest_size=16)
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(workload: str, seed: int, study_seed: int, sizes: dict) -> dict:
    commit = _git_commit()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": commit,
        "source_digest": None if commit else _source_digest(),
        "jobs": JOBS if workload == "calibrated_hunt" else 1,
        "workload": workload,
        "seed": seed,
        "study_seed": study_seed,
        "size": sizes,
    }


# -- child processes ---------------------------------------------------------


def _compile_sources() -> None:
    """Write the bytecode cache before anything is timed: in a fresh
    checkout the first child would otherwise compile every module."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src"), str(HERE)],
        stdout=subprocess.DEVNULL, check=True, timeout=CHILD_TIMEOUT_S,
    )


class Child:
    """One finished child process: its result and its resource use."""

    def __init__(self, args: list[str], out: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        if out.exists():
            out.unlink()
        self.spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), *args, "--out", str(out)],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, start_new_session=True,
        )
        status, usage = self._wait(proc)
        self.ok = status == 0 and out.is_file()
        self.cpu_s = usage.ru_utime + usage.ru_stime
        # ru_maxrss of a reaped child is the largest resident set of the
        # child and every descendant it reaped (the pool workers).
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        self.result = json.loads(out.read_text()) if self.ok else None
        #: Factor from this child's times to times at the reference
        #: host speed (``hostspeed.py``).
        self.scale = REFERENCE_S / self.result["host_ref_s"] if self.ok else None

    @staticmethod
    def _wait(proc: subprocess.Popen):
        """Reap the child with its resource use; on timeout or when the
        harness itself is stopped, kill the child's whole process group
        (its pool workers too) and reap it first."""
        deadline = time.monotonic() + CHILD_TIMEOUT_S
        try:
            while time.monotonic() < deadline:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    proc.returncode = os.waitstatus_to_exitcode(status)
                    return proc.returncode, usage
                time.sleep(0.01)
        except BaseException:
            Child._kill(proc)
            raise
        return Child._kill(proc)

    @staticmethod
    def _kill(proc: subprocess.Popen):
        os.killpg(proc.pid, signal.SIGKILL)
        _, _status, usage = os.wait4(proc.pid, 0)
        proc.returncode = -signal.SIGKILL
        return proc.returncode, usage

    @property
    def wall_s(self) -> float:
        return self.result["end"] - self.spawned

    @property
    def epoch_s(self) -> list[float]:
        """Epoch latencies at the reference host speed, each scaled by
        the samples taken during it: each ``run_epoch`` call of a weekly
        replay; a one-shot run is a single epoch as long as the run."""
        if not self.result["epoch_s"]:
            return [self.wall_s * self.scale]
        return [
            latency * REFERENCE_S / ref
            for latency, ref in zip(self.result["epoch_s"], self.result["epoch_ref_s"])
        ]


# -- one workload ------------------------------------------------------------


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.dir = WORK / f"{workload}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        #: Untraced operations that ended well.
        self.ops: list[Child] = []
        #: The ``COUNTS`` read from the first operation's ``RunMetrics``.
        self.counts: dict[str, float] | None = None

    def setup(self, repeats: int) -> list[Child]:
        setups = []
        for rep in range(repeats):
            inputs = self.dir / f"inputs-{rep}"
            inputs.mkdir(parents=True)
            args = ["setup", "--workload", self.workload, "--seed", str(self.seed),
                    "--inputs", str(inputs)]
            if rep == 0:
                args.append("--oracle")
            if self.trace:
                args += ["--trace", str(WORK / "traces" / f"{self.workload}.setup{rep}.spans.jsonl")]
            child = Child(args, self.dir / "setup.json")
            if not child.ok:
                _fail(f"{self.workload} set-up failed (seed {self.seed})")
            setups.append(child)
            if rep:
                shutil.rmtree(inputs)
        self.inputs = self.dir / "inputs-0"
        self.oracle = json.loads((self.inputs / "oracle.json").read_text())
        self.problems += self.oracle.get("problems", [])
        return setups

    def operate(self, trace: str | None = None) -> Child:
        work = self.dir / "op"
        if work.exists():
            shutil.rmtree(work)
        work.mkdir()
        if self.workload == "weekly_epochs":
            shutil.copytree(self.inputs / "base", work / "base")
        args = ["run", "--workload", self.workload, "--inputs", str(self.inputs),
                "--work", str(work)]
        if trace is not None:
            args += ["--trace", str(WORK / "traces" / f"{self.workload}.{trace}.spans.jsonl")]
        child = Child(args, self.dir / "run.json")
        expected = self.oracle.get("epoch_sha256") or [self.oracle["report_sha256"]]
        self.attempted += len(expected)
        got = child.result["reports"] if child.ok else []
        self.failed += sum(
            1 for i, digest in enumerate(expected) if i >= len(got) or got[i] != digest
        )
        if child.ok:
            self.check_counts(manifest_metrics(child.result["run_metrics"]))
        return child

    def check_counts(self, metrics: dict[str, float]) -> None:
        counts = {name: metrics[name] for name in COUNTS if name in metrics}
        if self.counts is None:
            self.counts = counts
        elif counts != self.counts:
            changed = sorted(n for n in counts if counts[n] != self.counts[n])
            self.problems.append(f"counts differ between operations: {', '.join(changed)}")

    def loop(self) -> None:
        """Closed loop: the next operation starts when the last has ended."""
        deadline = time.monotonic() + self.seconds
        while True:
            child = self.operate()
            if child.ok:
                self.ops.append(child)
            if time.monotonic() >= deadline:
                break

    def end_to_end(self, setups: list[Child]) -> dict[str, float]:
        """Medians over the run, of times scaled to the reference host
        speed; ``peak_rss_mb`` is not a time and is not scaled."""
        if not self.ops:
            return {}
        return {
            "wall_s": statistics.median(op.wall_s * op.scale for op in self.ops),
            "epoch_p50_s": statistics.median(s for op in self.ops for s in op.epoch_s),
            "cpu_s": statistics.median(op.cpu_s * op.scale for op in self.ops),
            "peak_rss_mb": statistics.median(op.peak_rss_mb for op in self.ops),
            "setup_s": statistics.median(s.result["setup_s"] * s.scale for s in setups),
        }

    def per_layer(self, setups: list[Child], traced: list[Child]) -> dict[str, float]:
        """The first traced pair's per-layer metrics; every pair must
        give the same ``COUNTS``."""
        if not self.ops or not all(op.ok for op in traced):
            return {}
        pairs = [
            layer_metrics(setup.result["trace"], op.result["trace"], op.result)
            for setup, op in zip(setups, traced)
        ]
        changed = sorted(n for n in COUNTS if len({pair[n] for pair in pairs}) > 1)
        if changed:
            self.problems.append(f"counts differ between traced runs: {', '.join(changed)}")
        metrics, first = pairs[0], traced[0]
        metrics["trace.coverage"] = first.result["trace"]["top_level_s"] / first.wall_s
        # Both sides at the reference host speed, as the end-to-end wall_s.
        metrics["trace.overhead_s"] = first.wall_s * first.scale - statistics.median(
            op.wall_s * op.scale for op in self.ops
        )
        return metrics

    def execute(self) -> tuple[dict[str, float], dict]:
        (WORK / "traces").mkdir(parents=True, exist_ok=True)
        _compile_sources()
        try:
            setups = self.setup(SETUP_REPEATS)
            self.loop()
            if not self.trace:
                metrics = self.end_to_end(setups)
                last = self.ops[-1] if self.ops else None
            else:
                traced = [self.operate(trace=f"run{rep}") for rep in range(len(setups))]
                metrics = self.per_layer(setups, traced)
                last = traced[0]
        finally:
            shutil.rmtree(self.dir, ignore_errors=True)
        sizes = dict(setups[0].result["sizes"])
        if last is not None and last.ok:
            sizes.update(last.result.get("sizes", {}))
            final = last.result["run_metrics"][-1]
            sizes["maps"] = next(
                s["n_out"] for s in final["stages"] if s["name"] == "deployment_maps"
            )
        env = environment(self.workload, self.seed, setups[0].result["study_seed"], sizes)
        env["samples"] = {
            "setups": len(setups),
            "operations": len(self.ops),
            "epochs": sum(len(op.epoch_s) for op in self.ops),
            "setup_s": [round(s.result["setup_s"], 4) for s in setups],
            "wall_s": [round(op.wall_s, 4) for op in self.ops],
            "cpu_s": [round(op.cpu_s, 4) for op in self.ops],
            "host_ref_us": {
                "setups": [round(s.result["host_ref_s"] * 1e6, 1) for s in setups],
                "operations": [round(op.result["host_ref_s"] * 1e6, 1) for op in self.ops],
            },
        }
        return metrics, env


# -- output ------------------------------------------------------------------


def _table(metrics: dict[str, float], units: dict[str, str], show_moves: bool) -> str:
    lines = []
    for name, value in metrics.items():
        line = f"  {name:<32} {value:>16.6f} {units[name]:<6}"
        if show_moves:
            line += f"  moves {MOVES[name]}"
        lines.append(line.rstrip())
    return "\n".join(lines)


def run_one(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    section = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    run = Run(workload, seed, seconds, trace)
    measured, env = run.execute()
    metrics = {name: measured[name] for name in units if name in measured}
    missing = sorted(set(units) - set(metrics))
    if missing:
        run.problems.append(f"metrics not measured: {', '.join(missing)}")
    correct = run.failed == 0 and not run.problems and bool(run.ops)
    print(json.dumps({"environment": env}))
    mode = "per-layer (traced)" if trace else "end-to-end (untraced)"
    print(f"{workload} seed={seed} {mode}: {env['samples']}")
    print(_table(metrics, units, trace))
    print(f"  fail_ratio {run.failed}/{run.attempted}")
    for problem in run.problems:
        print(f"  problem: {problem}")
    return {
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed if run.attempted else 1,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Stopped from outside: unwind, so children are killed and work removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    _preflight()
    spec = _benchmark_spec()
    if args.workload != "all":
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace), spec)
    else:
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in WORKLOADS:
            for trace in (False, True):
                one = run_one(workload, args.seed, args.seconds, trace, spec)
                result["correct"] &= one["correct"]
                result["attempted"] += one["attempted"]
                result["failed"] += one["failed"]
                for name, metric in one["metrics"].items():
                    result["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
