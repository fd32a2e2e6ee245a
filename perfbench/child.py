"""One benchmark child process: a set-up or one operation, then exit.

    python3 perfbench/child.py setup --workload W --seed N --inputs DIR --out F [--oracle]
    python3 perfbench/child.py run --workload W --inputs DIR --work DIR --out F

``--trace SPANS`` records spans around the program's public calls (see
``spans.py``) and writes them to SPANS when the process is done.  The
set-up records the layers that build inputs, and stops recording before
it computes the oracle.  The result goes to ``--out`` as JSON; standard
output stays silent.  Every child samples the host's speed
(``hostspeed.py``) from start to result and returns the median sample,
and for each epoch the median sample taken during it.
"""

import time

START = time.monotonic()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
from pathlib import Path  # noqa: E402

from hostspeed import Sampler  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--work", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--oracle", action="store_true")
    parser.add_argument("--trace", type=Path)
    args = parser.parse_args()
    sampler = Sampler()
    sampler.start()

    recorder = None
    if args.trace is not None:
        from spans import Recorder

        recorder = Recorder(f"{args.workload}-{args.mode}-{os.getpid()}")
        # The import `repro-hunt` pays before any subcommand runs.
        recorder.span("cli.import", importlib.import_module)("repro.cli")
        recorder.install(("setup",) if args.mode == "setup" else ("setup", "run"))
    else:
        import repro.cli  # noqa: F401

    import workloads

    if args.mode == "setup":
        seed = workloads.study_seed(args.workload, args.seed)
        built = workloads.SETUP[args.workload](seed, args.inputs)
        result = {"setup_s": time.monotonic() - START, "study_seed": seed,
                  "sizes": built["sizes"], "host_ref_s": sampler.stop()}
        if recorder is not None:
            recorder.uninstall()
        if args.oracle:
            (args.inputs / "oracle.json").write_text(json.dumps(built["oracle"]()))
    else:
        result = workloads.RUN[args.workload](args.inputs, args.work)
        result["host_ref_s"] = sampler.stop()
        windows = result.pop("epoch_windows", [])
        result["epoch_s"] = [end - start for start, end in windows]
        result["epoch_ref_s"] = [sampler.median_between(*window) for window in windows]
    if recorder is not None:
        result["trace"] = recorder.summary()
        recorder.dump(args.trace)
    args.out.write_text(json.dumps(result))


if __name__ == "__main__":
    main()
