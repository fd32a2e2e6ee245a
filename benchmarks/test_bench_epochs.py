"""Epoch engine economics — incremental latency vs the full-rerun
counterfactual.

The epoch layer exists so a ≤1% weekly delta over a 10⁵–10⁶-domain
study costs O(delta) work, not O(dataset).  This module measures the
headline quantity via the same producer that fills the ``epochs``
section of BENCH_perf.json (:func:`repro.obs.perf.measure_epochs`):

* ``epoch_seconds`` — a warm :func:`repro.epochs.run_epoch`: overlay
  merge, dirty-set computation, O(delta) seeding of the deployment
  entry from the base run's banked products, then the seeded run;
* ``full_seconds`` — the honest counterfactual an analyst without the
  epoch engine pays: rebuild the merged table from the concatenated
  row stream, then a cold run against a fresh cache.

Two hard CI floors ride along: the incremental report must be
byte-identical to the full rerun's, and the speedup must clear 10× at
a 1% delta (measured ~12× at 10⁵ domains).  ``REPRO_BENCH_EPOCH_DOMAINS``
scales the population (default 100 000).
"""

import os

from conftest import show

from repro.obs.perf import measure_epochs

N_DOMAINS = int(os.environ.get("REPRO_BENCH_EPOCH_DOMAINS", "100000"))
FLOOR_SPEEDUP = 10.0


def test_epoch_latency_floor(benchmark):
    summary = benchmark.pedantic(
        lambda: measure_epochs(N_DOMAINS), rounds=1, iterations=1
    )
    show(
        f"Epoch engine at {N_DOMAINS} domains, 1% delta (measured)",
        [
            f"base run:   {summary['base_seconds'] * 1e3:8.1f} ms (banks the cache)",
            f"epoch run:  {summary['epoch_seconds'] * 1e3:8.1f} ms "
            f"(dirty {summary['domains_dirty']}, reused {summary['domains_reused']})",
            f"full rerun: {summary['full_seconds'] * 1e3:8.1f} ms "
            f"(rebuild {summary['rebuild_seconds'] * 1e3:.1f} "
            f"+ cold run {summary['full_run_seconds'] * 1e3:.1f})",
            f"speedup: {summary['speedup']:.1f}x   identical: {summary['identical']}",
        ],
    )

    # Identity is non-negotiable: reuse optimizes work, never answers.
    assert summary["identical"], "incremental report diverged from full rerun"
    assert summary["seeded"], "epoch run failed to seed from base products"
    # The dirty set must stay delta-sized, not population-sized.
    assert summary["domains_dirty"] < N_DOMAINS * 0.1, summary
    assert summary["domains_reused"] > N_DOMAINS * 0.9, summary
    assert summary["speedup"] >= FLOOR_SPEEDUP, (
        f"epoch speedup {summary['speedup']}x under the {FLOOR_SPEEDUP}x floor"
    )
