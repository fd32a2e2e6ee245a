"""Pinned cache keys: the content digests every banked artifact hangs off.

A stage-cache entry is addressed by a stage fingerprint over the input
bundle's content digest, and a written segment bundle carries its scan
table's block digests in the header.  If the canonical encoder behind
them drifts by one byte, every banked cache entry and every written
bundle is silently orphaned — nothing fails, runs just stop hitting.
These constants were computed by the one-``json.dumps``-per-row encoder
the columnar encoder replaced; any change to them must come with a
``CACHE_SALT`` bump and a segment-format decision, never by accident.
"""

from __future__ import annotations

import pytest

from repro.cache.fingerprint import derive_run_key, inputs_digest, stage_fingerprint
from repro.core.pipeline import PipelineConfig, PipelineInputs, build_stages
from repro.faults.plan import FaultPlan
from repro.segments import open_scan_table, write_segments
from repro.world.scenarios import paper_study

#: ``paper_study(seed=7, n_background=40)`` — the golden seed-7 study.
SEED7_INPUTS_DIGEST = "74fa6f9c54c76711eaaea671a2e0f532"

#: Its ``deployment_maps`` fingerprint under the default config, no faults.
SEED7_DEPLOYMENT_MAPS_FINGERPRINT = "322275ddfbeabfd40bbe3a437c7aba52e9290bd6de606c87"

#: The ``block_digests`` header of its written scan segment (6 full
#: 4096-row blocks and one partial block).
SEED7_SEGMENT_BLOCK_DIGESTS = [
    "d061639d16bfdaace5cc32e2bec639fa",
    "94bb763d0520d8a9adb2a3105408cf10",
    "fb6bb9564e4343ad462fa3fb0184169a",
    "3232169d16b95d4551fe2eda21ce2bd0",
    "9f17d88388db8db287a3e9576217ef23",
    "508028460ec9cbbe4d3ee59b3c906ee2",
    "3c1a70881059ad068c9bd6014c6895c7",
]


@pytest.fixture(scope="module")
def seed7_inputs() -> PipelineInputs:
    return PipelineInputs.from_study(paper_study(seed=7, n_background=40))


def test_inputs_digest_is_pinned(seed7_inputs):
    assert inputs_digest(seed7_inputs) == SEED7_INPUTS_DIGEST


def test_deployment_maps_fingerprint_is_pinned(seed7_inputs):
    stage = build_stages()[0]
    assert stage.name == "deployment_maps"
    run_key = derive_run_key(seed7_inputs, FaultPlan.from_spec(None), PipelineConfig())
    chain = [(stage.name, stage.cache_version, stage.config_deps)]
    assert stage_fingerprint(run_key, chain) == SEED7_DEPLOYMENT_MAPS_FINGERPRINT


def test_segment_header_block_digests_are_pinned(seed7_inputs, tmp_path):
    paths = write_segments(seed7_inputs, tmp_path / "bundle")
    meta = open_scan_table(paths["scan"]).segment.meta
    assert meta["block_rows"] == 4096
    assert meta["block_digests"] == SEED7_SEGMENT_BLOCK_DIGESTS
