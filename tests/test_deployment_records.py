"""Lazy ``map.records``: decoded maps resolve raw records on first read.

A map decoded by the columnar kernel keeps its table and CSR period
slice instead of a record list.  These tests pin what that must not
change — equality, pickling, the row-path oracle — and what it buys: a
run materializes only the shortlist's evidence rows.
"""

import io
import pickle

import pytest

from repro.core.deployment import (
    DeploymentMap,
    build_deployment_map,
    build_deployment_maps,
    decode_domain_maps,
    encode_domain_maps,
)
from repro.core.pipeline import HijackPipeline, PipelineInputs
from repro.exec import SerialBackend
from repro.scan.table import ScanTable
from repro.segments import load_segment_inputs, write_segments
from repro.segments.format import Segment
from repro.segments.tables import SegmentCtTable, SegmentPdnsTable
from repro.world.scenarios import paper_study

from tests.helpers import ALL_PERIODS, ScanSketch, make_cert, scan_dates

_TABLE_TYPES = (ScanTable, SegmentPdnsTable, SegmentCtTable, Segment)


@pytest.fixture(scope="module")
def segment_run(tmp_path_factory):
    """A serial run over segment-backed seed-7 paper inputs, plus the
    scan-table rows it materialized (snapshotted before any test reads
    a map's records)."""
    directory = tmp_path_factory.mktemp("segments")
    write_segments(
        PipelineInputs.from_study(paper_study(seed=7, n_background=40)), directory
    )
    inputs = load_segment_inputs(directory)
    report = HijackPipeline(inputs).run(SerialBackend())
    table = inputs.scan.table
    built = {row for row, record in enumerate(table._rec_cache) if record is not None}
    return inputs, report, built


def _pickled_types(obj) -> set[type]:
    """The type of every object the pickle of ``obj`` serializes."""
    seen: set[type] = set()

    class _Recorder(pickle.Pickler):
        def persistent_id(self, value):
            seen.add(type(value))
            return None

    _Recorder(io.BytesIO(), protocol=5).dump(obj)
    return seen


def _oracle(dataset, map_: DeploymentMap) -> DeploymentMap:
    """The row-path map over the domain's (date, ip)-sorted records."""
    return build_deployment_map(
        map_.domain,
        list(dataset.records_for(map_.domain)),
        map_.period,
        map_.scan_dates_in_period,
    )


def test_run_materializes_only_shortlist_evidence(segment_run):
    _inputs, report, built = segment_run
    evidence = {row for entry in report.shortlist for row in entry.transient_rows}
    assert report.shortlist
    assert built == evidence


def test_pickled_map_and_entry_carry_records_not_tables(segment_run):
    inputs, report, _built = segment_run
    dataset = inputs.scan
    entry = report.shortlist[0]
    key = (entry.domain, entry.period_index)
    domain_maps = dict(
        decode_domain_maps(
            entry.domain,
            encode_domain_maps(dataset, entry.domain, inputs.periods),
            dataset,
            inputs.periods,
        )
    )
    decoded = domain_maps[key]
    for obj in (decoded, entry):
        assert not any(issubclass(t, _TABLE_TYPES) for t in _pickled_types(obj))
        assert pickle.loads(pickle.dumps(obj, protocol=5)) == obj
    assert decoded.records == _oracle(dataset, decoded).records
    assert entry.classification.map == decoded


def test_lazy_map_equals_row_path_map():
    dates = scan_dates()
    cert = make_cert("www.x.gr", 1, dates[0])
    sketch = (
        ScanSketch("x.gr")
        .presence(dates, "10.0.0.1", 100, "GR", cert)
        .presence(dates[10:12], "20.0.0.1", 200, "NL", cert)
    )
    dataset = sketch.dataset()
    for lazy in build_deployment_maps(dataset, ALL_PERIODS).values():
        assert lazy._records is None  # nothing resolved until compared
        assert lazy == _oracle(dataset, lazy)
