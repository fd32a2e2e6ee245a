"""Unit tests of the columnar ScanTable: interning, CSR index, pickling.

The table is the data plane under every ScanDataset; these tests pin
the invariants the rest of the pipeline leans on — first-seen-order
interning (ids as a pure function of the row stream), bisect period
slices matching the row-at-a-time filters, re-interned pools after
``select``, and lossless pickling of the column form.
"""

import pickle
from datetime import date

from repro.net.ipv4 import ip_to_int
from repro.scan.dataset import ScanDataset
from repro.scan.table import ScanTable

from tests.helpers import PERIOD, ScanSketch, make_cert, scan_dates
from tests.reference import scan_row_dicts

DATES = scan_dates()


def _sketch() -> ScanSketch:
    cert_a = make_cert("www.tbl.com", 401, date(2018, 12, 1))
    cert_b = make_cert("mail.tbl.com", 402, date(2018, 12, 1))
    sketch = ScanSketch("tbl.com")
    sketch.presence(DATES[:10], "10.0.0.1", 64500, "US", cert_a)
    sketch.presence(DATES[4:10], "10.0.0.2", 64500, "US", cert_a)
    sketch.presence(DATES[12:20], "172.16.0.9", 64501, "DE", cert_b)
    return sketch


class TestInterning:
    def test_pools_are_first_seen_order(self):
        table = ScanTable.from_records(_sketch().records)
        assert table.ips == ["10.0.0.1", "10.0.0.2", "172.16.0.9"]
        assert table.asns == [64500, 64501]
        assert table.countries == ["US", "DE"]
        assert len(table.cert_fps) == len(table.certs) == 2

    def test_ids_are_pure_function_of_row_stream(self):
        records = _sketch().records
        a = ScanTable.from_records(records)
        b = ScanTable.from_records(list(records))
        for column in ("ip_id", "asn_id", "cert_id", "country_id"):
            assert getattr(a, column) == getattr(b, column)
        assert a.ips == b.ips and a.cert_fps == b.cert_fps

    def test_ip_ints_parallel_to_ips(self):
        table = ScanTable.from_records(_sketch().records)
        assert list(table.ip_ints) == [ip_to_int(ip) for ip in table.ips]

    def test_certificates_shared_one_object_per_fingerprint(self):
        table = ScanTable.from_records(_sketch().records)
        by_fp = {}
        for row in range(len(table)):
            cert = table.certs[table.cert_id[row]]
            assert by_fp.setdefault(cert.fingerprint, cert) is cert

    def test_flags_round_trip(self):
        records = _sketch().records
        table = ScanTable.from_records(records)
        for row, record in enumerate(records):
            assert table.trusted(row) == record.trusted
            assert table.sensitive(row) == record.sensitive


class TestRowView:
    def test_records_match_input(self):
        records = _sketch().records
        table = ScanTable.from_records(records)
        assert table.records() == records

    def test_records_for_is_identity_stable(self):
        table = ScanTable.from_records(_sketch().records)
        assert table.records_for("tbl.com") is table.records_for("tbl.com")

    def test_records_for_sorted_by_date_then_ip(self):
        view = ScanTable.from_records(_sketch().records).records_for("tbl.com")
        keys = [(r.scan_date, r.ip) for r in view]
        assert keys == sorted(keys)

    def test_lazy_record_equals_eager(self):
        records = _sketch().records
        lazy = pickle.loads(pickle.dumps(ScanTable.from_records(records)))
        assert lazy.records() == records

    def test_interned_memos_share_objects(self):
        table = ScanTable.from_records(_sketch().records)
        assert table.interned_date(DATES[0].toordinal()) is table.interned_date(
            DATES[0].toordinal()
        )
        assert table.interned_set("ips", (0, 1)) is table.interned_set("ips", (0, 1))
        assert table.interned_set("ips", (0,)) is table.interned_set("ips", (0,))
        assert table.interned_set("ips", (0, 1)) == frozenset(table.ips[:2])


class TestCSRIndex:
    def test_period_slice_matches_linear_filter(self):
        table = ScanTable.from_records(_sketch().records)
        lo, hi = table.period_slice("tbl.com", DATES[4], DATES[9])
        sliced = [table.record(table.csr_rows[i]) for i in range(lo, hi)]
        expected = [
            r
            for r in table.records_for("tbl.com")
            if DATES[4] <= r.scan_date <= DATES[9]
        ]
        assert sliced == expected

    def test_period_slice_outside_window_is_empty(self):
        table = ScanTable.from_records(_sketch().records)
        lo, hi = table.period_slice("tbl.com", date(2031, 1, 1), date(2031, 6, 1))
        assert lo == hi

    def test_unknown_domain_slices_empty(self):
        table = ScanTable.from_records(_sketch().records)
        assert table.domain_slice("nope.com") == (0, 0)
        assert table.distinct_dates_in("nope.com", DATES[0], DATES[-1]) == 0

    def test_distinct_dates_matches_record_walk(self):
        table = ScanTable.from_records(_sketch().records)
        expected = len(
            {
                r.scan_date
                for r in table.records_for("tbl.com")
                if DATES[2] <= r.scan_date <= DATES[15]
            }
        )
        assert table.distinct_dates_in("tbl.com", DATES[2], DATES[15]) == expected


class TestSelect:
    def test_select_reinterns_pools_first_seen(self):
        table = ScanTable.from_records(_sketch().records)
        keep = [
            row for row in range(len(table)) if table.ips[table.ip_id[row]] != "10.0.0.1"
        ]
        derived = table.select(keep)
        assert derived.ips == ["10.0.0.2", "172.16.0.9"]
        assert list(derived.ip_ints) == [ip_to_int(ip) for ip in derived.ips]
        # Ids equal a fresh build from the surviving record stream.
        rebuilt = ScanTable.from_records([table.record(row) for row in keep])
        for column in ("ip_id", "asn_id", "cert_id", "country_id"):
            assert getattr(derived, column) == getattr(rebuilt, column)

    def test_select_shares_record_objects(self):
        table = ScanTable.from_records(_sketch().records)
        derived = table.select(range(5))
        assert derived.records() == table.records()[:5]
        assert derived.record(0) is table.record(0)

    def test_select_row_dicts_match_rebuild(self):
        table = ScanTable.from_records(_sketch().records)
        keep = list(range(0, len(table), 2))
        derived = table.select(keep)
        rebuilt = ScanTable.from_records([table.record(row) for row in keep])
        assert list(scan_row_dicts(derived)) == list(scan_row_dicts(rebuilt))


class TestPickling:
    def test_round_trip_preserves_rows_and_index(self):
        table = ScanTable.from_records(_sketch().records)
        clone = pickle.loads(pickle.dumps(table, protocol=5))
        assert list(scan_row_dicts(clone)) == list(scan_row_dicts(table))
        assert clone.domains == table.domains
        assert clone.period_slice("tbl.com", DATES[4], DATES[9]) == table.period_slice(
            "tbl.com", DATES[4], DATES[9]
        )

    def test_round_trip_drops_row_objects(self):
        table = ScanTable.from_records(_sketch().records)
        table.records()  # materialize everything
        state = table.__getstate__()
        assert state["_rec_cache"] is None and state["_domain_records"] is None

    def test_dataset_round_trip(self):
        dataset = _sketch().dataset()
        clone = pickle.loads(pickle.dumps(dataset, protocol=5))
        assert clone.records() == dataset.records()
        assert clone.scan_dates == dataset.scan_dates
        assert clone.presence("tbl.com", PERIOD) == dataset.presence("tbl.com", PERIOD)


class TestDataset:
    def test_presence_matches_definition(self):
        dataset = _sketch().dataset()
        seen = {
            r.scan_date
            for r in dataset.records_for("tbl.com")
            if PERIOD.contains(r.scan_date)
        }
        assert dataset.presence("tbl.com", PERIOD) == len(seen) / len(
            dataset.scan_dates_in(PERIOD)
        )

    def test_period_date_memos_are_stable(self):
        dataset = _sketch().dataset()
        assert dataset.scan_dates_in(PERIOD) is dataset.scan_dates_in(PERIOD)
        assert dataset.observed_dates_in(PERIOD) is dataset.observed_dates_in(PERIOD)

    def test_degraded_drop_row_equals_drop_record(self):
        dataset = _sketch().dataset()
        by_row = dataset.degraded(
            drop_dates=[DATES[3]],
            drop_row=lambda ordinal, ip, fp: ip == "10.0.0.2",
        )
        by_record = dataset.degraded(
            drop_dates=[DATES[3]],
            drop_record=lambda r: r.ip == "10.0.0.2",
        )
        assert by_row.records() == by_record.records()
        assert by_row.known_missing_dates == {DATES[3]}
        assert by_row.scan_dates == dataset.scan_dates


class TestScanDatasetConstruction:
    def test_list_and_table_construction_agree(self):
        records = _sketch().records
        from_list = ScanDataset(records, DATES)
        from_table = ScanDataset.from_table(
            ScanTable.from_records(records), DATES
        )
        assert from_list.records() == from_table.records()
        assert from_list.domains() == from_table.domains()
