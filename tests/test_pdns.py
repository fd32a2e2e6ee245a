"""Tests for the passive-DNS substrate: aggregation, queries, sensors."""

import random
from datetime import date, datetime

import pytest

from repro.dns.nameserver import NameserverDirectory, NameserverHost
from repro.dns.records import RRType
from repro.dns.registry import Registry
from repro.dns.resolver import RecursiveResolver
from repro.net.timeline import DateInterval
from repro.pdns.database import PassiveDNSDatabase
from repro.pdns.sensor import SensorNetwork
from repro.pdns.traffic import ObservationPlan


class TestDatabase:
    def test_aggregation_first_last_count(self):
        db = PassiveDNSDatabase()
        db.add_observation("mail.x.kg", RRType.A, "1.2.3.4", date(2020, 12, 5))
        db.add_observation("mail.x.kg", RRType.A, "1.2.3.4", date(2020, 12, 1))
        db.add_observation("mail.x.kg", RRType.A, "1.2.3.4", date(2020, 12, 9))
        rows = db.query_name("mail.x.kg")
        assert len(rows) == 1
        row = rows[0]
        assert row.first_seen == date(2020, 12, 1)
        assert row.last_seen == date(2020, 12, 9)
        assert row.count == 3
        assert row.span_days == 9

    def test_distinct_rdata_distinct_rows(self):
        db = PassiveDNSDatabase()
        db.add_observation("mail.x.kg", RRType.A, "1.1.1.1", date(2020, 1, 1))
        db.add_observation("mail.x.kg", RRType.A, "2.2.2.2", date(2020, 1, 2))
        assert len(db.query_name("mail.x.kg", RRType.A)) == 2

    def test_query_domain_covers_subdomains(self):
        db = PassiveDNSDatabase()
        db.add_observation("mail.x.gov.kg", RRType.A, "1.1.1.1", date(2020, 1, 1))
        db.add_observation("x.gov.kg", RRType.NS, "ns1.x.gov.kg", date(2020, 1, 1))
        db.add_observation("mail.other.kg", RRType.A, "1.1.1.1", date(2020, 1, 1))
        rows = db.query_domain("x.gov.kg")
        assert {r.rrname for r in rows} == {"mail.x.gov.kg", "x.gov.kg"}

    def test_window_filter(self):
        db = PassiveDNSDatabase()
        db.add_observation("a.x.com", RRType.A, "1.1.1.1", date(2019, 1, 1))
        window = DateInterval(date(2020, 1, 1), date(2020, 2, 1))
        assert db.query_name("a.x.com", window=window) == []

    def test_inverse_queries(self):
        db = PassiveDNSDatabase()
        db.add_observation("mail.a.gov.kg", RRType.A, "94.103.91.159", date(2020, 12, 20))
        db.add_observation("mail.b.gov.kg", RRType.A, "94.103.91.159", date(2020, 12, 28))
        db.add_observation("b.gov.kg", RRType.NS, "ns1.kg-infocom.ru", date(2020, 12, 28))
        assert db.domains_resolving_to("94.103.91.159") == {"a.gov.kg", "b.gov.kg"}
        assert db.domains_delegated_to("ns1.kg-infocom.ru") == {"b.gov.kg"}

    def test_ns_rdata_normalized(self):
        db = PassiveDNSDatabase()
        db.add_observation("x.gov.kg", RRType.NS, "NS1.Rogue.NET.", date(2020, 1, 1))
        assert db.query_rdata("ns1.rogue.net", RRType.NS)


class TestObservationPlan:
    def test_background_spacing(self):
        plan = ObservationPlan()
        plan.add_background("mail.x.com", DateInterval(date(2020, 1, 1), date(2020, 1, 31)))
        days = plan.days_for("mail.x.com")
        assert days[0] == date(2020, 1, 1)
        assert all((b - a).days == 7 for a, b in zip(days, days[1:]))

    def test_dense_window(self):
        plan = ObservationPlan()
        plan.add_dense_window("mail.x.com", date(2020, 6, 15), radius_days=3)
        days = plan.days_for("mail.x.com")
        assert len(days) == 7
        assert plan.is_dense("mail.x.com", date(2020, 6, 15))
        assert not plan.is_dense("mail.x.com", date(2020, 7, 1))

    def test_rejects_open_interval(self):
        plan = ObservationPlan()
        with pytest.raises(ValueError):
            plan.add_background("x.com", DateInterval(date(2020, 1, 1)))

    def test_merge(self):
        a, b = ObservationPlan(), ObservationPlan()
        a.add_dense_window("x.com", date(2020, 1, 10), radius_days=1)
        b.add_dense_window("y.com", date(2020, 1, 10), radius_days=1)
        a.merge(b)
        assert len(a) == 2


@pytest.fixture
def resolver_world():
    registry = Registry("gov.kg")
    directory = NameserverDirectory()
    resolver = RecursiveResolver([registry], directory)
    host = NameserverHost(operator="org")
    directory.bind("ns1.x.gov.kg", host, start=datetime(2019, 1, 1))
    registry.register("x.gov.kg", ("ns1.x.gov.kg",), "reg", at=datetime(2019, 1, 1))
    host.add_record("mail.x.gov.kg", RRType.A, "10.0.0.1", start=datetime(2019, 1, 1))
    # A six-hour hijack window.
    host.add_record(
        "mail.x.gov.kg", RRType.A, "203.0.113.9",
        start=datetime(2020, 6, 15, 3), end=datetime(2020, 6, 15, 9),
    )
    return resolver


class TestSensorNetwork:
    def test_dense_day_guarantees_window_capture(self, resolver_world):
        """A >=2h resolution state on a dense day is always observed."""
        sensor = SensorNetwork(resolver_world, random.Random(1))
        db = PassiveDNSDatabase()
        sensor.observe_day(db, "mail.x.gov.kg", date(2020, 6, 15), dense=True)
        rdata = {r.rdata for r in db.query_name("mail.x.gov.kg", RRType.A)}
        assert "203.0.113.9" in rdata
        assert "10.0.0.1" in rdata

    def test_background_day_records_steady_state(self, resolver_world):
        sensor = SensorNetwork(resolver_world, random.Random(1), coverage=1.0)
        db = PassiveDNSDatabase()
        sensor.observe_day(db, "mail.x.gov.kg", date(2019, 5, 1))
        rows = db.query_name("mail.x.gov.kg", RRType.A)
        assert [r.rdata for r in rows] == ["10.0.0.1"]
        # NS observations recorded alongside.
        assert db.query_name("x.gov.kg", RRType.NS)

    def test_zero_coverage_records_nothing(self, resolver_world):
        sensor = SensorNetwork(resolver_world, random.Random(1), coverage=0.0)
        db = PassiveDNSDatabase()
        assert sensor.observe_day(db, "mail.x.gov.kg", date(2019, 5, 1)) == 0

    def test_run_executes_plan(self, resolver_world):
        sensor = SensorNetwork(resolver_world, random.Random(1), coverage=1.0)
        plan = ObservationPlan()
        plan.add_background(
            "mail.x.gov.kg", DateInterval(date(2019, 3, 1), date(2019, 4, 1))
        )
        db = PassiveDNSDatabase()
        assert sensor.run(db, plan) > 0
        assert len(db) >= 2  # A row + NS row

    def test_rejects_bad_parameters(self, resolver_world):
        with pytest.raises(ValueError):
            SensorNetwork(resolver_world, random.Random(0), coverage=1.5)
        with pytest.raises(ValueError):
            SensorNetwork(resolver_world, random.Random(0), queries_per_day=0)


def test_public_suffix_query_keeps_segment_database_unhydrated(small_study, tmp_path):
    """A bare-public-suffix query on a segment-backed database answers
    from the table: the row dicts stay unbuilt, so the database still
    pickles as its segment descriptor."""
    import pickle

    from repro.core.pipeline import PipelineInputs
    from repro.segments import load_segment_inputs, write_segments
    from tests.reference import LinearPdns

    write_segments(PipelineInputs.from_study(small_study), tmp_path)
    pdns = load_segment_inputs(tmp_path).pdns
    before = len(pickle.dumps(pdns))
    for suffix in ("co.uk", "gr"):
        assert pdns.query_domain(suffix) == LinearPdns(pdns).query_domain(suffix)
    assert pdns._rows is None
    assert len(pickle.dumps(pdns)) == before
