"""Unit tests for the deterministic fault-injection layer."""

from __future__ import annotations

from datetime import date, timedelta

import pytest

from repro.dns.records import RRType
from repro.exec import ProcessPoolBackend, RunMetrics, SerialBackend
from repro.faults import (
    DataQuality,
    FaultClock,
    FaultError,
    FaultPlan,
    FaultSpec,
    apply_faults,
    format_data_quality,
)
from repro.net.timeline import DateInterval, Period
from repro.pdns.database import PassiveDNSDatabase


class TestFaultSpec:
    def test_parse_empty(self):
        assert FaultSpec.parse(None) == FaultSpec()
        assert FaultSpec.parse("") == FaultSpec()
        assert FaultSpec().is_empty

    def test_parse_round_trip(self):
        text = (
            "scan.drop_weeks=0.2,scan.drop_ports=0.05,pdns.blackouts=2,"
            "ct.delay_days=30,routing.stale=0.1,workers.crash=0.3"
        )
        spec = FaultSpec.parse(text)
        assert spec.drop_weeks == 0.2
        assert spec.pdns_blackouts == 2
        assert spec.ct_delay_days == 30
        assert not spec.is_empty
        assert FaultSpec.parse(spec.format()) == spec

    def test_policy_fields_do_not_make_a_spec_non_empty(self):
        assert FaultSpec.parse("workers.max_retries=5,workers.backoff_ms=1").is_empty

    @pytest.mark.parametrize(
        "text",
        [
            "scan.drop_weeks=1.5",          # probability out of range
            "pdns.blackouts=-1",            # negative count
            "workers.max_retries=0",        # at least one attempt
            "nonsense.channel=1",           # unknown channel
            "scan.drop_weeks=0.1,scan.drop_weeks=0.2",  # duplicate clause
            "scan.drop_weeks",              # no value
        ],
    )
    def test_parse_rejects(self, text):
        with pytest.raises(FaultError):
            FaultSpec.parse(text)


class TestFaultClock:
    def test_deterministic_and_seed_sensitive(self):
        a, b = FaultClock(seed=1), FaultClock(seed=1)
        other = FaultClock(seed=2)
        draws_a = [a.uniform("chan", i) for i in range(50)]
        draws_b = [b.uniform("chan", i) for i in range(50)]
        assert draws_a == draws_b
        assert draws_a != [other.uniform("chan", i) for i in range(50)]
        assert all(0.0 <= u < 1.0 for u in draws_a)

    def test_fires_monotone_in_probability(self):
        clock = FaultClock(seed=9)
        low = {i for i in range(500) if clock.fires("c", 0.1, i)}
        high = {i for i in range(500) if clock.fires("c", 0.4, i)}
        assert low <= high  # a fixed draw per identity nests the fired sets
        assert len(low) < len(high)

    def test_pick_in_range(self):
        clock = FaultClock(seed=3)
        assert all(0 <= clock.pick("c", 10, i) < 10 for i in range(100))


class TestScanDegradation:
    def _dataset(self):
        from repro.world.scenarios import small_world
        from repro.world.sim import run_study

        return run_study(small_world()).scan

    def test_degraded_preserves_calendar(self):
        scan = self._dataset()
        dropped = scan.scan_dates[2:5]
        degraded = scan.degraded(drop_dates=dropped)
        assert degraded.scan_dates == scan.scan_dates
        assert degraded.known_missing_dates == frozenset(dropped)
        assert len(degraded) < len(scan)
        assert not any(
            r.scan_date in set(dropped) for r in degraded.records()
        )

    def test_presence_excludes_known_missing(self):
        scan = self._dataset()
        domain = scan.domains()[0]
        period = Period(
            index=0, start=scan.scan_dates[0], end=scan.scan_dates[-1]
        )
        full = scan.presence(domain, period)
        visible = {
            r.scan_date for r in scan.records_for(domain) if period.contains(r.scan_date)
        }
        dropped = [d for d in scan.scan_dates if d not in visible][:2] or list(
            scan.scan_dates[:2]
        )
        degraded = scan.degraded(drop_dates=dropped)
        # Dropping scans never *lowers* the visibility ratio, because the
        # lost dates leave the denominator too.
        assert degraded.presence(domain, period) >= full - 1e-9

    def test_records_for_returns_immutable_view(self):
        scan = self._dataset()
        domain = scan.domains()[0]
        view = scan.records_for(domain)
        assert isinstance(view, tuple)
        assert view is scan.records_for(domain)  # zero-copy: same object
        assert scan.records_for("never-scanned.example") == ()


class TestPdnsBlackouts:
    def _db(self):
        db = PassiveDNSDatabase()
        day = date(2019, 1, 1)
        for offset in range(0, 30):
            db.add_observation("a.example.com", RRType.A, "192.0.2.1", day + timedelta(days=offset))
        db.add_observation("b.example.com", RRType.A, "192.0.2.2", date(2019, 1, 10))
        return db

    def test_row_inside_window_dropped(self):
        blacked = self._db().without_windows(
            [DateInterval(date(2019, 1, 9), date(2019, 1, 11))]
        )
        assert blacked.query_name("b.example.com") == []

    def test_straddling_row_trimmed_and_count_scaled(self):
        db = self._db()
        blacked = db.without_windows(
            [DateInterval(date(2019, 1, 1), date(2019, 1, 10))]
        )
        (row,) = blacked.query_name("a.example.com")
        assert row.first_seen == date(2019, 1, 11)
        assert row.last_seen == date(2019, 1, 30)
        original = db.query_name("a.example.com")[0]
        assert row.count < original.count

    def test_no_windows_is_identity(self):
        db = self._db()
        copy = db.without_windows([])
        assert copy.all_records() == db.all_records()


class TestCtDelay:
    def _crtsh(self):
        from repro.world.scenarios import small_world

        return small_world().crtsh

    def test_zero_delay_identical(self):
        crtsh = self._crtsh()
        delayed = crtsh.with_publication_delay(0)
        assert delayed.hidden_entries == 0
        domains = {"bank.example.gr"}
        for domain in domains:
            assert [e.crtsh_id for e in delayed.search(domain)] == [
                e.crtsh_id for e in crtsh.search(domain)
            ]

    def test_horizon_hides_late_entries(self):
        crtsh = self._crtsh()
        # With an extreme delay and an early horizon everything is hidden.
        delayed = crtsh.with_publication_delay(365 * 50, horizon=date(2019, 1, 1))
        assert delayed.hidden_entries > 0
        assert delayed.search("bank.example.gr") == []


class TestRoutingThinning:
    def test_thinned_falls_back_to_covering_prefix(self):
        from repro.ipintel.pfx2as import RoutingTable

        table = RoutingTable()
        table.add("10.0.0.0/8", 100)
        table.add("10.1.0.0/16", 200)
        thinned = table.thinned(lambda p: p == "10.1.0.0/16")
        assert len(thinned) == 1
        assert thinned.lookup("10.1.2.3") == 100  # falls through to the /8
        assert table.lookup("10.1.2.3") == 200    # original untouched


class TestApplyFaults:
    def test_empty_plan_is_identity(self):
        from repro.core.pipeline import PipelineInputs
        from repro.world.scenarios import small_world
        from repro.world.sim import run_study

        inputs = PipelineInputs.from_study(run_study(small_world()))
        quality = DataQuality()
        assert apply_faults(inputs, FaultPlan.from_spec(None), quality) is inputs
        assert not quality.degraded

    def test_degradations_recorded(self):
        from repro.core.pipeline import PipelineInputs
        from repro.world.scenarios import small_world
        from repro.world.sim import run_study

        inputs = PipelineInputs.from_study(run_study(small_world()))
        plan = FaultPlan.from_spec(
            "scan.drop_weeks=0.3,pdns.blackouts=1,ct.delay_days=2000,routing.stale=0.5",
            seed=11,
        )
        quality = DataQuality()
        degraded = apply_faults(inputs, plan, quality)
        assert degraded is not inputs
        assert quality.degraded
        assert len(degraded.scan) < len(inputs.scan)
        assert quality.scan_dropped_dates
        assert quality.pdns_blackouts
        assert quality.ct_delay_days == 2000
        assert quality.routing_stale_prefixes > 0
        assert "DEGRADED" in format_data_quality(quality)

    def test_quality_dict_round_trip(self):
        quality = DataQuality(
            scan_dropped_dates=(date(2019, 1, 7),),
            scan_dropped_records=12,
            pdns_blackouts=(DateInterval(date(2019, 2, 1), date(2019, 2, 14)),),
            pdns_rows_dropped=3,
            ct_delay_days=30,
            worker_crashes=2,
            worker_retries=2,
            notes=["scan: 1 weekly scans and 12 records lost"],
        )
        rebuilt = DataQuality.from_dict(quality.to_dict())
        assert rebuilt == quality
        assert rebuilt.to_dict() == quality.to_dict()


class TestWorkerFaultRetry:
    """The acceptance criterion: injected crashes degrade, never abort."""

    @pytest.mark.parametrize("backend_factory", [
        SerialBackend,
        lambda: ProcessPoolBackend(jobs=2),
    ])
    def test_crash_run_completes_with_quality(self, backend_factory, small_study):
        plan = FaultPlan.from_spec("workers.crash=0.9", seed=4)
        clean = small_study.run_pipeline()
        report, metrics = small_study.profile_pipeline(
            backend=backend_factory(), faults=plan
        )
        assert report == clean  # worker faults delay work, never change it
        dq = metrics.data_quality
        assert dq["degraded"] is True
        assert dq["workers"]["crashes"] > 0
        assert dq["workers"]["retries"] >= dq["workers"]["crashes"]

    def test_retry_budget_exceeded_propagates(self):
        from repro.faults.errors import RetryBudgetExceeded, WorkerFault
        from repro.faults.plan import FaultClock

        # max_retries=1 means a single attempt: the injected crash on
        # attempt 0 exhausts the budget immediately.
        plan = FaultPlan.from_spec("workers.crash=1.0,workers.max_retries=1", seed=0)
        backend = SerialBackend()
        backend.install_faults(plan)
        backend.start(None, None)
        with pytest.raises(RetryBudgetExceeded):
            backend.run_inline("classify", [("k", None)])
        assert issubclass(RetryBudgetExceeded, WorkerFault)

    def test_backoff_schedule_is_exponential(self):
        plan = FaultPlan.from_spec("workers.crash=0.5,workers.backoff_ms=40", seed=0)
        assert plan.backoff_seconds(0) == pytest.approx(0.040)
        assert plan.backoff_seconds(1) == pytest.approx(0.080)
        assert plan.backoff_seconds(2) == pytest.approx(0.160)


class TestManifestSchema:
    def test_data_quality_round_trips(self, tmp_path):
        metrics = RunMetrics(backend="serial", jobs=1)
        metrics.data_quality = DataQuality(worker_crashes=1, worker_retries=1).to_dict()
        path = tmp_path / "manifest.json"
        metrics.write(path)
        loaded = RunMetrics.read(path)
        assert loaded.data_quality == metrics.data_quality

    def test_v1_manifest_rejected(self):
        data = {
            "schema": "repro.exec.run-manifest/1",
            "backend": "serial",
            "jobs": 1,
            "chunk_size": None,
            "wall_seconds": 0.5,
            "stages": [],
            "funnel": {},
        }
        with pytest.raises(ValueError, match="run-manifest/6"):
            RunMetrics.from_dict(data)

    def test_unknown_schema_rejected(self):
        with pytest.raises(ValueError):
            RunMetrics.from_dict({"schema": "repro.exec.run-manifest/99"})
