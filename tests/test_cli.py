"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_paper_defaults(self):
        args = build_parser().parse_args(["paper"])
        assert args.seed == 7
        assert args.background == 150
        assert args.save is None

    def test_hunt_requires_exactly_one_input(self, tmp_path, capsys):
        # No input source, and both at once, are each a usage error.
        assert main(["hunt"]) == 2
        assert main(["hunt", "--dir", str(tmp_path), "--segments", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "exactly one of" in err


class TestCommands:
    def test_quickstart_runs(self, capsys):
        assert main(["quickstart"]) == 0
        out = capsys.readouterr().out
        assert "example-ministry.gr" in out
        assert "hijacked: 1" in out

    def test_hunt_missing_directory(self, tmp_path, capsys):
        assert main(["hunt", "--dir", str(tmp_path)]) == 2
        assert "missing" in capsys.readouterr().err

    def test_export_then_hunt_roundtrip(self, small_study, small_report, tmp_path, capsys):
        """Exporting a study and hunting over the export reproduces the
        verdicts — the CLI's core promise."""
        from repro.io import (
            save_as2org,
            save_ct,
            save_pdns,
            save_scan_dataset,
        )

        save_scan_dataset(small_study.scan, tmp_path / "scan.jsonl")
        save_pdns(small_study.pdns, tmp_path / "pdns.jsonl")
        save_ct(small_study.ct_log, small_study.revocations, tmp_path / "ct.jsonl")
        save_as2org(small_study.as2org, tmp_path / "as2org.jsonl")

        out_path = tmp_path / "findings.jsonl"
        assert main(["hunt", "--dir", str(tmp_path), "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "example-ministry.gr" in out
        assert "T1" in out

        from repro.io import load_findings

        findings = load_findings(out_path)
        assert [f.domain for f in findings] == [
            f.domain for f in small_report.findings
        ]

    def test_gallery_runs(self, capsys):
        assert main(["gallery"]) == 0
        out = capsys.readouterr().out
        assert "TRANSIENT" in out
        assert "S1" in out

    def test_robustness_runs(self, capsys):
        assert main(["robustness", "--trials", "1", "--victims", "4"]) == 0
        out = capsys.readouterr().out
        assert "mean recall 1.000" in out

    def test_sweep_parser_choices(self):
        args = build_parser().parse_args(["sweep", "--parameter", "window"])
        assert args.parameter == "window"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--parameter", "bogus"])

    def test_timeline_requires_domain(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["timeline"])


def _export_study(study, directory):
    from repro.io import save_as2org, save_ct, save_pdns, save_scan_dataset

    save_scan_dataset(study.scan, directory / "scan.jsonl")
    save_pdns(study.pdns, directory / "pdns.jsonl")
    save_ct(study.ct_log, study.revocations, directory / "ct.jsonl")
    save_as2org(study.as2org, directory / "as2org.jsonl")


class TestLoggingFlags:
    def test_quiet_accepted_before_and_after_subcommand(self):
        assert build_parser().parse_args(["-q", "quickstart"]).quiet is True
        assert build_parser().parse_args(["quickstart", "-q"]).quiet is True
        assert build_parser().parse_args(["quickstart"]).quiet is False

    def test_log_level_after_subcommand_overrides_default(self):
        args = build_parser().parse_args(["paper", "--log-level", "debug"])
        assert args.log_level == "debug"
        assert build_parser().parse_args(["paper"]).log_level == "info"

    def test_progress_goes_to_stderr_not_stdout(self, small_study, tmp_path, capsys):
        _export_study(small_study, tmp_path)
        assert main(["hunt", "--dir", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert "loading study from" in captured.err
        assert "loading study from" not in captured.out
        assert "example-ministry.gr" in captured.out  # tables stay on stdout

    def test_quiet_silences_progress(self, small_study, tmp_path, capsys):
        _export_study(small_study, tmp_path)
        assert main(["hunt", "--dir", str(tmp_path), "-q"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "example-ministry.gr" in captured.out

    def test_no_handler_left_behind(self, small_study, tmp_path):
        import logging

        _export_study(small_study, tmp_path)
        before = list(logging.getLogger().handlers)
        assert main(["hunt", "--dir", str(tmp_path), "-q"]) == 0
        assert logging.getLogger().handlers == before


class TestTraceFlag:
    def test_hunt_trace_writes_chrome_and_spans(self, small_study, tmp_path, capsys):
        import json

        _export_study(small_study, tmp_path)
        trace_path = tmp_path / "trace.json"
        assert main(["hunt", "--dir", str(tmp_path), "--trace", str(trace_path)]) == 0
        capsys.readouterr()
        data = json.loads(trace_path.read_text())
        events = data["traceEvents"]
        assert events
        for event in events:
            assert {"name", "ph", "pid", "tid"} <= set(event)
        names = {e["name"] for e in events if e["ph"] == "X"}
        assert "run" in names
        assert any(name.startswith("chunk:") for name in names)
        spans_path = tmp_path / "trace.json.spans.jsonl"
        assert len(spans_path.read_text().splitlines()) >= len(names)


class TestExplain:
    def test_explain_prints_the_funnel_trail(self, capsys):
        assert main(["explain", "adpolice.gov.ae", "--background", "40", "-q"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("provenance: adpolice.gov.ae")
        for stage in ("[classify]", "[shortlist]", "[inspect]", "[assemble]"):
            assert stage in out
        assert "pdns" in out

    def test_explain_unknown_domain_hints_and_fails(self, capsys):
        assert main(["explain", "nope.example", "--background", "40", "-q"]) == 2
        err = capsys.readouterr().err
        assert "not an identified victim" in err
        assert "hint: try one of" in err

    def test_explain_requires_domain(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explain"])


class TestArena:
    def test_list_shows_packs_and_detectors(self, capsys):
        assert main(["arena", "--list"]) == 0
        out = capsys.readouterr().out
        for pack in ("paper", "kyrgyzstan", "small"):
            assert pack in out
        for detector in ("funnel", "logreg", "cert-anomaly"):
            assert detector in out

    def test_small_sweep_writes_valid_summary(self, tmp_path, capsys):
        import json

        from repro.detect.arena import validate_arena_summary

        path = tmp_path / "BENCH_arena.json"
        assert main([
            "arena", "--packs", "small",
            "--detectors", "naive-transients,pdns-churn",
            "--json", str(path), "-q",
        ]) == 0
        out = capsys.readouterr().out
        assert "naive-transients" in out
        assert "pdns-churn" in out
        payload = json.loads(path.read_text())
        assert validate_arena_summary(payload) == []
        assert payload["packs"] == ["small"]

    def test_unknown_detector_fails_cleanly(self, capsys):
        assert main(["arena", "--packs", "small", "--detectors", "nope"]) == 2
        assert "unknown detector" in capsys.readouterr().err

    def test_arena_defaults(self):
        args = build_parser().parse_args(["arena"])
        assert args.packs is None
        assert args.detectors is None
        assert args.seed is None
        assert args.json is None


class TestExplainJson:
    def test_explain_json_to_stdout_carries_provenance(self, capsys):
        assert main([
            "explain", "adpolice.gov.ae", "--background", "40",
            "--json", "-", "-q",
        ]) == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        assert payload["domain"] == "adpolice.gov.ae"
        assert payload["verdict"]
        assert payload["provenance"]  # the typed funnel-transition trail
        assert {t["stage"] for t in payload["provenance"]} >= {"classify"}

    def test_explain_json_to_file(self, tmp_path, capsys):
        out = tmp_path / "finding.json"
        assert main([
            "explain", "adpolice.gov.ae", "--background", "40",
            "--json", str(out), "-q",
        ]) == 0
        import json

        payload = json.loads(out.read_text())
        assert payload["domain"] == "adpolice.gov.ae"

    def test_explain_suggests_close_matches_for_typos(self, capsys):
        assert main([
            "explain", "adpolice.gov.a", "--background", "40", "-q",
        ]) == 2
        err = capsys.readouterr().err
        assert "not an identified victim" in err
        assert "hint: try one of" in err
        assert "adpolice.gov.ae" in err


    def test_profile_json_writes_absolute_perf_summary(self, tmp_path, monkeypatch):
        """``profile --json`` writes the BENCH_perf.json document:
        absolute per-stage timings and the dataset footprint, no ratio
        sections."""
        import json

        from repro.obs.perf import PERF_SCHEMA

        monkeypatch.delenv("REPRO_SEGMENTS_SCALE", raising=False)
        monkeypatch.delenv("REPRO_EPOCHS_SCALE", raising=False)
        path = tmp_path / "perf.json"
        assert main([
            "profile", "--seed", "7", "--background", "10", "--json", str(path), "-q",
        ]) == 0
        perf = json.loads(path.read_text())
        assert perf["schema"] == PERF_SCHEMA
        assert perf["dataset"]["column_bytes"] > 0
        stages = {stage["name"]: stage for stage in perf["stages"]}
        assert sorted(stages) == sorted(
            ["deployment_maps", "classify", "shortlist", "inspect", "pivot", "assemble"]
        )
        assert all(stage["wall_seconds"] > 0 for stage in stages.values())
        assert "deployment_kernel" not in perf
        assert "funnel_stages" not in perf


class TestRunsAndMetrics:
    @pytest.fixture()
    def ledger_with_two_runs(self, tmp_path):
        """Two consecutive profile runs recorded in one ledger."""
        ledger_dir = tmp_path / "ledger"
        events = tmp_path / "events.jsonl"
        for _ in range(2):
            assert main([
                "profile", "--seed", "7", "--background", "40",
                "--ledger", str(ledger_dir), "--events", str(events), "-q",
            ]) == 0
        return ledger_dir

    def test_two_cli_runs_recorded_then_listed(self, ledger_with_two_runs, capsys):
        assert main(["runs", "list", "--dir", str(ledger_with_two_runs), "-q"]) == 0
        out = capsys.readouterr().out
        assert "2 run(s)" in out
        assert "000000-" in out and "000001-" in out

    def test_runs_diff_defaults_to_newest_two(self, ledger_with_two_runs, capsys):
        assert main(["runs", "diff", "--dir", str(ledger_with_two_runs), "-q"]) == 0
        out = capsys.readouterr().out
        assert "wall_seconds" in out
        assert "peak_rss_bytes" in out
        assert "stage.inspect.wall_seconds" in out

    def test_runs_show_prints_full_record(self, ledger_with_two_runs, capsys):
        assert main(["runs", "show", "000000", "--dir", str(ledger_with_two_runs), "-q"]) == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro-ledger/1"
        assert payload["kind"] == "pipeline"
        assert payload["report_digest"]

    def test_runs_check_passes_clean_rerun(self, ledger_with_two_runs, capsys):
        # Generous tolerances: micro-runs jitter hard on shared machines.
        assert main([
            "runs", "check", "--dir", str(ledger_with_two_runs),
            "--tolerance-total", "20", "--tolerance-stage", "20",
            "--tolerance-memory", "20", "-q",
        ]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_runs_check_flags_injected_slowdown(self, ledger_with_two_runs, capsys):
        """A worker-slowdown run shares the clean key and gets flagged."""
        assert main([
            "profile", "--seed", "7", "--background", "40",
            "--faults", "workers.slow=1.0,workers.slow_ms=400",
            "--ledger", str(ledger_with_two_runs), "-q",
        ]) == 0
        capsys.readouterr()
        assert main([
            "runs", "check", "--dir", str(ledger_with_two_runs), "-q",
        ]) == 1
        out = capsys.readouterr().out
        assert "REGRESS" in out
        assert "FAIL" in out

    def test_runs_gc_compacts(self, ledger_with_two_runs, capsys):
        assert main([
            "runs", "gc", "--keep", "1", "--dir", str(ledger_with_two_runs), "-q",
        ]) == 0
        capsys.readouterr()
        assert main(["runs", "list", "--dir", str(ledger_with_two_runs), "-q"]) == 0
        assert "1 run(s)" in capsys.readouterr().out

    def test_runs_without_ledger_fails_cleanly(self, tmp_path, capsys):
        assert main(["runs", "list", "--dir", str(tmp_path / "nope"), "-q"]) == 2
        assert "no ledger" in capsys.readouterr().err

    def test_metrics_export_from_manifest_and_ledger(
        self, ledger_with_two_runs, tmp_path, capsys
    ):
        manifest = tmp_path / "manifest.json"
        assert main([
            "profile", "--seed", "7", "--background", "40",
            "--out", str(manifest), "--no-ledger", "-q",
        ]) == 0
        capsys.readouterr()
        assert main([
            "metrics", "export", "--manifest", str(manifest),
            "--ledger", str(ledger_with_two_runs), "--check", "-q",
        ]) == 0
        out = capsys.readouterr().out
        assert "repro_funnel_n_hijacked" in out
        assert "repro_ledger_runs 2" in out
        assert "# TYPE" in out and out.rstrip().endswith("# EOF")

    def test_metrics_export_requires_a_source(self, tmp_path, capsys):
        assert main([
            "metrics", "export", "--ledger", str(tmp_path / "nope"), "-q",
        ]) == 2
        assert "nothing to export" in capsys.readouterr().err

    def test_events_stream_is_replayable(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        assert main([
            "profile", "--seed", "7", "--background", "40",
            "--events", str(events), "--no-ledger", "-q",
        ]) == 0
        from repro.obs.events import read_events

        stream = read_events(events)
        kinds = [e.get("event") for e in stream]
        assert kinds[0] == "header"
        assert "run_start" in kinds and "run_finish" in kinds
        assert kinds.count("stage_start") == kinds.count("stage_finish") == 6
