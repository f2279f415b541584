"""Tests for campaign forensics (``scenarios report``).

The report is the read side of the distributed trace: all sidecar spans
from all tiers must stitch into one causal tree under a single campaign
trace id, the journal's fault-recovery decisions must each be attributed
back to their journal line, and — the crash-forensics satellite — a
mid-crash store (torn sidecar line, missing coordinator journal, live
leases) must still produce a report, exit 0, with explicit "incomplete"
markers instead of errors.
"""

from __future__ import annotations

import json
import time

from repro.cli import main
from repro.obs import (
    Telemetry,
    activate,
    analyze_campaign,
    chrome_trace_events,
    compare_reports,
    read_spans,
    render_comparison,
    render_report,
    report_to_json,
    write_chrome_trace,
)
from repro.scenarios.detached import run_detached_campaign
from repro.scenarios.fabric import Lease
from repro.scenarios.runner import run_campaign
from repro.scenarios.spec import named_space, spec_hash
from repro.scenarios.store import CampaignStore


def small_spec(name="report-small", count=4):
    return named_space("fig12").derive(name=name, count=count, matrix_sizes=(40, 120))


def run_instrumented(tmp_path, spec, owner="main", jobs=1, **kwargs):
    store = tmp_path / "store"
    campaign_dir = store / spec_hash(spec)
    telemetry = Telemetry(campaign_dir / "telemetry", owner=owner, mode="on")
    with activate(telemetry):
        progress = run_campaign(spec, store, chunk_size=2, jobs=jobs, **kwargs)
    return campaign_dir, progress


class TestStitchedTrace:
    def test_pool_campaign_stitches_into_one_trace(self, tmp_path):
        spec = small_spec()
        campaign_dir, progress = run_instrumented(tmp_path, spec, jobs=2)
        assert progress.finished
        spans, _ = read_spans(campaign_dir / "telemetry")
        assert len({record["pid"] for record in spans}) > 1  # pool children wrote
        assert len({record["trace"] for record in spans}) == 1

        report = analyze_campaign(campaign_dir)
        assert len(report.trace_ids) == 1
        assert report.untraced_spans == 0
        assert report.span_count == len(spans)
        assert report.chunks_done == 2
        assert report.total_chunks == 2
        assert report.rows == spec.scenario_count
        assert report.incomplete == []

    def test_critical_path_descends_from_the_root_span(self, tmp_path):
        spec = small_spec()
        campaign_dir, _ = run_instrumented(tmp_path, spec, jobs=2)
        report = analyze_campaign(campaign_dir)
        assert report.critical_path
        assert report.critical_path[0]["name"] == "campaign"
        assert report.critical_path_seconds > 0
        shares = [entry["share_pct"] for entry in report.critical_path_phases]
        assert abs(sum(shares) - 100.0) < 1.0

    def test_fabric_fault_attribution_names_journal_lines(self, tmp_path):
        spec = small_spec(name="report-fabric")
        store = tmp_path / "store"
        campaign_dir = store / spec_hash(spec)
        telemetry = Telemetry(campaign_dir / "telemetry", owner="coordinator", mode="on")
        with activate(telemetry):
            progress = run_detached_campaign(
                spec, store, chunk_size=2, workers=2, faults="crash-pre@0"
            )
        assert progress.finished
        assert progress.retries >= 1

        spans, _ = read_spans(campaign_dir / "telemetry")
        assert len({record.get("trace") for record in spans}) == 1

        report = analyze_campaign(campaign_dir)
        assert len(report.trace_ids) == 1
        requeues = [fault for fault in report.faults if fault["event"] == "requeue"]
        assert requeues
        journal_lines = [
            json.loads(line)
            for line in (campaign_dir / "coordinator.jsonl")
            .read_text(encoding="utf-8")
            .splitlines()
        ]
        for fault in requeues:
            journaled = journal_lines[fault["journal_line"] - 1]
            assert journaled["event"] == "requeue"
            assert journaled["chunk"] == fault["chunk"]
        rendered = render_report(report)
        assert "fault attribution (journal-tied):" in rendered
        assert f"line {requeues[0]['journal_line']:>4d}:" in rendered

    def test_report_never_touches_the_store(self, tmp_path):
        spec = small_spec()
        campaign_dir, _ = run_instrumented(tmp_path, spec)
        before = (campaign_dir / "chunks.jsonl").read_bytes()
        analyze_campaign(campaign_dir)
        chrome_trace_events(campaign_dir)
        assert (campaign_dir / "chunks.jsonl").read_bytes() == before


class TestTornAndPartialInputs:
    """The crash-forensics satellite: mid-crash state yields a report
    with explicit incomplete markers, never an error."""

    def test_empty_directory_reports_incomplete(self, tmp_path):
        report = analyze_campaign(tmp_path / "nowhere")
        assert report.span_count == 0
        assert any("no spans" in marker for marker in report.incomplete)

    def test_torn_sidecar_line_is_marked(self, tmp_path):
        spec = small_spec()
        campaign_dir, _ = run_instrumented(tmp_path, spec)
        (span_file,) = (campaign_dir / "telemetry").glob("spans-*.jsonl")
        with open(span_file, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "span", "name": "to')
        report = analyze_campaign(campaign_dir)
        assert report.dropped_span_lines == 1
        assert any("torn sidecar" in marker for marker in report.incomplete)
        assert report.trace_ids  # the intact spans still stitch

    def test_torn_store_tail_is_marked(self, tmp_path):
        spec = small_spec()
        campaign_dir, _ = run_instrumented(tmp_path, spec)
        chunks_path = campaign_dir / "chunks.jsonl"
        chunks_path.write_bytes(chunks_path.read_bytes() + b'{"chunk": 7, "start"')
        report = analyze_campaign(campaign_dir)
        assert any("torn tail" in marker for marker in report.incomplete)

    def test_missing_journal_with_fabric_leftovers_is_marked(self, tmp_path):
        spec = small_spec(name="report-fabric-nojournal")
        store = tmp_path / "store"
        campaign_dir = store / spec_hash(spec)
        telemetry = Telemetry(campaign_dir / "telemetry", owner="coordinator", mode="on")
        with activate(telemetry):
            run_detached_campaign(spec, store, chunk_size=2, workers=2, max_chunks=1)
        (campaign_dir / "coordinator.jsonl").unlink()
        assert (campaign_dir / "workers").is_dir()  # fabric leftovers remain
        report = analyze_campaign(campaign_dir)
        assert any("coordinator.jsonl missing" in marker for marker in report.incomplete)

    def test_live_and_expired_leases_are_marked(self, tmp_path):
        campaign_dir = tmp_path / "campaign"
        leases_dir = campaign_dir / "leases"
        leases_dir.mkdir(parents=True)
        now = time.time()
        Lease(
            chunk=0, start=0, stop=2, owner="w0", epoch=0,
            granted_at=now, deadline=now + 60.0, ttl=60.0,
        ).write(leases_dir)
        Lease(
            chunk=1, start=2, stop=4, owner="w1", epoch=1,
            granted_at=now - 120.0,
            deadline=now - 60.0, ttl=5.0,
        ).write(leases_dir)
        report = analyze_campaign(campaign_dir, now=now)
        assert report.live_leases == 1
        assert report.expired_leases == 1
        assert any("live lease" in marker for marker in report.incomplete)
        assert any("expired lease" in marker for marker in report.incomplete)

    def test_cli_exits_zero_on_mid_crash_store(self, tmp_path, capsys):
        spec = small_spec()
        campaign_dir, _ = run_instrumented(tmp_path, spec)
        (span_file,) = (campaign_dir / "telemetry").glob("spans-*.jsonl")
        with open(span_file, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "span", "name": "to')
        chunks_path = campaign_dir / "chunks.jsonl"
        chunks_path.write_bytes(chunks_path.read_bytes() + b'{"chunk": 7, "start"')
        assert main(["scenarios", "report", str(campaign_dir)]) == 0
        out = capsys.readouterr().out
        assert "incomplete:" in out
        assert "torn sidecar" in out
        assert "torn tail" in out

    def test_cli_exits_zero_on_empty_directory(self, tmp_path, capsys):
        assert main(["scenarios", "report", str(tmp_path / "absent")]) == 0
        assert "incomplete:" in capsys.readouterr().out


class TestChromeExport:
    def test_export_round_trips_and_is_sorted(self, tmp_path):
        spec = small_spec()
        campaign_dir, _ = run_instrumented(tmp_path, spec, jobs=2)
        path = tmp_path / "trace.json"
        count = write_chrome_trace(campaign_dir, path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        events = payload["traceEvents"]
        assert payload["displayTimeUnit"] == "ms"
        assert len(events) == count > 0
        # Metadata first, then strictly time-ordered events.
        kinds = [event["ph"] for event in events]
        first_real = next(i for i, ph in enumerate(kinds) if ph != "M")
        assert all(ph == "M" for ph in kinds[:first_real])
        stamps = [event["ts"] for event in events[first_real:]]
        assert stamps == sorted(stamps)
        spans = [event for event in events if event["ph"] == "X"]
        assert all(event["dur"] >= 0 for event in spans)
        assert all("trace" in event["args"] for event in spans)

    def test_journal_events_become_instants(self, tmp_path):
        spec = small_spec(name="report-chrome-fabric")
        store = tmp_path / "store"
        campaign_dir = store / spec_hash(spec)
        telemetry = Telemetry(campaign_dir / "telemetry", owner="coordinator", mode="on")
        with activate(telemetry):
            run_detached_campaign(spec, store, chunk_size=2, workers=2, faults="crash-pre@0")
        events = chrome_trace_events(campaign_dir)
        instants = [event for event in events if event["ph"] == "i"]
        assert any(event["name"] == "journal:requeue" for event in instants)
        assert all(event["pid"] == 0 for event in instants)
        assert all("journal_line" in event["args"] for event in instants)

    def test_cli_trace_export_with_json_keeps_stdout_parseable(self, tmp_path, capsys):
        spec = small_spec()
        campaign_dir, _ = run_instrumented(tmp_path, spec)
        trace_path = tmp_path / "trace.json"
        code = main(
            [
                "scenarios", "report", str(campaign_dir),
                "--json", "--trace-export", str(trace_path),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)  # stdout is one JSON document
        assert payload["trace_ids"]
        assert payload["chunks_done"] == 2
        assert "trace event(s)" in captured.err
        assert json.loads(trace_path.read_text(encoding="utf-8"))["traceEvents"]


class TestComparison:
    def test_self_comparison_has_zero_deltas(self, tmp_path):
        spec = small_spec()
        campaign_dir, _ = run_instrumented(tmp_path, spec)
        report = analyze_campaign(campaign_dir)
        comparison = compare_reports(report, report)
        assert comparison["phases"]
        for phase in comparison["phases"]:
            if phase["delta_pct"] is not None:
                assert phase["delta_pct"] == 0.0
        rendered = render_comparison(comparison)
        assert "vs" in rendered

    def test_cli_compare_resolves_space_hash(self, tmp_path, capsys):
        spec = named_space("fig12").derive(count=4)  # the CLI's own derivation
        store_a = tmp_path / "a"
        store_b = tmp_path / "b"
        for store in (store_a, store_b):
            telemetry = Telemetry(
                store / spec_hash(spec) / "telemetry", owner="main", mode="on"
            )
            with activate(telemetry):
                run_campaign(spec, store, chunk_size=2)
        code = main(
            [
                "scenarios", "report", str(store_a),
                "--space", "fig12", "--count", "4", "--compare", str(store_b),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "campaign forensics:" in out
        assert "vs" in out


class TestReportJson:
    def test_json_form_is_plain_data(self, tmp_path):
        spec = small_spec()
        campaign_dir, _ = run_instrumented(tmp_path, spec)
        payload = report_to_json(analyze_campaign(campaign_dir))
        assert json.loads(json.dumps(payload)) == payload
        assert payload["directory"] == str(campaign_dir)
        assert payload["phases"]
        assert payload["writers"]
