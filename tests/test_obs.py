"""Tests for the telemetry subsystem (``repro.obs``).

The load-bearing guarantees:

* **additivity** — running any campaign with telemetry on (even verbose)
  leaves ``chunks.jsonl`` byte-identical to an uninstrumented run, for
  every workload kind;
* **crash tolerance** — a span sidecar torn mid-line reloads tolerantly
  (torn lines counted, never fatal), mirroring the store's own
  torn-tail recovery;
* **multi-writer correctness** — metric snapshots from independent
  workers merge by summation (counters, histogram buckets) and
  latest-write-wins (gauges), and forked ``jobs=`` pool workers re-home
  to their own per-pid sidecar files with intact span nesting.
"""

from __future__ import annotations

import os

import pytest

from repro.obs import (
    MetricsRegistry,
    Telemetry,
    activate,
    active,
    chunk_progress,
    configure_logging,
    enabled,
    get_logger,
    merge_snapshots,
    read_jsonl_tolerant,
    read_metric_snapshots,
    read_spans,
    write_snapshot,
)
from repro.scenarios.runner import run_campaign
from repro.scenarios.spec import named_space


def small_space(kind: str):
    if kind == "matrix":
        return named_space("fig12").derive(name="obs-matrix", count=4, matrix_sizes=(40, 120))
    if kind == "two-port":
        return named_space("fig12-twoport").derive(
            name="obs-twoport", count=3, matrix_sizes=(40, 120)
        )
    if kind == "bus":
        return named_space("bus-hetero").derive(name="obs-bus", count=4)
    if kind == "probe":
        return named_space("fig08-probe").derive(name="obs-probe")
    raise AssertionError(kind)


class TestSpanSidecar:
    def test_round_trip_with_nesting_and_attributes(self, tmp_path):
        telemetry = Telemetry(tmp_path / "telemetry", owner="t0", mode="on")
        with activate(telemetry):
            with telemetry.span("outer", chunk=3) as outer:
                with telemetry.span("inner"):
                    pass
                outer.set(rows=7)
        spans, dropped = read_spans(tmp_path / "telemetry")
        assert dropped == 0
        by_name = {record["name"]: record for record in spans}
        assert by_name["outer"]["attrs"] == {"chunk": 3, "rows": 7}
        assert by_name["outer"]["depth"] == 0
        assert by_name["inner"]["depth"] == 1
        assert by_name["inner"]["parent"] == by_name["outer"]["span"]
        assert by_name["inner"]["t0"] >= by_name["outer"]["t0"]
        assert all(record["owner"] == "t0" for record in spans)

    def test_crash_mid_line_reloads_tolerantly(self, tmp_path):
        """A sidecar torn mid-write drops exactly the torn line."""
        telemetry = Telemetry(tmp_path / "telemetry", owner="t0", mode="on")
        for index in range(3):
            with telemetry.span("work", chunk=index):
                pass
        telemetry.close()
        (span_file,) = (tmp_path / "telemetry").glob("spans-*.jsonl")
        intact = span_file.read_text(encoding="utf-8")
        # Simulate a crash mid-append: the last line is half-written.
        span_file.write_text(intact + '{"kind": "span", "name": "to', encoding="utf-8")
        spans, dropped = read_spans(tmp_path / "telemetry")
        assert [record["attrs"]["chunk"] for record in spans] == [0, 1, 2]
        assert dropped == 1

    def test_span_records_error_attribute(self, tmp_path):
        telemetry = Telemetry(tmp_path / "telemetry", owner="t0", mode="on")
        with pytest.raises(ValueError):
            with telemetry.span("doomed"):
                raise ValueError("boom")
        spans, _ = read_spans(tmp_path / "telemetry")
        assert spans[0]["attrs"]["error"] == "ValueError"

    def test_write_failure_disables_not_raises(self, tmp_path):
        """Failure policy: telemetry must never abort the campaign."""
        blocked = tmp_path / "blocked"
        blocked.write_text("a file where the directory should go", encoding="utf-8")
        telemetry = Telemetry(blocked / "telemetry", owner="t0", mode="on")
        with telemetry.span("work"):
            pass
        assert not telemetry.enabled

    def test_throttled_checkpoint_fsyncs_spans_and_owes_the_snapshot(self, tmp_path, monkeypatch):
        """A throttled flush still fsyncs; the next plain flush writes the snapshot."""
        telemetry = Telemetry(tmp_path / "telemetry", owner="t0", mode="on")
        telemetry.METRICS_INTERVAL = 3600.0
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: synced.append(fd) or real_fsync(fd))

        def counted():
            snapshot = read_metric_snapshots(tmp_path / "telemetry")[0]
            return snapshot["counters"]["work.items"]

        telemetry.counter("work.items")
        telemetry.flush(throttle_metrics=True)  # the first snapshot is always due
        assert counted() == 1.0
        telemetry.counter("work.items")
        with telemetry.span("work"):
            pass
        telemetry.flush(throttle_metrics=True)
        assert len(synced) == 1  # the span line is durable ...
        assert counted() == 1.0  # ... the snapshot is not yet due
        telemetry.flush()
        assert len(synced) == 2 and counted() == 2.0
        telemetry.flush()  # nothing owed any more: a no-op
        assert len(synced) == 2
        spans, _ = read_spans(tmp_path / "telemetry")
        assert [record["name"] for record in spans] == ["work"]

    def test_read_jsonl_tolerant_never_raises(self, tmp_path):
        records, dropped = read_jsonl_tolerant(tmp_path / "absent.jsonl")
        assert records == [] and dropped == 0
        path = tmp_path / "mixed.jsonl"
        path.write_text('{"ok": 1}\nnot json\n{"ok": 2}\n', encoding="utf-8")
        records, dropped = read_jsonl_tolerant(path)
        assert [record["ok"] for record in records] == [1, 2]
        assert dropped == 1


class TestMetricsMerge:
    def test_merge_across_two_worker_stores(self, tmp_path):
        """Two workers' snapshots merge: counters sum, buckets add."""
        telemetry_dir = tmp_path / "telemetry"
        telemetry_dir.mkdir()
        for owner, chunks, seconds in (("w0", 3, 0.2), ("w1", 5, 0.4)):
            registry = MetricsRegistry()
            registry.counter_add("worker.completed", chunks)
            registry.gauge_set("campaign.total_chunks", 8)
            registry.observe("span.work.seconds", seconds)
            write_snapshot(
                telemetry_dir / f"metrics-{owner}-1.json", registry.snapshot(owner)
            )
        snapshots = read_metric_snapshots(telemetry_dir)
        assert len(snapshots) == 2
        merged = merge_snapshots(snapshots)
        assert merged["counters"]["worker.completed"] == 8
        assert merged["gauges"]["campaign.total_chunks"] == 8
        histogram = merged["histograms"]["span.work.seconds"]
        assert histogram["count"] == 2
        assert histogram["sum"] == pytest.approx(0.6)
        assert sum(histogram["counts"]) == 2
        assert sorted(merged["owners"]) == ["w0", "w1"]

    def test_torn_snapshot_is_skipped(self, tmp_path):
        telemetry_dir = tmp_path / "telemetry"
        telemetry_dir.mkdir()
        (telemetry_dir / "metrics-torn-1.json").write_text('{"at": 1,', encoding="utf-8")
        registry = MetricsRegistry()
        registry.counter_add("ok", 1)
        write_snapshot(telemetry_dir / "metrics-good-1.json", registry.snapshot("good"))
        merged = merge_snapshots(read_metric_snapshots(telemetry_dir))
        assert merged["counters"] == {"ok": 1}


class TestAmbientActivation:
    def test_null_sink_absorbs_everything_when_inactive(self):
        telemetry = active()
        assert not telemetry.enabled and not enabled()
        with telemetry.span("ignored") as span:
            span.set(rows=1)
        telemetry.counter("ignored")
        telemetry.kernel_call("ignored", pivots=1)

    def test_activation_restores_previous_emitter(self, tmp_path):
        first = Telemetry(tmp_path / "a", owner="a", mode="on")
        second = Telemetry(tmp_path / "b", owner="b", mode="on")
        with activate(first):
            assert active() is first
            with activate(second):
                assert active() is second
            assert active() is first
        assert not active().enabled

    def test_off_mode_activates_null_sink(self, tmp_path):
        with activate(Telemetry(tmp_path / "t", owner="x", mode="off")) as telemetry:
            assert not telemetry.enabled
        assert not (tmp_path / "t").exists()


class TestProcessPoolPropagation:
    def test_span_nesting_under_jobs_pool(self, tmp_path):
        """Forked pool workers re-home to per-pid files; nesting survives."""
        spec = small_space("matrix")
        telemetry = Telemetry(tmp_path / "telemetry", owner="main", mode="on")
        with activate(telemetry):
            progress = run_campaign(spec, tmp_path / "store", chunk_size=1, jobs=2)
        assert progress.finished
        spans, dropped = read_spans(tmp_path / "telemetry")
        assert dropped == 0
        pids = {record["pid"] for record in spans}
        assert len(pids) > 1, "pool workers should write their own sidecar files"
        assert os.getpid() in pids, "the parent writes queue/append spans"
        evaluates = [record for record in spans if record["name"] == "evaluate"]
        assert {record["attrs"]["workload"] for record in evaluates} == {"matrix"}
        solves = [record for record in spans if record["name"] == "solve"]
        evaluate_ids = {(record["pid"], record["span"]) for record in evaluates}
        for solve in solves:
            assert solve["depth"] == 1
            assert (solve["pid"], solve["parent"]) in evaluate_ids
        snapshots = read_metric_snapshots(tmp_path / "telemetry")
        merged = merge_snapshots(snapshots)
        assert merged["counters"]["campaign.chunks_completed"] == spec.family.count
        assert merged["counters"]["kernel.batch_scenario.calls"] >= 1


class TestBitIdentity:
    @pytest.mark.parametrize("kind", ["matrix", "two-port", "bus", "probe"])
    def test_chunks_identical_with_telemetry_on(self, tmp_path, kind):
        """The tentpole guarantee: instrumentation is invisible in the store."""
        spec = small_space(kind)
        run_campaign(spec, tmp_path / "plain", chunk_size=2)
        telemetry = Telemetry(tmp_path / "telemetry", owner="main", mode="verbose")
        with activate(telemetry):
            run_campaign(spec, tmp_path / "instrumented", chunk_size=2)
        (plain,) = (tmp_path / "plain").glob("*/chunks.jsonl")
        (instrumented,) = (tmp_path / "instrumented").glob("*/chunks.jsonl")
        assert plain.read_bytes() == instrumented.read_bytes()
        spans, _ = read_spans(tmp_path / "telemetry")
        assert spans, "the instrumented run should have emitted spans"


class TestKernelProfile:
    def test_batched_kernels_report_pivots_and_occupancy(self, tmp_path):
        spec = small_space("two-port")
        telemetry = Telemetry(tmp_path / "telemetry", owner="main", mode="on")
        with activate(telemetry):
            run_campaign(spec, tmp_path / "store", chunk_size=2)
        merged = merge_snapshots(read_metric_snapshots(tmp_path / "telemetry"))
        counters = merged["counters"]
        assert counters["kernel.batch_twoport.calls"] >= 1
        assert counters["kernel.batch_twoport.pivots"] > 0
        assert 0 < counters["kernel.batch_twoport.active_slots"] <= (
            counters["kernel.batch_twoport.mask_slots"]
        )
        assert counters["sampler.batches"] >= 1

    def test_verbose_mode_emits_per_call_kernel_records(self, tmp_path):
        spec = small_space("matrix")
        telemetry = Telemetry(tmp_path / "telemetry", owner="main", mode="verbose")
        with activate(telemetry):
            run_campaign(spec, tmp_path / "store", chunk_size=2)
        records, _ = read_spans(tmp_path / "telemetry")
        kernel_records = [r for r in records if r.get("kind") == "kernel"]
        assert kernel_records
        assert all(r["kernel"] == "batch_scenario" for r in kernel_records)
        assert all(r["pivots"] > 0 for r in kernel_records)


class TestStructuredLogging:
    def test_key_value_context_appended(self, caplog):
        logger = get_logger("repro.obs_test")
        with caplog.at_level("INFO", logger="repro.obs_test"):
            logger.info("lease expired", owner="w0", epoch=3, chunk=7)
        assert caplog.records[-1].message == "lease expired owner=w0 epoch=3 chunk=7"

    def test_percent_interpolation_still_works(self, caplog):
        logger = get_logger("repro.obs_test")
        with caplog.at_level("WARNING", logger="repro.obs_test"):
            logger.warning("retry %d", 2, chunk=5)
        assert caplog.records[-1].message == "retry 2 chunk=5"

    def test_configure_logging_sets_threshold(self):
        configure_logging("error")
        try:
            logger = get_logger("repro.obs_test")
            assert not logger.isEnabledFor(30)  # WARNING suppressed
            assert logger.isEnabledFor(40)
        finally:
            configure_logging("warning")

    def test_values_with_spaces_are_quoted(self, caplog):
        logger = get_logger("repro.obs_test")
        with caplog.at_level("INFO", logger="repro.obs_test"):
            logger.info("note", detail="two words")
        assert "detail='two words'" in caplog.records[-1].message


class TestForkSafety:
    def test_forked_child_rehomes_files(self, tmp_path):
        telemetry = Telemetry(tmp_path / "telemetry", owner="main", mode="on")
        with telemetry.span("parent"):
            pass
        pid = os.fork()
        if pid == 0:
            # Child: emit and exit without touching the parent's handle.
            try:
                with telemetry.span("child"):
                    pass
                telemetry.flush()
            finally:
                os._exit(0)
        _, status = os.waitpid(pid, 0)
        assert os.WEXITSTATUS(status) == 0
        spans, _ = read_spans(tmp_path / "telemetry")
        by_name = {record["name"]: record for record in spans}
        assert by_name["child"]["pid"] != by_name["parent"]["pid"]
        files = sorted(path.name for path in (tmp_path / "telemetry").glob("spans-*.jsonl"))
        assert len(files) == 2


class TestTraceCorrelation:
    def test_adopted_trace_stamps_every_span(self, tmp_path):
        from repro.obs import new_trace_id

        telemetry = Telemetry(tmp_path / "telemetry", owner="t0", mode="on")
        trace = new_trace_id()
        telemetry.adopt_trace(trace, "coordinator:1:1")
        with telemetry.span("outer"):
            with telemetry.span("inner"):
                pass
        telemetry.flush()
        spans, _ = read_spans(tmp_path / "telemetry")
        by_name = {record["name"]: record for record in spans}
        assert all(record["trace"] == trace for record in spans)
        # Only depth-0 spans carry the cross-process parent ref; deeper
        # spans chain to it through their in-process parent ids.
        assert by_name["outer"]["cparent"] == "coordinator:1:1"
        assert "cparent" not in by_name["inner"]
        assert by_name["inner"]["parent"] == by_name["outer"]["span"]

    def test_span_ref_round_trip(self):
        from repro.obs import parse_ref, span_ref

        assert parse_ref(span_ref("host-3", 123, 7)) == ("host-3", 123, 7)
        assert parse_ref("garbage") is None
        assert parse_ref(None) is None

    def test_trace_context_snapshot_and_rebuild(self, tmp_path):
        from repro.obs import install, install_in_worker, new_trace_id, trace_context

        telemetry = Telemetry(tmp_path / "telemetry", owner="parent", mode="on")
        telemetry.adopt_trace(new_trace_id())
        with telemetry.span("root"):
            context = trace_context(telemetry)
        assert context["trace"] == telemetry.trace_id
        assert context["parent"] is not None
        # Nothing active: install_in_worker rebuilds a telemetry from the
        # context (the spawn-start path) and installs it ambiently.
        try:
            install_in_worker(context)
            rebuilt = active()
            assert rebuilt.enabled
            assert rebuilt.trace_id == context["trace"]
            assert rebuilt.trace_parent == context["parent"]
            with rebuilt.span("work"):
                pass
            rebuilt.flush()
        finally:
            install(None)
        spans, _ = read_spans(tmp_path / "telemetry")
        work = next(record for record in spans if record["name"] == "work")
        assert work["trace"] == context["trace"]
        assert work["cparent"] == context["parent"]

    def test_disabled_telemetry_yields_no_context(self, tmp_path):
        from repro.obs import trace_context

        assert trace_context(active()) is None
        untraced = Telemetry(tmp_path / "telemetry", owner="t0", mode="on")
        assert trace_context(untraced) is None


class TestSidecarRotation:
    def test_span_file_rotates_at_threshold(self, tmp_path):
        telemetry = Telemetry(
            tmp_path / "telemetry", owner="r0", mode="on", rotate_bytes=512
        )
        for index in range(50):
            with telemetry.span("tick", index=index):
                pass
        telemetry.flush()
        files = sorted((tmp_path / "telemetry").glob("spans-*.jsonl"))
        assert len(files) > 1
        rotated = [path for path in files if path.stem.split(".")[-1].isdigit()]
        assert rotated
        assert all(path.stat().st_size <= 1024 for path in files)
        # The tolerant reader sees every segment through the same glob.
        spans, dropped = read_spans(tmp_path / "telemetry")
        assert dropped == 0
        assert len(spans) == 50
        assert sorted(record["attrs"]["index"] for record in spans) == list(range(50))
        snapshots = read_metric_snapshots(tmp_path / "telemetry")
        counters = merge_snapshots(snapshots)["counters"]
        assert counters["telemetry.rotated_files"] == len(rotated)

    def test_no_rotation_below_threshold(self, tmp_path):
        telemetry = Telemetry(tmp_path / "telemetry", owner="r1", mode="on")
        for _ in range(10):
            with telemetry.span("tick"):
                pass
        telemetry.flush()
        assert len(list((tmp_path / "telemetry").glob("spans-*.jsonl"))) == 1


def test_chunk_progress_reads_a_store_tolerantly(tmp_path):
    """The one read-only progress probe behind status and report."""
    import json

    path = tmp_path / "chunks.jsonl"
    assert chunk_progress(path) == (set(), 0, False)
    path.write_text(
        json.dumps({"chunk": 0, "start": 0, "stop": 2, "rows": [{}, {}]}) + "\n"
        + json.dumps({"chunk": 1, "start": 2, "stop": 3, "rows": [{}]}) + "\n",
        encoding="utf-8",
    )
    assert chunk_progress(path) == ({0, 1}, 3, False)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"chunk": 2, "start": 3, "ro')
    assert chunk_progress(path) == ({0, 1}, 3, True)


def test_obs_is_stdlib_only():
    """The observability plane must not import numpy or repro.scenarios.

    (``import repro.obs`` necessarily executes the top-level ``repro``
    package, which re-exports the numpy-backed core models — so the pin
    is on the ``repro.obs`` sources themselves.)
    """
    import ast
    from pathlib import Path

    import repro.obs

    package_dir = Path(repro.obs.__file__).parent
    for source in sorted(package_dir.glob("*.py")):
        tree = ast.parse(source.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module]
            for name in names:
                assert not name.startswith("numpy"), f"{source.name} imports {name}"
                if name.startswith("repro"):
                    assert name.startswith("repro.obs"), f"{source.name} imports {name}"
