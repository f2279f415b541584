"""Tests for the live campaign status view (``scenarios status``).

The status view is read-only over plain files: it must report progress
with or without telemetry, flag expired leases from the shared lease
directory, and stay exit-0 on any directory — empty, torn, or mid-run.
"""

from __future__ import annotations

import json
import time

from repro.cli import main
from repro.obs import Telemetry, activate
from repro.scenarios.fabric import Lease
from repro.scenarios.runner import run_campaign
from repro.scenarios.spec import named_space, spec_hash
from repro.scenarios.status import collect_status, follow_status, render_status
from repro.scenarios.store import CampaignStore


def small_spec(name="status-small", count=4):
    return named_space("fig12").derive(name=name, count=count, matrix_sizes=(40, 120))


def run_instrumented(tmp_path, spec, chunk_size=2, mode="on"):
    store = tmp_path / "store"
    campaign_dir = store / spec_hash(spec)
    telemetry = Telemetry(campaign_dir / "telemetry", owner="main", mode=mode)
    with activate(telemetry):
        progress = run_campaign(spec, store, chunk_size=chunk_size)
    return campaign_dir, progress


class TestCollectStatus:
    def test_empty_directory_yields_zeros(self, tmp_path):
        status = collect_status(tmp_path / "nowhere")
        assert status.canonical_chunks == 0
        assert status.total_chunks is None
        assert not status.has_telemetry
        assert not status.finished

    def test_complete_campaign_with_telemetry(self, tmp_path):
        spec = small_spec()
        campaign_dir, progress = run_instrumented(tmp_path, spec)
        assert progress.finished
        status = collect_status(campaign_dir)
        assert status.canonical_chunks == 2
        assert status.total_chunks == 2
        assert status.finished
        assert status.rows == spec.scenario_count
        assert status.has_telemetry
        assert status.rows_per_second is None or status.rows_per_second > 0
        phase_names = [name for name, _, _ in status.phases]
        for expected in ("queue", "evaluate", "solve", "append"):
            assert expected in phase_names
        assert "batch_scenario" in status.kernels
        assert status.kernels["batch_scenario"]["calls"] >= 1

    def test_total_chunks_inferred_without_advert(self, tmp_path):
        """No fabric.json: the total comes from spec.json + chunk 0's range."""
        spec = small_spec(count=5)
        store = tmp_path / "store"
        run_campaign(spec, store, chunk_size=2, max_chunks=1)
        status = collect_status(store / spec_hash(spec))
        assert status.canonical_chunks == 1
        assert status.total_chunks == 3
        assert not status.finished

    def test_worker_store_chunks_count_as_durable(self, tmp_path):
        spec = small_spec()
        store = tmp_path / "store"
        run_campaign(spec, store, chunk_size=2, max_chunks=1)
        campaign_dir = store / spec_hash(spec)
        # Fake a worker store holding the other chunk, as mid-merge.
        worker_dir = campaign_dir / "workers" / "w0"
        worker_dir.mkdir(parents=True)
        (worker_dir / "spec.json").write_text(spec.to_json(), encoding="utf-8")
        (worker_dir / "chunks.jsonl").write_text(
            json.dumps({"chunk": 1, "start": 2, "stop": 4, "rows": []}) + "\n",
            encoding="utf-8",
        )
        status = collect_status(campaign_dir)
        assert status.canonical_chunks == 1
        assert status.worker_only_chunks == 1
        assert status.chunks_done == 2
        assert status.worker_chunks == {"w0": 1}

    def test_fenced_worker_chunks_are_not_durable(self, tmp_path):
        """A zombie's chunk (epoch 0, fenced at 1) counts neither in status
        nor for the coordinator: both apply the one fence-aware rule."""
        from repro.scenarios.detached import _observed_chunks
        from repro.scenarios.fabric import read_fences, record_fence, worker_directory
        from repro.scenarios.runner import evaluate_range
        from repro.scenarios.store import CampaignState

        spec = small_spec()
        store = tmp_path / "store"
        state = run_campaign(spec, store, chunk_size=2, max_chunks=1).state
        zombie = CampaignState(worker_directory(state, "zombie"), spec)
        zombie.append_chunk(1, 2, 4, evaluate_range(spec, 2, 4), epoch=0)
        record_fence(state, 1, 1)
        status = collect_status(state.directory)
        assert status.chunks_done == len(_observed_chunks(state, read_fences(state))) == 1
        assert status.worker_only_chunks == 0
        assert status.worker_chunks == {"zombie": 1}

    def test_total_chunks_without_chunk_zero(self, tmp_path):
        """The chunk size is derived exactly from any chunk record, so
        status and report agree on the plan when chunk 0 is absent."""
        from repro.obs import analyze_campaign

        spec = small_spec(count=5)
        full = run_campaign(spec, tmp_path / "full", chunk_size=2).state
        campaign_dir = tmp_path / "partial"
        campaign_dir.mkdir()
        (campaign_dir / "spec.json").write_text(spec.to_json(), encoding="utf-8")
        lines = full.chunks_path.read_bytes().splitlines(keepends=True)
        (campaign_dir / "chunks.jsonl").write_bytes(lines[1])
        status = collect_status(campaign_dir)
        assert status.canonical_chunks == 1
        assert status.total_chunks == 3
        assert analyze_campaign(campaign_dir).total_chunks == 3

    def test_lease_health_flags_expiry(self, tmp_path):
        campaign_dir = tmp_path / "campaign"
        leases_dir = campaign_dir / "leases"
        leases_dir.mkdir(parents=True)
        now = time.time()
        live = Lease(
            chunk=0, start=0, stop=2, owner="w0", epoch=0,
            granted_at=now, deadline=now + 60.0, ttl=60.0,
        )
        stale = Lease(
            chunk=1, start=2, stop=4, owner="w1", epoch=2,
            granted_at=now - 120.0,
            deadline=now - 60.0, ttl=5.0,
        )
        live.write(leases_dir)
        stale.write(leases_dir)
        status = collect_status(campaign_dir, now=now)
        by_chunk = {lease.chunk: lease for lease in status.leases}
        assert not by_chunk[0].expired
        assert by_chunk[1].expired
        assert by_chunk[1].owner == "w1"
        assert by_chunk[1].epoch == 2
        assert by_chunk[1].held_for >= 120.0

    def test_render_shows_how_long_each_lease_is_held(self, tmp_path):
        campaign_dir = tmp_path / "campaign"
        leases_dir = campaign_dir / "leases"
        leases_dir.mkdir(parents=True)
        now = time.time()
        Lease(
            chunk=0, start=0, stop=2, owner="w0", epoch=0,
            granted_at=now - 30.0, deadline=now + 30.0, ttl=60.0,
        ).write(leases_dir)
        Lease(
            chunk=1, start=2, stop=4, owner="w1", epoch=2,
            granted_at=now - 120.0, deadline=now - 60.0, ttl=60.0,
        ).write(leases_dir)
        text = render_status(collect_status(campaign_dir, now=now))
        assert "chunk 0: owner w0, epoch 0, held 30" in text
        assert "chunk 1: owner w1, epoch 2, EXPIRED" in text

    def test_torn_telemetry_lines_counted_not_fatal(self, tmp_path):
        spec = small_spec()
        campaign_dir, _ = run_instrumented(tmp_path, spec)
        (span_file,) = (campaign_dir / "telemetry").glob("spans-*.jsonl")
        with open(span_file, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "span", "name": "to')
        status = collect_status(campaign_dir)
        assert status.dropped_telemetry_lines == 1
        assert "torn line(s) dropped" in render_status(status)


class TestCampaignSnapshot:
    """The one read-only pass behind status, report, show and heal."""

    def test_reading_creates_nothing(self, tmp_path):
        from repro.obs.campaign import CampaignSnapshot

        snapshot = CampaignSnapshot.read(tmp_path / "absent")
        assert not (tmp_path / "absent").exists()
        assert snapshot.chunk_size is None and snapshot.total_chunks is None
        assert not snapshot.journal_present

    def test_plan_from_lease_records_and_torn_leases(self, tmp_path):
        from repro.obs.campaign import CampaignSnapshot

        campaign_dir = tmp_path / "campaign"
        leases_dir = campaign_dir / "leases"
        leases_dir.mkdir(parents=True)
        (campaign_dir / "spec.json").write_text(small_spec(count=7).to_json(), encoding="utf-8")
        Lease(chunk=3, start=6, stop=7, owner="w0", epoch=0).write(leases_dir)
        (leases_dir / "chunk-000001.json").write_text('{"chunk": 1, "st', encoding="utf-8")
        snapshot = CampaignSnapshot.read(campaign_dir)
        assert snapshot.chunk_size == 2
        assert snapshot.total_chunks == 4
        assert snapshot.torn_leases == [1]
        # A lease without a deadline is expired, by the protocol's rule.
        assert [snapshot.expired(lease) for lease in snapshot.leases] == [True]


class TestRecentThroughput:
    """The sliding-window rate: a stall must show a dip, which the
    all-time average structurally cannot."""

    @staticmethod
    def write_spans(campaign_dir, records):
        telemetry_dir = campaign_dir / "telemetry"
        telemetry_dir.mkdir(parents=True, exist_ok=True)
        with open(telemetry_dir / "spans-w0-1.jsonl", "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")

    @staticmethod
    def evaluate_span(t0, dt=0.5, rows=10):
        return {
            "kind": "span", "name": "evaluate", "t0": t0, "dt": dt,
            "depth": 0, "span": 1, "owner": "w0", "pid": 1,
            "attrs": {"rows": rows},
        }

    def test_stall_dips_to_zero_while_all_time_stays_flat(self, tmp_path):
        campaign_dir = tmp_path / "campaign"
        now = 1_000_000.0
        # Rows finished long ago; the worker has been stalled for 5 minutes.
        self.write_spans(
            campaign_dir,
            [self.evaluate_span(now - 400.0), self.evaluate_span(now - 350.0)],
        )
        status = collect_status(campaign_dir, now=now)
        assert status.recent_rows_per_second == 0.0

    def test_recent_rate_counts_only_window_rows(self, tmp_path):
        campaign_dir = tmp_path / "campaign"
        now = 1_000_000.0
        self.write_spans(
            campaign_dir,
            [
                self.evaluate_span(now - 400.0, rows=1000),  # outside the window
                self.evaluate_span(now - 20.0, rows=30),
                self.evaluate_span(now - 10.0, rows=30),
            ],
        )
        status = collect_status(campaign_dir, now=now)
        # 60 rows over the 30s window, not 1060 over the whole run.
        assert status.recent_rows_per_second == 60.0 / 30.0

    def test_young_campaign_rated_over_its_own_age(self, tmp_path):
        campaign_dir = tmp_path / "campaign"
        now = 1_000_000.0
        self.write_spans(campaign_dir, [self.evaluate_span(now - 5.0, dt=1.0, rows=50)])
        status = collect_status(campaign_dir, now=now)
        assert status.recent_rows_per_second == 50.0 / 5.0

    def test_work_spans_do_not_double_count(self, tmp_path):
        """Detached `work` spans nest the evaluation; only `evaluate`
        spans carry countable rows."""
        campaign_dir = tmp_path / "campaign"
        now = 1_000_000.0
        work = {
            "kind": "span", "name": "work", "t0": now - 10.0, "dt": 1.0,
            "depth": 0, "span": 2, "owner": "w0", "pid": 1, "attrs": {"rows": 40},
        }
        records = [self.evaluate_span(now - 10.0, rows=40), work]
        self.write_spans(campaign_dir, records)
        status = collect_status(campaign_dir, now=now)
        assert status.recent_rows_per_second == 40.0 / 10.0

    def test_no_evaluations_yields_none(self, tmp_path):
        status = collect_status(tmp_path / "nowhere")
        assert status.recent_rows_per_second is None

    def test_render_shows_recent_rate_mid_campaign(self, tmp_path):
        spec = small_spec()
        store = tmp_path / "store"
        campaign_dir = store / spec_hash(spec)
        telemetry = Telemetry(campaign_dir / "telemetry", owner="main", mode="on")
        with activate(telemetry):
            run_campaign(spec, store, chunk_size=2, max_chunks=1)
        text = render_status(collect_status(campaign_dir))
        assert "rows/s all-time" in text
        assert "rows/s last 30s" in text

    def test_render_omits_recent_rate_when_finished(self, tmp_path):
        spec = small_spec()
        campaign_dir, _ = run_instrumented(tmp_path, spec)
        text = render_status(collect_status(campaign_dir))
        assert "rows/s all-time" in text
        assert "last 30s" not in text


class TestRenderStatus:
    def test_renders_progress_and_phases(self, tmp_path):
        spec = small_spec()
        campaign_dir, _ = run_instrumented(tmp_path, spec)
        text = render_status(collect_status(campaign_dir))
        assert "chunks: 2/2 canonical" in text
        assert "[complete]" in text
        assert f"rows persisted: {spec.scenario_count}" in text
        assert "phases:" in text
        assert "kernel batch_scenario:" in text

    def test_no_telemetry_hint(self, tmp_path):
        spec = small_spec()
        run_campaign(spec, tmp_path / "store", chunk_size=2)
        text = render_status(collect_status(tmp_path / "store" / spec_hash(spec)))
        assert "telemetry: none recorded" in text
        assert "chunks: 2/2 canonical" in text


class TestFollowStatus:
    def test_bounded_follow_renders_each_update(self, tmp_path, capsys):
        spec = small_spec()
        store = tmp_path / "store"
        run_campaign(spec, store, chunk_size=2, max_chunks=1)
        naps = []
        status = follow_status(
            store / spec_hash(spec), interval=0.01, max_updates=2, sleep=naps.append
        )
        out = capsys.readouterr().out
        assert out.count("chunks: 1/2 canonical") == 2
        assert naps == [0.01]
        assert not status.finished

    def test_follow_stops_when_complete(self, tmp_path, capsys):
        spec = small_spec()
        campaign_dir, _ = run_instrumented(tmp_path, spec)
        status = follow_status(campaign_dir, interval=0.01, max_updates=5)
        assert status.finished
        assert capsys.readouterr().out.count("[complete]") == 1


class TestStatusCli:
    def test_status_exits_zero_without_campaign(self, tmp_path, capsys):
        assert main(["scenarios", "status", str(tmp_path / "absent")]) == 0
        assert "chunks: 0/?" in capsys.readouterr().out

    def test_status_with_space_resolves_hash(self, tmp_path, capsys):
        spec = named_space("fig12").derive(count=4)  # matches the CLI's derivation
        store = tmp_path / "store"
        telemetry = Telemetry(store / spec_hash(spec) / "telemetry", owner="main", mode="on")
        with activate(telemetry):
            run_campaign(spec, store, chunk_size=2)
        code = main(
            ["scenarios", "status", str(store), "--space", "fig12", "--count", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "chunks: 2/2 canonical" in out
        assert "kernel batch_scenario:" in out

    def test_run_telemetry_flag_writes_sidecar(self, tmp_path, capsys):
        store = tmp_path / "store"
        code = main(
            [
                "scenarios", "run", "fig12", "--store", str(store),
                "--count", "4", "--chunk-size", "2", "--telemetry", "on",
            ]
        )
        assert code == 0
        capsys.readouterr()
        spec = named_space("fig12").derive(count=4)
        telemetry_dir = store / spec_hash(spec) / "telemetry"
        assert list(telemetry_dir.glob("spans-main-*.jsonl"))
        assert list(telemetry_dir.glob("metrics-main-*.json"))

    def test_show_reports_dropped_telemetry_after_torn_tail(self, tmp_path, capsys):
        """The torn-tail satellite: show pairs the store recovery report
        with the telemetry sidecar's dropped-line count."""
        store = tmp_path / "store"
        code = main(
            [
                "scenarios", "run", "fig12", "--store", str(store),
                "--count", "4", "--chunk-size", "2", "--telemetry", "on",
            ]
        )
        assert code == 0
        capsys.readouterr()
        spec = named_space("fig12").derive(count=4)
        campaign_dir = store / spec_hash(spec)
        # Tear both the store tail and a telemetry line, as one crash would.
        chunks_path = campaign_dir / "chunks.jsonl"
        intact = chunks_path.read_bytes()
        chunks_path.write_bytes(intact + b'{"chunk": 2, "start": 4,')
        (span_file,) = (campaign_dir / "telemetry").glob("spans-*.jsonl")
        with open(span_file, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "span"')
        code = main(
            ["scenarios", "show", "fig12", "--store", str(store), "--count", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "recovered on open" in out
        assert "telemetry sidecar: 1 torn line(s) dropped" in out

    def test_status_never_touches_the_store(self, tmp_path):
        """status is an observer: bytes on disk are identical afterwards."""
        spec = small_spec()
        campaign_dir, _ = run_instrumented(tmp_path, spec)
        chunks_path = campaign_dir / "chunks.jsonl"
        before = chunks_path.read_bytes()
        collect_status(campaign_dir)
        assert chunks_path.read_bytes() == before


class TestStoreUnaffected:
    def test_resume_over_instrumented_store_is_byte_identical(self, tmp_path):
        """Telemetry on for half the campaign, off for the rest — the
        store converges to the uninstrumented bytes either way."""
        spec = small_spec()
        plain_store = CampaignStore(tmp_path / "plain")
        run_campaign(spec, plain_store, chunk_size=2)
        split_store = tmp_path / "split"
        campaign_dir = split_store / spec_hash(spec)
        telemetry = Telemetry(campaign_dir / "telemetry", owner="main", mode="on")
        with activate(telemetry):
            run_campaign(spec, split_store, chunk_size=2, max_chunks=1)
        run_campaign(spec, split_store, chunk_size=2)
        plain = (tmp_path / "plain" / spec_hash(spec) / "chunks.jsonl").read_bytes()
        assert (campaign_dir / "chunks.jsonl").read_bytes() == plain
