"""Tests for the streaming runner and the resumable store.

The two load-bearing guarantees:

* **campaign parity** — a sampler-fed campaign persists, per platform,
  exactly the ratios the scalar reference path (``compare_heuristics`` +
  ``measure_heuristic`` on ``StarPlatform`` objects) computes;
* **resume semantics** — a campaign killed mid-run and resumed produces a
  store bit-identical to an uninterrupted run, including after a crash
  that truncates the last line mid-write.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.cli import main
from repro.core.heuristics import compare_heuristics
from repro.core.rounding import round_loads
from repro.exceptions import ExperimentError
from repro.experiments.campaign_engine import noise_seed
from repro.experiments.common import default_noise, overhead_noise
from repro.scenarios.runner import (
    NOISE_FACTORIES,
    aggregate_figure,
    evaluate_range,
    plan_chunks,
    run_campaign,
)
from repro.scenarios.spec import named_space, spec_hash
from repro.scenarios.store import CampaignState, CampaignStore, aggregate_rows
from repro.simulation.cluster import ClusterSimulation
from repro.simulation.executor import measure_heuristic
from repro.workloads.matrices import MatrixProductWorkload

from conftest import reference_factors


def small_spec(name="small", count=6, sizes=(40, 120), noise="default"):
    return named_space("fig12").derive(name=name, count=count, matrix_sizes=sizes, noise=noise)


class TestPlanChunks:
    def test_covers_the_space(self):
        chunks = plan_chunks(10, 4)
        assert chunks == [(0, 4), (4, 8), (8, 10)]

    def test_chunk_size_positive(self):
        with pytest.raises(ExperimentError):
            plan_chunks(10, 0)


class TestCampaignParity:
    @pytest.mark.parametrize(
        "space, campaign_kind, scale_kwargs",
        [
            ("fig10", "homogeneous", {}),
            ("fig11", "hetero-comp", {}),
            ("fig12", "hetero-star", {}),
            ("fig13a", "hetero-star", {"comp": 10.0}),
            ("fig13b", "hetero-star", {"comm": 10.0}),
            ("mega-uniform", None, {}),
        ],
    )
    def test_rows_match_scalar_reference_path(self, tmp_path, space, campaign_kind, scale_kwargs):
        """Every persisted value == scalar compare_heuristics + measure_heuristic.

        Reduced platform counts keep the test fast; the sampled factor
        prefix is identical to the full fig10-13 factor sets (prefix
        property, pinned by the sampler tests), so this is the paper's
        factor sets, truncated.  The one-port counterpart of the two-port
        reference-parity test.  The LP-only ``mega-uniform`` space (no
        ``campaign_kind``) takes its factors from the vectorised sampler
        and must persist no measured series.
        """
        spec = named_space(space).derive(count=5, matrix_sizes=(40, 200))
        progress = run_campaign(spec, tmp_path, chunk_size=2)
        assert progress.finished
        rows = progress.rows()
        assert len(rows) == spec.scenario_count

        factors = reference_factors(spec, campaign_kind, scale_kwargs)
        noise_factory = overhead_noise if spec.noise == "overhead" else default_noise
        total = spec.total_tasks
        for row in rows:
            index, size = row["platform"], row["size"]
            platform = factors[index].platform(MatrixProductWorkload(size))
            evaluations = compare_heuristics(platform, spec.heuristics)
            reference_time = evaluations[spec.reference].makespan_for(total)
            noise = (
                None
                if spec.noise is None
                else noise_factory(noise_seed(spec.family.seed, index, size))
            )
            for name in spec.heuristics:
                report = measure_heuristic(
                    evaluations[name], total, noise=noise, collect_trace=False
                )
                lp = evaluations[name].makespan_for(total) / reference_time
                assert row["values"][f"{name} lp"] == lp
                if noise is None:
                    assert f"{name} real" not in row["values"]
                else:
                    assert (
                        row["values"][f"{name} real"]
                        == report.measured_makespan / reference_time
                    )
                assert row["values"][f"{name} workers"] == len(report.participants)
            assert row["values"][f"{spec.reference} time"] == reference_time

    @pytest.mark.parametrize(
        "space, campaign_kind, scale_kwargs",
        [
            ("fig10", "homogeneous", {}),
            ("fig11", "hetero-comp", {}),
            ("fig12", "hetero-star", {}),
            ("fig13a", "hetero-star", {"comp": 10.0}),
            ("fig13b", "hetero-star", {"comm": 10.0}),
        ],
    )
    def test_real_series_match_event_engine(self, tmp_path, space, campaign_kind, scale_kwargs):
        """Every "<H> real" equals the discrete-event engine's makespan on
        the same rounded loads and filtered sigmas — the one reference
        independent of the row-wise replay, which ``measure_heuristic``
        and the campaigns share."""
        spec = named_space(space).derive(count=2)
        rows = run_campaign(spec, tmp_path, chunk_size=2).rows()
        assert len(rows) == spec.scenario_count
        factors = reference_factors(spec, campaign_kind, scale_kwargs)
        total = spec.total_tasks
        for row in rows:
            index, size = row["platform"], row["size"]
            platform = factors[index].platform(MatrixProductWorkload(size))
            evaluations = compare_heuristics(platform, spec.heuristics)
            noise = NOISE_FACTORIES[spec.noise](noise_seed(spec.family.seed, index, size))
            simulation = ClusterSimulation(platform, noise=noise, engine="event")
            reference_time = row["values"][f"{spec.reference} time"]
            for name in spec.heuristics:
                schedule = evaluations[name].schedule
                loads = round_loads(schedule.loads, schedule.sigma1, total)
                run = simulation.run_assignment(
                    {worker: float(load) for worker, load in loads.items()},
                    schedule.sigma1,
                    schedule.sigma2,
                )
                assert row["values"][f"{name} real"] == run.makespan / reference_time

    def test_jobs_do_not_change_rows(self, tmp_path):
        spec = small_spec()
        serial = run_campaign(spec, tmp_path / "serial", chunk_size=2, jobs=1)
        parallel = run_campaign(spec, tmp_path / "parallel", chunk_size=2, jobs=2)
        assert serial.rows() == parallel.rows()

    def test_lp_only_space_has_no_real_series(self, tmp_path):
        spec = small_spec(noise=None)
        progress = run_campaign(spec, tmp_path, chunk_size=3)
        for row in progress.rows():
            assert not any(series.endswith(" real") for series in row["values"])
            assert f"{spec.reference} lp" in row["values"]


class TestLpOnlyCells:
    """LP-only spaces build no replay material; measured ones still do."""

    @staticmethod
    def forbid_replay_material(monkeypatch):
        from repro.experiments import campaign_engine

        def forbidden(*args, **kwargs):
            raise AssertionError("replay material built")

        # Both port models lay their cells out through this one call.
        monkeypatch.setattr(campaign_engine, "prepare_measurement_arrays", forbidden)

    @pytest.mark.parametrize("space", ["mega-uniform", "mega-uniform-twoport", "bus-theorem2"])
    def test_lp_only_spaces_build_no_layout(self, monkeypatch, space):
        spec = named_space(space)
        assert spec.noise is None
        self.forbid_replay_material(monkeypatch)
        rows = evaluate_range(spec, 0, min(spec.family.count, 3))
        assert rows and all(f"{spec.reference} workers" in row["values"] for row in rows)

    @pytest.mark.parametrize("space", ["fig12", "fig12-twoport"])
    def test_measured_spaces_build_replay_material(self, monkeypatch, space):
        spec = named_space(space).derive(count=2, matrix_sizes=(40,))
        self.forbid_replay_material(monkeypatch)
        with pytest.raises(AssertionError, match="replay material built"):
            evaluate_range(spec, 0, 2)


class TestLpOnlyBytePins:
    """LP-only stores keep their exact bytes, whatever the engine skips."""

    @pytest.mark.parametrize(
        "space, digest",
        [
            ("mega-uniform", "d16973ad0601bdabf7cb0aa908d94f1b9133dec7e322bb14d74cd4570863e7fd"),
            (
                "mega-uniform-twoport",
                "f3f641452a03b02c6ddbb07a0b94ca108423bb3916452ac7e05917d61e57f43e",
            ),
        ],
    )
    def test_chunks_file_sha256(self, tmp_path, space, digest):
        flags = ("--count", "9", "--chunk-size", "2")
        assert main(["scenarios", "run", space, "--store", str(tmp_path), *flags]) == 0
        spec = named_space(space).derive(count=9)
        chunks = (tmp_path / spec_hash(spec) / "chunks.jsonl").read_bytes()
        assert hashlib.sha256(chunks).hexdigest() == digest


class TestTwoPortBytePins:
    """Measured two-port stores keep their exact bytes through the replay."""

    @pytest.mark.parametrize(
        "space, digest",
        [
            ("fig12-twoport", "ee1f1f9904ca67e0e8a8fb8b549e5baa4381166c784db7ffab3d29834c01d403"),
            ("fig13b-twoport", "59182c9e7f37de0b0e26e6845277f9db117a269a07e04de9a0e8e9f34a818ddf"),
        ],
    )
    def test_chunks_file_sha256(self, tmp_path, space, digest):
        flags = ("--count", "6", "--chunk-size", "2")
        assert main(["scenarios", "run", space, "--store", str(tmp_path), *flags]) == 0
        spec = named_space(space).derive(count=6)
        chunks = (tmp_path / spec_hash(spec) / "chunks.jsonl").read_bytes()
        assert hashlib.sha256(chunks).hexdigest() == digest


class TestMeasuredBytePins:
    """Measured one-port stores keep their exact bytes through the chunk layout.

    fig10's homogeneous stars and fig11's equal links exercise sort ties.
    """

    @pytest.mark.parametrize(
        "space, digest",
        [
            ("fig10", "d6e7938f3ec2ea50cdfca8ef09917dd21e10c8bb4438fc5f6ca539fa240a4b7c"),
            ("fig11", "2a7900ce9b7a7adb0066d631310af0596267cec8eaeed4d6c2f46ce7cac2641e"),
            ("fig12", "6145a4674c6b4615c3a0968db02640cf115cf40b373fc05e64b85dc3fec909d5"),
            ("fig13a", "776774f9df072dd197a5054c6b17d4730899735d96637d7913033569619b1ec7"),
            ("fig13b", "8e47a21a7e453fee7ef2fa9efd91fa8e81c5bb3b44e0b6a581d3b9f369baeae0"),
        ],
    )
    def test_chunks_file_sha256(self, tmp_path, space, digest):
        flags = ("--count", "6", "--chunk-size", "2")
        assert main(["scenarios", "run", space, "--store", str(tmp_path), *flags]) == 0
        spec = named_space(space).derive(count=6)
        chunks = (tmp_path / spec_hash(spec) / "chunks.jsonl").read_bytes()
        assert hashlib.sha256(chunks).hexdigest() == digest


class TestResumeSemantics:
    def test_interrupted_campaign_resumes_bit_identically(self, tmp_path):
        spec = small_spec()
        uninterrupted = run_campaign(spec, tmp_path / "full", chunk_size=2)

        partial = run_campaign(spec, tmp_path / "resumed", chunk_size=2, max_chunks=2)
        assert not partial.finished
        assert partial.completed_after == 2
        resumed = run_campaign(spec, tmp_path / "resumed", chunk_size=2)
        assert resumed.finished
        assert resumed.completed_before == 2
        assert resumed.rows() == uninterrupted.rows()
        # The persisted bytes (after the header spec) agree line for line
        # once re-parsed: same chunks, same rows, same floats.
        full_lines = (tmp_path / "full" / spec_hash(spec) / "chunks.jsonl").read_text()
        resumed_lines = (tmp_path / "resumed" / spec_hash(spec) / "chunks.jsonl").read_text()
        assert full_lines == resumed_lines

    def test_kill_mid_write_truncated_tail_is_recovered(self, tmp_path):
        spec = small_spec()
        reference = run_campaign(spec, tmp_path / "full", chunk_size=2)

        crashed_root = tmp_path / "crashed"
        run_campaign(spec, crashed_root, chunk_size=2, max_chunks=2)
        chunks_path = crashed_root / spec_hash(spec) / "chunks.jsonl"
        # Simulate a kill -9 halfway through appending chunk 2: a valid
        # prefix plus one truncated JSON line.
        with open(chunks_path, "a", encoding="utf-8") as handle:
            handle.write('{"chunk": 2, "start": 4, "rows": [{"platform"')
        resumed = run_campaign(spec, crashed_root, chunk_size=2)
        assert resumed.finished
        assert resumed.rows() == reference.rows()

    def test_store_survives_repeated_reopens_after_torn_write(self, tmp_path):
        """Resuming over a truncated tail must not glue records together.

        The torn tail is truncated away on load, so the store stays
        parseable through arbitrarily many resume/reopen cycles.
        """
        spec = small_spec()
        reference = run_campaign(spec, tmp_path / "full", chunk_size=2)

        crashed_root = tmp_path / "crashed"
        run_campaign(spec, crashed_root, chunk_size=2, max_chunks=2)
        chunks_path = crashed_root / spec_hash(spec) / "chunks.jsonl"
        with open(chunks_path, "a", encoding="utf-8") as handle:
            handle.write('{"chunk": 2, "start": 4, "rows": [{"platform"')
        resumed = run_campaign(spec, crashed_root, chunk_size=2)
        assert resumed.finished
        # Reopen repeatedly: every record must still parse, and the rows
        # must match the uninterrupted run each time.
        for _ in range(2):
            reopened = run_campaign(spec, crashed_root, chunk_size=2)
            assert reopened.finished
            assert reopened.rows() == reference.rows()

    def test_missing_tail_newline_is_repaired(self, tmp_path):
        """A record whose newline never hit the disk still parses; the next
        append must start on a fresh line."""
        spec = small_spec()
        reference = run_campaign(spec, tmp_path / "full", chunk_size=2)

        root = tmp_path / "torn"
        run_campaign(spec, root, chunk_size=2, max_chunks=2)
        chunks_path = root / spec_hash(spec) / "chunks.jsonl"
        raw = chunks_path.read_bytes()
        assert raw.endswith(b"\n")
        chunks_path.write_bytes(raw[:-1])
        resumed = run_campaign(spec, root, chunk_size=2)
        assert resumed.finished
        assert resumed.rows() == reference.rows()

    def test_corrupt_middle_line_raises(self, tmp_path):
        spec = small_spec()
        run_campaign(spec, tmp_path, chunk_size=2)
        chunks_path = tmp_path / spec_hash(spec) / "chunks.jsonl"
        lines = chunks_path.read_text().splitlines()
        lines[0] = lines[0][:-10]
        chunks_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ExperimentError):
            run_campaign(spec, tmp_path, chunk_size=2)

    def test_resume_with_different_chunk_size_fails_loudly(self, tmp_path):
        """Chunk-size drift is rejected with a message that tells the user
        exactly how to recover (resume with the original chunk size)."""
        spec = small_spec()
        run_campaign(spec, tmp_path, chunk_size=2, max_chunks=1)
        with pytest.raises(
            ExperimentError,
            match="resume with the chunk size the campaign was started with",
        ):
            run_campaign(spec, tmp_path, chunk_size=4)

    def test_store_refuses_foreign_spec(self, tmp_path):
        spec = small_spec()
        progress = run_campaign(spec, tmp_path, chunk_size=3)
        other = spec.derive(seed=999)
        with pytest.raises(ExperimentError):
            CampaignState(progress.state.directory, other)

    def test_duplicate_chunk_append_rejected(self, tmp_path):
        spec = small_spec(noise=None)
        progress = run_campaign(spec, tmp_path, chunk_size=3)
        with pytest.raises(ExperimentError):
            progress.state.append_chunk(0, 0, 3, [])

    def test_renamed_spec_shares_results(self, tmp_path):
        spec = small_spec()
        run_campaign(spec, tmp_path, chunk_size=3)
        renamed = spec.derive(name="renamed-space")
        progress = run_campaign(renamed, tmp_path, chunk_size=3)
        assert progress.finished and progress.completed_before == progress.total_chunks


class TestAggregation:
    def test_aggregate_rows_statistics(self):
        rows = [
            {"platform": i, "size": 40, "values": {"INC_C lp": float(i)}} for i in range(5)
        ]
        aggregated = aggregate_rows(rows, quantiles=(0.5,))
        cell = aggregated["INC_C lp"][40]
        assert cell["count"] == 5
        assert cell["mean"] == 2.0
        assert cell["min"] == 0.0 and cell["max"] == 4.0
        assert cell["q50"] == float(np.quantile(np.arange(5.0), 0.5))

    def test_aggregate_figure_renders_means(self, tmp_path):
        spec = small_spec()
        progress = run_campaign(spec, tmp_path, chunk_size=3)
        figure = aggregate_figure(spec, progress.aggregate())
        table = figure.format_table()
        assert "INC_C lp" in table and "LIFO real" in table
        assert figure.value("INC_C lp", 40) == 1.0

    def test_store_lists_campaigns(self, tmp_path):
        spec = small_spec()
        run_campaign(spec, tmp_path, chunk_size=3)
        store = CampaignStore(tmp_path)
        campaigns = store.campaigns()
        assert len(campaigns) == 1
        assert campaigns[0][0] == spec_hash(spec)
        assert campaigns[0][1].name == spec.name


class TestStreamingStore:
    """The store is an index, not a cache: rows live on disk and are
    streamed back chunk by chunk for reads, aggregation and export."""

    def test_streaming_aggregate_matches_row_list_aggregate(self, tmp_path):
        spec = small_spec()
        progress = run_campaign(spec, tmp_path, chunk_size=2)
        state = progress.state
        assert state.aggregate() == aggregate_rows(state.rows())
        assert state.aggregate(quantiles=(0.25,)) == aggregate_rows(
            state.rows(), quantiles=(0.25,)
        )

    def test_reopened_state_serves_rows_from_disk(self, tmp_path):
        spec = small_spec()
        progress = run_campaign(spec, tmp_path, chunk_size=2)
        reopened = CampaignState(progress.state.directory, spec)
        assert reopened.rows() == progress.rows()
        assert reopened.row_count() == len(progress.rows())
        assert reopened.covered_platforms() == spec.family.count
        for index in sorted(reopened.completed_chunks):
            assert reopened.chunk_rows(index) == progress.state.chunk_rows(index)
        chunks = dict(reopened.iter_chunk_rows())
        assert sorted(chunks) == sorted(reopened.completed_chunks)

    def test_chunk_rows_for_missing_chunk_raises(self, tmp_path):
        spec = small_spec()
        progress = run_campaign(spec, tmp_path, chunk_size=3, max_chunks=1)
        with pytest.raises(ExperimentError, match="not persisted"):
            progress.state.chunk_rows(99)

    def test_export_npz_normalises_suffix(self, tmp_path):
        """np.savez silently appends .npz; the reported path must name the
        file that actually exists."""
        spec = small_spec()
        progress = run_campaign(spec, tmp_path / "store", chunk_size=3)
        summary = progress.state.export_npz(tmp_path / "columns")
        assert summary["path"].endswith("columns.npz")
        assert (tmp_path / "columns.npz").exists()

    def test_export_npz_round_trips_columns(self, tmp_path):
        spec = small_spec()
        progress = run_campaign(spec, tmp_path / "store", chunk_size=2)
        path = tmp_path / "out.npz"
        summary = progress.state.export_npz(path)
        rows = progress.rows()
        assert summary["rows"] == len(rows)

        with np.load(path) as archive:
            assert archive["platform"].tolist() == [row["platform"] for row in rows]
            assert archive["size"].tolist() == [row["size"] for row in rows]
            series_names = set(rows[0]["values"])
            assert set(summary["series"]) == series_names
            for series in series_names:
                column = archive[series]
                assert column.tolist() == [row["values"][series] for row in rows]
            from repro.scenarios.spec import ScenarioSpec

            stored = ScenarioSpec.from_json(str(archive["spec"]))
            assert spec_hash(stored) == spec_hash(spec)
