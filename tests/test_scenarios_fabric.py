"""Tests for the lease protocol and the coordinator's local workers.

The load-bearing guarantee: for every deterministic fault-injection
schedule in the matrix — crash-before-fsync (torn write), crash-after-
append, hang + lease expiry, poisoned chunk, abandoned lease — a
coordinator run with local workers (followed by heal + merge where the
schedule leaves leftovers) produces a ``chunks.jsonl`` **byte-identical**
to an uninterrupted single-writer campaign, and bit-identical aggregates.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time

import pytest

from repro.exceptions import ExperimentError
from repro.scenarios import detached
from repro.scenarios.detached import run_detached_campaign
from repro.scenarios.fabric import (
    ChunkFault,
    CoordinatorJournal,
    FaultInjector,
    FaultPolicy,
    Lease,
    heal_campaign,
    lease_directory,
    merge_worker_stores,
    read_fences,
    read_lease,
    read_leases,
    worker_directory,
)
from repro.scenarios.runner import evaluate_range, run_campaign
from repro.scenarios.spec import named_space, spec_hash
from repro.scenarios.store import CampaignState, MergeReport


def small_spec(name="fabric-small", count=6, sizes=(40, 120), noise=None):
    return named_space("fig12").derive(name=name, count=count, matrix_sizes=sizes, noise=noise)


def fast_policy(**overrides):
    """Short leases and skew slack, so expiries cost ~2 s, not ~62 s."""
    defaults = dict(
        max_attempts=3,
        timeout=1.5,
        poll_interval=0.02,
        skew_slack=0.3,
    )
    defaults.update(overrides)
    return FaultPolicy(**defaults)


def _exit_3(*args, **kwargs):
    raise SystemExit(3)


_work_loop = detached.work_loop


def _one_chunk_then_exit_3(*args, **kwargs):
    """A worker that appends one chunk, releases it, then dies."""
    _work_loop(*args, **{**kwargs, "max_chunks": 1})
    raise SystemExit(3)


def run_local(spec, store, workers=2, policy=None, **kwargs):
    """A coordinator run with local workers, bounded so a bug cannot hang."""
    return run_detached_campaign(
        spec, store, chunk_size=kwargs.pop("chunk_size", 2), workers=workers,
        policy=policy or fast_policy(), wait_timeout=120.0, **kwargs,
    )


@pytest.fixture
def keep_scaffolding(monkeypatch):
    """Keep a finished campaign's leases and fences on disk for inspection."""
    monkeypatch.setattr(detached, "_cleanup_if_complete", lambda state, total: None)


def store_bytes(root, spec):
    return (root / spec_hash(spec) / "chunks.jsonl").read_bytes()


class TestFaultPolicy:
    def test_validation(self):
        with pytest.raises(ExperimentError, match="max_attempts"):
            FaultPolicy(max_attempts=0)
        with pytest.raises(ExperimentError, match="timeout"):
            FaultPolicy(timeout=0.0)
        with pytest.raises(ExperimentError, match="skew_slack"):
            FaultPolicy(skew_slack=-1.0)


class TestFaultInjector:
    def test_from_spec_explicit(self):
        injector = FaultInjector.from_spec("crash-pre@2,hang@1:1,poison@3")
        assert injector.worker_fault(2, 0) == "crash-pre"
        assert injector.worker_fault(2, 1) is None  # crash fires once
        assert injector.worker_fault(1, 0) is None
        assert injector.worker_fault(1, 1) == "hang"
        # Poison defaults to every attempt.
        assert injector.worker_fault(3, 0) == "poison"
        assert injector.worker_fault(3, 5) == "poison"

    def test_from_spec_abandon_is_a_worker_fault(self):
        injector = FaultInjector.from_spec("abandon@4")
        assert injector.worker_fault(4, 0) == "abandon"
        assert injector.worker_fault(4, 1) is None  # the re-issued lease runs

    def test_from_spec_rejects_unknown_kind_and_bad_target(self):
        with pytest.raises(ExperimentError, match="unknown fault kind"):
            FaultInjector.from_spec("meteor@1")
        with pytest.raises(ExperimentError, match="kind@chunk"):
            FaultInjector.from_spec("crash-pre")
        with pytest.raises(ExperimentError, match="invalid fault target"):
            FaultInjector.from_spec("hang@x")

    def test_seeded_schedule_is_deterministic_and_rate_bounded(self):
        injector = FaultInjector.seeded(7, 0.5)
        again = FaultInjector.seeded(7, 0.5)
        schedule = [injector.worker_fault(chunk, 0) for chunk in range(100)]
        assert schedule == [again.worker_fault(chunk, 0) for chunk in range(100)]
        faulted = sum(1 for kind in schedule if kind)
        assert 20 <= faulted <= 80  # ~rate, deterministic either way
        assert [injector.worker_fault(c, 0) for c in range(100)] == schedule

    def test_seeded_rate_validation(self):
        with pytest.raises(ExperimentError, match="rate"):
            FaultInjector.seeded(1, 1.5)

    def test_chunk_fault_rejects_unknown_kind(self):
        with pytest.raises(ExperimentError, match="unknown fault kind"):
            ChunkFault(kind="nope", chunk=0)


class TestLease:
    def test_round_trip(self, tmp_path):
        lease = Lease(chunk=3, start=6, stop=8, owner="w1", epoch=2,
                      granted_at=10.0, deadline=22.0, ttl=10.0)
        lease.write(tmp_path)
        assert Lease.read(lease.path(tmp_path)) == lease

    def test_lease_file_without_wall_clock_fields_reads_as_expired(self, tmp_path):
        """Lease files of older releases carried logical-tick deadlines
        only; nothing renews them any more, so they count as expired."""
        path = tmp_path / "chunk-000001.json"
        path.write_text(json.dumps({
            "chunk": 1, "start": 2, "stop": 4, "owner": "w0", "epoch": 0,
            "granted_tick": 3, "deadline_tick": 3000,
        }), encoding="utf-8")
        lease = read_lease(path)
        assert (lease.chunk, lease.owner, lease.deadline) == (1, "w0", None)
        assert lease.expired(now=0.0)

    def test_lease_file_with_a_heartbeat_stamp_still_reads(self, tmp_path):
        """Older releases also stamped ``heartbeat_at``; nothing renews a
        lease any more, so the stamp is ignored and never written."""
        path = tmp_path / "chunk-000002.json"
        path.write_text(json.dumps({
            "chunk": 2, "start": 4, "stop": 6, "owner": "w1", "epoch": 1,
            "granted_at": 10.0, "heartbeat_at": 12.0, "deadline": 20.0, "ttl": 10.0,
        }), encoding="utf-8")
        lease = read_lease(path)
        assert (lease.granted_at, lease.deadline, lease.ttl) == (10.0, 20.0, 10.0)
        assert not lease.expired(now=21.0, skew_slack=2.0)
        assert "heartbeat_at" not in lease.payload()


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    spec = small_spec()
    root = tmp_path_factory.mktemp("reference")
    progress = run_campaign(spec, root, chunk_size=2)
    assert progress.finished
    return spec, store_bytes(root, spec), progress.aggregate()


class TestFabricByteIdentity:
    """Every injected schedule converges to the single-writer bytes."""

    @pytest.mark.parametrize(
        "faults",
        [
            None,
            "crash-pre@0",
            "crash-post@1",
            "poison@2",
            "crash-pre@0,crash-post@1,poison@2",
        ],
        ids=["clean", "crash-before-fsync", "crash-after-append", "poisoned", "combined"],
    )
    def test_fabric_matches_single_writer(self, tmp_path, reference, faults):
        spec, expected, aggregates = reference
        progress = run_local(spec, tmp_path, faults=faults)
        assert progress.finished
        assert store_bytes(tmp_path, spec) == expected
        assert progress.aggregate() == aggregates
        # A finished fabric campaign leaves no worker stores or leases.
        assert not (progress.state.directory / "workers").exists()
        assert not lease_directory(progress.state).exists()

    def test_hang_expires_lease_and_converges(self, tmp_path, reference, keep_scaffolding):
        spec, expected, _ = reference
        progress = run_local(spec, tmp_path, policy=fast_policy(timeout=0.6), faults="hang@0")
        assert progress.finished
        # The hung lease was taken over (by a worker or the coordinator),
        # which always records a fence past the hung epoch.
        assert read_fences(progress.state).get(0, 0) >= 1
        assert store_bytes(tmp_path, spec) == expected

    def test_abandoned_lease_is_reissued(self, tmp_path, reference, keep_scaffolding):
        """abandon: the worker claims and walks away; the lease runs out
        and the chunk is re-issued under a bumped epoch."""
        spec, expected, _ = reference
        progress = run_local(spec, tmp_path, policy=fast_policy(timeout=0.6), faults="abandon@1")
        assert progress.finished
        assert read_fences(progress.state).get(1, 0) >= 1
        assert store_bytes(tmp_path, spec) == expected

    def test_poisoned_chunk_degrades_to_parent(self, tmp_path, reference, keep_scaffolding):
        spec, expected, _ = reference
        policy = fast_policy()
        progress = run_local(spec, tmp_path, policy=policy, faults="poison@1")
        assert progress.finished
        assert progress.degraded_chunks == [1]
        # Every worker attempt was spent before degrading: epochs 0 …
        # max_attempts - 1 were each leased and fenced off in turn.
        assert read_fences(progress.state)[1] >= policy.max_attempts - 1
        assert store_bytes(tmp_path, spec) == expected

    def test_seeded_schedule_converges(self, tmp_path, reference):
        spec, expected, _ = reference
        faults = FaultInjector.seeded(3, 0.7, kinds=("crash-pre", "crash-post", "poison"))
        progress = run_local(spec, tmp_path, workers=3, faults=faults)
        assert progress.finished
        assert store_bytes(tmp_path, spec) == expected

    def test_measured_space_matches_single_writer(self, tmp_path):
        """Noise-model campaigns (measured series) survive faults too."""
        spec = small_spec(name="fabric-noise", noise="default")
        single = run_campaign(spec, tmp_path / "single", chunk_size=2)
        assert single.finished
        progress = run_local(spec, tmp_path / "fabric", faults="crash-pre@1")
        assert progress.finished
        assert store_bytes(tmp_path / "fabric", spec) == store_bytes(tmp_path / "single", spec)


class TestLocalWorkerSupervision:
    """The coordinator's own workers: dead ones surrender their leases at
    once, hung ones run out of lease, budgets bound the work."""

    def test_hung_attempt_runs_out_of_lease_and_is_taken_over(
        self, tmp_path, monkeypatch, reference
    ):
        spec, expected, _ = reference
        ttl = 1.0
        seen_path = tmp_path / "seen.jsonl"
        leases_dir = tmp_path / "run" / spec_hash(spec) / "leases"
        real_evaluate = detached.evaluate_range

        def evaluate_or_hang(spec_, start, stop):
            # The first attempt anywhere hangs for 3 TTLs (no injected
            # fault: its lease watcher is alive), logging its lease.
            try:
                os.close(os.open(tmp_path / "hung", os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                return real_evaluate(spec_, start, stop)
            path = leases_dir / f"chunk-{start // 2:06d}.json"
            until = time.monotonic() + 3 * ttl
            with open(seen_path, "a", encoding="utf-8") as handle:
                while time.monotonic() < until:
                    lease = read_lease(path) if path.exists() else None
                    record = dataclasses.asdict(lease) if lease is not None else None
                    handle.write(json.dumps(record) + "\n")
                    handle.flush()
                    time.sleep(0.05)
            return real_evaluate(spec_, start, stop)

        monkeypatch.setattr(detached, "evaluate_range", evaluate_or_hang)
        progress = run_local(
            spec, tmp_path / "run", policy=fast_policy(timeout=ttl, skew_slack=0.1)
        )
        assert progress.finished
        assert store_bytes(tmp_path / "run", spec) == expected
        seen = [json.loads(line) for line in seen_path.read_text().splitlines()]
        first = seen[0]
        assert first["epoch"] == 0
        hung = [
            lease for lease in seen
            if lease is not None and (lease["owner"], lease["epoch"]) == (first["owner"], 0)
        ]
        # The deadline never advanced: it stayed one TTL past the grant ...
        assert {lease["deadline"] for lease in hung} == {first["granted_at"] + ttl}
        # ... and while the attempt was still hung, its lease was taken
        # over (re-issued under a bumped epoch, then released as done).
        assert len(hung) < len(seen)

    def test_crashed_worker_lease_is_surrendered_not_waited_out(self, tmp_path, reference):
        spec, expected, _ = reference
        began = time.monotonic()
        progress = run_local(spec, tmp_path, policy=FaultPolicy(timeout=30), faults="crash-pre@0")
        elapsed = time.monotonic() - began
        assert progress.finished
        assert elapsed < 10.0  # a 30 s lease (+2 s slack) was not waited out
        assert progress.expired_leases >= 1 and progress.retries >= 1
        assert store_bytes(tmp_path, spec) == expected

    @pytest.mark.parametrize("faults", ["crash-pre@0", "crash-post@0"])
    def test_lone_dead_worker_is_restarted_under_its_owner(self, tmp_path, reference, faults):
        """With one worker, only its restart can finish the campaign; a
        crash-pre restart repairs the torn tail its prior life left."""
        spec, expected, _ = reference
        progress = run_local(spec, tmp_path, workers=1, faults=faults)
        assert progress.finished
        assert store_bytes(tmp_path, spec) == expected

    def test_worker_crashing_on_every_start_stops_the_run(self, tmp_path, monkeypatch):
        """An unbudgeted worker that dies at every start is restarted
        ``max_attempts`` times, then the coordinator gives up loudly."""
        # The fork context inherits the patched module global.
        monkeypatch.setattr(detached, "work_loop", _exit_3)
        policy = fast_policy(max_attempts=2)
        with pytest.raises(ExperimentError, match=r"w0 exited 3 after 2 restarts.*scenarios heal"):
            run_local(small_spec(), tmp_path, workers=1, policy=policy)

    def test_worker_crashing_on_many_chunks_converges(self, tmp_path, reference):
        """Deaths while holding a lease spend their chunks' attempts, not
        the owner's restarts: one worker crashing on more chunks than
        ``max_attempts`` still finishes the campaign."""
        spec, expected, _ = reference
        policy = fast_policy(max_attempts=2)
        progress = run_local(
            spec, tmp_path, workers=1, policy=policy,
            faults="crash-pre@0,crash-pre@1,crash-pre@2",
        )
        assert progress.finished
        assert progress.expired_leases == 3
        assert store_bytes(tmp_path, spec) == expected

    def test_worker_dying_after_each_append_converges(self, tmp_path, monkeypatch, reference):
        """A death after an append (no lease left) made progress: it
        refills the owner's restarts instead of spending one."""
        spec, expected, _ = reference
        monkeypatch.setattr(detached, "work_loop", _one_chunk_then_exit_3)
        progress = run_local(spec, tmp_path, workers=1, policy=fast_policy(max_attempts=1))
        assert progress.finished
        assert store_bytes(tmp_path, spec) == expected

    def test_dead_worker_durable_chunk_is_not_fenced(self, tmp_path, monkeypatch):
        """A worker that dies after its append but before the coordinator
        merges has made its chunk durable: the dead worker's lease on it is
        left alone, not fenced, so its bytes merge instead of the chunk
        being evaluated again."""
        spec = small_spec()
        real_merge = detached.merge_worker_stores
        # The coordinator never merges during the run, so the crash always
        # falls between a merge and the dead-worker check.
        monkeypatch.setattr(detached, "merge_worker_stores", lambda state: MergeReport())
        progress = run_local(spec, tmp_path, workers=1, max_chunks=1, faults="crash-post@0")
        assert progress.expired_leases == 0
        assert read_fences(progress.state) == {}
        assert real_merge(progress.state).added == [0]

    def test_zero_budget_starts_no_worker(self, tmp_path):
        progress = run_local(small_spec(), tmp_path, max_chunks=0)
        assert progress.completed_after == progress.completed_before == 0
        assert not (progress.state.directory / "workers").exists()

    def test_max_chunks_budget_persists_exactly_that_many(self, tmp_path, reference):
        """max_chunks-bounded local workers + single-writer resume ==
        uninterrupted bytes (the two writers interleave cleanly)."""
        spec, expected, _ = reference
        partial = run_local(spec, tmp_path, max_chunks=2)
        assert not partial.finished
        assert partial.completed_after - partial.completed_before == 2
        resumed = run_campaign(spec, tmp_path, chunk_size=2)
        assert resumed.finished
        assert store_bytes(tmp_path, spec) == expected


class TestAbandonedLeasesAndHeal:
    def test_heal_recovers_abandoned_lease_byte_identically(self, tmp_path):
        spec = small_spec()
        reference = run_campaign(spec, tmp_path / "ref", chunk_size=2)
        # One budgeted worker: chunks 0 and 1 done, chunk 2 claimed and
        # walked away from.  The coordinator returns when the worker's
        # budget is spent, leaving the abandoned lease.
        partial = run_local(
            spec, tmp_path / "chaos", workers=1, max_chunks=3,
            policy=fast_policy(timeout=60.0), faults="abandon@2",
        )
        assert partial.completed_after == 2
        (lease,) = read_leases(partial.state)
        assert (lease.chunk, lease.owner, lease.stop - lease.start) == (2, "w0", 2)
        # Once that lease has run out, heal re-evaluates its chunk.
        dataclasses.replace(lease, deadline=time.time() - 60.0).write(
            lease_directory(partial.state)
        )
        report = heal_campaign(spec, tmp_path / "chaos", chunk_size=2)
        assert report.complete
        assert report.healed_chunks == [2]
        assert store_bytes(tmp_path / "chaos", spec) == store_bytes(tmp_path / "ref", spec)
        assert report.state.rows() == reference.rows()
        # Healing cleans up: no leases, no worker stores.
        assert not lease_directory(report.state).exists()
        assert not (report.state.directory / "workers").exists()

    def test_heal_on_clean_store_is_a_no_op(self, tmp_path):
        spec = small_spec()
        run_campaign(spec, tmp_path, chunk_size=2)
        before = store_bytes(tmp_path, spec)
        report = heal_campaign(spec, tmp_path, chunk_size=2)
        assert report.complete
        assert report.healed_chunks == []
        assert store_bytes(tmp_path, spec) == before

    def test_heal_recovers_dead_coordinator_leftovers(self, tmp_path):
        """Simulated coordinator death: canonical holds chunk 0, a worker
        store holds chunk 1 (crash-after-append), chunk 2 is leased but
        lost.  Heal must reassemble the single-writer bytes."""
        spec = small_spec()
        reference = run_campaign(spec, tmp_path / "ref", chunk_size=2)

        from repro.scenarios.store import CampaignStore

        state = CampaignStore(tmp_path / "dead").campaign(spec)
        state.append_chunk(0, 0, 2, evaluate_range(spec, 0, 2))
        worker = CampaignState(worker_directory(state, "w0"), spec)
        worker.append_chunk(1, 2, 4, evaluate_range(spec, 2, 4))
        lease_directory(state).mkdir(parents=True)
        Lease(chunk=2, start=4, stop=6, owner="w1", epoch=0).write(lease_directory(state))

        report = heal_campaign(spec, tmp_path / "dead", chunk_size=2)
        assert report.complete
        assert report.healed_chunks == [2]
        assert store_bytes(tmp_path / "dead", spec) == store_bytes(tmp_path / "ref", spec)
        assert report.state.rows() == reference.rows()

    def test_local_workers_continue_single_writer_campaign(self, tmp_path):
        spec = small_spec()
        run_campaign(spec, tmp_path / "ref", chunk_size=2)
        run_campaign(spec, tmp_path / "mixed", chunk_size=2, max_chunks=1)
        progress = run_local(spec, tmp_path / "mixed")
        assert progress.finished
        assert store_bytes(tmp_path / "mixed", spec) == store_bytes(tmp_path / "ref", spec)

    def test_coordinator_rejects_chunk_size_drift(self, tmp_path):
        spec = small_spec()
        run_campaign(spec, tmp_path, chunk_size=2, max_chunks=1)
        with pytest.raises(ExperimentError, match="chunk size"):
            run_local(spec, tmp_path, chunk_size=3)

    def test_coordinator_validates_worker_count_and_budget(self, tmp_path):
        with pytest.raises(ExperimentError, match="workers"):
            run_detached_campaign(small_spec(), tmp_path, workers=-1)
        with pytest.raises(ExperimentError, match="max_chunks"):
            run_detached_campaign(small_spec(), tmp_path, max_chunks=2)


class TestMergeWorkerStores:
    def test_merge_picks_up_worker_leftovers(self, tmp_path):
        spec = small_spec()
        from repro.scenarios.store import CampaignStore

        state = CampaignStore(tmp_path).campaign(spec)
        worker = CampaignState(worker_directory(state, "w3"), spec)
        worker.append_chunk(0, 0, 2, evaluate_range(spec, 0, 2))
        report = merge_worker_stores(state)
        assert report.added == [0]
        assert state.completed_chunks == {0}

    def test_merge_recovers_torn_worker_tail(self, tmp_path):
        """A worker killed mid-append leaves a torn tail in *its* store;
        the merge reads it through a read-only snapshot, merges the
        survivors and leaves the source bytes unchanged (the worker's own
        reopen repairs its tail)."""
        spec = small_spec()
        from repro.scenarios.store import CampaignStore

        state = CampaignStore(tmp_path).campaign(spec)
        worker = CampaignState(worker_directory(state, "w0"), spec)
        worker.append_chunk(0, 0, 2, evaluate_range(spec, 0, 2))
        with open(worker.chunks_path, "a", encoding="utf-8") as handle:
            handle.write('{"chunk": 1, "start": 2, "rows": [{"pla')
        source = worker.chunks_path.read_bytes()
        report = merge_worker_stores(state)
        assert report.added == [0]
        assert state.completed_chunks == {0}
        assert worker.chunks_path.read_bytes() == source


class TestHealReadsTheChunkPlan:
    """heal takes the chunk size the campaign directory records."""

    @staticmethod
    def partial_campaign(tmp_path, advert=True):
        """Five chunks of two platforms, three canonical, no leases."""
        from repro.scenarios.detached import FabricAdvert

        spec = small_spec(count=10)
        progress = run_campaign(spec, tmp_path, chunk_size=2, max_chunks=3)
        if advert:
            FabricAdvert(chunk_size=2, total_chunks=5, ttl=60.0).write(
                progress.state.directory
            )
        return spec

    @pytest.mark.parametrize("advert", [True, False])
    def test_heal_without_chunk_size_counts_missing_chunks(self, tmp_path, advert):
        spec = self.partial_campaign(tmp_path, advert=advert)
        report = heal_campaign(spec, tmp_path)
        assert report.missing_chunks == 2
        assert not report.complete
        assert "2 chunk(s) still missing" in report.describe()

    def test_contradicting_chunk_size_names_both_values(self, tmp_path):
        spec = self.partial_campaign(tmp_path)
        with pytest.raises(ExperimentError, match="chunk size 3 .* chunk size 2"):
            heal_campaign(spec, tmp_path, chunk_size=3)
        # A size that yields the recorded plan is accepted.
        assert heal_campaign(spec, tmp_path, chunk_size=2).missing_chunks == 2

    def test_single_chunk_campaign_accepts_any_covering_size(self, tmp_path):
        """Chunk 0 of a one-chunk plan only bounds the chunk size from
        below: every size that yields the same plan agrees with it."""
        spec = small_spec(count=6)
        run_campaign(spec, tmp_path)  # the default chunk size: one chunk
        report = heal_campaign(spec, tmp_path, chunk_size=100)
        assert report.complete
        with pytest.raises(ExperimentError, match="chunk size 2"):
            heal_campaign(spec, tmp_path, chunk_size=2)

    def test_cli_merge_and_heal_read_the_chunk_size(self, tmp_path, capsys):
        from repro.cli import main

        spec = self.partial_campaign(tmp_path / "store")
        path = tmp_path / "space.json"
        path.write_text(spec.to_json(), encoding="utf-8")
        argv = [str(path), "--store", str(tmp_path / "store")]
        assert main(["scenarios", "merge", *argv]) == 0
        out = capsys.readouterr().out
        assert "campaign incomplete" in out
        assert "--chunk-size 2" in out
        assert main(["scenarios", "heal", *argv]) == 0
        out = capsys.readouterr().out
        assert "2 chunk(s) still missing" in out
        assert "still incomplete" in out
        with pytest.raises(SystemExit):
            main(["scenarios", "heal", *argv, "--chunk-size", "3"])
        assert "contradicts the chunk size 2" in capsys.readouterr().err


    @pytest.mark.parametrize("verb", ["merge", "heal"])
    def test_resume_hint_targets_the_derived_space(self, tmp_path, capsys, verb):
        """For a derived space the printed resume command parses back to
        the same spec hash."""
        import shlex

        from repro.cli import build_parser, main
        from repro.scenarios import CampaignStore, named_space, spec_hash

        store = tmp_path / "store"
        argv = ["fig12", "--store", str(store), "--count", "9", "--seed", "5"]
        assert main(["scenarios", "run", *argv, "--chunk-size", "2", "--max-chunks", "1"]) == 0
        capsys.readouterr()
        assert main(["scenarios", verb, *argv]) == 0
        hint = next(
            line for line in capsys.readouterr().out.splitlines()
            if "scenarios resume" in line
        )
        args = build_parser().parse_args(shlex.split(hint)[1:])
        assert (args.count, args.seed, args.chunk_size) == (9, 5, 2)
        # Running the hint finishes this campaign instead of starting another.
        assert main(shlex.split(hint)[1:]) == 0
        derived = named_space("fig12").derive(count=9, seed=5)
        assert sorted(path.name for path in store.iterdir()) == [spec_hash(derived)]
        assert len(CampaignStore(store).campaign(derived).completed_chunks) == 5


class TestFaultSpecErrorPaths:
    """`from_spec` must name the offending term; valid specs round-trip."""

    @pytest.mark.parametrize(
        "text",
        [
            "bogus@x",
            "meteor@1",
            "hang@x",
            "random:1:-0.5",
            "random:1:1.5",
            "random:1:0.5:meteor",
            "random:9",
            "random:a:0.5",
            "skew:abc",
        ],
    )
    def test_malformed_terms_are_named(self, text):
        # The failing term itself appears in the message (the spec may
        # hold several comma-separated terms; the user needs to know
        # which one was rejected).
        offending = text.split(",")[0]
        with pytest.raises(ExperimentError) as excinfo:
            FaultInjector.from_spec(text)
        message = str(excinfo.value)
        assert offending in message or offending.partition("@")[0] in message

    def test_negative_rate_is_rejected_with_term(self):
        with pytest.raises(ExperimentError, match=r"random:1:-0\.5"):
            FaultInjector.from_spec("crash-pre@0,random:1:-0.5")

    def test_out_of_range_rate_is_rejected_with_term(self):
        with pytest.raises(ExperimentError, match=r"random:2:1\.5"):
            FaultInjector.from_spec("random:2:1.5")

    @pytest.mark.parametrize(
        "text",
        [
            "crash-pre@0",
            "poison@3",
            "hang@1:1",
            "crash-post@4:*",
            "partition@1",
            "zombie@2",
            "random:7:0.25",
            "random:7:0.5:hang+poison",
            "skew:1.5",
            "skew:-2.0",
            "crash-pre@0,hang@2:1,random:3:0.1,skew:0.75",
        ],
    )
    def test_valid_specs_round_trip_through_str(self, text):
        injector = FaultInjector.from_spec(text)
        assert FaultInjector.from_spec(str(injector)) == injector

    def test_canonical_str_is_stable(self):
        injector = FaultInjector.from_spec(" crash-pre@0 , poison@3 ,random:7:0.5")
        assert str(FaultInjector.from_spec(str(injector))) == str(injector)


class TestTornLeaseFiles:
    """Satellite: a torn lease JSON must never crash the coordinator."""

    def test_read_leases_skips_unreadable_files(self, tmp_path, caplog):
        import logging

        from repro.scenarios.store import CampaignStore

        spec = small_spec()
        state = CampaignStore(tmp_path).campaign(spec)
        leases_dir = lease_directory(state)
        leases_dir.mkdir(parents=True)
        good = Lease(chunk=1, start=2, stop=4, owner="w0", epoch=0,
                     granted_at=1.0, deadline=100.0, ttl=99.0)
        good.write(leases_dir)
        (leases_dir / "chunk-000000.json").write_text('{"chunk": 0, "sta', encoding="utf-8")
        with caplog.at_level(logging.WARNING, logger="repro.scenarios.fabric"):
            leases = read_leases(state)
        assert [lease.chunk for lease in leases] == [1]
        assert any("unreadable lease" in record.message for record in caplog.records)

    def test_heal_treats_torn_lease_as_expired(self, tmp_path):
        """The torn lease's chunk is recovered from the chunk plan."""
        from repro.scenarios.store import CampaignStore

        spec = small_spec()
        run_campaign(spec, tmp_path / "ref", chunk_size=2)
        run_campaign(spec, tmp_path / "torn", chunk_size=2, max_chunks=2)
        state = CampaignStore(tmp_path / "torn").campaign(spec)
        leases_dir = lease_directory(state)
        leases_dir.mkdir(parents=True)
        (leases_dir / "chunk-000002.json").write_text("{garbled", encoding="utf-8")
        report = heal_campaign(spec, tmp_path / "torn", chunk_size=2)
        assert report.complete
        assert 2 in report.healed_chunks
        assert store_bytes(tmp_path / "torn", spec) == store_bytes(tmp_path / "ref", spec)


class TestMergeFencing:
    """Satellite: stale-epoch chunks are fenced out, re-issued ones merge."""

    def _worker_with_chunk(self, state, owner, epoch, spec):
        worker = CampaignState(worker_directory(state, owner), spec)
        worker.append_chunk(0, 0, 2, evaluate_range(spec, 0, 2), epoch=epoch)
        return worker

    def test_fenced_chunk_is_rejected_loudly_by_default(self, tmp_path):
        from repro.scenarios.fabric import record_fence
        from repro.scenarios.store import CampaignStore

        spec = small_spec()
        state = CampaignStore(tmp_path).campaign(spec)
        zombie = self._worker_with_chunk(state, "zombie", epoch=0, spec=spec)
        record_fence(state, 0, 1)
        from repro.scenarios.fabric import read_fences

        with pytest.raises(ExperimentError, match="fenced"):
            state.merge(zombie, fences=read_fences(state))

    def test_reissued_epoch_merges_cleanly_over_fenced_copy(self, tmp_path):
        from repro.scenarios.fabric import read_fences, record_fence
        from repro.scenarios.store import CampaignStore

        spec = small_spec()
        run_campaign(spec, tmp_path / "ref", chunk_size=2, max_chunks=1)
        state = CampaignStore(tmp_path / "fab").campaign(spec)
        self._worker_with_chunk(state, "zombie", epoch=0, spec=spec)
        self._worker_with_chunk(state, "taker", epoch=1, spec=spec)
        record_fence(state, 0, 1)
        report = merge_worker_stores(state)
        assert report.fenced == [0]
        assert report.added == [0]
        assert state.completed_chunks == {0}
        # The canonical bytes are the single-writer bytes either way.
        assert (state.chunks_path.read_bytes()
                == store_bytes(tmp_path / "ref", spec))

    def test_unfenced_epochless_chunks_stay_trusted(self, tmp_path):
        """Single-writer/degraded stores carry no epoch metadata."""
        from repro.scenarios.fabric import record_fence
        from repro.scenarios.store import CampaignStore

        spec = small_spec()
        state = CampaignStore(tmp_path).campaign(spec)
        worker = CampaignState(worker_directory(state, "degraded"), spec)
        worker.append_chunk(0, 0, 2, evaluate_range(spec, 0, 2))  # no epoch
        record_fence(state, 0, 5)
        report = merge_worker_stores(state)
        assert report.added == [0]
        assert report.fenced == []


class TestWallClockLease:
    def test_wall_clock_round_trip(self, tmp_path):
        lease = Lease(chunk=2, start=4, stop=6, owner="host-1", epoch=3,
                      granted_at=100.0, deadline=115.0, ttl=10.0)
        lease.write(tmp_path)
        assert Lease.read(lease.path(tmp_path)) == lease

    def test_expiry_honours_skew_slack(self):
        lease = Lease(chunk=0, start=0, stop=2, owner="w", epoch=0,
                      granted_at=0.0, deadline=10.0, ttl=10.0)
        assert not lease.expired(now=10.5, skew_slack=2.0)
        assert not lease.expired(now=12.0, skew_slack=2.0)
        assert lease.expired(now=12.1, skew_slack=2.0)

    def test_reissued_bumps_epoch_and_owner(self):
        lease = Lease(chunk=0, start=0, stop=2, owner="w", epoch=1,
                      granted_at=0.0, deadline=10.0, ttl=10.0)
        taken = lease.reissued("taker", now=20.0, ttl=5.0)
        assert taken.owner == "taker"
        assert taken.epoch == 2
        assert taken.deadline == 25.0


class TestCoordinatorJournal:
    def test_replay_reconstructs_counters(self, tmp_path):
        from repro.scenarios.store import CampaignStore

        spec = small_spec()
        state = CampaignStore(tmp_path).campaign(spec)
        journal = CoordinatorJournal(state)
        journal.append("plan", total_chunks=3, chunk_size=2, pending=3)
        journal.append("requeue", chunk=1, attempt=0, fence=1, reason="crash")
        journal.append("expire", chunk=2, owner="w0", epoch=0)
        journal.append("requeue", chunk=2, attempt=0, fence=1, reason="lease expired")
        journal.append("degrade", chunk=1)
        journal.append("complete", total_chunks=3)
        replayed = journal.replay()
        assert replayed.retries == 2
        assert replayed.expired_leases == 1
        assert replayed.degraded_chunks == [1]
        assert replayed.fences == {1: 1, 2: 1}
        assert replayed.completed
        assert replayed.plan["total_chunks"] == 3

    def test_replay_tolerates_torn_tail_line(self, tmp_path, caplog):
        import logging

        from repro.scenarios.store import CampaignStore

        state = CampaignStore(tmp_path).campaign(small_spec())
        journal = CoordinatorJournal(state)
        journal.append("plan", total_chunks=1)
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"event": "requeue", "chu')
        with caplog.at_level(logging.WARNING, logger="repro.scenarios.fabric"):
            replayed = journal.replay()
        assert replayed.plan is not None
        assert replayed.retries == 0

    def test_local_worker_run_journals_its_decisions(self, tmp_path):
        spec = small_spec()
        progress = run_local(spec, tmp_path, faults="poison@2")
        assert progress.finished
        journal = CoordinatorJournal(progress.state)
        assert journal.exists()  # kept even after cleanup: the flight record
        replayed = journal.replay()
        assert replayed.retries == progress.retries
        assert replayed.degraded_chunks == progress.degraded_chunks == [2]
        assert replayed.completed


class TestHealLiveLeases:
    def test_heal_skips_live_wall_clock_leases(self, tmp_path):
        import time as time_module

        from repro.scenarios.store import CampaignStore

        spec = small_spec()
        run_campaign(spec, tmp_path, chunk_size=2, max_chunks=2)
        state = CampaignStore(tmp_path).campaign(spec)
        leases_dir = lease_directory(state)
        leases_dir.mkdir(parents=True)
        now = time_module.time()
        live = Lease(chunk=2, start=4, stop=6, owner="far-machine", epoch=0,
                     granted_at=now, deadline=now + 60.0, ttl=60.0)
        live.write(leases_dir)
        report = heal_campaign(spec, tmp_path, chunk_size=2)
        assert report.live_leases == [2]
        assert report.healed_chunks == []
        assert live.path(leases_dir).exists()
        assert "live lease" in report.describe()
        # Once the lease has expired (well past deadline + slack), heal
        # reclaims the chunk.
        dead = Lease(chunk=2, start=4, stop=6, owner="far-machine", epoch=0,
                     granted_at=now - 120,
                     deadline=now - 60.0, ttl=60.0)
        dead.write(leases_dir)
        report = heal_campaign(spec, tmp_path, chunk_size=2)
        assert report.live_leases == []
        assert report.healed_chunks == [2]
        assert report.complete
