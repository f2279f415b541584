"""Tests for the detached (multi-machine) campaign fabric tier.

The load-bearing guarantee, extended to the machine-fault matrix: a
campaign driven by detached ``work_loop`` workers over one shared
directory — under crashes, hangs, partitions, zombie writers with stale
epochs, skewed clocks, and a coordinator kill + restart — produces a
``chunks.jsonl`` byte-identical to an uninterrupted single-writer run.

Workers run as real forked processes where a fault must kill them
(crash-pre/crash-post call ``os._exit``); protocol primitives (claims,
takeovers, guarded release, takeover detection) are tested single-process
for determinism.
"""

from __future__ import annotations

import json
import multiprocessing
import threading
import time

import pytest

from repro.exceptions import ExperimentError
from repro.scenarios.detached import (
    DetachedProgress,
    FabricAdvert,
    WorkerReport,
    _claim_backoff,
    _claim_lease,
    _claim_next,
    _LeaseWatch,
    _lease_lost,
    _observed_chunks,
    _release_lease,
    _take_over_lease,
    _work_one_chunk,
    default_owner,
    plan_chunks_from_advert,
    run_detached_campaign,
    work_loop,
)
from repro.scenarios.fabric import (
    FaultPolicy,
    Lease,
    heal_campaign,
    lease_directory,
    merge_worker_stores,
    read_fences,
    record_fence,
    worker_directory,
)
from repro.scenarios.runner import evaluate_range, run_campaign
from repro.scenarios.spec import named_space, spec_hash
from repro.scenarios.store import CampaignState, CampaignStore


def small_spec(name="detached-small", count=6, sizes=(40, 120)):
    return named_space("fig12").derive(name=name, count=count, matrix_sizes=sizes)


def fast_policy(**overrides):
    defaults = dict(
        max_attempts=3,
        timeout=1.5,
        poll_interval=0.05,
        skew_slack=0.4,
    )
    defaults.update(overrides)
    return FaultPolicy(**defaults)


def store_bytes(root, spec):
    return (root / spec_hash(spec) / "chunks.jsonl").read_bytes()


def spawn_worker(campaign_dir, owner, faults=None, max_chunks=None, wait=30.0):
    context = multiprocessing.get_context("fork")
    process = context.Process(
        target=work_loop,
        args=(str(campaign_dir),),
        kwargs=dict(owner=owner, faults=faults, poll=0.05, wait=wait, max_chunks=max_chunks),
        daemon=True,
    )
    process.start()
    return process


def reap(*processes, timeout=60.0):
    for process in processes:
        process.join(timeout=timeout)
        if process.is_alive():
            process.terminate()
            process.join(timeout=5.0)


@pytest.fixture()
def reference(tmp_path):
    spec = small_spec()
    run_campaign(spec, tmp_path / "ref", chunk_size=2)
    return spec, store_bytes(tmp_path / "ref", spec)


def bootstrap_campaign(tmp_path, spec, ttl=1.5, skew_slack=0.4, max_attempts=3):
    """A campaign directory with spec + advert, as a coordinator leaves it."""
    store = CampaignStore(tmp_path / "shared")
    state = store.campaign(spec)
    lease_directory(state).mkdir(parents=True, exist_ok=True)
    FabricAdvert(
        chunk_size=2, total_chunks=3, ttl=ttl,
        skew_slack=skew_slack, max_attempts=max_attempts,
    ).write(state.directory)
    return store, state


class TestAdvert:
    def test_round_trip(self, tmp_path):
        advert = FabricAdvert(chunk_size=5, total_chunks=7, ttl=2.5,
                              skew_slack=1.0, max_attempts=4)
        advert.write(tmp_path)
        assert FabricAdvert.read(tmp_path) == advert

    def test_absent_or_garbled_reads_as_none(self, tmp_path):
        assert FabricAdvert.read(tmp_path) is None
        (tmp_path / "fabric.json").write_text("{torn", encoding="utf-8")
        assert FabricAdvert.read(tmp_path) is None


class TestClaimProtocol:
    def make_lease(self, owner, epoch=0, deadline_offset=10.0):
        now = time.time()
        return Lease(chunk=0, start=0, stop=2, owner=owner, epoch=epoch,
                     granted_at=now,
                     deadline=now + deadline_offset, ttl=10.0)

    def test_exactly_one_claimant_wins_a_race(self, tmp_path):
        results = {}
        barrier = threading.Barrier(8)

        def claim(owner):
            barrier.wait()
            results[owner] = _claim_lease(tmp_path, self.make_lease(owner))

        threads = [threading.Thread(target=claim, args=(f"w{i}",)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sum(results.values()) == 1
        winner = next(owner for owner, won in results.items() if won)
        on_disk = Lease.read(tmp_path / "chunk-000000.json")
        assert on_disk.owner == winner
        # No temp droppings left behind.
        assert [p.name for p in tmp_path.iterdir()] == ["chunk-000000.json"]

    def test_exactly_one_takeover_wins_a_race(self, tmp_path):
        stale = self.make_lease("old", deadline_offset=-60.0)
        stale.write(tmp_path)
        results = {}
        barrier = threading.Barrier(6)

        def take(owner):
            barrier.wait()
            results[owner] = _take_over_lease(tmp_path, stale)

        threads = [threading.Thread(target=take, args=(f"w{i}",)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sum(results.values()) == 1
        assert not (tmp_path / "chunk-000000.json").exists()

    def test_guarded_release_never_deletes_a_takeover(self, tmp_path):
        mine = self.make_lease("zombie", epoch=0, deadline_offset=-60.0)
        mine.write(tmp_path)
        assert _take_over_lease(tmp_path, mine)
        taken = mine.reissued("taker", now=time.time(), ttl=10.0)
        taken.write(tmp_path)
        # The zombie tries to release the lease it believes it still holds.
        assert not _release_lease(tmp_path, mine)
        assert Lease.read(tmp_path / "chunk-000000.json").owner == "taker"
        assert _lease_lost(tmp_path, mine)
        # The rightful owner's release succeeds.
        assert _release_lease(tmp_path, taken)
        assert not (tmp_path / "chunk-000000.json").exists()

    def test_claims_and_takeovers_fix_the_deadline_one_ttl_past_the_grant(self, tmp_path):
        spec = small_spec()
        _, state = bootstrap_campaign(tmp_path, spec, ttl=1.5, skew_slack=0.4)
        advert = FabricAdvert.read(state.directory)
        plan = plan_chunks_from_advert(spec, advert)
        leases_dir = lease_directory(state)

        def claim(owner, moment):
            return _claim_next(
                leases_dir, plan, set(), read_fences(state), owner, advert,
                lambda: moment, WorkerReport(owner=owner),
            )

        first = claim("w0", 100.0)
        assert (first.chunk, first.epoch, first.granted_at, first.deadline) == (0, 0, 100.0, 101.5)
        # Long past that deadline (and the skew slack), w1 takes chunk 0 over.
        taken = claim("w1", 200.0)
        assert (taken.chunk, taken.owner, taken.epoch) == (0, "w1", 1)
        assert (taken.granted_at, taken.deadline) == (200.0, 201.5)
        assert Lease.read(taken.path(leases_dir)) == taken
        assert read_fences(state) == {0: 1}

    def test_claim_backoff_is_jittered_and_deterministic(self):
        delays = {_claim_backoff(f"w{i}", 3, 1.0) for i in range(16)}
        assert len(delays) > 8  # different owners spread out
        assert all(0.5 <= delay < 1.5 for delay in delays)
        assert _claim_backoff("w0", 3, 1.0) == _claim_backoff("w0", 3, 1.0)


class TestLeaseWatch:
    def test_watch_never_rewrites_the_lease(self, tmp_path):
        """The per-attempt budget: the deadline fixed at claim time stands,
        so a hung attempt's lease runs out one TTL after the grant."""
        now = time.time()
        lease = Lease(chunk=0, start=0, stop=2, owner="w0", epoch=0,
                      granted_at=now, deadline=now + 0.5, ttl=0.5)
        lease.write(tmp_path)
        before = (tmp_path / "chunk-000000.json").read_bytes()
        watch = _LeaseWatch(tmp_path, lease, interval=0.05).start()
        time.sleep(0.8)
        watch.stop()
        assert (tmp_path / "chunk-000000.json").read_bytes() == before
        assert Lease.read(tmp_path / "chunk-000000.json").expired(time.time(), skew_slack=0.0)
        assert not watch.fenced.is_set()

    def test_watch_detects_a_cleared_lease(self, tmp_path):
        """The coordinator clears a lease whose chunk went canonical
        elsewhere: the worker abandons its own copy before append time."""
        now = time.time()
        lease = Lease(chunk=0, start=0, stop=2, owner="w0", epoch=0,
                      granted_at=now, deadline=now + 10, ttl=10.0)
        lease.write(tmp_path)
        watch = _LeaseWatch(tmp_path, lease, interval=0.05).start()
        lease.path(tmp_path).unlink()
        assert watch.fenced.wait(timeout=2.0)
        watch.stop()

    def test_watch_detects_takeover_and_fences(self, tmp_path):
        now = time.time()
        lease = Lease(chunk=0, start=0, stop=2, owner="slow", epoch=0,
                      granted_at=now, deadline=now + 10, ttl=10.0)
        lease.write(tmp_path)
        watch = _LeaseWatch(tmp_path, lease, interval=0.05).start()
        lease.reissued("taker", now=time.time(), ttl=10.0).write(tmp_path)
        assert watch.fenced.wait(timeout=2.0)
        watch.stop()
        # The displaced watcher never touched the taker's lease.
        assert Lease.read(tmp_path / "chunk-000000.json").owner == "taker"


class TestObservedChunks:
    def test_fenced_worker_chunks_do_not_count_as_done(self, tmp_path):
        spec = small_spec()
        state = CampaignStore(tmp_path).campaign(spec)
        zombie = CampaignState(worker_directory(state, "zombie"), spec)
        zombie.append_chunk(0, 0, 2, evaluate_range(spec, 0, 2), epoch=0)
        honest = CampaignState(worker_directory(state, "honest"), spec)
        honest.append_chunk(1, 2, 4, evaluate_range(spec, 2, 4), epoch=0)
        record_fence(state, 0, 1)
        done = _observed_chunks(state, read_fences(state))
        assert done == {1}


class TestWorkLoopSingleWorker:
    def test_one_worker_completes_the_plan(self, tmp_path, reference):
        spec, expected = reference
        store, state = bootstrap_campaign(tmp_path, spec)
        report = work_loop(state.directory, owner="solo", poll=0.05, wait=5.0)
        assert sorted(report.completed) == [0, 1, 2]
        assert not report.abandoned
        merge_worker_stores(state)
        assert state.chunks_path.read_bytes() == expected

    def test_worker_exits_promptly_on_preset_stop(self, tmp_path, reference):
        spec, _ = reference
        store, state = bootstrap_campaign(tmp_path, spec)
        stop = threading.Event()
        stop.set()
        report = work_loop(state.directory, owner="stopped", poll=0.05,
                           wait=5.0, stop=stop)
        assert report.drained
        assert report.completed == []

    def test_worker_drains_on_sigterm(self, tmp_path, reference):
        """SIGTERM mid-run: the in-flight lease is finished and released,
        never torn — the worker exits 0 with nothing left behind."""
        import os
        import signal

        spec, _ = reference
        store, state = bootstrap_campaign(tmp_path, spec)
        context = multiprocessing.get_context("fork")
        process = context.Process(
            target=work_loop,
            args=(str(state.directory),),
            kwargs=dict(owner="drainer", poll=0.05, wait=5.0,
                        install_signal_handlers=True),
            daemon=True,
        )
        process.start()
        worker_store = state.directory / "workers" / "drainer"
        deadline = time.monotonic() + 15.0
        # The worker store appears only after the signal handler is in
        # place, so the SIGTERM below always hits the drain path.
        while time.monotonic() < deadline and not worker_store.exists():
            time.sleep(0.02)
        os.kill(process.pid, signal.SIGTERM)
        process.join(timeout=60.0)
        assert process.exitcode == 0
        # Everything it claimed was finished and released: no lease of its
        # own remains, and its store opens with no torn tail.
        leftovers = [
            lease for lease in lease_directory(state).glob("chunk-*.json")
            if json.loads(lease.read_text())["owner"] == "drainer"
        ]
        assert leftovers == []
        if worker_store.exists():
            snapshot = CampaignState(worker_store, spec, read_only=True)
            assert snapshot.recovered_tail is None

    def test_worker_gives_up_without_an_advert(self, tmp_path):
        report = work_loop(tmp_path, owner="early", wait=0.2, poll=0.05)
        assert report.completed == []

    def test_zombie_append_is_fenced_out_of_the_merge(self, tmp_path, reference):
        """The satellite scenario, deterministically sequenced: a worker's
        lease is re-issued while it sleeps; its stale-epoch append merges
        as fenced, the re-issued copy is canonical, bytes are identical."""
        spec, expected = reference
        store, state = bootstrap_campaign(tmp_path, spec)
        leases_dir = lease_directory(state)
        now = time.time()
        stale = Lease(chunk=0, start=0, stop=2, owner="zombie", epoch=0,
                      granted_at=now - 60,
                      deadline=now - 30, ttl=1.5)
        stale.write(leases_dir)
        # A healthy worker takes the expired lease over (epoch 1, fenced).
        report = work_loop(state.directory, owner="taker", poll=0.05, wait=5.0)
        assert sorted(report.completed) == [0, 1, 2]
        assert read_fences(state)[0] == 1
        # The zombie wakes and appends under its superseded epoch anyway.
        zombie_store = CampaignState(worker_directory(state, "zombie"), spec)
        zombie_store.append_chunk(0, 0, 2, evaluate_range(spec, 0, 2), epoch=0)
        merged = merge_worker_stores(state)
        assert 0 in merged.fenced
        assert state.chunks_path.read_bytes() == expected

    def test_zombie_that_outlives_the_campaign_abandons(self, tmp_path):
        """If the campaign completes and the coordinator tears the worker
        scaffolding down while a zombie sleeps, its stale append has
        nowhere to land — the zombie abandons instead of crashing."""
        import shutil

        from repro.scenarios.detached import WorkerReport
        from repro.scenarios.fabric import FaultInjector

        spec = small_spec()
        store, state = bootstrap_campaign(tmp_path, spec)
        worker_state = CampaignState(worker_directory(state, "zombie"), spec)
        shutil.rmtree(state.directory / "workers")
        now = time.time()
        lease = Lease(chunk=0, start=0, stop=2, owner="zombie", epoch=0,
                      granted_at=now - 60,
                      deadline=now - 30, ttl=1.5)
        advert = FabricAdvert.read(state.directory)
        report = WorkerReport(owner="zombie")
        _work_one_chunk(
            lease_directory(state), worker_state, lease, advert,
            FaultInjector.from_spec("zombie@0"), time.time, 0.05, report,
        )
        assert report.abandoned == [0]
        assert not (state.directory / "workers").exists()

    def test_abandon_walks_away_leaving_its_lease(self, tmp_path):
        """abandon: no evaluation, no append, no release — the lease stays
        on disk untouched until it runs out and is re-issued."""
        from repro.scenarios.fabric import FaultInjector

        spec = small_spec()
        _, state = bootstrap_campaign(tmp_path, spec)
        advert = FabricAdvert.read(state.directory)
        worker_state = CampaignState(worker_directory(state, "w0"), spec)
        now = time.time()
        lease = Lease(chunk=1, start=2, stop=4, owner="w0", epoch=0,
                      granted_at=now, deadline=now + advert.ttl, ttl=advert.ttl)
        lease.write(lease_directory(state))
        before = lease.path(lease_directory(state)).read_bytes()
        report = WorkerReport(owner="w0")
        _work_one_chunk(
            lease_directory(state), worker_state, lease, advert,
            FaultInjector.from_spec("abandon@1"), time.time, 0.05, report,
        )
        assert (report.abandoned, report.completed) == ([1], [])
        assert 1 not in worker_state.completed_chunks
        assert lease.path(lease_directory(state)).read_bytes() == before


class TestDetachedCampaign:
    def test_two_workers_clean_run_is_byte_identical(self, tmp_path, reference):
        spec, expected = reference
        store = CampaignStore(tmp_path / "shared")
        campaign_dir = tmp_path / "shared" / spec_hash(spec)
        workers = [spawn_worker(campaign_dir, f"w{i}") for i in range(2)]
        progress = run_detached_campaign(
            spec, store, chunk_size=2, policy=fast_policy(), wait_timeout=90.0
        )
        reap(*workers)
        assert progress.finished
        assert store_bytes(tmp_path / "shared", spec) == expected
        # Completed campaigns are cleaned of fabric scaffolding, but the
        # journal (the flight record) survives.
        assert not (campaign_dir / "workers").exists()
        assert not (campaign_dir / "fabric.json").exists()
        assert (campaign_dir / "coordinator.jsonl").exists()

    def test_late_worker_returns_at_once_after_completion(self, tmp_path, reference):
        """A worker started after completion does not wait out ``wait``.

        The coordinator deletes the advert on completion; the journal's
        ``complete`` event is what tells a late worker there is nothing
        left to claim.
        """
        spec, expected = reference
        store = CampaignStore(tmp_path / "shared")
        progress = run_detached_campaign(
            spec, store, chunk_size=2, policy=fast_policy(), wait_timeout=90.0, workers=1
        )
        assert progress.finished
        campaign_dir = tmp_path / "shared" / spec_hash(spec)
        started = time.monotonic()
        report = work_loop(campaign_dir, owner="late", poll=0.05, wait=30.0)
        assert time.monotonic() - started < 2.0
        assert report.completed == []
        assert not (campaign_dir / "workers").exists()
        assert store_bytes(tmp_path / "shared", spec) == expected

    @pytest.mark.parametrize(
        "faults0,faults1",
        [
            ("crash-post@1", None),
            ("partition@1", None),
            ("zombie@2", None),
            ("partition@0,skew:0.3", "crash-post@2"),
            ("zombie@1,skew:-0.3", "poison@0"),
        ],
        ids=["crash-post", "partition", "zombie", "partition+skew+crash", "zombie+skew+poison"],
    )
    def test_chaos_matrix_converges_byte_identically(
        self, tmp_path, reference, faults0, faults1
    ):
        spec, expected = reference
        store = CampaignStore(tmp_path / "shared")
        campaign_dir = tmp_path / "shared" / spec_hash(spec)
        workers = [
            spawn_worker(campaign_dir, "w0", faults=faults0),
            spawn_worker(campaign_dir, "w1", faults=faults1),
        ]
        progress = run_detached_campaign(
            spec, store, chunk_size=2, policy=fast_policy(), wait_timeout=120.0
        )
        reap(*workers)
        assert progress.finished
        assert store_bytes(tmp_path / "shared", spec) == expected

    def test_poisoned_chunk_degrades_in_the_coordinator(self, tmp_path, reference):
        spec, expected = reference
        store = CampaignStore(tmp_path / "shared")
        campaign_dir = tmp_path / "shared" / spec_hash(spec)
        worker = spawn_worker(campaign_dir, "w0", faults="poison@1")
        progress = run_detached_campaign(
            spec, store, chunk_size=2,
            policy=fast_policy(max_attempts=2), wait_timeout=120.0,
        )
        reap(worker)
        assert progress.finished
        assert 1 in progress.degraded_chunks
        assert store_bytes(tmp_path / "shared", spec) == expected

    def test_coordinator_kill_and_restart_replays_journal(self, tmp_path, reference):
        spec, expected = reference
        store = CampaignStore(tmp_path / "shared")
        campaign_dir = tmp_path / "shared" / spec_hash(spec)
        # First incarnation: no workers show up, so it times out — exactly
        # like a coordinator killed mid-campaign, journal and advert left
        # behind.
        with pytest.raises(ExperimentError, match="did not complete"):
            run_detached_campaign(
                spec, store, chunk_size=2, policy=fast_policy(), wait_timeout=0.5
            )
        assert (campaign_dir / "coordinator.jsonl").exists()
        workers = [spawn_worker(campaign_dir, f"w{i}") for i in range(2)]
        progress = run_detached_campaign(
            spec, store, chunk_size=2, policy=fast_policy(), wait_timeout=120.0
        )
        reap(*workers)
        assert progress.resumed_from_journal
        assert progress.finished
        assert store_bytes(tmp_path / "shared", spec) == expected

    def test_timeout_hint_is_a_command_the_cli_accepts(self, tmp_path, capsys):
        """The copy-pasteable heal command of a timed-out coordinator parses
        and runs as printed."""
        import shlex

        from repro.cli import build_parser, main

        spec = small_spec()
        with pytest.raises(ExperimentError, match="resume with: ") as raised:
            run_detached_campaign(
                spec, tmp_path / "shared", chunk_size=2, policy=fast_policy(),
                wait_timeout=0.2,
            )
        argv = shlex.split(str(raised.value).partition("resume with: ")[2])
        args = build_parser().parse_args(argv)
        assert (args.command, args.scenarios_command) == ("scenarios", "heal")
        assert main(argv) == 0
        out = capsys.readouterr().out
        # The chunk size comes from the advert, not the CLI default.
        assert "3 chunk(s) still missing" in out
        assert "--chunk-size 2" in out

    def test_skewed_worker_within_slack_causes_no_takeover(self, tmp_path, reference):
        spec, expected = reference
        store = CampaignStore(tmp_path / "shared")
        campaign_dir = tmp_path / "shared" / spec_hash(spec)
        # The worker's clock runs 0.5 s slow; slack comfortably covers it.
        worker = spawn_worker(campaign_dir, "slow-clock", faults="skew:-0.5")
        progress = run_detached_campaign(
            spec, store, chunk_size=2,
            policy=fast_policy(timeout=2.5, skew_slack=2.0), wait_timeout=120.0,
        )
        reap(worker)
        assert progress.finished
        assert progress.expired_leases == 0
        assert store_bytes(tmp_path / "shared", spec) == expected

    def test_heal_finishes_what_detached_workers_left(self, tmp_path, reference):
        """Worker crashes mid-campaign with no coordinator: heal salvages
        the durable chunks and the leased leftovers; never-leased chunks
        are reported missing and completed by resume — bytes converge."""
        spec, expected = reference
        store, state = bootstrap_campaign(tmp_path, spec)
        # crash-post on chunk 1: chunks 0 and 1 are durable in the worker
        # store, the chunk-1 lease is left behind, chunk 2 is never leased.
        worker = spawn_worker(state.directory, "w0", faults="crash-post@1")
        reap(worker)
        report = heal_campaign(spec, store, chunk_size=2)
        assert {0, 1} <= report.state.completed_chunks
        assert report.cleared_leases  # the crashed worker's lease is gone
        if not report.complete:
            run_campaign(spec, store, chunk_size=2)
        assert report.state.chunks_path.read_bytes() == expected


class TestDefaultOwner:
    def test_is_filesystem_safe(self):
        owner = default_owner()
        assert owner
        assert "/" not in owner and " " not in owner

    def test_progress_aggregate_matches_store(self, tmp_path, reference):
        spec, _ = reference
        store = CampaignStore(tmp_path / "shared")
        campaign_dir = tmp_path / "shared" / spec_hash(spec)
        worker = spawn_worker(campaign_dir, "w0")
        progress = run_detached_campaign(
            spec, store, chunk_size=2, policy=fast_policy(), wait_timeout=90.0
        )
        reap(worker)
        assert isinstance(progress, DetachedProgress)
        assert progress.aggregate() == progress.state.aggregate()
