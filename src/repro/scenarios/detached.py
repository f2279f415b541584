"""The campaign coordinator and its workers, over one shared directory.

Any number of ``scenarios work`` processes, on any machines that see one
shared directory, cooperate through plain files only (the protocol
pieces live in :mod:`repro.scenarios.fabric`):

* the coordinator (:func:`run_detached_campaign`) publishes the campaign
  **advert** (``fabric.json``: chunk size, lease TTL, skew slack, attempt
  budget) and then *observes*: it merges worker stores, expires dead
  leases, degrades exhausted chunks and journals every decision.  With
  ``workers=N`` (``scenarios run --workers N``) it also forks N local
  worker loops and restarts any that die; otherwise (``--detached-workers``)
  the workers are external;
* each worker (:func:`work_loop`) runs a long-lived
  claim → evaluate → append → release loop: claims are **atomic file
  creations** (``os.link`` of a private temp lease — exactly one claimant
  wins a race), appends go to the worker's own isolated store; a lease's
  deadline is fixed at claim time, one TTL (the per-attempt budget)
  after the grant, and a watcher thread re-reads the lease every
  ``ttl / 4`` seconds to notice a takeover;
* expiry is **wall-clock with skew slack**: nobody declares a lease dead
  before ``deadline + skew_slack``, so modest clock skew between machines
  never causes a false takeover;
* every takeover bumps the chunk's lease **epoch** and records a fence
  (:func:`~repro.scenarios.fabric.record_fence`): a partitioned, hung or
  zombie worker that appends under a superseded epoch is fenced out of
  the canonical store at merge time, and a worker whose watcher saw the
  takeover abandons its chunk *before* append time;
* the coordinator journals every decision to ``coordinator.jsonl``
  (:class:`~repro.scenarios.fabric.CoordinatorJournal`), so a restarted
  coordinator — or ``scenarios heal`` — reconstructs campaign state
  instead of inferring it.

Worker stores that are *live* (their owner may be mid-append) are never
opened writable by anyone but their owner: the coordinator folds them in
through the one read-only merge
(:func:`~repro.scenarios.fabric.merge_worker_stores`), and a chunk
counts as durable by the one fence-aware rule
(:func:`~repro.obs.campaign.durable_chunks`) that ``scenarios status``
also uses.  An observing open must never truncate a torn tail the owner
is still writing behind.

Chunk results are deterministic functions of the spec, so every recovery
path — crash, hang, partition, zombie, clock skew, coordinator kill +
restart — converges to a ``chunks.jsonl`` byte-identical to an
uninterrupted single-writer run (pinned by the tests and the CI chaos
smokes).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import multiprocessing
import os
import re
import signal
import socket
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import repro.obs as obs
from repro.exceptions import ExperimentError
from repro.obs import get_logger
from repro.obs.campaign import FabricAdvert, durable_chunks, read_store_progress
from repro.scenarios.fabric import (
    CoordinatorJournal,
    FaultInjector,
    FaultPolicy,
    Lease,
    _DEGRADED_OWNER,
    _cleanup_if_complete,
    lease_directory,
    merge_worker_stores,
    read_fences,
    read_lease,
    read_leases,
    record_fence,
    worker_directory,
    worker_store_paths,
)
from repro.scenarios.runner import (
    DEFAULT_CHUNK_SIZE,
    evaluate_range,
    plan_chunks,
    validate_plan,
)
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.store import CampaignState, CampaignStore, MergeReport

__all__ = [
    "DetachedProgress",
    "FabricAdvert",
    "WorkerReport",
    "default_owner",
    "run_detached_campaign",
    "work_loop",
]

logger = get_logger(__name__)

#: Default seconds between a worker's claim-scan rounds when nothing was
#: claimable; actual sleeps are jittered per owner (see
#: :func:`_claim_backoff`) to avoid thundering-herd claims.
DEFAULT_CLAIM_POLL = 0.25

#: Extra wall-clock margin (beyond ``skew_slack``) an injected zombie or
#: partition sleeps past its lease deadline, so the takeover it is meant
#: to collide with has definitely been possible.
_TAKEOVER_GRACE = 0.5

#: Worker exit codes for the injected crashes (any non-zero exit is
#: treated the same; these just aid debugging).
_EXIT_CRASH_PRE = 23
_EXIT_CRASH_POST = 24


def default_owner() -> str:
    """A filesystem-safe owner id unique to this process: host + pid."""
    return _sanitize_owner(f"{socket.gethostname()}-{os.getpid()}")


def _sanitize_owner(owner: str) -> str:
    cleaned = re.sub(r"[^A-Za-z0-9._-]", "-", owner).strip(".-")
    if not cleaned:
        raise ExperimentError(f"owner id {owner!r} has no filesystem-safe characters")
    return cleaned


# ---------------------------------------------------------------------------
# Atomic claim / takeover / release over the shared lease directory
# ---------------------------------------------------------------------------


def _claim_lease(leases_dir: Path, lease: Lease) -> bool:
    """Atomically create a lease file; exactly one claimant wins.

    The payload is written (and fsynced) to a private temp file first,
    then ``os.link``\\ ed to the lease path — link fails with ``EEXIST``
    when any other party created the file in between, which is the lost
    race.  Works on any POSIX filesystem including NFS.
    """
    path = lease.path(leases_dir)
    fd, temp_name = tempfile.mkstemp(dir=leases_dir, prefix=f".{path.name}-claim-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(lease.payload())
            handle.flush()
            os.fsync(handle.fileno())
        try:
            os.link(temp_name, path)
        except FileExistsError:
            return False
        return True
    finally:
        if os.path.exists(temp_name):
            os.unlink(temp_name)


def _take_over_lease(leases_dir: Path, stale: Lease) -> bool:
    """Displace an expired lease; exactly one taker wins.

    ``os.rename`` of the lease file to a unique tombstone name: only one
    renamer succeeds (the others get ``ENOENT``), and the winner then owns
    the now-vacant lease path.  The tombstone is removed once the new
    lease is in place.
    """
    path = stale.path(leases_dir)
    tombstone = leases_dir / f".{path.name}.stale-{stale.epoch}-{stale.owner}"
    try:
        os.rename(path, tombstone)
    except FileNotFoundError:
        return False
    tombstone.unlink(missing_ok=True)
    return True


def _release_lease(leases_dir: Path, lease: Lease) -> bool:
    """Guarded release: unlink only if the lease is still ours.

    A worker that lost its lease to a takeover (partition, zombie) must
    never delete the *new* claimant's lease file — re-read and compare
    owner + epoch before unlinking.  The read-check-unlink window is not
    atomic; the fencing epoch on the store side is the backstop.
    """
    current = read_lease(lease.path(leases_dir))
    if current is None or current.owner != lease.owner or current.epoch != lease.epoch:
        return False
    lease.path(leases_dir).unlink(missing_ok=True)
    return True


def _lease_lost(leases_dir: Path, lease: Lease) -> bool:
    """Whether ``lease`` was displaced (taken over or cleared) on disk."""
    current = read_lease(lease.path(leases_dir))
    return current is None or current.owner != lease.owner or current.epoch != lease.epoch


def _claim_backoff(owner: str, round_number: int, poll: float) -> float:
    """Deterministic per-owner jitter in ``[0.5, 1.5) * poll`` seconds.

    Every worker sleeps a *different* (but reproducible) fraction of the
    poll interval between claim scans, so a fleet started simultaneously
    does not hammer the shared directory in lockstep.
    """
    digest = hashlib.sha256(f"claim-jitter:{owner}:{round_number}".encode()).digest()
    draw = int.from_bytes(digest[:8], "big") / float(1 << 64)
    return poll * (0.5 + draw)


def _observed_chunks(state: CampaignState, fences: dict[int, int]) -> set[int]:
    """Chunks durable *somewhere*: canonical, or unfenced in a worker store.

    A chunk a zombie appended under a superseded epoch does **not** count
    — its bytes will be fenced out at merge time, so the chunk still
    needs a legitimate evaluation.  Worker stores are read without being
    opened (:func:`~repro.obs.campaign.read_store_progress`).
    """
    workers = [read_store_progress(path) for path in worker_store_paths(state)]
    return durable_chunks(state.completed_chunks, workers, fences)


# ---------------------------------------------------------------------------
# The detached worker: claim → evaluate → append → release
# ---------------------------------------------------------------------------


@dataclass
class WorkerReport:
    """Outcome of one :func:`work_loop` run."""

    owner: str
    completed: list[int] = field(default_factory=list)
    abandoned: list[int] = field(default_factory=list)
    failed: list[int] = field(default_factory=list)
    drained: bool = False

    def describe(self) -> str:
        drained = " (drained on signal)" if self.drained else ""
        return (
            f"worker {self.owner}: {len(self.completed)} chunk(s) completed, "
            f"{len(self.abandoned)} abandoned to takeovers, "
            f"{len(self.failed)} failed{drained}"
        )


class _LeaseWatch:
    """Background takeover detection for one in-flight chunk.

    Re-reads the lease every ``interval`` seconds: a lease that no longer
    names this owner/epoch was **taken over** (the attempt outran its
    budget, or we were partitioned), and the worker must abandon the
    chunk before append time.  ``fenced`` latches that observation.  The
    lease itself is never rewritten — its deadline stays one TTL past
    the grant, so a genuinely hung attempt's lease runs out, is fenced
    and re-issued, and its late append is fenced out at merge.
    """

    def __init__(self, leases_dir: Path, lease: Lease, interval: float) -> None:
        self.leases_dir = leases_dir
        self.lease = lease
        self.interval = interval
        self.fenced = threading.Event()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def start(self) -> "_LeaseWatch":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            if _lease_lost(self.leases_dir, self.lease):
                self.fenced.set()
                logger.warning(
                    "lost lease to a takeover; abandoning before append",
                    owner=self.lease.owner, chunk=self.lease.chunk,
                    epoch=self.lease.epoch,
                )
                return


def work_loop(
    campaign_dir: str | Path,
    owner: str | None = None,
    faults: FaultInjector | str | None = None,
    poll: float = DEFAULT_CLAIM_POLL,
    max_chunks: int | None = None,
    wait: float = 30.0,
    stop: threading.Event | None = None,
    install_signal_handlers: bool = False,
    spec: ScenarioSpec | None = None,
) -> WorkerReport:
    """Run a detached worker over a shared campaign directory.

    The long-lived loop behind ``scenarios work``: scan the shared lease
    directory, **claim** an unleased pending chunk (or **take over** an
    expired lease, bumping its epoch and recording a fence), evaluate it
    while a watcher thread checks the lease is still ours, **append** to this
    worker's own isolated store (recording the lease epoch), and
    **release** the lease guardedly.  Exits when the plan is complete,
    ``max_chunks`` claims have been worked, or ``stop`` is set — SIGTERM
    (with ``install_signal_handlers=True``) sets ``stop``, so an
    in-flight chunk is *drained*: finished and released, never torn.

    The campaign's spec and protocol constants come from the shared
    directory itself (``spec.json`` + ``fabric.json``), published by the
    coordinator; the worker waits up to ``wait`` seconds for them, so
    workers may be started first.

    ``faults`` acts out this worker's injected chaos: ``crash-pre`` /
    ``crash-post`` kill the process around the append; ``hang`` sleeps
    past its own expiry; ``abandon`` walks away from its claim;
    ``poison`` surrenders the lease; ``partition`` computes without
    watching its lease and abandons if taken over; ``zombie`` sleeps past its
    own expiry and appends under its stale (fenced) epoch anyway;
    ``skew:SECONDS`` offsets every clock read this worker makes.
    """
    campaign_dir = Path(campaign_dir)
    if isinstance(faults, str):
        faults = FaultInjector.from_spec(faults)
    owner = _sanitize_owner(owner) if owner else default_owner()
    stop = stop or threading.Event()
    report = WorkerReport(owner=owner)
    clock_skew = faults.clock_skew if faults is not None else 0.0

    def now() -> float:
        # The injected clock skew applies to *every* wall-clock read this
        # worker makes — granted/deadline stamps and expiry
        # checks alike — exactly like a machine with a drifted clock.
        return time.time() + clock_skew

    if install_signal_handlers:

        def _drain(signum, frame) -> None:
            logger.warning(
                "received signal; draining current lease", owner=owner, signal=signum
            )
            stop.set()

        signal.signal(signal.SIGTERM, _drain)
        signal.signal(signal.SIGINT, _drain)

    spec, advert = _await_campaign(campaign_dir, wait, stop, spec)
    if spec is None or advert is None:
        report.drained = stop.is_set()
        return report
    if advert.trace:
        # Join the campaign trace the coordinator advertised: every span
        # this worker emits carries the trace id, and its top-level spans
        # name the coordinator's root span as their causal parent.
        obs.active().adopt_trace(advert.trace, advert.parent)
    plan = plan_chunks_from_advert(spec, advert)
    leases_dir = lease_directory(campaign_dir)
    leases_dir.mkdir(parents=True, exist_ok=True)
    worker_state = CampaignState(worker_directory(campaign_dir, owner), spec)
    watch_interval = max(0.05, advert.ttl / 4.0)

    claimed_budget = max_chunks if max_chunks is not None else None
    round_number = 0
    while not stop.is_set():
        if claimed_budget is not None and claimed_budget <= 0:
            break
        canonical = CampaignState(campaign_dir, spec, read_only=True)
        fences = read_fences(canonical)
        done = _observed_chunks(canonical, fences)
        if len(done) >= len(plan):
            break
        claimed = _claim_next(
            leases_dir, plan, done, fences, owner, advert, now, report
        )
        if claimed is None:
            round_number += 1
            stop.wait(_claim_backoff(owner, round_number, poll))
            continue
        if claimed_budget is not None:
            claimed_budget -= 1
        _work_one_chunk(
            leases_dir, worker_state, claimed, advert, faults, now,
            watch_interval, report,
        )
    report.drained = stop.is_set()
    logger.info(report.describe())
    obs.active().flush()
    return report


def plan_chunks_from_advert(spec: ScenarioSpec, advert: FabricAdvert) -> list[tuple[int, int]]:
    plan = plan_chunks(spec.family.count, advert.chunk_size)
    if len(plan) != advert.total_chunks:
        raise ExperimentError(
            f"fabric advert promises {advert.total_chunks} chunk(s) but the spec "
            f"plans {len(plan)}; the shared directory mixes campaign generations"
        )
    return plan


def _await_campaign(
    campaign_dir: Path,
    wait: float,
    stop: threading.Event,
    spec: ScenarioSpec | None,
) -> tuple[ScenarioSpec | None, FabricAdvert | None]:
    """Wait for the coordinator's ``spec.json`` + ``fabric.json`` to appear.

    Returns ``(None, None)`` at once when the coordinator's journal says
    the campaign already completed: the coordinator deletes the advert on
    completion, so a late worker would otherwise wait out ``wait``.
    """
    deadline = time.monotonic() + wait
    spec_path = campaign_dir / "spec.json"
    journal = CoordinatorJournal(campaign_dir)
    while True:
        if spec is None and spec_path.is_file():
            try:
                spec = ScenarioSpec.from_json(spec_path.read_text(encoding="utf-8"))
            except (OSError, ValueError, ExperimentError) as error:
                logger.warning("unreadable spec; retrying", path=spec_path, error=error)
        advert = FabricAdvert.read(campaign_dir)
        if spec is not None and advert is not None:
            return spec, advert
        if advert is None and journal.replay().completed:
            logger.info(
                "campaign already complete; nothing to claim", directory=campaign_dir
            )
            return None, None
        if stop.is_set() or time.monotonic() >= deadline:
            logger.warning(
                "no campaign advert; is the coordinator "
                "(`scenarios run --detached-workers`) running?",
                directory=campaign_dir, waited=wait,
            )
            return None, None
        stop.wait(0.1)


def _claim_next(
    leases_dir: Path,
    plan: Sequence[tuple[int, int]],
    done: set[int],
    fences: dict[int, int],
    owner: str,
    advert: FabricAdvert,
    now: Callable[[], float],
    report: WorkerReport,
) -> Lease | None:
    """Claim one pending chunk: a vacant lease path, or an expired lease.

    The claim epoch starts at the chunk's current fence (takeovers bump
    past it), so a freshly claimed chunk always merges over any fenced
    leftovers.  Chunks whose next epoch would exhaust the advert's
    attempt budget are left for the coordinator's degradation path.
    """
    for chunk, (start, stop_platform) in enumerate(plan):
        if chunk in done:
            continue
        path = leases_dir / f"chunk-{chunk:06d}.json"
        current = read_lease(path) if path.exists() else None
        moment = now()
        if current is None:
            epoch = fences.get(chunk, 0)
            if epoch >= advert.max_attempts:
                continue
            lease = Lease(
                chunk=chunk, start=start, stop=stop_platform, owner=owner,
                epoch=epoch, granted_at=moment, deadline=moment + advert.ttl,
                ttl=advert.ttl,
            )
            if _claim_lease(leases_dir, lease):
                obs.active().counter("worker.claims")
                return lease
            continue
        # A leftover lease of this very owner (a prior life crashed) is as
        # expired as anyone else's — the wall clock decides, not the name.
        if not current.expired(moment, advert.skew_slack):
            continue
        next_epoch = max(current.epoch, fences.get(chunk, 0)) + 1
        if next_epoch >= advert.max_attempts:
            continue
        if not _take_over_lease(leases_dir, current):
            continue
        record_fence(leases_dir.parent, chunk, next_epoch)
        lease = Lease(
            chunk=chunk, start=start, stop=stop_platform, owner=owner,
            epoch=next_epoch, granted_at=moment, deadline=moment + advert.ttl,
            ttl=advert.ttl,
        )
        lease.write(leases_dir)
        telemetry = obs.active()
        telemetry.counter("worker.claims")
        telemetry.counter("worker.takeovers")
        logger.warning(
            "took over expired lease",
            owner=owner, chunk=chunk, holder=current.owner,
            epoch=current.epoch, fence=next_epoch,
        )
        return lease
    return None


def _torn_append(state: CampaignState, chunk: int, start: int, stop: int, rows) -> None:
    """Simulate a crash mid-append: half the record's bytes, fsynced.

    This is exactly the torn tail the store's recovery path handles —
    written deliberately (and fsynced, so the test observes it
    deterministically) before the injected kill.
    """
    payload = json.dumps(
        {"chunk": chunk, "start": int(start), "stop": int(stop), "rows": list(rows)},
        sort_keys=True,
    ).encode("utf-8")
    with open(state.chunks_path, "ab") as handle:
        handle.write(payload[: max(1, len(payload) // 2)])
        handle.flush()
        os.fsync(handle.fileno())


def _work_one_chunk(
    leases_dir: Path,
    worker_state: CampaignState,
    lease: Lease,
    advert: FabricAdvert,
    faults: FaultInjector | None,
    now: Callable[[], float],
    watch_interval: float,
    report: WorkerReport,
) -> None:
    """Evaluate one claimed chunk, acting out any injected fault."""
    chunk = lease.chunk
    telemetry = obs.active()
    fault = faults.worker_fault(chunk, lease.epoch) if faults is not None else None
    spec = worker_state.spec

    if chunk in worker_state.completed_chunks:
        # A prior life of this worker crashed after the append: the bytes
        # are durable — re-bless them under the current epoch (they may
        # have been fenced by the takeover that led here) and release.
        worker_state.record_epoch(chunk, lease.epoch)
        _release_lease(leases_dir, lease)
        report.completed.append(chunk)
        telemetry.counter("worker.completed")
        return

    if fault in ("hang", "abandon"):
        if fault == "hang":
            # A hung worker stops making progress: sleep past our own
            # expiry, then abandon — someone else has (or will have)
            # taken the chunk over.
            _sleep_past_expiry(lease, advert, now)
        # An abandoning worker walks away at once without releasing:
        # the lease runs out and is re-issued.
        report.abandoned.append(chunk)
        telemetry.counter("worker.abandoned")
        return

    if fault == "poison":
        # A deterministic failure: surrender the lease *expired* (deadline
        # in the past) so the next scanner retries it under a bumped,
        # fenced epoch — until the attempt budget degrades it.
        logger.warning("poisoned chunk (injected)", owner=lease.owner, chunk=chunk)
        surrendered = dataclasses.replace(
            lease, deadline=now() - advert.skew_slack - advert.ttl
        )
        surrendered.write(leases_dir)
        report.failed.append(chunk)
        telemetry.counter("worker.failed")
        return

    watch: _LeaseWatch | None = None
    if fault not in ("partition", "zombie"):
        watch = _LeaseWatch(leases_dir, lease, watch_interval).start()
    try:
        with telemetry.span(
            "work", chunk=chunk, owner=lease.owner, epoch=lease.epoch
        ) as work_span:
            rows = evaluate_range(spec, lease.start, lease.stop)
            work_span.set(rows=len(rows))
        if fault in ("partition", "zombie"):
            # Partitioned/zombie workers never watched their lease: sleep
            # until it has definitely been expirable, so the takeover this
            # fault is meant to collide with has had its chance.
            _sleep_past_expiry(lease, advert, now)
        if watch is not None:
            watch.stop()
            if watch.fenced.is_set():
                report.abandoned.append(chunk)
                telemetry.counter("worker.abandoned")
                return
        if fault == "partition" and _lease_lost(leases_dir, lease):
            # The watcher's check a partitioned worker never ran: the
            # append-time fence.  Taken over → abandon, never append.
            logger.warning(
                "chunk was taken over during the partition; abandoning",
                owner=lease.owner, chunk=chunk,
            )
            report.abandoned.append(chunk)
            telemetry.counter("worker.abandoned")
            return
        # A zombie skips every check — that is the point: its stale-epoch
        # append must be fenced out at merge time, not trusted here.
        if fault == "crash-pre":
            _torn_append(worker_state, chunk, lease.start, lease.stop, rows)
            os._exit(_EXIT_CRASH_PRE)
        try:
            with telemetry.span("append", chunk=chunk, rows=len(rows)):
                worker_state.append_chunk(
                    chunk, lease.start, lease.stop, rows, epoch=lease.epoch
                )
        except OSError:
            if fault != "zombie":
                raise
            # The campaign completed while this zombie slept and the
            # coordinator tore the worker scaffolding down; the stale
            # append has nowhere to land, which is the same outcome the
            # merge fence would have forced.
            logger.warning(
                "chunk outlived the campaign; abandoning stale append",
                owner=lease.owner, chunk=chunk,
            )
            report.abandoned.append(chunk)
            telemetry.counter("worker.abandoned")
            return
        if fault == "crash-post":
            os._exit(_EXIT_CRASH_POST)
        _release_lease(leases_dir, lease)
        report.completed.append(chunk)
        telemetry.counter("worker.completed")
    finally:
        if watch is not None:
            watch.stop()
        telemetry.flush()


def _sleep_past_expiry(lease: Lease, advert: FabricAdvert, now: Callable[[], float]) -> None:
    deadline = (lease.deadline or now()) + advert.skew_slack + _TAKEOVER_GRACE
    while now() < deadline:
        time.sleep(min(0.05, max(0.0, deadline - now())))


# ---------------------------------------------------------------------------
# The coordinator: publish, supervise, observe, expire, degrade, merge
# ---------------------------------------------------------------------------


@dataclass
class DetachedProgress:
    """Outcome of one :func:`run_detached_campaign` call."""

    state: CampaignState
    chunk_size: int
    total_chunks: int
    completed_before: int
    completed_after: int
    retries: int = 0
    expired_leases: int = 0
    degraded_chunks: list[int] = field(default_factory=list)
    resumed_from_journal: bool = False
    merge: MergeReport | None = None

    @property
    def finished(self) -> bool:
        return self.completed_after == self.total_chunks

    def rows(self) -> list[dict]:
        return self.state.rows()

    def aggregate(self, quantiles: Sequence[float] = (0.05, 0.5, 0.95)) -> dict:
        return self.state.aggregate(quantiles=quantiles)


class _LocalWorkers:
    """The coordinator's own forked :func:`work_loop` processes.

    Owners are ``w0`` … ``w<N-1>``; ``max_chunks`` is split into
    per-worker claim budgets (a worker whose share is zero never starts).
    An unbudgeted owner is restarted at most ``max_restarts`` times in a
    row without advancing the campaign (see :meth:`restart`).
    """

    def __init__(
        self,
        campaign_dir: Path,
        spec: ScenarioSpec,
        count: int,
        faults: FaultInjector | None,
        poll: float,
        max_chunks: int | None,
        max_restarts: int,
    ) -> None:
        methods = multiprocessing.get_all_start_methods()
        self._context = multiprocessing.get_context("fork" if "fork" in methods else None)
        self._directory = campaign_dir
        self._kwargs = dict(faults=faults, poll=poll, spec=spec)
        share, extra = divmod(max_chunks or 0, count)
        self.budgets = {
            f"w{slot}": None if max_chunks is None else share + (slot < extra)
            for slot in range(count)
        }
        self.processes: dict[str, multiprocessing.Process] = {}
        self.max_restarts = max_restarts
        self.restarts_left = dict.fromkeys(self.budgets, max_restarts)
        self.appended_at_start: dict[str, int] = {}
        for owner, budget in self.budgets.items():
            if budget != 0:
                self._start(owner)

    def _appended(self, owner: str) -> int:
        """Chunks in ``owner``'s store (read without opening it)."""
        return len(read_store_progress(worker_directory(self._directory, owner)).ranges)

    def _start(self, owner: str) -> None:
        self.appended_at_start[owner] = self._appended(owner)
        process = self._context.Process(
            target=work_loop,
            args=(str(self._directory),),
            kwargs=dict(owner=owner, max_chunks=self.budgets[owner], **self._kwargs),
            daemon=True,
        )
        process.start()
        self.processes[owner] = process

    def restart(self, owner: str, held_lease: bool) -> bool:
        """Restart a dead worker; ``False`` once its restarts are spent.

        A death that ``held_lease`` (bounded by its chunk's attempts) or
        appended a chunk since the start refills the owner's restarts; any
        other death, such as one before every claim, spends one.  A
        budgeted worker's budget died with it: it is dropped instead.
        """
        if self.budgets[owner] is not None:
            del self.processes[owner]
            return True
        if held_lease or self._appended(owner) > self.appended_at_start[owner]:
            self.restarts_left[owner] = self.max_restarts
        elif not self.restarts_left[owner]:
            return False
        else:
            self.restarts_left[owner] -= 1
        self._start(owner)
        return True

    def failed(self) -> list[tuple[str, int]]:
        """``(owner, exit code)`` of every worker that exited non-zero."""
        return [
            (owner, process.exitcode)
            for owner, process in self.processes.items()
            if process.exitcode not in (None, 0)
        ]

    @property
    def finished(self) -> bool:
        """Whether every worker has exited 0 (budget spent or plan done)."""
        return all(process.exitcode == 0 for process in self.processes.values())

    def stop(self, grace: float = 1.0) -> None:
        """Give the workers ``grace`` seconds to exit, then terminate them."""
        deadline = time.monotonic() + grace
        for process in self.processes.values():
            process.join(timeout=max(0.0, deadline - time.monotonic()))
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
            if process.is_alive():
                process.kill()
                process.join()


def run_detached_campaign(
    spec: ScenarioSpec,
    store: CampaignStore | str | Path,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    policy: FaultPolicy | None = None,
    wait_timeout: float | None = None,
    progress: Callable[[int, int], None] | None = None,
    workers: int = 0,
    faults: FaultInjector | str | None = None,
    max_chunks: int | None = None,
) -> DetachedProgress:
    """Coordinate a campaign worked by ``scenarios work`` loops.

    Publishes the campaign advert, then **observes** the shared directory
    until the plan is complete: worker stores are merged eagerly (through
    read-only snapshots — never repairing a live store), released leases
    of canonical chunks are cleared, **expired** leases are fenced and
    cleared (their chunk becomes claimable under a bumped epoch), and a
    chunk whose attempt budget is exhausted **degrades** to an in-parent
    evaluation.  Every decision is journaled to ``coordinator.jsonl``; a
    restarted coordinator replays the journal and resumes the same
    campaign — re-running it is always safe.  The result store is
    byte-identical to a single-writer
    :func:`~repro.scenarios.runner.run_campaign` of the same spec.

    ``workers=N`` forks N local :func:`work_loop` processes (owners
    ``w0`` … ``w<N-1>``, acting out ``faults`` — a
    :class:`~repro.scenarios.fabric.FaultInjector` or its CLI spec) and
    supervises them: one that exits non-zero has its leases expired at
    once and is restarted under the same owner.  A death that neither held
    a lease nor appended a chunk counts against the owner; after
    ``policy.max_attempts`` such restarts in a row, the next such death raises
    :class:`~repro.exceptions.ExperimentError`.  The call returns when
    the plan is complete or every local worker has exited 0.
    ``max_chunks`` is split into the local workers' claim budgets; a
    budgeted worker that dies is not restarted.  With ``workers=0`` the
    workers are external (``scenarios work`` on any machine).

    ``wait_timeout`` bounds the observation loop (``None`` waits until
    complete); on expiry, as when a local worker runs out of restarts, the
    campaign state is left intact for ``scenarios heal`` or a restarted
    coordinator, and the error names the store so the hint is
    copy-pasteable.
    """
    if workers < 0:
        raise ExperimentError(f"workers must be non-negative (got {workers})")
    if max_chunks is not None and (max_chunks < 0 or not workers):
        raise ExperimentError(
            f"max_chunks must be non-negative and budgets local workers "
            f"(got max_chunks={max_chunks}, workers={workers})"
        )
    if isinstance(faults, str):
        faults = FaultInjector.from_spec(faults)
    if isinstance(store, (str, Path)):
        store = CampaignStore(store)
    policy = policy or FaultPolicy()
    state = store.campaign(spec)
    journal = CoordinatorJournal(state)
    prior = journal.replay()
    chunks = plan_chunks(spec.family.count, chunk_size)

    telemetry = obs.active()
    if telemetry.enabled and not telemetry.trace_id:
        # Adopt the campaign trace before the first merge span so every
        # coordinator span carries it.  A restarted coordinator re-joins
        # the *same* trace: the prior incarnation published it in the
        # advert (and journaled it in the plan event), so all sidecars
        # still stitch into one causal tree across the restart.
        existing = FabricAdvert.read(state.directory)
        prior_trace = existing.trace if existing is not None else None
        if not prior_trace and prior.plan is not None:
            prior_trace = prior.plan.get("trace") or None
        telemetry.adopt_trace(prior_trace or obs.new_trace_id())

    merge_worker_stores(state)
    completed = validate_plan(state, chunks)
    before = len(completed)
    result = DetachedProgress(
        state=state,
        chunk_size=chunk_size,
        total_chunks=len(chunks),
        completed_before=before,
        completed_after=before,
        resumed_from_journal=bool(prior.events),
    )
    if prior.events:
        # A restarted coordinator: the journal is the record of what the
        # previous incarnation already decided — adopt its counters
        # instead of inferring them from leftovers.
        result.retries = prior.retries
        result.expired_leases = prior.expired_leases
        result.degraded_chunks = list(prior.degraded_chunks)
        logger.warning(
            "coordinator restarted: replayed journal",
            directory=state.directory, events=len(prior.events),
            retries=prior.retries, expiries=prior.expired_leases,
            degraded=len(prior.degraded_chunks),
        )
    if before == len(chunks):
        result.merge = MergeReport(total_chunks=before)
        _cleanup_if_complete(state, len(chunks))
        return result

    leases_dir = lease_directory(state)
    leases_dir.mkdir(parents=True, exist_ok=True)
    # The coordinator root span opens before the advert is written so the
    # advert can carry its ref — workers adopt it as the causal parent of
    # their claim spans.
    root_span = telemetry.span(
        "coordinate",
        tier="detached",
        total_chunks=len(chunks),
        pending=len(chunks) - before,
    )
    root_span.__enter__()
    advert = FabricAdvert(
        chunk_size=chunk_size,
        total_chunks=len(chunks),
        ttl=policy.timeout,
        skew_slack=policy.skew_slack,
        max_attempts=policy.max_attempts,
        trace=telemetry.trace_id,
        parent=telemetry.current_ref(),
    )
    advert.write(state.directory)
    plan_fields = dict(
        total_chunks=len(chunks),
        chunk_size=chunk_size,
        pending=len(chunks) - before,
        tier="detached",
        ttl=policy.timeout,
        skew_slack=policy.skew_slack,
    )
    if telemetry.trace_id:
        plan_fields["trace"] = telemetry.trace_id
    journal.append("plan", **plan_fields)

    def expire(lease: Lease, fences: dict[int, int], reason: str) -> None:
        """Take a dead lease over: fence it, then requeue or degrade."""
        if not _take_over_lease(leases_dir, lease):
            return
        next_epoch = max(lease.epoch, fences.get(lease.chunk, 0)) + 1
        record_fence(state, lease.chunk, next_epoch)
        result.expired_leases += 1
        obs.active().counter("coordinator.expired_leases")
        journal.append("expire", chunk=lease.chunk, owner=lease.owner, epoch=lease.epoch)
        if next_epoch >= policy.max_attempts:
            _degrade_chunk(state, chunks, lease.chunk, result, journal)
        else:
            result.retries += 1
            journal.append(
                "requeue",
                chunk=lease.chunk,
                attempt=lease.epoch,
                fence=next_epoch,
                reason=reason,
            )

    local = None
    deadline = None if wait_timeout is None else time.monotonic() + wait_timeout
    resume = f"scenarios heal {state.spec_path} --store {state.directory.parent}"
    reported = before
    try:
        if workers:
            local = _LocalWorkers(
                state.directory, spec, workers, faults, policy.poll_interval, max_chunks,
                policy.max_attempts,
            )
        while True:
            merged = merge_worker_stores(state)
            if merged.added:
                journal.append("merge", added=len(merged.added), fenced=len(merged.fenced))
            done = state.completed_chunks
            if progress is not None and len(done) != reported:
                reported = len(done)
                progress(reported, len(chunks))
            if len(done) >= len(chunks):
                break
            if local is not None:
                for owner, code in local.failed():
                    # A dead local worker's leases are surrendered at once
                    # instead of waiting out their TTL and skew slack —
                    # except on a chunk it made durable after the merge
                    # above (a crash after the append): the next merge
                    # takes those bytes, fencing them would waste them.
                    logger.warning("local worker died; restarting it", owner=owner, exit=code)
                    fences = read_fences(state)
                    durable = _observed_chunks(state, fences)
                    held = [lease for lease in read_leases(state) if lease.owner == owner]
                    for lease in held:
                        if lease.chunk not in durable:
                            expire(lease, fences, f"worker exited {code}")
                    if not local.restart(owner, held_lease=bool(held)):
                        raise ExperimentError(
                            f"local worker {owner} exited {code} after "
                            f"{policy.max_attempts} restarts without claiming or "
                            f"appending a chunk; resume with: {resume}"
                        )
                if local.finished:
                    break
            now = time.time()
            fences = read_fences(state)
            for path in sorted(leases_dir.glob("chunk-*.json")):
                lease = read_lease(path)
                if lease is None:
                    # Torn lease file: treat as expired — clear it so the
                    # chunk is claimable again (satellite of read_lease).
                    path.unlink(missing_ok=True)
                    continue
                if lease.chunk in done:
                    path.unlink(missing_ok=True)
                    continue
                if lease.expired(now, policy.skew_slack):
                    expire(lease, fences, "lease expired")
            if deadline is not None and time.monotonic() >= deadline:
                raise ExperimentError(
                    f"detached campaign did not complete within {wait_timeout:.1f}s "
                    f"({len(done)}/{len(chunks)} chunks done); workers may still "
                    f"be running — resume with: {resume}"
                )
            time.sleep(policy.poll_interval)
    finally:
        if local is not None:
            local.stop()
        final = merge_worker_stores(state)
        result.merge = final
        result.completed_after = len(state.completed_chunks)
        journal.append(
            "merge",
            added=len(final.added),
            duplicates=len(final.duplicates),
            fenced=len(final.fenced),
            total=final.total_chunks,
        )
        if result.finished:
            journal.append("complete", total_chunks=len(chunks))
            _cleanup_if_complete(state, len(chunks))
        root_span.__exit__(None, None, None)
        obs.active().flush()
    return result


def _degrade_chunk(
    state: CampaignState,
    chunks: Sequence[tuple[int, int]],
    chunk: int,
    result: DetachedProgress,
    journal: CoordinatorJournal,
) -> None:
    """Attempt budget exhausted: evaluate in the coordinator itself.

    The degraded store carries no epoch metadata, so its chunks are
    trusted over any fence — the slow but sure path.
    """
    start, stop = chunks[chunk]
    rows = evaluate_range(state.spec, start, stop)
    parent_store = CampaignState(worker_directory(state, _DEGRADED_OWNER), state.spec)
    if chunk not in parent_store.completed_chunks:
        parent_store.append_chunk(chunk, start, stop, rows)
    if chunk not in result.degraded_chunks:
        result.degraded_chunks.append(chunk)
    journal.append("degrade", chunk=chunk)
    obs.active().counter("coordinator.degraded_chunks")
    logger.warning("chunk degraded to coordinator evaluation", chunk=chunk)
