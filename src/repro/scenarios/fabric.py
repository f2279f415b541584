"""The lease protocol every multi-writer campaign shares.

The streaming store (:mod:`repro.scenarios.store`) already defines an
idempotent work-unit protocol — spec content hash + ``[start, stop)``
chunk ranges + fsynced appends.  This module holds the pieces that turn
it into a fault-tolerant **fabric** of many writers over one campaign
directory; the coordinator and the worker loop that drive them live in
:mod:`repro.scenarios.detached`:

* **leases** — one JSON file per chunk range (``leases/chunk-NNNNNN.json``)
  naming the owner, an epoch and a wall-clock deadline fixed at claim
  time, one TTL after the grant; nobody may declare a lease expired
  before ``deadline + skew_slack``, so modest clock skew between
  machines never causes a false takeover.  The :class:`Lease` file
  format (and the advert's) lives in :mod:`repro.obs.campaign`, next to
  the one read-only reader of a campaign directory;
* **epoch fences** (``fences.jsonl``) — every re-issued lease bumps the
  chunk's epoch and records a fence, so a zombie attempt's late append
  can never enter the canonical store;
* a :class:`FaultPolicy` (attempt budget, per-attempt timeout, skew
  slack, poll interval) and a deterministic :class:`FaultInjector` for
  chaos runs;
* the **coordinator journal** (``coordinator.jsonl``), from which a
  restarted coordinator — or :func:`heal_campaign` — reconstructs its
  decisions instead of inferring them;
* the one **merge** of per-worker stores (``workers/<owner>/``) into
  the canonical one (:func:`merge_worker_stores`): the coordinator,
  ``scenarios merge`` and heal all fold **read-only snapshots** of the
  worker stores in with :meth:`CampaignState.merge` (chunk-index-keyed,
  idempotent, duplicate-tolerant, spec-hash-checked, fences always
  honoured), producing a ``chunks.jsonl`` byte-identical to an
  uninterrupted single-writer run.  A source store is never repaired
  or truncated: a worker's own writable reopen repairs its tail, and a
  completed campaign drops ``workers/`` altogether;
* :func:`heal_campaign`, which recovers a campaign whose coordinator
  died: worker stores are merged, expired leases are re-evaluated in the
  healing parent, and stale lease files are cleared.  Its leases, torn
  leases and chunk plan come from one read-only
  :class:`~repro.obs.campaign.CampaignSnapshot`.

Chunk results are deterministic functions of the spec, so every recovery
path converges to the same bytes — the fault matrices of the test-suite
pin exactly that.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

import repro.obs as obs
from repro.exceptions import ExperimentError
from repro.obs import get_logger
from repro.obs.campaign import DEFAULT_SKEW_SLACK, CampaignSnapshot, Lease
from repro.obs.spans import highest_epochs, read_jsonl_lines
from repro.scenarios.runner import DEFAULT_CHUNK_SIZE, evaluate_range, plan_chunks
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.store import CampaignState, CampaignStore, MergeReport

__all__ = [
    "DEFAULT_SKEW_SLACK",
    "FAULT_KINDS",
    "ChunkFault",
    "CoordinatorJournal",
    "FaultInjector",
    "FaultPolicy",
    "HealReport",
    "JournalState",
    "Lease",
    "heal_campaign",
    "merge_worker_stores",
    "read_fences",
    "read_lease",
    "read_leases",
    "record_fence",
    "worker_store_paths",
]

logger = get_logger(__name__)

#: Injectable fault kinds, all acted out by the worker that claims the
#: chunk: ``crash-pre``/``crash-post`` kill it around the append,
#: ``hang`` stops it past its lease's expiry, ``poison`` fails the
#: chunk, ``abandon`` walks away from the claim without releasing it,
#: ``partition`` keeps computing without watching its lease, and
#: ``zombie`` wakes up after being fenced and appends anyway.
FAULT_KINDS = ("crash-pre", "crash-post", "hang", "poison", "abandon", "partition", "zombie")

#: Reserved per-worker store names used by the coordinator itself.
_DEGRADED_OWNER = "degraded"
_HEAL_OWNER = "heal"


# ---------------------------------------------------------------------------
# Fault policy: attempt budget, timeout, graceful degradation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FaultPolicy:
    """The lease protocol's constants for one campaign.

    ``max_attempts`` bounds the lease epochs a chunk may be worked
    under; once exhausted the chunk **degrades gracefully** to an
    evaluation in the coordinator (no injected faults, no worker — the
    slow but sure path).  ``timeout`` is the per-attempt wall-clock
    budget and the lease TTL: a lease's ``deadline`` is fixed at
    ``granted_at + timeout``, and nobody may declare a lease expired
    until ``skew_slack`` seconds *past* its deadline — so modest clock
    skew between machines never causes a false takeover, and an attempt
    still running after its budget is re-issued under a bumped epoch.
    ``poll_interval`` paces the coordinator's observation loop and the
    claim scans of its local workers.
    """

    max_attempts: int = 3
    timeout: float = 60.0
    poll_interval: float = 0.02
    skew_slack: float = DEFAULT_SKEW_SLACK

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ExperimentError(
                f"max_attempts must be at least 1 (got {self.max_attempts})"
            )
        if self.timeout <= 0 or self.poll_interval <= 0:
            raise ExperimentError(
                f"timeout and poll_interval must be positive (got "
                f"timeout={self.timeout}, poll_interval={self.poll_interval})"
            )
        if self.skew_slack < 0:
            raise ExperimentError(
                f"skew_slack must be non-negative (got {self.skew_slack})"
            )


# ---------------------------------------------------------------------------
# Deterministic fault injection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChunkFault:
    """One injected fault: ``kind`` fired at ``(chunk, attempt)``.

    ``attempt=None`` fires on *every* attempt (the poisoned-chunk shape:
    only the parent's degradation path can complete it); an integer fires
    on that attempt only, so retries succeed.
    """

    kind: str
    chunk: int
    attempt: int | None = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ExperimentError(
                f"unknown fault kind {self.kind!r}; known kinds: {', '.join(FAULT_KINDS)}"
            )

    def fires(self, chunk: int, attempt: int) -> bool:
        return self.chunk == chunk and (self.attempt is None or self.attempt == attempt)


@dataclass(frozen=True)
class FaultInjector:
    """Deterministic fault schedule for the fabric (tests and CLI).

    Built either from an explicit list of :class:`ChunkFault` or from a
    seed (``FaultInjector.seeded``): seeded mode assigns each chunk a
    fault pseudo-randomly but reproducibly — the draw is a pure function
    of ``(seed, chunk)`` via SHA-256, independent of chunk count, worker
    count and scheduling order, so the same seed always injects the same
    schedule.

    The CLI spec grammar (:meth:`from_spec`)::

        crash-pre@2            # torn write on chunk 2's first attempt
        crash-post@4:1         # crash after fsync, chunk 4, attempt 1
        hang@1                 # chunk 1's first attempt hangs
        poison@3:*             # chunk 3 fails on every worker attempt
        abandon@5              # chunk 5 is claimed, then walked away from
        partition@1            # stop watching chunk 1's lease, keep computing
        zombie@2               # sleep past expiry on chunk 2, append anyway
        skew:3.5               # this worker's clock runs 3.5 s fast (or
                               # slow, with skew:-3.5) — not a chunk fault
        random:7:0.4           # seeded: ~40% of chunks fault, seed 7

    comma-separated; kinds are listed in :data:`FAULT_KINDS`.
    ``str(injector)`` emits the canonical spec back (round-trips through
    :meth:`from_spec`).
    """

    faults: tuple[ChunkFault, ...] = ()
    seed: int | None = None
    rate: float = 0.0
    seeded_kinds: tuple[str, ...] = ("crash-pre", "crash-post", "hang", "poison")
    #: Seconds added to the injected worker's wall clock (``skew:X``):
    #: positive runs fast, negative slow.  Models cross-machine clock skew
    #: — the lease protocol's ``skew_slack`` must absorb it.
    clock_skew: float = 0.0

    @classmethod
    def seeded(
        cls, seed: int, rate: float, kinds: Sequence[str] | None = None
    ) -> "FaultInjector":
        if not 0.0 <= rate <= 1.0:
            raise ExperimentError(f"fault rate must be in [0, 1] (got {rate})")
        kinds = tuple(kinds) if kinds is not None else ("crash-pre", "crash-post", "hang", "poison")
        for kind in kinds:
            if kind not in FAULT_KINDS:
                raise ExperimentError(
                    f"unknown fault kind {kind!r}; known kinds: {', '.join(FAULT_KINDS)}"
                )
        return cls(seed=seed, rate=rate, seeded_kinds=kinds)

    @classmethod
    def from_spec(cls, text: str) -> "FaultInjector":
        faults = []
        seeded: FaultInjector | None = None
        clock_skew = 0.0
        for item in filter(None, (part.strip() for part in text.split(","))):
            if item.startswith("random:"):
                parts = item.split(":")
                if len(parts) not in (3, 4):
                    raise ExperimentError(
                        f"seeded fault spec must be random:SEED:RATE[:kind+kind...] "
                        f"(got {item!r})"
                    )
                kinds = tuple(parts[3].split("+")) if len(parts) == 4 else None
                try:
                    seeded = cls.seeded(int(parts[1]), float(parts[2]), kinds)
                except (ValueError, ExperimentError) as error:
                    # Always name the offending term: a rejected rate or kind
                    # surfaces from seeded() without the spec context.
                    raise ExperimentError(
                        f"invalid seeded fault spec {item!r}: {error}"
                    ) from None
                continue
            if item.startswith("skew:"):
                try:
                    clock_skew = float(item.partition(":")[2])
                except ValueError:
                    raise ExperimentError(
                        f"invalid clock-skew fault {item!r}: must be skew:SECONDS"
                    ) from None
                continue
            kind, separator, target = item.partition("@")
            if not separator:
                raise ExperimentError(
                    f"fault {item!r} must be kind@chunk or kind@chunk:attempt"
                )
            chunk_text, _, attempt_text = target.partition(":")
            try:
                chunk = int(chunk_text)
                attempt = (
                    None
                    if attempt_text == "*"
                    else int(attempt_text)
                    if attempt_text
                    else (None if kind == "poison" else 0)
                )
            except ValueError:
                raise ExperimentError(f"invalid fault target in {item!r}") from None
            faults.append(ChunkFault(kind=kind, chunk=chunk, attempt=attempt))
        return cls(
            faults=tuple(faults),
            seed=seeded.seed if seeded is not None else None,
            rate=seeded.rate if seeded is not None else 0.0,
            seeded_kinds=(
                seeded.seeded_kinds
                if seeded is not None
                else cls.__dataclass_fields__["seeded_kinds"].default
            ),
            clock_skew=clock_skew,
        )

    def __str__(self) -> str:
        """The canonical CLI spec of this schedule (round-trips)."""
        terms = []
        for fault in self.faults:
            if fault.attempt is None:
                suffix = "" if fault.kind == "poison" else ":*"
            elif fault.attempt == 0 and fault.kind != "poison":
                suffix = ""
            else:
                suffix = f":{fault.attempt}"
            terms.append(f"{fault.kind}@{fault.chunk}{suffix}")
        if self.seed is not None:
            term = f"random:{self.seed}:{self.rate!r}"
            default_kinds = type(self).__dataclass_fields__["seeded_kinds"].default
            if self.seeded_kinds != default_kinds:
                term += ":" + "+".join(self.seeded_kinds)
            terms.append(term)
        if self.clock_skew:
            terms.append(f"skew:{self.clock_skew!r}")
        return ",".join(terms)

    def _seeded_fault(self, chunk: int) -> str | None:
        if self.seed is None or self.rate <= 0.0:
            return None
        digest = hashlib.sha256(f"fabric-fault:{self.seed}:{chunk}".encode()).digest()
        draw = int.from_bytes(digest[:8], "big") / float(1 << 64)
        if draw >= self.rate:
            return None
        pick = int.from_bytes(digest[8:16], "big") % len(self.seeded_kinds)
        return self.seeded_kinds[pick]

    def worker_fault(self, chunk: int, attempt: int) -> str | None:
        """The fault (if any) a worker must act out at ``(chunk, attempt)``."""
        for fault in self.faults:
            if fault.fires(chunk, attempt):
                return fault.kind
        kind = self._seeded_fault(chunk)
        if kind is not None:
            # Seeded worker faults fire on the first attempt only (poison
            # fires always): every seeded schedule must converge.
            if kind == "poison" or attempt == 0:
                return kind
        return None


# ---------------------------------------------------------------------------
# Leases
# ---------------------------------------------------------------------------


def _campaign_directory(campaign: CampaignState | str | Path) -> Path:
    """The campaign directory of a :class:`CampaignState` or a path."""
    return Path(getattr(campaign, "directory", campaign))


def lease_directory(campaign: CampaignState | str | Path) -> Path:
    return _campaign_directory(campaign) / "leases"


def worker_directory(campaign: CampaignState | str | Path, owner: str) -> Path:
    return _campaign_directory(campaign) / "workers" / owner


def read_lease(path: Path) -> Lease | None:
    """One lease file, or ``None`` when it cannot be read.

    A torn or garbled lease file — a worker dying mid-write on a
    filesystem without atomic rename, a reader racing a non-atomic writer
    — must never crash the coordinator: it is logged and treated exactly
    like an expired lease (its chunk is claimable again; the fencing
    epoch on the *store* side still protects against its zombie writer).
    """
    try:
        return Lease.read(path)
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as error:
        logger.warning(
            "skipping unreadable lease file; treating it as expired", path=path, error=error
        )
        return None


def read_leases(campaign: CampaignState | str | Path) -> list[Lease]:
    """Every readable lease file currently on disk, sorted by chunk index.

    Unreadable (torn) lease files are skipped with a warning — see
    :func:`read_lease`.
    """
    directory = lease_directory(campaign)
    if not directory.is_dir():
        return []
    leases = (read_lease(path) for path in sorted(directory.glob("chunk-*.json")))
    return sorted(
        (lease for lease in leases if lease is not None),
        key=lambda lease: lease.chunk,
    )


# ---------------------------------------------------------------------------
# Epoch fences
# ---------------------------------------------------------------------------


def fences_path(campaign: CampaignState | str | Path) -> Path:
    return _campaign_directory(campaign) / "fences.jsonl"


def record_fence(campaign: CampaignState | str | Path, chunk: int, epoch: int) -> None:
    """Record that ``chunk`` may only merge from lease epoch ``epoch`` up.

    Written whenever a lease is re-issued (a retry, an expiry takeover):
    every result the superseded epochs might still produce is fenced out
    of the canonical store.  Append-only with an fsynced line per fence —
    concurrent fencers on a shared directory interleave whole lines in
    the common case, and :func:`read_fences` tolerates a torn one (the
    divergent-duplicate check on merge remains the backstop).
    """
    line = json.dumps({"chunk": int(chunk), "epoch": int(epoch)}, sort_keys=True)
    with open(fences_path(campaign), "a", encoding="utf-8") as handle:
        handle.write(line + "\n")
        handle.flush()
        os.fsync(handle.fileno())


def read_fences(campaign: CampaignState | str | Path) -> dict[int, int]:
    """Chunk → minimum acceptable lease epoch (highest fence recorded)."""
    path = fences_path(campaign)
    fences, unreadable = highest_epochs(read_jsonl_lines(path) or ())
    for number in unreadable:
        logger.warning("skipping unreadable fence line", path=path, line=number)
    return fences


# ---------------------------------------------------------------------------
# Coordinator journal
# ---------------------------------------------------------------------------


@dataclass
class JournalState:
    """Campaign state reconstructed from a coordinator journal replay."""

    events: list[dict] = field(default_factory=list)
    retries: int = 0
    expired_leases: int = 0
    degraded_chunks: list[int] = field(default_factory=list)
    fences: dict[int, int] = field(default_factory=dict)
    plan: dict | None = None
    completed: bool = False


class CoordinatorJournal:
    """Append-only decision journal of a campaign's coordinator.

    Every coordinator decision — the plan adopted, claims observed,
    expiries declared, requeues, degradations, merges — is an fsynced
    JSON line in ``coordinator.jsonl``.  A restarted coordinator (or
    :func:`heal_campaign`, or ``scenarios show``) **replays** the journal
    to reconstruct exactly what was decided instead of inferring it from
    leftovers; the journal never holds results, so losing it costs
    diagnostics, not data.
    """

    def __init__(self, campaign: CampaignState | str | Path) -> None:
        self.path = _campaign_directory(campaign) / "coordinator.jsonl"

    def exists(self) -> bool:
        return self.path.exists()

    def append(self, event: str, **fields) -> None:
        record = {"event": event, "at": time.time(), **fields}
        line = json.dumps(record, sort_keys=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def replay(self) -> JournalState:
        """Reconstruct coordinator state from the journal (tolerantly).

        A torn final line — the coordinator died mid-append — is skipped
        with a warning, exactly like the stores' torn tails.
        """
        state = JournalState()
        for number, record in read_jsonl_lines(self.path) or ():
            if record is None or "event" not in record:
                logger.warning("skipping unreadable journal line", path=self.path, line=number)
                continue
            event = record["event"]
            state.events.append(record)
            if event == "plan":
                state.plan = record
                state.completed = False
            elif event == "requeue":
                state.retries += 1
                fence = int(record.get("fence", 0))
                chunk = int(record["chunk"])
                state.fences[chunk] = max(fence, state.fences.get(chunk, fence))
            elif event == "expire":
                state.expired_leases += 1
            elif event == "degrade":
                chunk = int(record["chunk"])
                if chunk not in state.degraded_chunks:
                    state.degraded_chunks.append(chunk)
            elif event == "fence":
                fence = int(record["epoch"])
                chunk = int(record["chunk"])
                state.fences[chunk] = max(fence, state.fences.get(chunk, fence))
            elif event == "complete":
                state.completed = True
        return state


def worker_store_paths(campaign: CampaignState | str | Path) -> Iterator[Path]:
    root = _campaign_directory(campaign) / "workers"
    if not root.is_dir():
        return
    for path in sorted(root.iterdir()):
        if (path / "spec.json").is_file():
            yield path


def merge_worker_stores(state: CampaignState) -> MergeReport:
    """Merge every per-worker store under a campaign into the canonical one.

    The one merge of the campaign fabric (coordinator, ``scenarios
    merge`` and heal).  Worker stores are read through **read-only
    snapshots** (``CampaignState(read_only=True)``) and never touched on
    disk: a live worker may be appending behind a torn tail, which the
    snapshot skips instead of truncating.  Idempotent: chunks already
    merged are recognised as byte-identical duplicates and skipped;
    chunks a zombie worker appended under a **fenced** (superseded)
    lease epoch (:func:`read_fences`) are skipped with a warning — the
    re-issued epoch's copy is the canonical one.
    """
    telemetry = obs.active()
    snapshots = [
        CampaignState(path, state.spec, read_only=True) for path in worker_store_paths(state)
    ]
    with telemetry.span("merge", workers=len(snapshots)) as span:
        report = state.merge(*snapshots, fences=read_fences(state), skip_fenced=True)
        span.set(added=len(report.added), fenced=len(report.fenced))
    if telemetry.enabled and report.added:
        telemetry.counter("fabric.merged_chunks", len(report.added))
    return report


def _cleanup_if_complete(state: CampaignState, total_chunks: int) -> None:
    """Drop fabric scaffolding once every chunk is canonical.

    Only a fully merged campaign is cleaned: a partial one keeps its
    worker stores, lease files and fences — they are the recovery
    evidence :func:`heal_campaign` works from.  The coordinator journal
    is kept either way: it is the campaign's flight record.
    """
    if len(state.completed_chunks) != total_chunks:
        return
    shutil.rmtree(state.directory / "workers", ignore_errors=True)
    shutil.rmtree(lease_directory(state), ignore_errors=True)
    fences_path(state).unlink(missing_ok=True)
    (state.directory / "fabric.json").unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# Healing
# ---------------------------------------------------------------------------


@dataclass
class HealReport:
    """Outcome of one :func:`heal_campaign` call."""

    state: CampaignState
    merge: MergeReport
    healed_chunks: list[int] = field(default_factory=list)
    cleared_leases: list[int] = field(default_factory=list)
    live_leases: list[int] = field(default_factory=list)
    missing_chunks: int = 0

    @property
    def complete(self) -> bool:
        return self.missing_chunks == 0

    def describe(self) -> str:
        live = (
            f", {len(self.live_leases)} live lease(s) left to their workers"
            if self.live_leases
            else ""
        )
        return (
            f"{self.merge.describe()}; healed {len(self.healed_chunks)} "
            f"abandoned chunk(s), cleared {len(self.cleared_leases)} stale "
            f"lease(s){live}, {self.missing_chunks} chunk(s) still missing"
        )


def recorded_chunk_size(
    snapshot: CampaignSnapshot, spec: ScenarioSpec, chunk_size: int | None = None
) -> int:
    """The chunk size the snapshot records (advert, else any chunk or lease).

    ``chunk_size`` fills in only when the directory records none (else
    :data:`~repro.scenarios.runner.DEFAULT_CHUNK_SIZE`); one whose chunk
    plan contradicts the recorded size is an error naming both sizes.
    """
    recorded = snapshot.chunk_size
    if recorded is None:
        return chunk_size or DEFAULT_CHUNK_SIZE
    count = spec.family.count
    if chunk_size is not None and plan_chunks(count, chunk_size) != plan_chunks(count, recorded):
        raise ExperimentError(
            f"chunk size {chunk_size} contradicts the chunk size {recorded} recorded "
            f"in {snapshot.directory}"
        )
    return recorded if chunk_size is None else chunk_size


def heal_campaign(
    spec: ScenarioSpec,
    store: CampaignStore | str | Path,
    chunk_size: int | None = None,
    skew_slack: float | None = None,
) -> HealReport:
    """Recover a campaign whose coordinator died mid-run.

    Leases, torn leases and the chunk plan come from one read-only
    :class:`~repro.obs.campaign.CampaignSnapshot`: the chunk size is the
    one the directory records (:func:`recorded_chunk_size`; ``chunk_size``
    only fills in when it records none), and ``skew_slack`` defaults to
    the advert's.  Then three passes, each durable on its own:

    1. **merge** every surviving per-worker store into the canonical one
       (:func:`merge_worker_stores`: crash-after-append chunks surface
       here; chunks appended under a fenced, superseded lease epoch are
       skipped — the re-issued epoch's copy is the canonical one);
    2. **re-evaluate** every leased-but-missing chunk in the healing
       parent — the abandoned/expired leases name their exact
       ``[start, stop)`` ranges.  A **live** lease (its ``deadline +
       skew_slack`` has not passed — a worker is still computing it) is
       left alone and reported in ``live_leases``.  An unreadable (torn)
       lease file is treated as expired and re-evaluated from the chunk
       plan;
    3. **clear** lease files whose chunks are now canonical.

    Chunks that were never leased (the coordinator died before sharding
    that far) are reported as ``missing_chunks``; ``scenarios resume`` or
    a fresh coordinator run completes them.
    """
    if isinstance(store, (str, Path)):
        store = CampaignStore(store)
    state = store.campaign(spec)
    snapshot = CampaignSnapshot.read(state.directory)
    plan = plan_chunks(spec.family.count, recorded_chunk_size(snapshot, spec, chunk_size))
    skew_slack = snapshot.skew_slack if skew_slack is None else skew_slack
    report = HealReport(state=state, merge=merge_worker_stores(state))
    journal = CoordinatorJournal(state)

    done = state.completed_chunks
    live = {
        lease.chunk
        for lease in snapshot.leases
        if lease.chunk not in done and not lease.expired(snapshot.now, skew_slack)
    }
    report.live_leases = sorted(live)
    stale: list[tuple[int, int, int]] = [
        (lease.chunk, lease.start, lease.stop)
        for lease in snapshot.leases
        if lease.chunk not in done and lease.chunk not in live
    ]
    # A torn lease is an expired lease whose range comes from the plan.
    stale.extend(
        (chunk, *plan[chunk])
        for chunk in snapshot.torn_leases
        if chunk not in done and chunk < len(plan)
    )
    if stale:
        heal_store = CampaignState(worker_directory(state, _HEAL_OWNER), spec)
        for chunk, start, stop in stale:
            if chunk not in heal_store.completed_chunks:
                rows = evaluate_range(spec, start, stop)
                heal_store.append_chunk(chunk, start, stop, rows)
            report.healed_chunks.append(chunk)
        healed_merge = state.merge(heal_store)
        report.merge.added.extend(healed_merge.added)
        report.merge.duplicates.extend(healed_merge.duplicates)
        report.merge.rewritten = report.merge.rewritten or healed_merge.rewritten
    done = state.completed_chunks
    report.merge.total_chunks = len(done)

    report.cleared_leases = [lease.chunk for lease in snapshot.leases if lease.chunk in done]
    for chunk in report.cleared_leases + [c for c in snapshot.torn_leases if c in done]:
        (lease_directory(state) / f"chunk-{chunk:06d}.json").unlink(missing_ok=True)

    report.missing_chunks = max(0, len(plan) - len(done) - len(report.live_leases))
    journal.append(
        "heal",
        healed=report.healed_chunks,
        cleared=report.cleared_leases,
        live=report.live_leases,
        missing=report.missing_chunks,
    )
    if not report.live_leases:
        _cleanup_if_complete(state, len(plan))
    return report
