"""One read-only snapshot of a campaign directory.

Every reader of a campaign directory — ``scenarios status``, ``scenarios
report`` and its Chrome export, ``scenarios show`` and ``heal_campaign``
— projects one :class:`CampaignSnapshot` instead of parsing the files
itself.  :meth:`CampaignSnapshot.read` makes one tolerant pass and never
creates, repairs or truncates anything.  It holds:

* the advert (``fabric.json``, a :class:`FabricAdvert`);
* the lease files (:class:`Lease`), whose expiry :meth:`Lease.expired`
  decides by one rule with the advert's skew slack, plus the chunk
  indices of torn lease files;
* the fences (``fences.jsonl``: highest epoch per chunk);
* the coordinator journal as ``(line_number, record)`` pairs;
* canonical and per-worker store progress (``chunks.jsonl`` plus
  ``epochs.jsonl``), and the fence-aware durable chunk set
  (:func:`durable_chunks`);
* the telemetry sidecar: spans, dropped lines and metric snapshots.

It also resolves the chunk plan once.  The chunk size comes from the
advert, else exactly from any chunk or lease record (chunk ``i > 0``
starts at ``i × chunk_size``; chunk 0 spans ``stop − start``).  The
total chunk count comes from the advert, else the journal's ``plan``
event, else the ``campaign``/``coordinate`` root span, else
``spec.json``'s platform count over the chunk size; otherwise it is
unknown.

The two fabric file formats the snapshot reads, the advert and the
lease, are defined here too, next to their one reader; the lease
protocol (:mod:`repro.scenarios.fabric`) writes them.  Like the rest of
:mod:`repro.obs` this module is stdlib-only and never imports
:mod:`repro.scenarios`.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

from repro.obs.logs import get_logger
from repro.obs.spans import (
    highest_epochs,
    read_chunk_ranges,
    read_jsonl_lines,
    read_metric_snapshots,
    read_spans,
    span_end,
)
from repro.obs.telemetry import TELEMETRY_DIR_NAME

__all__ = [
    "DEFAULT_SKEW_SLACK",
    "CampaignSnapshot",
    "FabricAdvert",
    "Lease",
    "StoreProgress",
    "durable_chunks",
    "read_store_progress",
]

logger = get_logger(__name__)

#: Default wall-clock slack added to a lease deadline before another
#: party may declare it expired: modest clock skew between machines must
#: never cause a false takeover.
DEFAULT_SKEW_SLACK = 2.0


def _atomic_write_text(path: Path, text: str) -> None:
    """Write a small metadata file atomically (temp + fsync + replace).

    Adverts and leases are rewritten while other parties read them; a
    reader never observes a half-written file from this path.
    """
    fd, temp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_name, path)
    except BaseException:
        if os.path.exists(temp_name):
            os.unlink(temp_name)
        raise


@dataclass(frozen=True)
class FabricAdvert:
    """The coordinator's published campaign parameters (``fabric.json``).

    Workers must agree with the coordinator — and with each other — on
    the chunk plan and the lease protocol's constants; the advert is the
    single source of truth, written atomically once per campaign.
    """

    chunk_size: int
    total_chunks: int
    ttl: float
    skew_slack: float = DEFAULT_SKEW_SLACK
    max_attempts: int = 3
    #: Campaign trace id + the coordinator root span's cross-process ref
    #: (``owner:pid:span_id``) — how detached ``scenarios work`` claimants
    #: join the campaign's causal tree.  Optional and ignored by the
    #: protocol itself; old adverts without them stay readable.
    trace: str | None = None
    parent: str | None = None

    def write(self, directory: Path) -> None:
        payload = json.dumps(dataclasses.asdict(self), sort_keys=True) + "\n"
        _atomic_write_text(directory / "fabric.json", payload)

    @classmethod
    def read(cls, directory: Path) -> "FabricAdvert | None":
        """The advert, or ``None`` when absent or (transiently) unreadable."""
        path = directory / "fabric.json"
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
            return cls(
                chunk_size=int(record["chunk_size"]),
                total_chunks=int(record["total_chunks"]),
                ttl=float(record["ttl"]),
                skew_slack=float(record["skew_slack"]),
                max_attempts=int(record["max_attempts"]),
                trace=record.get("trace") or None,
                parent=record.get("parent") or None,
            )
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as error:
            logger.warning("unreadable fabric advert", path=path, error=error)
            return None


@dataclass(frozen=True)
class Lease:
    """One chunk range leased to one worker.

    ``epoch`` increments every time the chunk is re-leased (retry after a
    crash, takeover after an expired deadline), so a stale worker's late
    write is recognisably outdated — the **fencing token** of the fabric.

    ``granted_at``/``deadline`` are wall-clock epoch seconds, and
    ``deadline`` is ``granted_at + ttl``: the attempt's whole budget,
    never extended.  Expiry is never declared before ``deadline +
    skew_slack`` (:meth:`expired`), so modest clock skew between
    machines cannot cause a false takeover.
    """

    chunk: int
    start: int
    stop: int
    owner: str
    epoch: int
    granted_at: float | None = None
    deadline: float | None = None
    ttl: float | None = None

    def expired(self, now: float, skew_slack: float = DEFAULT_SKEW_SLACK) -> bool:
        """The one expiry rule: wall-clock, past ``deadline + skew_slack``.

        A lease file without wall-clock fields (written by an older
        release) is treated as expired: no live worker holds it.
        """
        return self.deadline is None or now > self.deadline + skew_slack

    def reissued(self, owner: str, now: float, ttl: float) -> "Lease":
        """A takeover lease: same chunk, new owner, **bumped epoch**."""
        return dataclasses.replace(
            self,
            owner=owner,
            epoch=self.epoch + 1,
            granted_at=now,
            deadline=now + ttl,
            ttl=ttl,
        )

    def path(self, directory: Path) -> Path:
        return directory / f"chunk-{self.chunk:06d}.json"

    def payload(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True) + "\n"

    def write(self, directory: Path) -> None:
        """Atomically write (or rewrite) the lease file.

        Temp file + fsync + ``os.replace``: takeovers and surrenders
        rewrite a lease other parties are reading.  (A worker dying
        mid-write on a non-atomic network filesystem can still tear one;
        readers treat such files as expired.)
        """
        _atomic_write_text(self.path(directory), self.payload())

    @classmethod
    def read(cls, path: Path) -> "Lease":
        record = json.loads(path.read_text(encoding="utf-8"))
        deadline = record.get("deadline")
        return cls(
            chunk=int(record["chunk"]),
            start=int(record["start"]),
            stop=int(record["stop"]),
            owner=str(record["owner"]),
            epoch=int(record["epoch"]),
            granted_at=None if record.get("granted_at") is None else float(record["granted_at"]),
            deadline=None if deadline is None else float(deadline),
            ttl=None if record.get("ttl") is None else float(record["ttl"]),
        )


@dataclass
class StoreProgress:
    """One store's durable chunks, read tolerantly (never repaired).

    ``ranges`` maps chunk index to its ``[start, stop)`` platform range;
    ``torn`` flags unreadable lines (a torn tail the owner may still be
    writing behind); ``epochs`` is the ``epochs.jsonl`` sidecar.
    """

    ranges: dict[int, tuple[int, int]]
    rows: int
    torn: bool
    epochs: dict[int, int]


def read_store_progress(directory: Path) -> StoreProgress:
    """The :class:`StoreProgress` of one store directory."""
    ranges, rows, torn = read_chunk_ranges(directory / "chunks.jsonl")
    epochs, _ = highest_epochs(read_jsonl_lines(directory / "epochs.jsonl") or ())
    return StoreProgress(ranges=ranges, rows=rows, torn=torn, epochs=epochs)


def durable_chunks(
    canonical: Iterable[int], workers: Iterable[StoreProgress], fences: Mapping[int, int]
) -> set[int]:
    """Chunks durable *somewhere*: canonical, or unfenced in a worker store.

    A worker's copy recorded under an epoch below the chunk's fence (a
    zombie's append) does **not** count: the merge rejects those bytes,
    so the chunk still needs a legitimate evaluation.
    """
    done = set(canonical)
    for worker in workers:
        for index in worker.ranges:
            epoch, fence = worker.epochs.get(index), fences.get(index)
            if epoch is None or fence is None or epoch >= fence:
                done.add(index)
    return done


def _read_leases(leases_dir: Path) -> tuple[list[Lease], list[int]]:
    leases: list[Lease] = []
    torn: list[int] = []
    for path in sorted(leases_dir.glob("chunk-*.json")):
        try:
            leases.append(Lease.read(path))
        except FileNotFoundError:
            continue  # released between the glob and the read
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            # A torn lease: the filename still names its chunk.
            index = path.stem.partition("-")[2]
            if index.isdigit():
                torn.append(int(index))
    leases.sort(key=lambda lease: lease.chunk)
    return leases, torn


def _chunk_size(
    advert: FabricAdvert | None, stores: Iterable[StoreProgress], leases: Iterable[Lease]
) -> int | None:
    if advert is not None:
        return advert.chunk_size
    records = [(index, *span) for store in stores for index, span in store.ranges.items()]
    records += [(lease.chunk, lease.start, lease.stop) for lease in leases]
    for index, start, stop in records:
        if index > 0 and start > 0 and start % index == 0:
            return start // index
        if index == 0 and stop > start:
            return stop - start
    return None


def _total_chunks(
    directory: Path,
    advert: FabricAdvert | None,
    journal: list[tuple[int, dict]],
    spans: list[dict],
    chunk_size: int | None,
) -> int | None:
    if advert is not None:
        return advert.total_chunks
    plans = [record for _, record in journal if record.get("event") == "plan"]
    roots = [
        record["attrs"]
        for record in spans
        if record.get("name") in ("campaign", "coordinate")
        and isinstance(record.get("attrs"), dict)
    ]
    for source in (plans[-1] if plans else None, *roots):
        try:
            return int(source["total_chunks"])
        except (KeyError, TypeError, ValueError):
            pass
    if not chunk_size:
        return None
    try:
        spec = json.loads((directory / "spec.json").read_text(encoding="utf-8"))
        count = int(spec["family"]["count"])
    except (OSError, ValueError, KeyError, TypeError):
        return None
    return max(1, -(-count // chunk_size))


@dataclass
class CampaignSnapshot:
    """Everything on disk about one campaign directory, read once."""

    directory: Path
    now: float
    advert: FabricAdvert | None
    skew_slack: float
    leases: list[Lease]
    torn_leases: list[int]
    fences: dict[int, int]
    journal: list[tuple[int, dict]]
    journal_present: bool
    canonical: StoreProgress
    workers: dict[str, StoreProgress]
    spans: list[dict]
    dropped_span_lines: int
    metrics: list[dict]
    chunk_size: int | None
    total_chunks: int | None

    @classmethod
    def read(cls, directory: str | Path, now: float | None = None) -> "CampaignSnapshot":
        """One tolerant pass over ``directory``; never raises on torn or
        missing files, never writes."""
        directory = Path(directory)
        now = time.time() if now is None else now
        advert = FabricAdvert.read(directory)
        leases, torn_leases = _read_leases(directory / "leases")
        fences, _ = highest_epochs(read_jsonl_lines(directory / "fences.jsonl") or ())
        journal_lines = read_jsonl_lines(directory / "coordinator.jsonl")
        journal = [(n, record) for n, record in journal_lines or () if record is not None]
        canonical = read_store_progress(directory)
        workers_root = directory / "workers"
        workers: dict[str, StoreProgress] = {}
        if workers_root.is_dir():
            for path in sorted(workers_root.iterdir()):
                progress = read_store_progress(path)
                if progress.ranges or (path / "spec.json").is_file():
                    workers[path.name] = progress
        telemetry_dir = directory / TELEMETRY_DIR_NAME
        spans, dropped = read_spans(telemetry_dir)
        chunk_size = _chunk_size(advert, [canonical, *workers.values()], leases)
        return cls(
            directory=directory,
            now=now,
            advert=advert,
            skew_slack=DEFAULT_SKEW_SLACK if advert is None else advert.skew_slack,
            leases=leases,
            torn_leases=torn_leases,
            fences=fences,
            journal=journal,
            journal_present=journal_lines is not None,
            canonical=canonical,
            workers=workers,
            spans=spans,
            dropped_span_lines=dropped,
            metrics=read_metric_snapshots(telemetry_dir),
            chunk_size=chunk_size,
            total_chunks=_total_chunks(directory, advert, journal, spans, chunk_size),
        )

    def span_extent(self) -> tuple[float, float] | None:
        """Wall-clock ``(first start, last end)`` of the spans, if any."""
        timed = [r for r in self.spans if isinstance(r.get("t0"), (int, float))]
        if not timed:
            return None
        return min(float(r["t0"]) for r in timed), max(span_end(r) for r in timed)

    def expired(self, lease: Lease) -> bool:
        """Whether ``lease`` is past its deadline plus the advert's slack."""
        return lease.expired(self.now, self.skew_slack)

    @property
    def durable_chunks(self) -> set[int]:
        """Canonical chunks plus every unfenced worker-store chunk."""
        return durable_chunks(self.canonical.ranges, self.workers.values(), self.fences)
