"""Persistent, resumable result store for scenario campaigns.

A campaign's results live in one directory per spec, keyed by the spec's
content hash (:func:`repro.scenarios.spec.spec_hash`) so renamed specs
share results and different spaces never collide:

.. code-block:: text

    <root>/<hash12>/spec.json      # the spec, for humans and `show`
    <root>/<hash12>/chunks.jsonl   # one JSON line per *completed* chunk

``chunks.jsonl`` is strictly append-only: the runner evaluates one chunk
of platforms at a time and appends ``{"chunk": i, "rows": [...]}`` when —
and only when — the chunk is fully evaluated, flushing and fsyncing each
line.  An interrupted campaign (Ctrl-C, ``kill -9``, power loss) therefore
leaves a prefix of complete lines plus at most one truncated tail line;
reopening truncates the torn tail away (so the next append starts on a
fresh line) and resuming overwrites nothing else: the runner just skips
the chunk indices already present.  Chunk results are deterministic
functions of the spec, so a resumed campaign is bit-identical to an
uninterrupted one (pinned by the test-suite).

The in-memory :class:`CampaignState` is an *index*, not a cache: loading
keeps only each chunk's byte span, platform range and row count — a few
ints per chunk — and re-reads rows from disk on demand
(:meth:`~CampaignState.chunk_rows` / :meth:`~CampaignState.iter_chunk_rows`).
:meth:`~CampaignState.aggregate` streams the chunks one at a time,
accumulating compact per-(series, size) float columns instead of holding
every row dict in the parent process, so a mega-campaign's aggregation
costs ~8 bytes per value rather than a JSON object per row — and the
resulting statistics are bit-identical to :func:`aggregate_rows` over the
full row list (same column arrays, same ``mean``/``quantile`` calls).
:meth:`~CampaignState.export_npz` writes the same columns out as a
``.npz`` file (one array per series plus ``platform``/``size``/``spec``),
the columnar hand-off for notebooks and external analysis.

Rows are plain JSON objects ``{"platform": int, "size": int | float,
"values": {series: float}}`` (``size`` is the workload grid point: an int
for matrix sizes, a float for bus ``w/c`` ratios or probe megabytes);
Python ints and floats round-trip JSON exactly, so persisted results keep
every bit.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import tempfile
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

import repro.obs as obs
from repro.exceptions import ExperimentError
from repro.obs import get_logger
from repro.obs.spans import highest_epochs, read_jsonl_lines
from repro.scenarios.spec import ScenarioSpec, spec_hash

__all__ = [
    "CampaignState",
    "CampaignStore",
    "MergeReport",
    "TornTailRecovery",
    "aggregate_rows",
]

logger = get_logger(__name__)


@dataclass(frozen=True)
class TornTailRecovery:
    """What :meth:`CampaignState._load` dropped (or repaired) on open.

    ``kind`` is ``"torn-tail"`` when a truncated trailing record was cut
    away (a crash mid-append) or ``"missing-newline"`` when only the final
    newline was missing and got repaired in place.  ``chunk_index`` is the
    chunk the dropped record claimed to hold, when that much of the line
    survived — the chunk that will be re-evaluated on resume.
    """

    kind: str
    byte_offset: int
    dropped_bytes: int
    chunk_index: int | None = None

    def describe(self) -> str:
        if self.kind == "missing-newline":
            return f"repaired missing final newline at byte {self.byte_offset}"
        chunk = f" of chunk {self.chunk_index}" if self.chunk_index is not None else ""
        return (
            f"dropped torn tail{chunk}: {self.dropped_bytes} bytes "
            f"at byte offset {self.byte_offset} (chunk will be re-evaluated)"
        )


@dataclass
class MergeReport:
    """Outcome of one :meth:`CampaignState.merge` call."""

    added: list[int] = field(default_factory=list)
    duplicates: list[int] = field(default_factory=list)
    fenced: list[int] = field(default_factory=list)
    rewritten: bool = False
    total_chunks: int = 0

    def describe(self) -> str:
        fenced = f", {len(self.fenced)} fenced chunk(s) rejected" if self.fenced else ""
        return (
            f"merged {len(self.added)} new chunk(s), "
            f"{len(self.duplicates)} duplicate(s) skipped{fenced}, "
            f"{self.total_chunks} total"
        )


class _ColumnAccumulator:
    """Streaming per-(series, size) column builder.

    ``update`` ingests one chunk's rows (per-chunk partial arrays are
    appended, nothing per-row survives the call); ``statistics`` finalises
    each cell by concatenating its per-chunk arrays — the concatenation
    equals the array :func:`aggregate_rows` would have built row by row,
    so every statistic matches it bit for bit.
    """

    def __init__(self) -> None:
        self._cells: dict[str, dict[int, list[np.ndarray]]] = {}

    def update(self, rows: Iterable[Mapping]) -> None:
        chunk_values: dict[str, dict[int | float, list[float]]] = {}
        for row in rows:
            # The grid value is an int (matrix sizes) or a float (bus w/c
            # ratios, probe megabytes); JSON round-trips both exactly.
            size = row["size"]
            for series, value in row["values"].items():
                chunk_values.setdefault(series, {}).setdefault(size, []).append(float(value))
        for series, per_size in chunk_values.items():
            cells = self._cells.setdefault(series, {})
            for size, values in per_size.items():
                cells.setdefault(size, []).append(np.array(values))

    def columns(self) -> Iterator[tuple[str, int, np.ndarray]]:
        """Every (series, size, values) column, sizes sorted per series."""
        for series, per_size in self._cells.items():
            for size, chunks in sorted(per_size.items()):
                yield series, size, (chunks[0] if len(chunks) == 1 else np.concatenate(chunks))

    def statistics(self, quantiles: Sequence[float]) -> dict:
        aggregated: dict[str, dict[int, dict[str, float]]] = {}
        for series, size, array in self.columns():
            aggregated.setdefault(series, {})[size] = _cell_statistics(array, quantiles)
        return aggregated


def _cell_statistics(array: np.ndarray, quantiles: Sequence[float]) -> dict[str, float]:
    cell = {
        "count": int(array.size),
        "mean": float(array.mean()),
        "min": float(array.min()),
        "max": float(array.max()),
    }
    for q in quantiles:
        cell[f"q{round(q * 100):02d}"] = float(np.quantile(array, q))
    return cell


class CampaignState:
    """One spec's slice of the store: its directory, chunks and rows.

    ``read_only=True`` opens a **snapshot**: nothing on disk is created,
    repaired or truncated — a torn tail is noted in ``recovered_tail`` and
    skipped, not cut away.  This is how a live store owned by *another*
    process (a detached fabric worker mid-append) is observed safely: a
    repairing open would truncate bytes the owner is still writing behind.
    """

    def __init__(self, directory: Path, spec: ScenarioSpec, read_only: bool = False) -> None:
        self.directory = Path(directory)
        self.spec = spec
        self.read_only = read_only
        self.spec_path = self.directory / "spec.json"
        self.chunks_path = self.directory / "chunks.jsonl"
        self.epochs_path = self.directory / "epochs.jsonl"
        self._ranges: dict[int, tuple[int, int]] = {}
        self._row_counts: dict[int, int] = {}
        self._spans: dict[int, tuple[int, int]] = {}
        self._epochs: dict[int, int] = {}
        #: Set when opening the store recovered from a torn write; the
        #: diagnostic names the byte offset and chunk index it dropped so
        #: ``scenarios show`` (and logs) can report it instead of the old
        #: silent truncation.
        self.recovered_tail: TornTailRecovery | None = None
        self._load()

    def _load(self) -> None:
        if not self.read_only:
            self.directory.mkdir(parents=True, exist_ok=True)
        if self.spec_path.exists():
            stored = ScenarioSpec.from_json(self.spec_path.read_text(encoding="utf-8"))
            if spec_hash(stored) != spec_hash(self.spec):
                raise ExperimentError(
                    f"store directory {self.directory} holds results of a different "
                    f"spec ({stored.name!r}); refusing to mix campaigns"
                )
        elif not self.read_only:
            # Atomic first write: two fabric workers bootstrapping the same
            # campaign directory concurrently must never interleave a torn
            # spec.json (they write identical canonical JSON either way).
            _atomic_write_text(self.spec_path, self.spec.to_json() + "\n")
        self._ranges = {}
        self._row_counts = {}
        self._spans = {}
        self._epochs = _load_epochs(self.epochs_path)
        if not self.chunks_path.exists():
            return
        # Index pass: records are parsed one line at a time to validate
        # them and note their byte spans, then dropped — the state holds a
        # few ints per chunk, never the rows themselves.
        size = os.path.getsize(self.chunks_path)
        truncate_at: int | None = None
        torn_line: str | None = None
        ends_with_newline = True
        offset = 0
        with open(self.chunks_path, "rb") as handle:
            for number, line_bytes in enumerate(handle):
                line_start = offset
                offset += len(line_bytes)
                ends_with_newline = line_bytes.endswith(b"\n")
                line = line_bytes.decode("utf-8", errors="replace").strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    if offset == size:
                        # A truncated tail line is exactly what a kill
                        # mid-write leaves behind.  Truncate the file back
                        # to the last complete record so the next append
                        # starts on a fresh line (appending straight after
                        # the torn write would glue two records together);
                        # the chunk is simply re-run.
                        truncate_at = line_start
                        torn_line = line
                        break
                    raise ExperimentError(
                        f"corrupt (non-tail) line {number + 1} in {self.chunks_path}"
                    ) from None
                index = int(record["chunk"])
                # First write wins: a duplicate line can only appear if two
                # runners raced on the same store, and the earlier results
                # are the ones any completed aggregate was built from.
                if index not in self._ranges:
                    self._ranges[index] = (int(record["start"]), int(record["stop"]))
                    self._row_counts[index] = len(record["rows"])
                    self._spans[index] = (line_start, offset)
        if truncate_at is not None:
            if not self.read_only:
                with open(self.chunks_path, "r+b") as handle:
                    handle.truncate(truncate_at)
            self.recovered_tail = TornTailRecovery(
                kind="torn-tail",
                byte_offset=truncate_at,
                dropped_bytes=size - truncate_at,
                chunk_index=_torn_chunk_index(torn_line),
            )
            if not self.read_only:
                logger.warning(
                    self.recovered_tail.describe(),
                    path=self.chunks_path,
                    chunk=self.recovered_tail.chunk_index,
                )
                obs.active().counter("store.torn_tail_recoveries")
        elif size and not ends_with_newline:
            # No torn tail; a final record missing only its newline (flush
            # raced the kill after the JSON but before "\n") still needs
            # one before the next append.  A read-only snapshot of a live
            # store may simply have caught the owner between its JSON write
            # and the trailing newline: index the record, repair nothing.
            if not self.read_only:
                with open(self.chunks_path, "ab") as handle:
                    handle.write(b"\n")
            self.recovered_tail = TornTailRecovery(
                kind="missing-newline", byte_offset=size, dropped_bytes=0
            )
            if not self.read_only:
                logger.warning(self.recovered_tail.describe(), path=self.chunks_path)
                obs.active().counter("store.torn_tail_recoveries")

    @property
    def completed_chunks(self) -> set[int]:
        """Indices of the chunks already evaluated and persisted."""
        return set(self._ranges)

    def row_count(self) -> int:
        """Number of persisted rows (from the index, no disk read)."""
        return sum(self._row_counts.values())

    def covered_platforms(self) -> int:
        """Number of platforms the persisted chunk ranges cover."""
        return sum(stop - start for start, stop in self._ranges.values())

    def chunk_rows(self, index: int) -> list[dict]:
        """Rows of one completed chunk (re-read from disk)."""
        return json.loads(self.raw_chunk_line(index).decode("utf-8"))["rows"]

    def raw_chunk_line(self, index: int) -> bytes:
        """The exact persisted bytes of one chunk's record line.

        The byte-level primitive behind :meth:`merge`: copying raw lines
        between stores (instead of re-serialising parsed records) is what
        makes a merged store byte-identical to a single-writer run.
        """
        try:
            start, stop = self._spans[index]
        except KeyError:
            raise ExperimentError(f"chunk {index} is not persisted") from None
        with open(self.chunks_path, "rb") as handle:
            handle.seek(start)
            return handle.read(stop - start)

    def iter_chunk_rows(self) -> Iterator[tuple[int, list[dict]]]:
        """Stream ``(index, rows)`` per completed chunk, in chunk order.

        Only one chunk's rows are alive at a time — the streaming primitive
        behind :meth:`aggregate` and :meth:`export_npz`.
        """
        for index in sorted(self._ranges):
            yield index, self.chunk_rows(index)

    def chunk_range(self, index: int) -> tuple[int, int]:
        """The ``[start, stop)`` platform range a completed chunk covers.

        The runner validates these against its chunk plan, so a campaign
        resumed with a different ``chunk_size`` fails loudly instead of
        silently mixing two shardings of the space.
        """
        return self._ranges[index]

    def chunk_epoch(self, index: int) -> int | None:
        """The lease epoch a chunk was appended under, if one was recorded.

        ``None`` means "no epoch metadata" — chunks written by the
        single-writer runner, the degradation path or a pre-fencing store;
        fence checks treat them as trusted.
        """
        return self._epochs.get(index)

    def record_epoch(self, index: int, epoch: int) -> None:
        """Record (or re-bless) the lease epoch of one chunk.

        Appended to the ``epochs.jsonl`` sidecar — never to the chunk
        record itself, which must stay byte-identical to a single-writer
        run.  The highest epoch recorded for a chunk wins, so a worker
        acknowledging already-durable bytes under a re-issued lease lifts
        them over the fence without rewriting them.
        """
        if self.read_only:
            raise ExperimentError(f"store {self.directory} is open read-only")
        line = json.dumps({"chunk": int(index), "epoch": int(epoch)}, sort_keys=True)
        with open(self.epochs_path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        self._epochs[index] = max(epoch, self._epochs.get(index, epoch))

    def append_chunk(
        self,
        index: int,
        start: int,
        stop: int,
        rows: Sequence[Mapping],
        epoch: int | None = None,
    ) -> None:
        """Persist one finished chunk (atomic at line granularity).

        ``epoch`` (fabric workers only) records the lease epoch the chunk
        was evaluated under in the ``epochs.jsonl`` sidecar **before** the
        chunk bytes land, so a zombie worker that dies mid-protocol still
        leaves the fence evidence behind.
        """
        if self.read_only:
            raise ExperimentError(f"store {self.directory} is open read-only")
        if index in self._ranges:
            raise ExperimentError(f"chunk {index} is already persisted")
        if epoch is not None:
            self.record_epoch(index, epoch)
        payload = json.dumps(
            {"chunk": index, "start": int(start), "stop": int(stop), "rows": list(rows)},
            sort_keys=True,
        ).encode("utf-8") + b"\n"
        with open(self.chunks_path, "ab") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
            # Span from tell() *after* the write: O_APPEND seeks to EOF at
            # write time, so if another runner raced an append in between,
            # the position before our write would not be where our bytes
            # landed — end-minus-length always is.
            span_stop = handle.tell()
        self._ranges[index] = (int(start), int(stop))
        self._row_counts[index] = len(rows)
        self._spans[index] = (span_stop - len(payload), span_stop)
        telemetry = obs.active()
        if telemetry.enabled:
            telemetry.counter("store.chunks_appended")
            telemetry.counter("store.rows_appended", len(rows))

    def merge(
        self,
        *sources: "CampaignState | str | Path",
        fences: Mapping[int, int] | None = None,
        skip_fenced: bool = False,
    ) -> MergeReport:
        """Fold other stores of the *same spec* into this one.

        The multi-writer primitive of the campaign fabric: every worker
        writes an isolated per-worker store, and the coordinator merges
        them into the canonical one.  Semantics:

        * **spec-hash-checked** — a source holding a different spec's
          results is rejected loudly, never silently mixed;
        * **epoch-fenced** — ``fences`` maps chunk index to the minimum
          acceptable lease epoch: a source chunk recorded under a
          *superseded* epoch (a zombie worker that appended after its
          lease was re-issued) is rejected loudly — or, with
          ``skip_fenced=True`` (the fabric's merge, which knows the
          re-issued epoch's copy is the canonical one), skipped with a
          warning and reported in ``MergeReport.fenced``.  Chunks without
          epoch metadata are trusted (single-writer, degraded and
          pre-fencing stores);
        * **idempotent and duplicate-tolerant** — a chunk index present in
          several stores with byte-identical records (the normal outcome
          of a retried chunk: chunk results are deterministic in the spec)
          is accepted once; *divergent* duplicates are rejected loudly;
        * **overlap-checked** — two distinct chunk indices whose
          ``[start, stop)`` platform ranges overlap (chunk-size drift
          between workers) are rejected loudly;
        * **canonical byte layout** — when anything new is merged, the
          whole file is rewritten atomically (temp file + fsync +
          ``os.replace``) with chunks in index order, raw record lines
          copied verbatim, so the merged ``chunks.jsonl`` is byte-identical
          to the one an uninterrupted single-writer run would have
          produced.
        """
        own_hash = spec_hash(self.spec)
        fences = fences or {}
        accepted_lines: dict[int, bytes] = {}
        accepted_ranges = dict(self._ranges)
        report = MergeReport()

        def record_line(source: "CampaignState", index: int) -> bytes:
            # A read-only snapshot of a live store may have indexed a final
            # record caught before its trailing newline landed; the append
            # path always writes record + "\n", so restoring it here keeps
            # the merged layout byte-identical to a single-writer run.
            raw = source.raw_chunk_line(index)
            return raw if raw.endswith(b"\n") else raw + b"\n"

        for source in sources:
            if isinstance(source, (str, Path)):
                source = CampaignState(Path(source), self.spec)
            if spec_hash(source.spec) != own_hash:
                raise ExperimentError(
                    f"cannot merge {source.directory}: it holds results of spec "
                    f"{spec_hash(source.spec)} ({source.spec.name!r}), not "
                    f"{own_hash} ({self.spec.name!r})"
                )
            for index in sorted(source._ranges):
                start, stop = source._ranges[index]
                epoch = source.chunk_epoch(index)
                fence = fences.get(index)
                if epoch is not None and fence is not None and epoch < fence:
                    if not skip_fenced:
                        raise ExperimentError(
                            f"chunk {index} in {source.directory} is fenced: it was "
                            f"appended under superseded lease epoch {epoch} (the "
                            f"chunk was re-issued at epoch {fence}); a zombie "
                            f"worker's result cannot enter the canonical store"
                        )
                    logger.warning(
                        "skipping fenced chunk",
                        source=source.directory,
                        chunk=index,
                        epoch=epoch,
                        fence=fence,
                    )
                    report.fenced.append(index)
                    continue
                if index in accepted_ranges:
                    known = (
                        accepted_lines[index]
                        if index in accepted_lines
                        else self.raw_chunk_line(index)
                    )
                    if record_line(source, index) != known:
                        raise ExperimentError(
                            f"divergent duplicate chunk {index} in {source.directory}: "
                            f"its record differs from the one already merged — "
                            f"refusing to pick silently"
                        )
                    report.duplicates.append(index)
                    continue
                for other, (o_start, o_stop) in accepted_ranges.items():
                    if start < o_stop and stop > o_start:
                        raise ExperimentError(
                            f"chunk {index} [{start}, {stop}) of {source.directory} "
                            f"overlaps chunk {other} [{o_start}, {o_stop}); "
                            f"chunk-size drift between stores is not mergeable"
                        )
                accepted_lines[index] = record_line(source, index)
                accepted_ranges[index] = (start, stop)
                report.added.append(index)
        if accepted_lines:
            own_lines = {index: self.raw_chunk_line(index) for index in self._ranges}
            own_lines.update(accepted_lines)
            self._rewrite_sorted(own_lines)
            report.rewritten = True
        report.total_chunks = len(self._ranges)
        return report

    def _rewrite_sorted(self, lines: Mapping[int, bytes]) -> None:
        """Atomically replace ``chunks.jsonl`` with records in index order.

        The append path stays append-only; only :meth:`merge` compacts, and
        it does so crash-safely: a full temp file is fsynced first, then
        ``os.replace`` swaps it in (a crash leaves either the old file or
        the new one, never a mix), then the directory entry is fsynced.
        """
        fd, temp_name = tempfile.mkstemp(
            dir=self.directory, prefix=".chunks-", suffix=".jsonl"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                for index in sorted(lines):
                    handle.write(lines[index])
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp_name, self.chunks_path)
        except BaseException:
            if os.path.exists(temp_name):
                os.unlink(temp_name)
            raise
        directory_fd = os.open(self.directory, os.O_RDONLY)
        try:
            os.fsync(directory_fd)
        finally:
            os.close(directory_fd)
        self._load()

    def rows(self) -> list[dict]:
        """Every persisted row, in chunk order (materialised; prefer
        :meth:`iter_chunk_rows` / :meth:`aggregate` for mega-campaigns)."""
        collected: list[dict] = []
        for _, chunk in self.iter_chunk_rows():
            collected.extend(chunk)
        return collected

    def aggregate(self, quantiles: Sequence[float] = (0.05, 0.5, 0.95)) -> dict:
        """Means/quantiles per (series, size), streamed chunk by chunk.

        Bit-identical to ``aggregate_rows(self.rows())`` — the streamed
        columns concatenate to the very arrays the row-list path builds —
        without ever materialising the rows in memory.
        """
        accumulator = _ColumnAccumulator()
        for _, chunk in self.iter_chunk_rows():
            accumulator.update(chunk)
        return accumulator.statistics(quantiles)

    def export_npz(self, path: str | Path, compress: bool = True) -> dict:
        """Columnar ``.npz`` export of the persisted rows, memory O(chunk).

        The archive holds ``platform`` and ``size`` index arrays, one
        float column per series (NaN where a row lacks the series), and
        the spec's canonical JSON under ``spec``.  The total row count is
        known from the index, so every column is **preallocated on disk**
        as a ``.npy`` memmap and filled chunk by chunk — the parent never
        holds more than one chunk's rows (plus the memmap pages being
        written), however large the campaign.  The finished ``.npy``
        members are then streamed into the ``.npz`` zip container, which
        ``np.load`` reads exactly as it reads a ``np.savez`` archive.
        Returns a small summary dict (rows, series, path); the reported
        path always carries the ``.npz`` suffix ``np.savez`` would
        silently append.
        """
        path = Path(path)
        if path.suffix != ".npz":
            # np.savez appends ".npz" itself; normalise up front so the
            # reported path names the file that actually exists.
            path = path.with_name(path.name + ".npz")
        total = self.row_count()
        if total == 0:
            # Nothing persisted: the tiny constant-size archive needs no
            # streaming machinery.
            writer = np.savez_compressed if compress else np.savez
            writer(
                path,
                platform=np.empty(0, dtype=np.int64),
                size=np.empty(0, dtype=np.int64),
                spec=np.array(self.spec.to_json(indent=None)),
            )
            return {"path": str(path), "rows": 0, "series": []}

        nan = float("nan")
        staging = Path(tempfile.mkdtemp(dir=path.parent, prefix=".npz-stage-"))
        try:
            member = _MemberAllocator(staging, total)
            platform_column = member.allocate("platform", np.int64)
            size_column = None
            columns: dict[str, np.memmap] = {}
            filled = 0
            for _, chunk in self.iter_chunk_rows():
                count = len(chunk)
                platform_column[filled : filled + count] = [
                    int(row["platform"]) for row in chunk
                ]
                # int64 for matrix-size grids, float64 for bus/probe grids —
                # chunks of one campaign always agree on the type.
                sizes = np.asarray([row["size"] for row in chunk])
                if size_column is None:
                    size_column = member.allocate(
                        "size", np.int64 if sizes.dtype.kind == "i" else np.float64
                    )
                size_column[filled : filled + count] = sizes
                for row in chunk:
                    for series in row["values"]:
                        if series not in columns:
                            if series in ("platform", "size", "spec"):
                                raise ExperimentError(
                                    f"series name {series!r} collides with an index column"
                                )
                            # Back-fill the rows streamed before this
                            # series appeared with NaN (on disk, not in
                            # parent memory).
                            column = member.allocate(series, np.float64)
                            column[:filled] = nan
                            columns[series] = column
                for series, column in columns.items():
                    column[filled : filled + count] = [
                        float(row["values"].get(series, nan)) for row in chunk
                    ]
                filled += count
            np.save(staging / "spec.npy", np.array(self.spec.to_json(indent=None)))
            member.finalise()
            compression = zipfile.ZIP_DEFLATED if compress else zipfile.ZIP_STORED
            with zipfile.ZipFile(path, "w", compression) as archive:
                for name in member.names() + ["spec"]:
                    archive.write(staging / f"{name}.npy", arcname=f"{name}.npy")
        finally:
            shutil.rmtree(staging, ignore_errors=True)
        return {"path": str(path), "rows": total, "series": sorted(columns)}


class _MemberAllocator:
    """Preallocated on-disk ``.npy`` columns for the streaming export.

    Every column is an ``open_memmap`` of the full (index-known) row
    count, created in a staging directory and filled chunk by chunk —
    the RAM footprint is the pages being written, not the columns.
    """

    def __init__(self, staging: Path, total: int) -> None:
        self.staging = staging
        self.total = total
        self._columns: dict[str, np.memmap] = {}

    def allocate(self, name: str, dtype) -> np.memmap:
        if os.sep in name or (os.altsep and os.altsep in name) or "\x00" in name:
            raise ExperimentError(
                f"series name {name!r} cannot be exported (path separator)"
            )
        column = np.lib.format.open_memmap(
            self.staging / f"{name}.npy", mode="w+", dtype=dtype, shape=(self.total,)
        )
        self._columns[name] = column
        return column

    def names(self) -> list[str]:
        return list(self._columns)

    def finalise(self) -> None:
        """Flush every memmap so the staged files are complete on disk."""
        for column in self._columns.values():
            column.flush()


def _atomic_write_text(path: Path, text: str) -> None:
    """Write a small metadata file atomically (temp + fsync + replace).

    Concurrent writers of *identical* content (two workers bootstrapping
    one campaign) race harmlessly — ``os.replace`` leaves whichever full
    copy landed last, never an interleaving.
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


def _load_epochs(path: Path) -> dict[int, int]:
    """Chunk → highest recorded lease epoch from an ``epochs.jsonl`` sidecar.

    Tolerant by design: the sidecar is advisory fence evidence, so a torn
    or garbled line (a worker killed mid-write) is skipped with a warning
    rather than failing the open — a chunk without a readable epoch is
    simply treated as unfenced metadata-wise.
    """
    epochs, unreadable = highest_epochs(read_jsonl_lines(path) or ())
    for number in unreadable:
        logger.warning("skipping unreadable epoch line", path=path, line=number)
    return epochs


def _torn_chunk_index(torn_line: str | None) -> int | None:
    """Best-effort chunk index of a truncated record line.

    The append path serialises with ``sort_keys=True``, so ``"chunk": N``
    is the first key and survives all but the shortest torn writes.
    """
    if not torn_line:
        return None
    match = re.search(r'"chunk"\s*:\s*(\d+)', torn_line)
    return int(match.group(1)) if match else None


class CampaignStore:
    """A directory of campaign states, one per spec hash."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def campaign(self, spec: ScenarioSpec) -> CampaignState:
        """Open (or create) the state directory of one spec."""
        return CampaignState(self.root / spec_hash(spec), spec)

    def exists(self, spec: ScenarioSpec) -> bool:
        """Whether the store already holds (some) results for ``spec``."""
        return (self.root / spec_hash(spec) / "spec.json").exists()

    def campaigns(self) -> list[tuple[str, ScenarioSpec]]:
        """Every (hash, spec) pair persisted under the root."""
        found: list[tuple[str, ScenarioSpec]] = []
        if not self.root.exists():
            return found
        for path in sorted(self.root.iterdir()):
            spec_path = path / "spec.json"
            if spec_path.is_file():
                found.append(
                    (path.name, ScenarioSpec.from_json(spec_path.read_text(encoding="utf-8")))
                )
        return found


def aggregate_rows(
    rows: Iterable[Mapping], quantiles: Sequence[float] = (0.05, 0.5, 0.95)
) -> dict:
    """Aggregate per-scenario rows into per-(series, size) statistics.

    Returns ``{series: {size: {"count", "mean", "min", "max", "qXX"...}}}``
    with one ``qXX`` entry per requested quantile (linear interpolation).
    The in-memory counterpart of :meth:`CampaignState.aggregate` (which
    streams from disk and matches this bit for bit).
    """
    collected: dict[str, dict[int | float, list[float]]] = {}
    for row in rows:
        size = row["size"]
        for series, value in row["values"].items():
            collected.setdefault(series, {}).setdefault(size, []).append(float(value))

    aggregated: dict[str, dict[int, dict[str, float]]] = {}
    for series, per_size in collected.items():
        aggregated[series] = {}
        for size, values in sorted(per_size.items()):
            aggregated[series][size] = _cell_statistics(np.array(values), quantiles)
    return aggregated
