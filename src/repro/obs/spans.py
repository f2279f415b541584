"""Span records and the tolerant sidecar readers.

A **span** is one timed scope: wall-clock start, monotonic duration,
nesting depth, per-process span/parent ids, and free-form structured
attributes.  Spans are emitted (by :class:`~repro.obs.telemetry.Telemetry`)
as one JSON object per line into ``telemetry/spans-<owner>-<pid>.jsonl``
— append-only JSONL, exactly the store's own persistence idiom, so the
same torn-tail failure mode has the same answer: readers skip unreadable
lines and report how many they dropped instead of aborting anything.

:func:`read_jsonl_lines` is that reader; it also reads the campaign
files (:func:`highest_epochs`, :func:`read_chunk_ranges`).
:func:`read_spans` and :func:`read_metric_snapshots` glob a whole
sidecar directory — all of them feed
:class:`~repro.obs.campaign.CampaignSnapshot`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

__all__ = [
    "SPAN_FILE_GLOB",
    "METRICS_FILE_GLOB",
    "chunk_progress",
    "highest_epochs",
    "read_chunk_ranges",
    "read_jsonl_lines",
    "read_jsonl_tolerant",
    "read_metric_snapshots",
    "read_spans",
    "span_end",
]

#: Sidecar file patterns (one file per ``(owner, pid)`` writer).
SPAN_FILE_GLOB = "spans-*.jsonl"
METRICS_FILE_GLOB = "metrics-*.json"


def read_jsonl_lines(path: Path) -> list[tuple[int, dict | None]] | None:
    """``(line_number, record)`` for every non-blank line of one JSONL file.

    ``record`` is ``None`` for a line that does not parse as a JSON
    object — a torn tail (the writer crashed mid-line) or bit rot; line
    numbers count from 1.  A missing file reads as ``None``.  Never
    raises: the line reader behind every tolerant campaign-file reader.
    """
    try:
        raw = Path(path).read_bytes()
    except OSError:
        return None
    lines: list[tuple[int, dict | None]] = []
    for number, line in enumerate(raw.split(b"\n"), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line.decode("utf-8"))
        except ValueError:
            record = None
        lines.append((number, record if isinstance(record, dict) else None))
    return lines


def read_jsonl_tolerant(path: Path) -> tuple[list[dict], int]:
    """Parse one JSONL file, skipping unreadable lines.

    Returns ``(records, dropped)`` where ``dropped`` counts the non-empty
    lines :func:`read_jsonl_lines` could not parse.  A missing file reads
    as empty.  Never raises: torn telemetry must never abort a campaign.
    """
    lines = read_jsonl_lines(path) or []
    records = [record for _, record in lines if record is not None]
    return records, len(lines) - len(records)


def span_end(record: dict) -> float:
    """Wall-clock end of one span record (``0.0`` when unreadable)."""
    try:
        return float(record.get("t0", 0.0)) + float(record.get("dt", 0.0))
    except (TypeError, ValueError):
        return 0.0


def highest_epochs(
    lines: Iterable[tuple[int, dict | None]],
) -> tuple[dict[int, int], list[int]]:
    """Chunk → highest epoch over ``{"chunk", "epoch"}`` lines.

    The reader of ``fences.jsonl`` and of the stores' ``epochs.jsonl``
    sidecars.  Also returns the numbers of the lines it could not read,
    for callers that warn about them.
    """
    epochs: dict[int, int] = {}
    unreadable: list[int] = []
    for number, record in lines:
        try:
            chunk, epoch = int(record["chunk"]), int(record["epoch"])
        except (KeyError, TypeError, ValueError):
            unreadable.append(number)
            continue
        epochs[chunk] = max(epoch, epochs.get(chunk, epoch))
    return epochs, unreadable


def read_chunk_ranges(path: Path) -> tuple[dict[int, tuple[int, int]], int, bool]:
    """``(chunk index → [start, stop), row count, torn?)`` of one ``chunks.jsonl``."""
    ranges: dict[int, tuple[int, int]] = {}
    rows = 0
    torn = False
    for _, record in read_jsonl_lines(path) or ():
        if record is None:
            torn = True
            continue
        try:
            ranges[int(record["chunk"])] = (int(record["start"]), int(record["stop"]))
        except (KeyError, TypeError, ValueError):
            continue
        if isinstance(record.get("rows"), list):
            rows += len(record["rows"])
    return ranges, rows, torn


def chunk_progress(chunks_path: str | Path) -> tuple[set[int], int, bool]:
    """``(chunk indices, row count, torn?)`` of one ``chunks.jsonl``.

    An observer must never open a live store writable (a repairing open
    would truncate a torn tail the owner is still appending behind), so
    torn or malformed lines are skipped and flag the file as torn; a
    missing file yields zeros.
    """
    ranges, rows, torn = read_chunk_ranges(Path(chunks_path))
    return set(ranges), rows, torn


def read_spans(telemetry_dir: Path) -> tuple[list[dict], int]:
    """Every span record under a ``telemetry/`` sidecar, time-ordered.

    Globs all per-writer span files, concatenates tolerantly and sorts by
    wall-clock start.  Returns ``(spans, dropped_lines)``.
    """
    telemetry_dir = Path(telemetry_dir)
    spans: list[dict] = []
    dropped = 0
    if telemetry_dir.is_dir():
        for path in sorted(telemetry_dir.glob(SPAN_FILE_GLOB)):
            records, bad = read_jsonl_tolerant(path)
            spans.extend(records)
            dropped += bad
    spans.sort(key=lambda record: record.get("t0", 0.0))
    return spans, dropped


def read_metric_snapshots(telemetry_dir: Path) -> list[dict]:
    """Every readable metrics snapshot under a ``telemetry/`` sidecar."""
    from repro.obs.metrics import read_snapshot

    telemetry_dir = Path(telemetry_dir)
    snapshots: list[dict] = []
    if telemetry_dir.is_dir():
        for path in sorted(telemetry_dir.glob(METRICS_FILE_GLOB)):
            snapshot = read_snapshot(path)
            if snapshot is not None:
                snapshots.append(snapshot)
    return snapshots
