"""Span records and the tolerant sidecar readers.

A **span** is one timed scope: wall-clock start, monotonic duration,
nesting depth, per-process span/parent ids, and free-form structured
attributes.  Spans are emitted (by :class:`~repro.obs.telemetry.Telemetry`)
as one JSON object per line into ``telemetry/spans-<owner>-<pid>.jsonl``
— append-only JSONL, exactly the store's own persistence idiom, so the
same torn-tail failure mode has the same answer: readers skip unreadable
lines and report how many they dropped instead of aborting anything.

:func:`read_jsonl_tolerant` is that reader (shared with ``scenarios
show``'s torn-tail diagnostics); :func:`read_spans` and
:func:`read_metric_snapshots` glob a whole sidecar directory — the read
side used by ``scenarios status``; :func:`chunk_progress` reads a store's
progress the same tolerant way.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = [
    "SPAN_FILE_GLOB",
    "METRICS_FILE_GLOB",
    "chunk_progress",
    "dropped_sidecar_lines",
    "read_jsonl_tolerant",
    "read_metric_snapshots",
    "read_spans",
]

#: Sidecar file patterns (one file per ``(owner, pid)`` writer).
SPAN_FILE_GLOB = "spans-*.jsonl"
METRICS_FILE_GLOB = "metrics-*.json"


def read_jsonl_tolerant(path: Path) -> tuple[list[dict], int]:
    """Parse one JSONL file, skipping unreadable lines.

    Returns ``(records, dropped)`` where ``dropped`` counts non-empty
    lines that failed to parse as a JSON object — a torn tail (the
    writer crashed mid-line) or bit rot.  A missing file reads as empty.
    Never raises: torn telemetry must never abort a campaign.
    """
    try:
        raw = Path(path).read_bytes()
    except OSError:
        return [], 0
    records: list[dict] = []
    dropped = 0
    for line in raw.split(b"\n"):
        if not line.strip():
            continue
        try:
            record = json.loads(line.decode("utf-8", errors="strict"))
        except (ValueError, UnicodeDecodeError):
            dropped += 1
            continue
        if isinstance(record, dict):
            records.append(record)
        else:
            dropped += 1
    return records, dropped


def chunk_progress(chunks_path: str | Path) -> tuple[set[int], int, bool]:
    """``(chunk indices, row count, torn?)`` of one ``chunks.jsonl``.

    The read-only progress probe of ``scenarios status`` and ``scenarios
    report``: an observer must never open a live store writable (a
    repairing open would truncate a torn tail the owner is still
    appending behind).  Torn or malformed lines are skipped and flag the
    file as torn; a missing file yields zeros.
    """
    records, dropped = read_jsonl_tolerant(Path(chunks_path))
    chunks: set[int] = set()
    rows = 0
    for record in records:
        if "chunk" not in record:
            continue
        try:
            chunks.add(int(record["chunk"]))
        except (TypeError, ValueError):
            continue
        payload = record.get("rows")
        if isinstance(payload, list):
            rows += len(payload)
    return chunks, rows, dropped > 0


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


def dropped_sidecar_lines(telemetry_dir: Path) -> int:
    """How many unreadable lines the sidecar currently carries (all files)."""
    _, dropped = read_spans(telemetry_dir)
    return dropped
