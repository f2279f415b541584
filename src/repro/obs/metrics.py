"""Process-local metrics: counters, gauges, fixed-bucket histograms.

A :class:`MetricsRegistry` is a thread-safe in-memory accumulator owned
by one :class:`~repro.obs.telemetry.Telemetry`; it is periodically
snapshotted (atomic ``tmp`` + ``rename``) to a per-``(owner, pid)`` JSON
file in the store's ``telemetry/`` sidecar.  Multi-worker runs produce
one snapshot file per writer; :func:`merge_snapshots` folds any number
of them into one aggregate view (counters and histogram buckets sum,
gauges keep the most recent write) — the read side of the live status
view and of cross-store analysis.

Histograms use **fixed** bucket boundaries chosen at first observation
(:data:`DEFAULT_BUCKETS` unless the caller passes its own), so merging
is an element-wise add — no re-bucketing, no approximation.  Counts are
cumulative-free (per-bucket, with one overflow slot), and ``sum`` /
``count`` / ``min`` / ``max`` ride along for rate and mean queries.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Iterable, Sequence

__all__ = [
    "DEFAULT_BUCKETS",
    "MetricsRegistry",
    "merge_snapshots",
    "read_snapshot",
    "write_snapshot",
]

#: Default histogram boundaries (seconds-flavoured: 1 ms … 1 min); the
#: value lands in the first bucket whose upper edge is >= value, or the
#: overflow slot.
DEFAULT_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0)

#: One shared sorted-key encoder, reused by every snapshot rewrite.
_encode_sorted = json.JSONEncoder(sort_keys=True).encode


class MetricsRegistry:
    """Thread-safe counters, gauges and fixed-bucket histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, dict] = {}

    def counter_add(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + value

    def gauge_set(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = float(value)

    def observe(
        self, name: str, value: float, buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> None:
        """Record ``value`` into the fixed-bucket histogram ``name``."""
        value = float(value)
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = {
                    "buckets": [float(edge) for edge in buckets],
                    "counts": [0] * (len(buckets) + 1),
                    "sum": 0.0,
                    "count": 0,
                    "min": value,
                    "max": value,
                }
                self._histograms[name] = histogram
            slot = len(histogram["buckets"])
            for position, edge in enumerate(histogram["buckets"]):
                if value <= edge:
                    slot = position
                    break
            histogram["counts"][slot] += 1
            histogram["sum"] += value
            histogram["count"] += 1
            if value < histogram["min"]:
                histogram["min"] = value
            if value > histogram["max"]:
                histogram["max"] = value

    def snapshot(self, owner: str | None = None) -> dict:
        """A JSON-serialisable copy of every metric (plus provenance)."""
        with self._lock:
            return {
                "at": time.time(),
                "owner": owner,
                "pid": os.getpid(),
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    name: {
                        "buckets": list(histogram["buckets"]),
                        "counts": list(histogram["counts"]),
                        "sum": histogram["sum"],
                        "count": histogram["count"],
                        "min": histogram["min"],
                        "max": histogram["max"],
                    }
                    for name, histogram in self._histograms.items()
                },
            }

    def clear(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


def write_snapshot(path: str | Path, snapshot: dict, fsync: bool = False) -> None:
    """Atomically (re)write one snapshot file (``tmp`` + ``rename``)."""
    path = os.fspath(path)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        # encode + write, not json.dump: only the one-shot encode path
        # takes the C encoder, and snapshots are rewritten per chunk.
        handle.write(_encode_sorted(snapshot))
        if fsync:
            handle.flush()
            os.fsync(handle.fileno())
    os.replace(tmp, path)


def read_snapshot(path: Path) -> dict | None:
    """One snapshot file, or ``None`` when missing/torn (never raises)."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    return data if isinstance(data, dict) else None


def _merge_histogram(into: dict, histogram: dict) -> None:
    """Fold ``histogram`` into ``into`` (same fixed buckets: element-wise)."""
    if list(histogram.get("buckets", [])) == list(into["buckets"]) and len(
        histogram.get("counts", [])
    ) == len(into["counts"]):
        into["counts"] = [a + b for a, b in zip(into["counts"], histogram["counts"])]
    into["sum"] += histogram.get("sum", 0.0)
    into["count"] += histogram.get("count", 0)
    if histogram.get("count"):
        into["min"] = min(into["min"], histogram.get("min", into["min"]))
        into["max"] = max(into["max"], histogram.get("max", into["max"]))


def merge_snapshots(snapshots: Iterable[dict]) -> dict:
    """Aggregate worker snapshots: counters/histograms sum, gauges latest-win.

    Tolerant by construction — snapshots missing sections contribute what
    they have; an empty iterable merges to an empty aggregate.
    """
    merged: dict = {
        "at": 0.0,
        "owners": [],
        "counters": {},
        "gauges": {},
        "histograms": {},
    }
    gauge_at: dict[str, float] = {}
    for snapshot in snapshots:
        if not isinstance(snapshot, dict):
            continue
        at = float(snapshot.get("at") or 0.0)
        merged["at"] = max(merged["at"], at)
        owner = snapshot.get("owner")
        if owner and owner not in merged["owners"]:
            merged["owners"].append(owner)
        for name, value in (snapshot.get("counters") or {}).items():
            merged["counters"][name] = merged["counters"].get(name, 0.0) + value
        for name, value in (snapshot.get("gauges") or {}).items():
            if name not in merged["gauges"] or at >= gauge_at.get(name, -1.0):
                merged["gauges"][name] = value
                gauge_at[name] = at
        for name, histogram in (snapshot.get("histograms") or {}).items():
            if not isinstance(histogram, dict) or "counts" not in histogram:
                continue
            into = merged["histograms"].get(name)
            if into is None:
                merged["histograms"][name] = {
                    "buckets": list(histogram.get("buckets", [])),
                    "counts": list(histogram["counts"]),
                    "sum": histogram.get("sum", 0.0),
                    "count": histogram.get("count", 0),
                    "min": histogram.get("min", 0.0),
                    "max": histogram.get("max", 0.0),
                }
            else:
                _merge_histogram(into, histogram)
    return merged
