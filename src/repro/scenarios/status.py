"""Live campaign status: the read side of the telemetry sidecar.

``scenarios status STORE_DIR`` renders one consolidated view of a
running (or finished) campaign.  It is a projection of one
:class:`~repro.obs.campaign.CampaignSnapshot` — it opens no campaign
file itself, never opens the store writable and never needs the spec
object:

* **progress** — chunks done / total and persisted rows: the canonical
  ``chunks.jsonl`` plus every per-worker store, where a worker's chunk
  counts as done before the coordinator merges it unless it was
  appended under a fenced (superseded) lease epoch — the same rule the
  coordinator uses;
* **throughput** — rows/s and a chunk-based ETA derived from the span
  sidecar's wall-clock extent;
* **lease health** — every outstanding lease with its owner, epoch and
  how long it has been held, flagged when expired past the advert's
  skew slack (the snapshot's one expiry rule);
* **phase breakdown** — per-phase totals (queue / evaluate / solve /
  replay / append / merge / work) from the merged ``span.*.seconds``
  histograms;
* **kernel profile** — batched-simplex call counts, pivot totals,
  termination-mask occupancy and scalar-fallback counts from the
  ``kernel.*`` counters.

Everything degrades gracefully: a campaign run with ``--telemetry off``
still reports progress and leases (the sections telemetry is not needed
for), and torn sidecar lines are counted, never fatal.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, TextIO

from repro.obs import merge_snapshots
from repro.obs.campaign import CampaignSnapshot
from repro.obs.report import format_seconds

__all__ = ["CampaignStatus", "LeaseHealth", "collect_status", "follow_status", "render_status"]

#: Span phases rendered in pipeline order; anything else follows, sorted
#: by total time.
_PHASE_ORDER = ("queue", "evaluate", "solve", "replay", "append", "work", "merge")

#: Sliding window (seconds) behind the *recent* throughput estimate:
#: only ``evaluate`` spans that finished inside the window count, so a
#: stalled campaign shows a dip instead of having it averaged away by
#: the all-time extent.
RECENT_WINDOW_SECONDS = 30.0


@dataclass(frozen=True)
class LeaseHealth:
    """One outstanding lease as seen from the shared directory."""

    chunk: int
    owner: str
    epoch: int
    held_for: float
    expired: bool


@dataclass
class CampaignStatus:
    """Everything ``scenarios status`` knows about one campaign directory."""

    directory: Path
    canonical_chunks: int = 0
    worker_only_chunks: int = 0
    total_chunks: int | None = None
    rows: int = 0
    worker_chunks: dict[str, int] = field(default_factory=dict)
    leases: list[LeaseHealth] = field(default_factory=list)
    rows_per_second: float | None = None
    recent_rows_per_second: float | None = None
    eta_seconds: float | None = None
    phases: list[tuple[str, float, int]] = field(default_factory=list)
    kernels: dict[str, dict[str, float]] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)
    owners: list[str] = field(default_factory=list)
    dropped_telemetry_lines: int = 0
    has_telemetry: bool = False

    @property
    def chunks_done(self) -> int:
        """Chunks durable *somewhere* (canonical or an unmerged worker store)."""
        return self.canonical_chunks + self.worker_only_chunks

    @property
    def finished(self) -> bool:
        return self.total_chunks is not None and self.canonical_chunks >= self.total_chunks


def _recent_rows_per_second(
    spans: list[dict], now: float, window: float = RECENT_WINDOW_SECONDS
) -> float | None:
    """Rows/s from ``evaluate`` spans finishing in the trailing window.

    ``evaluate`` spans only: the detached tier's ``work`` spans *nest*
    the evaluation, so counting both would double-count every row.
    Returns ``None`` when no evaluation has ever finished (nothing to
    rate) and ``0.0`` when evaluations exist but none finished inside
    the window — the dip a stalled campaign must show, which the
    all-time average structurally cannot.
    """
    cutoff = now - window
    rows = 0.0
    starts: list[float] = []
    for record in spans:
        if record.get("name") != "evaluate":
            continue
        t0 = record.get("t0")
        if not isinstance(t0, (int, float)):
            continue
        starts.append(float(t0))
        try:
            end = float(t0) + float(record.get("dt") or 0.0)
        except (TypeError, ValueError):
            continue
        if end < cutoff:
            continue
        attrs = record.get("attrs")
        if isinstance(attrs, dict):
            try:
                rows += float(attrs.get("rows", 0.0))
            except (TypeError, ValueError):
                pass
    if not starts:
        return None
    # A campaign younger than the window is rated over its own age, so
    # the estimate is not diluted by time that never existed.
    elapsed = min(window, max(1e-9, now - min(starts)))
    return rows / elapsed


def _phase_breakdown(histograms: dict) -> list[tuple[str, float, int]]:
    phases: list[tuple[str, float, int]] = []
    for name, histogram in histograms.items():
        if not name.startswith("span.") or not name.endswith(".seconds"):
            continue
        phase = name[len("span.") : -len(".seconds")]
        phases.append((phase, float(histogram.get("sum", 0.0)), int(histogram.get("count", 0))))

    def order(entry: tuple[str, float, int]) -> tuple[int, float]:
        name, total, _ = entry
        known = _PHASE_ORDER.index(name) if name in _PHASE_ORDER else len(_PHASE_ORDER)
        return (known, -total)

    return sorted(phases, key=order)


def _kernel_profiles(counters: dict[str, float]) -> dict[str, dict[str, float]]:
    kernels: dict[str, dict[str, float]] = {}
    for name, value in counters.items():
        if not name.startswith("kernel."):
            continue
        parts = name.split(".", 2)
        if len(parts) != 3:
            continue
        kernels.setdefault(parts[1], {})[parts[2]] = float(value)
    return kernels


def collect_status(campaign_dir: str | Path, now: float | None = None) -> CampaignStatus:
    """Gather one :class:`CampaignStatus` from a campaign directory.

    Works on any directory — one with no campaign yet yields zeros, one
    without telemetry yields progress + leases only.  Never raises on
    torn or missing files.
    """
    snapshot = CampaignSnapshot.read(campaign_dir, now=now)
    now = snapshot.now
    status = CampaignStatus(directory=snapshot.directory)
    status.canonical_chunks = len(snapshot.canonical.ranges)
    status.rows = snapshot.canonical.rows
    status.worker_chunks = {
        owner: len(progress.ranges) for owner, progress in snapshot.workers.items()
    }
    status.worker_only_chunks = len(snapshot.durable_chunks) - status.canonical_chunks
    status.total_chunks = snapshot.total_chunks
    status.leases = [
        LeaseHealth(
            chunk=lease.chunk,
            owner=lease.owner,
            epoch=lease.epoch,
            held_for=max(0.0, now - (lease.granted_at or now)),
            expired=snapshot.expired(lease),
        )
        for lease in snapshot.leases
    ]

    spans = snapshot.spans
    status.dropped_telemetry_lines = snapshot.dropped_span_lines
    status.has_telemetry = bool(spans or snapshot.metrics)
    if not status.has_telemetry:
        return status

    merged = merge_snapshots(snapshot.metrics)
    status.counters = dict(merged.get("counters", {}))
    status.owners = list(merged.get("owners", []))
    status.phases = _phase_breakdown(merged.get("histograms", {}))
    status.kernels = _kernel_profiles(status.counters)

    extent = snapshot.span_extent()
    if extent is not None:
        elapsed = extent[1] - extent[0]
        if elapsed > 0:
            if status.rows:
                status.rows_per_second = status.rows / elapsed
            done = status.chunks_done
            if done and status.total_chunks is not None and done < status.total_chunks:
                status.eta_seconds = (status.total_chunks - done) * (elapsed / done)
    status.recent_rows_per_second = _recent_rows_per_second(spans, now)
    return status


def render_status(status: CampaignStatus) -> str:
    """A terminal-friendly multi-line rendering of one status snapshot."""
    lines: list[str] = [f"campaign: {status.directory}"]

    total = "?" if status.total_chunks is None else str(status.total_chunks)
    progress = f"chunks: {status.canonical_chunks}/{total} canonical"
    if status.worker_only_chunks:
        progress += f" (+{status.worker_only_chunks} durable in worker stores)"
    if status.finished:
        progress += "  [complete]"
    lines.append(progress)
    lines.append(f"rows persisted: {status.rows}")

    if status.rows_per_second is not None:
        throughput = f"throughput: {status.rows_per_second:.1f} rows/s all-time"
        if status.recent_rows_per_second is not None and not status.finished:
            throughput += (
                f", {status.recent_rows_per_second:.1f} rows/s"
                f" last {RECENT_WINDOW_SECONDS:.0f}s"
            )
        if status.eta_seconds is not None:
            throughput += f", ETA {format_seconds(status.eta_seconds)}"
        lines.append(throughput)

    if status.worker_chunks:
        summary = ", ".join(
            f"{owner} ({count} chunk(s))" for owner, count in sorted(status.worker_chunks.items())
        )
        lines.append(f"worker stores: {summary}")

    if status.leases:
        lines.append("leases:")
        for lease in status.leases:
            health = "EXPIRED" if lease.expired else f"held {format_seconds(lease.held_for)}"
            lines.append(
                f"  chunk {lease.chunk}: owner {lease.owner}, epoch {lease.epoch}, {health}"
            )

    if not status.has_telemetry:
        lines.append("telemetry: none recorded (run with --telemetry on)")
        return "\n".join(lines)

    if status.phases:
        lines.append("phases:")
        for name, total_seconds, count in status.phases:
            lines.append(f"  {name:10s} {format_seconds(total_seconds):>8s}  {count} span(s)")

    for kernel, stats in sorted(status.kernels.items()):
        calls = int(stats.get("calls", 0))
        detail = [f"{calls} call(s)"]
        if "pivots" in stats:
            detail.append(f"{int(stats['pivots'])} pivot(s)")
        mask = stats.get("mask_slots", 0.0)
        if mask:
            detail.append(f"mask occupancy {100.0 * stats.get('active_slots', 0.0) / mask:.1f}%")
        if stats.get("fallbacks"):
            detail.append(f"{int(stats['fallbacks'])} scalar fallback(s)")
        lines.append(f"kernel {kernel}: {', '.join(detail)}")

    writers = f"{len(status.owners)} writer(s)" if status.owners else "metrics pending"
    telemetry_line = f"telemetry: {writers}"
    if status.dropped_telemetry_lines:
        telemetry_line += f", {status.dropped_telemetry_lines} torn line(s) dropped"
    lines.append(telemetry_line)
    return "\n".join(lines)


def follow_status(
    campaign_dir: str | Path,
    interval: float = 2.0,
    stream: TextIO | None = None,
    max_updates: int | None = None,
    sleep: Callable[[float], None] = time.sleep,
) -> CampaignStatus:
    """Re-render the status every ``interval`` seconds until complete.

    ``max_updates`` bounds the loop (tests and bounded watches); the
    final status is returned either way.
    """
    import sys

    stream = stream if stream is not None else sys.stdout
    updates = 0
    while True:
        status = collect_status(campaign_dir)
        print(render_status(status), file=stream, flush=True)
        updates += 1
        if status.finished:
            return status
        if max_updates is not None and updates >= max_updates:
            return status
        print("---", file=stream, flush=True)
        sleep(interval)
