"""Campaign forensics: stitch every sidecar into one causal timeline.

The read-only analysis core behind ``scenarios report``.  It projects
one :class:`~repro.obs.campaign.CampaignSnapshot` — every
``spans-*.jsonl`` / ``metrics-*.json`` in the ``telemetry/`` sidecar,
the canonical ``chunks.jsonl``, the coordinator journal
(``coordinator.jsonl``), ``fences.jsonl`` and the outstanding lease
files, with the chunk plan and lease expiry already resolved — into one
:class:`CampaignReport`:

* **trace stitching** — spans carry the campaign ``trace`` id and
  (at depth 0) a cross-process ``cparent`` ref (:mod:`repro.obs.trace`),
  so the per-``(owner, pid)`` streams reassemble into one causal tree
  spanning the coordinator, fabric workers, pool children and detached
  machines;
* **critical path** — the longest causal chain through that tree, with
  per-phase exclusive-time shares ("where did the wall-clock go?");
* **per-worker utilization** — busy vs. idle per writer, with the idle
  gaps that a straggler or a partition leaves behind;
* **straggler detection** — chunk-duration outliers against the median,
  attributed to their owner;
* **fault attribution** — every journal decision that cost time
  (requeue, expire, degrade, abandon, fenced merges, heals), tied back
  to its ``coordinator.jsonl`` line number.

Everything is tolerant: a mid-crash directory (torn sidecar lines, a
missing journal, live leases) yields a report with explicit
``incomplete`` markers instead of an error — the same guarantee the
status view makes.  Like the rest of ``repro.obs`` this module is
stdlib-only and never imports :mod:`repro.scenarios`, and it opens no
campaign file itself: the snapshot is its only input.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

from repro.obs.metrics import merge_snapshots
from repro.obs.spans import span_end
from repro.obs.trace import parse_ref

__all__ = [
    "CampaignReport",
    "analyze_campaign",
    "chrome_trace_events",
    "compare_reports",
    "format_seconds",
    "render_comparison",
    "render_report",
    "report_to_json",
    "write_chrome_trace",
]

#: Span names that time exactly one chunk of work (straggler candidates).
_CHUNK_SPAN_NAMES = ("evaluate", "work")

#: A chunk span this many times slower than the median is a straggler.
STRAGGLER_FACTOR = 2.0

#: Idle stretches shorter than this are scheduling jitter, not gaps.
IDLE_GAP_SECONDS = 0.25

#: Journal events that represent a fault-recovery decision.
_FAULT_EVENTS = ("requeue", "expire", "degrade", "abandon", "heal")

#: Metric counters summarised in the fault table (worker-side faults —
#: partitions, zombies — never reach the journal; their counters do).
_FAULT_COUNTERS = (
    "worker.takeovers",
    "worker.abandoned",
    "worker.failed",
    "coordinator.expired_leases",
    "coordinator.degraded_chunks",
    "telemetry.rotated_files",
)


@dataclass
class CampaignReport:
    """Everything ``scenarios report`` knows about one campaign directory."""

    directory: str
    generated_at: float
    trace_ids: list[str] = field(default_factory=list)
    span_count: int = 0
    untraced_spans: int = 0
    dropped_span_lines: int = 0
    writers: list[dict] = field(default_factory=list)
    begin: float | None = None
    end: float | None = None
    duration: float | None = None
    chunks_done: int = 0
    rows: int = 0
    total_chunks: int | None = None
    phases: list[dict] = field(default_factory=list)
    critical_path: list[dict] = field(default_factory=list)
    critical_path_seconds: float = 0.0
    critical_path_phases: list[dict] = field(default_factory=list)
    stragglers: list[dict] = field(default_factory=list)
    faults: list[dict] = field(default_factory=list)
    fault_counters: dict[str, float] = field(default_factory=dict)
    journal_events: int = 0
    live_leases: int = 0
    expired_leases: int = 0
    incomplete: list[str] = field(default_factory=list)


# ----------------------------------------------------------------------
# causal tree + critical path


def _span_key(record: dict) -> tuple[str, int, int] | None:
    try:
        return str(record["owner"]), int(record["pid"]), int(record["span"])
    except (KeyError, TypeError, ValueError):
        return None


def _parent_key(record: dict, index: dict) -> tuple[str, int, int] | None:
    """The causal parent of one span: in-process id, else cross-process ref."""
    key = _span_key(record)
    if key is None:
        return None
    parent = record.get("parent")
    if parent is not None:
        try:
            candidate = (key[0], key[1], int(parent))
        except (TypeError, ValueError):
            candidate = None
        if candidate in index:
            return candidate
    cparent = record.get("cparent")
    if cparent is not None:
        candidate = parse_ref(cparent)
        # A self-reference (possible when coordinator and worker share a
        # process, e.g. threaded tests) must not unroot the span.
        if candidate in index and candidate != key:
            return candidate
    return None


def _path_node(record: dict, exclusive: float) -> dict:
    node = {
        "name": record.get("name", "?"),
        "owner": record.get("owner", "?"),
        "pid": record.get("pid"),
        "span": record.get("span"),
        "t0": record.get("t0"),
        "dt": record.get("dt", 0.0),
        "exclusive": round(max(0.0, exclusive), 6),
    }
    attrs = record.get("attrs")
    if isinstance(attrs, dict) and "chunk" in attrs:
        node["chunk"] = attrs["chunk"]
    return node


def _critical_path(spans: list[dict]) -> list[dict]:
    """The longest causal chain: from the latest-ending root, descend into
    the latest-ending child at every step (the work the parent had to
    wait for), recording each hop's exclusive time."""
    index: dict[tuple[str, int, int], dict] = {}
    for record in spans:
        key = _span_key(record)
        if key is not None:
            index[key] = record
    if not index:
        return []
    children: dict[tuple[str, int, int], list[dict]] = {}
    roots: list[dict] = []
    for record in index.values():
        parent = _parent_key(record, index)
        if parent is None:
            roots.append(record)
        else:
            children.setdefault(parent, []).append(record)
    if not roots:
        return []
    current = max(roots, key=span_end)
    path: list[dict] = []
    visited: set[tuple[str, int, int]] = set()
    while True:
        key = _span_key(current)
        if key is None or key in visited:
            break
        visited.add(key)
        offspring = children.get(key, [])
        chosen = max(offspring, key=span_end) if offspring else None
        try:
            own = float(current.get("dt", 0.0))
        except (TypeError, ValueError):
            own = 0.0
        child_dt = 0.0
        if chosen is not None:
            try:
                child_dt = float(chosen.get("dt", 0.0))
            except (TypeError, ValueError):
                child_dt = 0.0
        path.append(_path_node(current, own - child_dt))
        if chosen is None:
            break
        current = chosen
    return path


# ----------------------------------------------------------------------
# utilization, stragglers, faults


def _worker_utilization(spans: list[dict], idle_gap: float) -> list[dict]:
    intervals: dict[tuple[str, int], list[tuple[float, float]]] = {}
    counts: dict[tuple[str, int], int] = {}
    for record in spans:
        key = _span_key(record)
        if key is None:
            continue
        writer = (key[0], key[1])
        counts[writer] = counts.get(writer, 0) + 1
        if record.get("depth"):
            continue
        try:
            t0 = float(record["t0"])
            t1 = t0 + float(record.get("dt", 0.0))
        except (KeyError, TypeError, ValueError):
            continue
        intervals.setdefault(writer, []).append((t0, t1))
    writers: list[dict] = []
    for writer in sorted(counts):
        owner, pid = writer
        spans_of = sorted(intervals.get(writer, []))
        merged: list[list[float]] = []
        for t0, t1 in spans_of:
            if merged and t0 <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], t1)
            else:
                merged.append([t0, t1])
        busy = sum(t1 - t0 for t0, t1 in merged)
        extent = (merged[-1][1] - merged[0][0]) if merged else 0.0
        gaps = [
            {"at": round(a[1], 6), "seconds": round(b[0] - a[1], 6)}
            for a, b in zip(merged, merged[1:])
            if b[0] - a[1] >= idle_gap
        ]
        writers.append(
            {
                "owner": owner,
                "pid": pid,
                "spans": counts[writer],
                "busy_seconds": round(busy, 6),
                "extent_seconds": round(extent, 6),
                "utilization_pct": round(100.0 * busy / extent, 2) if extent > 0 else None,
                "idle_gaps": gaps,
            }
        )
    return writers


def _stragglers(spans: list[dict], factor: float) -> list[dict]:
    """Chunk-duration outliers vs. the per-phase median, owner-attributed."""
    by_name: dict[str, list[dict]] = {}
    for record in spans:
        if record.get("name") in _CHUNK_SPAN_NAMES:
            by_name.setdefault(record["name"], []).append(record)
    outliers: list[dict] = []
    for name, group in by_name.items():
        durations = sorted(
            float(r.get("dt", 0.0))
            for r in group
            if isinstance(r.get("dt"), (int, float))
        )
        if len(durations) < 4:
            continue
        median = durations[len(durations) // 2]
        if median <= 0:
            continue
        for record in group:
            try:
                dt = float(record.get("dt", 0.0))
            except (TypeError, ValueError):
                continue
            if dt >= factor * median:
                attrs = record.get("attrs") if isinstance(record.get("attrs"), dict) else {}
                outliers.append(
                    {
                        "name": name,
                        "chunk": attrs.get("chunk", attrs.get("start")),
                        "owner": record.get("owner", "?"),
                        "pid": record.get("pid"),
                        "seconds": round(dt, 6),
                        "median_seconds": round(median, 6),
                        "ratio": round(dt / median, 2),
                    }
                )
    outliers.sort(key=lambda entry: -entry["ratio"])
    return outliers


def _fault_detail(event: str, record: dict) -> str:
    if event == "requeue":
        return (
            f"attempt {record.get('attempt')} failed"
            f" ({record.get('reason', 'unspecified')}); fenced below epoch"
            f" {record.get('fence')}"
        )
    if event == "expire":
        return f"lease of {record.get('owner', '?')} expired at epoch {record.get('epoch')}"
    if event == "degrade":
        return "attempt budget exhausted; evaluated in the coordinator"
    if event == "abandon":
        return "worker lost; left for heal"
    if event == "heal":
        return (
            f"healed {record.get('healed')} chunk(s),"
            f" cleared {record.get('cleared')} lease(s),"
            f" {record.get('live')} live"
        )
    if event == "merge":
        return f"merge fenced {record.get('fenced')} superseded chunk(s)"
    return json.dumps({k: v for k, v in record.items() if k not in ("event", "at")})


def _fault_table(journal: list[tuple[int, dict]]) -> list[dict]:
    faults: list[dict] = []
    for line, record in journal:
        event = record.get("event")
        if event in _FAULT_EVENTS or (
            event == "merge" and record.get("fenced")
        ):
            faults.append(
                {
                    "event": event,
                    "chunk": record.get("chunk"),
                    "at": record.get("at"),
                    "journal_line": line,
                    "detail": _fault_detail(event, record),
                }
            )
    return faults


# ----------------------------------------------------------------------
# the analysis entry point


def analyze_campaign(
    campaign_dir: str | Path,
    now: float | None = None,
    straggler_factor: float = STRAGGLER_FACTOR,
    idle_gap_seconds: float = IDLE_GAP_SECONDS,
) -> CampaignReport:
    """Build one :class:`CampaignReport` from a campaign directory.

    Read-only and never raises on torn or missing artifacts: partial
    input turns into ``incomplete`` markers, mirroring the status view.
    """
    # Imported here so that `import repro.obs` (every CLI start-up and
    # campaign) does not pay for the snapshot module.
    from repro.obs.campaign import CampaignSnapshot

    snapshot = CampaignSnapshot.read(campaign_dir, now=now)
    report = CampaignReport(directory=str(snapshot.directory), generated_at=snapshot.now)

    report.span_count = len(snapshot.spans)
    report.dropped_span_lines = snapshot.dropped_span_lines
    report.chunks_done = len(snapshot.canonical.ranges)
    report.rows = snapshot.canonical.rows
    report.journal_events = len(snapshot.journal)
    report.total_chunks = snapshot.total_chunks

    traces: dict[str, int] = {}
    for record in snapshot.spans:
        trace = record.get("trace")
        if trace:
            traces[str(trace)] = traces.get(str(trace), 0) + 1
        else:
            report.untraced_spans += 1
    report.trace_ids = sorted(traces, key=lambda t: -traces[t])

    extent = snapshot.span_extent()
    if extent is not None:
        report.begin, report.end = extent
        report.duration = round(report.end - report.begin, 6)

    totals: dict[str, tuple[float, int]] = {}
    for record in snapshot.spans:
        name = record.get("name")
        if not isinstance(name, str):
            continue
        try:
            dt = float(record.get("dt", 0.0))
        except (TypeError, ValueError):
            continue
        total, count = totals.get(name, (0.0, 0))
        totals[name] = (total + dt, count + 1)
    grand = sum(total for total, _ in totals.values())
    report.phases = [
        {
            "name": name,
            "total_seconds": round(total, 6),
            "count": count,
            "share_pct": round(100.0 * total / grand, 2) if grand > 0 else None,
        }
        for name, (total, count) in sorted(totals.items(), key=lambda kv: -kv[1][0])
    ]

    report.critical_path = _critical_path(snapshot.spans)
    report.critical_path_seconds = round(
        sum(node["exclusive"] for node in report.critical_path), 6
    )
    path_phases: dict[str, float] = {}
    for node in report.critical_path:
        path_phases[node["name"]] = path_phases.get(node["name"], 0.0) + node["exclusive"]
    report.critical_path_phases = [
        {
            "name": name,
            "exclusive_seconds": round(total, 6),
            "share_pct": round(100.0 * total / report.critical_path_seconds, 2)
            if report.critical_path_seconds > 0
            else None,
        }
        for name, total in sorted(path_phases.items(), key=lambda kv: -kv[1])
    ]

    report.writers = _worker_utilization(snapshot.spans, idle_gap_seconds)
    report.stragglers = _stragglers(snapshot.spans, straggler_factor)
    report.faults = _fault_table(snapshot.journal)

    merged = merge_snapshots(snapshot.metrics)
    counters = merged.get("counters", {})
    report.fault_counters = {
        name: counters[name] for name in _FAULT_COUNTERS if counters.get(name)
    }

    report.expired_leases = sum(snapshot.expired(lease) for lease in snapshot.leases)
    report.live_leases = len(snapshot.leases) - report.expired_leases

    fabric_artifacts = (
        snapshot.advert is not None
        or snapshot.leases
        or snapshot.fences
        or snapshot.workers
    )
    if snapshot.dropped_span_lines:
        report.incomplete.append(
            f"telemetry: {snapshot.dropped_span_lines} torn sidecar line(s) dropped"
        )
    if snapshot.canonical.torn:
        report.incomplete.append("store: chunks.jsonl carries a torn tail")
    if not snapshot.journal_present and fabric_artifacts:
        report.incomplete.append(
            "journal: coordinator.jsonl missing — fault attribution unavailable"
        )
    if report.live_leases:
        report.incomplete.append(
            f"leases: {report.live_leases} live lease(s) — campaign may still be running"
        )
    if report.expired_leases:
        report.incomplete.append(
            f"leases: {report.expired_leases} expired lease(s) awaiting takeover or heal"
        )
    if not snapshot.spans:
        report.incomplete.append(
            "telemetry: no spans recorded — run with --telemetry on for a full report"
        )
    elif report.untraced_spans:
        report.incomplete.append(
            f"trace: {report.untraced_spans} span(s) carry no trace id (pre-trace run?)"
        )
    if len(report.trace_ids) > 1:
        report.incomplete.append(
            f"trace: {len(report.trace_ids)} distinct trace ids — mixed campaign runs"
        )
    if (
        report.total_chunks is not None
        and report.chunks_done < report.total_chunks
    ):
        report.incomplete.append(
            f"store: {report.chunks_done}/{report.total_chunks} chunks canonical"
        )
    return report


def report_to_json(report: CampaignReport) -> dict:
    """The machine-readable (``--json``) form of a report."""
    return asdict(report)


# ----------------------------------------------------------------------
# comparison


def compare_reports(current: CampaignReport, baseline: CampaignReport) -> dict:
    """Per-phase regression deltas between two campaign reports."""
    current_phases = {entry["name"]: entry for entry in current.phases}
    baseline_phases = {entry["name"]: entry for entry in baseline.phases}
    phases: list[dict] = []
    for name in sorted(set(current_phases) | set(baseline_phases)):
        a = baseline_phases.get(name)
        b = current_phases.get(name)
        before = a["total_seconds"] if a else None
        after = b["total_seconds"] if b else None
        delta_pct = None
        if before and after is not None and before > 0:
            delta_pct = round(100.0 * (after / before - 1.0), 2)
        phases.append(
            {
                "name": name,
                "baseline_seconds": before,
                "current_seconds": after,
                "delta_pct": delta_pct,
            }
        )

    def throughput(report: CampaignReport) -> float | None:
        if report.duration and report.duration > 0 and report.rows:
            return round(report.rows / report.duration, 2)
        return None

    return {
        "current": current.directory,
        "baseline": baseline.directory,
        "duration": {"baseline": baseline.duration, "current": current.duration},
        "rows_per_second": {
            "baseline": throughput(baseline),
            "current": throughput(current),
        },
        "phases": phases,
    }


# ----------------------------------------------------------------------
# chrome trace-event export


def chrome_trace_events(campaign_dir: str | Path) -> list[dict]:
    """One campaign as Chrome trace-event records (Perfetto-loadable).

    Spans become ``"X"`` complete events on synthetic per-writer pids
    (real pids can collide across machines; the real ``owner/pid``
    lands in the ``process_name`` metadata), journal decisions become
    global ``"i"`` instants on pid 0, and everything is sorted by
    timestamp.  Timestamps are microseconds rebased to the first event.
    """
    from repro.obs.campaign import CampaignSnapshot

    snapshot = CampaignSnapshot.read(campaign_dir)
    starts = [
        float(r["t0"]) for r in snapshot.spans if isinstance(r.get("t0"), (int, float))
    ]
    starts.extend(
        float(r["at"])
        for _, r in snapshot.journal
        if isinstance(r.get("at"), (int, float))
    )
    if not starts:
        return []
    base = min(starts)

    events: list[dict] = []
    pids: dict[tuple[str, int], int] = {}

    def writer_pid(owner: str, pid: int) -> int:
        writer = (owner, pid)
        if writer not in pids:
            pids[writer] = len(pids) + 1
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pids[writer],
                    "tid": 0,
                    "ts": 0,
                    "args": {"name": f"{owner}/{pid}"},
                }
            )
        return pids[writer]

    if snapshot.journal:
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": 0,
                "tid": 0,
                "ts": 0,
                "args": {"name": "coordinator.jsonl"},
            }
        )

    for record in snapshot.spans:
        key = _span_key(record)
        if key is None or not isinstance(record.get("t0"), (int, float)):
            continue
        owner, pid, span_id = key
        args: dict[str, Any] = {"span": span_id}
        for name in ("trace", "parent", "cparent", "depth"):
            if name in record:
                args[name] = record[name]
        attrs = record.get("attrs")
        if isinstance(attrs, dict):
            args.update(attrs)
        try:
            duration = max(0.0, float(record.get("dt", 0.0)))
        except (TypeError, ValueError):
            duration = 0.0
        events.append(
            {
                "name": str(record.get("name", "?")),
                "cat": "span",
                "ph": "X",
                "ts": round((float(record["t0"]) - base) * 1e6, 3),
                "dur": round(duration * 1e6, 3),
                "pid": writer_pid(owner, pid),
                "tid": 1,
                "args": args,
            }
        )

    for line, record in snapshot.journal:
        at = record.get("at")
        if not isinstance(at, (int, float)):
            continue
        args = {k: v for k, v in record.items() if k not in ("event", "at")}
        args["journal_line"] = line
        events.append(
            {
                "name": f"journal:{record.get('event', '?')}",
                "cat": "journal",
                "ph": "i",
                "s": "g",
                "ts": round((float(at) - base) * 1e6, 3),
                "pid": 0,
                "tid": 0,
                "args": args,
            }
        )

    events.sort(key=lambda event: (event["ph"] != "M", event["ts"]))
    return events


def write_chrome_trace(campaign_dir: str | Path, path: str | Path) -> int:
    """Write the Chrome trace-event export; returns the event count."""
    events = chrome_trace_events(campaign_dir)
    payload = {"traceEvents": events, "displayTimeUnit": "ms"}
    Path(path).write_text(json.dumps(payload), encoding="utf-8")
    return len(events)


# ----------------------------------------------------------------------
# terminal rendering


def format_seconds(seconds: float | None) -> str:
    """A duration for terminal output (``?`` when unknown)."""
    if seconds is None:
        return "?"
    if seconds >= 3600:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"{seconds / 60:.1f}m"
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    return f"{seconds * 1000:.1f}ms"


def render_report(report: CampaignReport) -> str:
    """A terminal-friendly multi-section rendering of one report."""
    lines = [f"campaign forensics: {report.directory}"]

    trace = report.trace_ids[0] if report.trace_ids else "none"
    extra = f" (+{len(report.trace_ids) - 1} more)" if len(report.trace_ids) > 1 else ""
    lines.append(f"trace: {trace}{extra}")
    total = "?" if report.total_chunks is None else str(report.total_chunks)
    lines.append(
        f"chunks: {report.chunks_done}/{total} canonical, {report.rows} row(s),"
        f" {report.span_count} span(s) from {len(report.writers)} writer(s)"
    )
    if report.duration is not None:
        lines.append(f"wall clock: {format_seconds(report.duration)}")

    if report.critical_path:
        lines.append(
            f"critical path: {len(report.critical_path)} span(s),"
            f" {format_seconds(report.critical_path_seconds)} exclusive"
        )
        for entry in report.critical_path_phases:
            share = "" if entry["share_pct"] is None else f"  {entry['share_pct']:5.1f}%"
            lines.append(
                f"  {entry['name']:10s} {format_seconds(entry['exclusive_seconds']):>8s}{share}"
            )
        hops = []
        for node in report.critical_path[:8]:
            chunk = f"[chunk {node['chunk']}]" if node.get("chunk") is not None else ""
            hops.append(f"{node['name']}@{node['owner']}{chunk}")
        suffix = " -> ..." if len(report.critical_path) > 8 else ""
        lines.append(f"  chain: {' -> '.join(hops)}{suffix}")

    if report.phases:
        lines.append("phases (all writers):")
        for entry in report.phases:
            share = "" if entry["share_pct"] is None else f"  {entry['share_pct']:5.1f}%"
            lines.append(
                f"  {entry['name']:10s} {format_seconds(entry['total_seconds']):>8s}"
                f"  {entry['count']} span(s){share}"
            )

    if report.writers:
        lines.append("workers:")
        for writer in report.writers:
            util = (
                "?"
                if writer["utilization_pct"] is None
                else f"{writer['utilization_pct']:.0f}%"
            )
            gap_note = ""
            if writer["idle_gaps"]:
                worst = max(gap["seconds"] for gap in writer["idle_gaps"])
                gap_note = (
                    f", {len(writer['idle_gaps'])} idle gap(s)"
                    f" (worst {format_seconds(worst)})"
                )
            lines.append(
                f"  {writer['owner']}/{writer['pid']}: {writer['spans']} span(s),"
                f" busy {format_seconds(writer['busy_seconds'])}"
                f" of {format_seconds(writer['extent_seconds'])} ({util}){gap_note}"
            )

    if report.stragglers:
        lines.append("stragglers:")
        for entry in report.stragglers[:10]:
            chunk = "?" if entry["chunk"] is None else entry["chunk"]
            lines.append(
                f"  {entry['name']} chunk {chunk} by {entry['owner']}:"
                f" {format_seconds(entry['seconds'])}"
                f" ({entry['ratio']:.1f}x median)"
            )

    if report.faults:
        lines.append("fault attribution (journal-tied):")
        for entry in report.faults:
            chunk = "" if entry["chunk"] is None else f" chunk {entry['chunk']}"
            lines.append(
                f"  line {entry['journal_line']:>4d}: {entry['event']}{chunk} — {entry['detail']}"
            )
    elif report.journal_events:
        lines.append("fault attribution: no fault-recovery decisions journaled")

    if report.fault_counters:
        summary = ", ".join(
            f"{name}={int(value)}" for name, value in sorted(report.fault_counters.items())
        )
        lines.append(f"fault counters: {summary}")

    if report.incomplete:
        lines.append("incomplete:")
        for marker in report.incomplete:
            lines.append(f"  ! {marker}")
    else:
        lines.append("inputs complete: store, journal and telemetry all consistent")
    return "\n".join(lines)


def render_comparison(comparison: dict) -> str:
    """Terminal rendering of :func:`compare_reports` output."""
    lines = [
        f"comparison: {comparison['current']} vs baseline {comparison['baseline']}"
    ]
    duration = comparison["duration"]
    lines.append(
        f"wall clock: {format_seconds(duration['baseline'])} ->"
        f" {format_seconds(duration['current'])}"
    )
    rates = comparison["rows_per_second"]
    if rates["baseline"] is not None or rates["current"] is not None:
        before = "?" if rates["baseline"] is None else f"{rates['baseline']:.1f}"
        after = "?" if rates["current"] is None else f"{rates['current']:.1f}"
        lines.append(f"throughput: {before} -> {after} rows/s")
    lines.append("per-phase totals:")
    for entry in comparison["phases"]:
        before = format_seconds(entry["baseline_seconds"])
        after = format_seconds(entry["current_seconds"])
        delta = "" if entry["delta_pct"] is None else f"  ({entry['delta_pct']:+.1f}%)"
        lines.append(f"  {entry['name']:10s} {before:>8s} -> {after:>8s}{delta}")
    return "\n".join(lines)
