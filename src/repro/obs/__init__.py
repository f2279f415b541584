"""Zero-dependency telemetry for the reproduction (``repro.obs``).

The observability plane of the campaign stack, built entirely on the
standard library so every layer — the batched kernels, the sweep engine,
the scenario runner, the fabric and the detached workers — can emit
without new dependencies and without import cycles (nothing in this
package imports :mod:`repro.scenarios`; the layering test pins that the
lower layers stay below the scenario subsystem even with telemetry
wired in).

Three planes, one façade:

* **spans** (:mod:`repro.obs.spans` + :class:`Telemetry.span`) — nested
  wall-clock timed scopes with structured attributes, written as JSONL
  lines to a per-store ``telemetry/`` sidecar.  Files are per
  ``(owner, pid)``, so process pools and detached workers never share a
  write path; lines are fsynced at every top-level span boundary (every
  line in ``verbose`` mode) — the same durability cadence as the chunk
  store itself;
* **metrics** (:mod:`repro.obs.metrics`) — process-local counters,
  gauges and fixed-bucket histograms, snapshotted atomically to
  ``telemetry/metrics-<owner>-<pid>.json`` and merged across workers by
  :func:`~repro.obs.metrics.merge_snapshots`;
* **structured logging** (:mod:`repro.obs.logs`) — ``get_logger``
  returns a key=value structured façade over the stdlib logger tree,
  configured once by the CLI's ``--log-level`` flag.

Telemetry is **additive**: the sidecar lives next to ``chunks.jsonl``
but is never read by the store, never merged, never hashed — the
instrumented paths are bit-identical to the uninstrumented ones (pinned
by the parity tests), and a torn or missing sidecar never aborts a
campaign (every reader is tolerant, every writer fails soft).

Activation is ambient: :func:`activate` installs a :class:`Telemetry`
as the process-wide current emitter; forked worker processes inherit it
and transparently re-open their own per-pid sidecar files.  When nothing
is active, :func:`active` returns a shared no-op :class:`NullTelemetry`
and every instrumentation site costs one attribute check.
"""

from __future__ import annotations

from repro.obs.logs import LOG_LEVELS, StructuredLogger, configure_logging, get_logger
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    merge_snapshots,
    read_snapshot,
    write_snapshot,
)
from repro.obs.spans import (
    chunk_progress,
    read_jsonl_tolerant,
    read_metric_snapshots,
    read_spans,
)
from repro.obs.report import (
    CampaignReport,
    analyze_campaign,
    chrome_trace_events,
    compare_reports,
    render_comparison,
    render_report,
    report_to_json,
    write_chrome_trace,
)
from repro.obs.telemetry import (
    DEFAULT_ROTATE_BYTES,
    TELEMETRY_DIR_NAME,
    TELEMETRY_MODES,
    NullTelemetry,
    Telemetry,
    activate,
    active,
    enabled,
    install,
)
from repro.obs.trace import (
    annotate_span,
    install_in_worker,
    new_trace_id,
    parse_ref,
    span_ref,
    trace_context,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "DEFAULT_ROTATE_BYTES",
    "LOG_LEVELS",
    "TELEMETRY_DIR_NAME",
    "TELEMETRY_MODES",
    "CampaignReport",
    "MetricsRegistry",
    "NullTelemetry",
    "StructuredLogger",
    "Telemetry",
    "activate",
    "active",
    "analyze_campaign",
    "annotate_span",
    "chrome_trace_events",
    "chunk_progress",
    "compare_reports",
    "configure_logging",
    "enabled",
    "get_logger",
    "install",
    "install_in_worker",
    "merge_snapshots",
    "new_trace_id",
    "parse_ref",
    "read_jsonl_tolerant",
    "read_metric_snapshots",
    "read_snapshot",
    "read_spans",
    "render_comparison",
    "render_report",
    "report_to_json",
    "span_ref",
    "trace_context",
    "write_chrome_trace",
]
