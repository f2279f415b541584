"""The telemetry façade: span emission, metric accumulation, activation.

One :class:`Telemetry` binds an output directory (a store's
``telemetry/`` sidecar), an owner label and a mode:

* ``off`` — disabled; every instrumentation site reduces to one boolean
  attribute check;
* ``on`` — spans written whole to the OS per line (readers see them
  immediately), fsynced only at explicit :meth:`Telemetry.flush` /
  :meth:`Telemetry.close` checkpoints (per chunk group and at campaign
  end; the detached worker checkpoints per chunk), metrics snapshotted at
  top-level span boundaries and chunk-group checkpoints throttled to once
  a second, and at every other checkpoint — the cheap mode, gated < 2%
  campaign overhead by ``bench-check``;
* ``verbose`` — every span line flushed + fsynced individually, metrics
  snapshotted at every top-level boundary, and per-call kernel profile
  records emitted alongside the aggregate counters.

**Ambient activation.**  :func:`activate` installs a telemetry as the
process-wide current emitter; instrumented code anywhere in the stack
asks :func:`active` (or :func:`enabled`) instead of threading a handle
through every signature.  When nothing is active, :data:`NULL` — a
shared :class:`NullTelemetry` — absorbs every call.

**Fork safety.**  ``jobs=`` process pools and fabric workers fork with a
telemetry active.  Every emission re-checks ``os.getpid()``: a forked
child silently abandons the parent's file handle (whose buffer is always
empty — lines are written whole), resets its metric registry (the
inherited counts belong to the parent) and opens its own
``spans-<owner>-<pid>.jsonl`` / ``metrics-<owner>-<pid>.json`` pair, so
concurrent writers never interleave within one file.

**Failure policy.**  Telemetry must never abort a campaign: every write
path swallows ``OSError`` (disabling the emitter after the first
failure, with one warning) and every read path is tolerant.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

from repro.obs.logs import get_logger
from repro.obs.metrics import MetricsRegistry, write_snapshot
from repro.obs.trace import annotate_span, span_ref

__all__ = [
    "DEFAULT_ROTATE_BYTES",
    "TELEMETRY_DIR_NAME",
    "TELEMETRY_MODES",
    "NullTelemetry",
    "Telemetry",
    "activate",
    "active",
    "enabled",
    "install",
]

logger = get_logger(__name__)

#: Sidecar directory name, created next to a store's ``chunks.jsonl``.
TELEMETRY_DIR_NAME = "telemetry"

#: CLI-facing telemetry modes.
TELEMETRY_MODES = ("off", "on", "verbose")

#: Span-file size threshold above which the live segment is shelved as
#: ``spans-<owner>-<pid>.N.jsonl`` (the tolerant reader and the status
#: view glob ``spans-*.jsonl``, so rotated segments stay visible) — a
#: verbose mega-campaign can no longer grow one file unboundedly.
DEFAULT_ROTATE_BYTES = 64 * 1024 * 1024

_OWNER_SAFE = re.compile(r"[^A-Za-z0-9._-]+")

#: One shared sorted-key encoder: ``json.dumps(..., sort_keys=True)``
#: would build a fresh ``JSONEncoder`` for every span line.
_encode_sorted = json.JSONEncoder(sort_keys=True).encode


def _sanitize_owner(owner: str) -> str:
    return _OWNER_SAFE.sub("-", owner) or "writer"


class _NullSpan:
    """The span of a disabled telemetry: a reusable no-op context."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None

    def set(self, **attrs: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTelemetry:
    """Absorbs every telemetry call; installed when nothing is active."""

    enabled = False
    verbose = False
    trace_id = None
    trace_parent = None

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def adopt_trace(self, trace_id: str | None, parent_ref: str | None = None) -> None:
        return None

    def current_ref(self) -> None:
        return None

    def counter(self, name: str, value: float = 1.0) -> None:
        return None

    def gauge(self, name: str, value: float) -> None:
        return None

    def observe(self, name: str, value: float) -> None:
        return None

    def kernel_call(self, kernel: str, **stats: float) -> None:
        return None

    def sampler_batch(self, count: int, workers: int) -> None:
        return None

    def flush(self, throttle_metrics: bool = False) -> None:
        return None


NULL = NullTelemetry()


class _Span:
    """One open timed scope; created by :meth:`Telemetry.span`."""

    __slots__ = ("_telemetry", "name", "attrs", "span_id", "parent_id", "depth", "_t0", "_p0")

    def __init__(
        self,
        telemetry: "Telemetry",
        name: str,
        attrs: dict[str, Any],
        span_id: int,
        parent_id: int | None,
        depth: int,
    ) -> None:
        self._telemetry = telemetry
        self.name = name
        self.attrs = attrs
        self.span_id = span_id
        self.parent_id = parent_id
        self.depth = depth
        self._t0 = time.time()
        self._p0 = time.perf_counter()

    def set(self, **attrs: Any) -> None:
        """Attach attributes mid-flight (recorded at span close)."""
        self.attrs.update(attrs)

    def __enter__(self) -> "_Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._telemetry._finish_span(self, time.perf_counter() - self._p0)


class Telemetry:
    """Span + metric emitter bound to one ``telemetry/`` directory."""

    def __init__(
        self,
        directory: str | Path,
        owner: str | None = None,
        mode: str = "on",
        rotate_bytes: int | None = None,
    ) -> None:
        if mode not in TELEMETRY_MODES:
            raise ValueError(f"unknown telemetry mode {mode!r}; choose from {TELEMETRY_MODES}")
        self.directory = Path(directory)
        self.owner = _sanitize_owner(owner or "main")
        self.mode = mode
        self.enabled = mode != "off"
        self.verbose = mode == "verbose"
        self.rotate_bytes = DEFAULT_ROTATE_BYTES if rotate_bytes is None else int(rotate_bytes)
        self.trace_id: str | None = None
        self.trace_parent: str | None = None
        self.metrics = MetricsRegistry()
        self._write_lock = threading.Lock()
        self._local = threading.local()
        self._pid = os.getpid()
        self._name_files()
        self._handle = None
        self._next_span_id = 0
        self._broken = False
        self._metrics_written_at = 0.0
        self._dirty = False
        self._span_bytes = 0
        self._rotations = 0

    # ------------------------------------------------------------------
    # trace plane
    def adopt_trace(self, trace_id: str | None, parent_ref: str | None = None) -> None:
        """Join a campaign trace: stamp every subsequent span with it.

        ``parent_ref`` (an ``owner:pid:span_id`` from another process)
        becomes the causal parent of this process's *top-level* spans.
        Adopting with ``None`` keeps whatever was already adopted, so a
        late advert read can fill in a missing parent without clearing
        the trace.
        """
        if trace_id:
            self.trace_id = str(trace_id)
        if parent_ref:
            self.trace_parent = str(parent_ref)

    def current_ref(self) -> str | None:
        """The open innermost span's cross-process ref, if any."""
        stack = getattr(self._local, "stack", None)
        if not stack:
            return None
        return span_ref(self.owner, os.getpid(), stack[-1].span_id)

    # ------------------------------------------------------------------
    # span plane
    def span(self, name: str, **attrs: Any) -> _Span | _NullSpan:
        """Open a nested timed scope (``with telemetry.span("solve"): ...``)."""
        if not self.enabled:
            return _NULL_SPAN
        self._ensure_process()
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._write_lock:
            self._next_span_id += 1
            span_id = self._next_span_id
        parent_id = stack[-1].span_id if stack else None
        span = _Span(self, name, attrs, span_id, parent_id, len(stack))
        stack.append(span)
        return span

    def _finish_span(self, span: _Span, elapsed: float) -> None:
        self._ensure_process()
        stack = getattr(self._local, "stack", None)
        if stack and stack[-1] is span:
            stack.pop()
        elif stack and span in stack:
            # Mis-nested exit (generator/async misuse): unwind to the span.
            del stack[stack.index(span) :]
        self.metrics.observe(f"span.{span.name}.seconds", elapsed)
        record = {
            "kind": "span",
            "name": span.name,
            "t0": span._t0,
            "dt": elapsed,
            "depth": span.depth,
            "span": span.span_id,
            "owner": self.owner,
            "pid": os.getpid(),
        }
        if span.parent_id is not None:
            record["parent"] = span.parent_id
        if span.attrs:
            record["attrs"] = span.attrs
        annotate_span(record, self.trace_id, self.trace_parent)
        # Lines always reach the OS whole (write + flush); fsync is
        # reserved for verbose mode and explicit flush() checkpoints so
        # the hot path never stalls on the disk.  Top-level closes
        # refresh the metrics snapshot, throttled to once a second.
        self._emit(record, durable=self.verbose)
        if span.depth == 0:
            self._maybe_write_metrics()

    # ------------------------------------------------------------------
    # metric plane
    def counter(self, name: str, value: float = 1.0) -> None:
        if self.enabled:
            self._ensure_process()
            self.metrics.counter_add(name, value)
            self._dirty = True

    def gauge(self, name: str, value: float) -> None:
        if self.enabled:
            self._ensure_process()
            self.metrics.gauge_set(name, value)
            self._dirty = True

    def observe(self, name: str, value: float) -> None:
        if self.enabled:
            self._ensure_process()
            self.metrics.observe(name, value)
            self._dirty = True

    # ------------------------------------------------------------------
    # profiling hooks
    def kernel_call(self, kernel: str, **stats: float) -> None:
        """Aggregate one batched-kernel invocation's profile.

        ``stats`` carries ``problems`` (batch size), ``pivots`` (total
        simplex iterations), ``active_slots`` / ``mask_slots``
        (termination-mask occupancy numerator/denominator) and
        ``fallbacks`` (scalar re-solves); each is summed into
        ``kernel.<kernel>.<stat>`` counters, and verbose mode emits the
        per-call record itself.
        """
        if not self.enabled:
            return
        self._ensure_process()
        self.metrics.counter_add(f"kernel.{kernel}.calls", 1)
        for stat, value in stats.items():
            self.metrics.counter_add(f"kernel.{kernel}.{stat}", float(value))
        self._dirty = True
        if self.verbose:
            record = {
                "kind": "kernel",
                "kernel": kernel,
                "t0": time.time(),
                "owner": self.owner,
                "pid": os.getpid(),
            }
            record.update(stats)
            self._emit(record, durable=True)

    def sampler_batch(self, count: int, workers: int) -> None:
        """Record one vectorised family materialisation (sampler hook)."""
        if not self.enabled:
            return
        self._ensure_process()
        self.metrics.counter_add("sampler.batches", 1)
        self.metrics.counter_add("sampler.platforms", float(count))
        self.metrics.observe("sampler.batch_size", float(count))
        self.metrics.gauge_set("sampler.workers", float(workers))
        self._dirty = True

    # ------------------------------------------------------------------
    # persistence
    def _ensure_process(self) -> None:
        """Detect a fork: re-home files and metrics to the child pid."""
        pid = os.getpid()
        if pid == self._pid:
            return
        with self._write_lock:
            if os.getpid() == self._pid:
                return
            # The inherited handle is unbuffered (each line is one write),
            # so abandoning it loses nothing of the parent's stream.
            self._pid = os.getpid()
            self._name_files()
            self._handle = None
            self._broken = False
            self._metrics_written_at = 0.0
            self._dirty = False
            self._span_bytes = 0
            self._rotations = 0
            self.metrics = MetricsRegistry()
            self._local = threading.local()

    def _name_files(self) -> None:
        """Name this process's span and metrics files once per pid.

        Plain strings, built here rather than per write: the checkpoint
        path runs once per chunk group and should cost its syscalls only.
        """
        directory = os.fspath(self.directory)
        self._span_file = os.path.join(directory, f"spans-{self.owner}-{self._pid}.jsonl")
        self._metrics_file = os.path.join(directory, f"metrics-{self.owner}-{self._pid}.json")

    def _emit(self, record: dict, durable: bool) -> None:
        if self._broken:
            return
        try:
            # JSON-native records take the C encoder; ``default=str`` would
            # force the pure-Python fallback on every line.
            line = _encode_sorted(record) + "\n"
        except TypeError:
            line = json.dumps(record, sort_keys=True, default=str) + "\n"
        # ASCII by construction (``ensure_ascii``); one unbuffered write
        # puts the whole line in the OS at once.
        data = line.encode("ascii")
        try:
            with self._write_lock:
                if self._handle is None:
                    self.directory.mkdir(parents=True, exist_ok=True)
                    self._handle = open(self._span_file, "ab", buffering=0)
                    try:
                        self._span_bytes = os.stat(self._span_file).st_size
                    except OSError:
                        self._span_bytes = 0
                self._handle.write(data)
                if durable:
                    os.fsync(self._handle.fileno())
                self._dirty = True
                self._span_bytes += len(data)
                if self.rotate_bytes > 0 and self._span_bytes >= self.rotate_bytes:
                    self._rotate_spans()
        except OSError as error:
            self._give_up(error)

    def _rotate_spans(self) -> None:
        """Shelve the live span segment (write lock held by the caller).

        The current file is renamed to the next free
        ``spans-<owner>-<pid>.N.jsonl`` and a fresh live segment opens
        lazily on the next emission; readers glob ``spans-*.jsonl`` so
        nothing is lost, and ``telemetry.rotated_files`` counts how
        often it happened.
        """
        handle, self._handle = self._handle, None
        self._span_bytes = 0
        if handle is not None:
            handle.close()
        while True:
            self._rotations += 1
            target = self.directory / f"spans-{self.owner}-{self._pid}.{self._rotations}.jsonl"
            if not target.exists():
                break
        os.replace(self._span_file, target)
        self.metrics.counter_add("telemetry.rotated_files", 1)

    #: Minimum seconds between throttled metric-snapshot rewrites.
    METRICS_INTERVAL = 1.0

    def _metrics_due(self) -> bool:
        """Whether a throttled snapshot may be written now (verbose: always)."""
        return self.verbose or time.monotonic() - self._metrics_written_at >= self.METRICS_INTERVAL

    def _maybe_write_metrics(self) -> None:
        """Snapshot the metrics, at most once per :data:`METRICS_INTERVAL`."""
        if self._metrics_due():
            self._write_metrics(fsync=self.verbose)

    def _write_metrics(self, fsync: bool) -> None:
        if self._broken:
            return
        snapshot = self.metrics.snapshot(self.owner)
        try:
            try:
                write_snapshot(self._metrics_file, snapshot, fsync=fsync)
            except FileNotFoundError:
                # First snapshot before any span line, or the sidecar was
                # removed under a live writer: create it and retry once.
                self.directory.mkdir(parents=True, exist_ok=True)
                write_snapshot(self._metrics_file, snapshot, fsync=fsync)
            self._metrics_written_at = time.monotonic()
        except OSError as error:
            self._give_up(error)

    def _give_up(self, error: OSError) -> None:
        """First write failure disables the emitter — never the campaign."""
        self._broken = True
        self.enabled = False
        self.verbose = False
        logger.warning(
            "telemetry disabled after write failure", directory=str(self.directory), error=error
        )

    def flush(self, throttle_metrics: bool = False) -> None:
        """Checkpoint: fsync the span file, snapshot the metrics.

        A no-op when nothing was recorded since the last flush, so the
        stacked end-of-campaign flushes (runner, detached loop, ambient
        ``activate`` exit) cost one set of syscalls, not three.  The
        snapshot itself is atomic (``tmp`` + ``rename``) in every mode;
        only verbose pays the extra fsync on it.

        ``throttle_metrics`` (the campaign loop's per-chunk-group
        checkpoints) always fsyncs the spans but rewrites the snapshot at
        most once per :data:`METRICS_INTERVAL`, like a top-level span
        close; a skipped snapshot stays owed, so the next unthrottled
        flush (campaign end, ``activate`` exit, :meth:`close`) writes it.
        """
        if not self.enabled or not self._dirty:
            return
        self._ensure_process()
        if not self._dirty:
            return
        try:
            with self._write_lock:
                if self._handle is not None:
                    os.fsync(self._handle.fileno())
        except OSError as error:
            self._give_up(error)
            return
        if throttle_metrics and not self._metrics_due():
            return
        self._write_metrics(fsync=self.verbose)
        self._dirty = False

    def close(self) -> None:
        self.flush()
        with self._write_lock:
            if self._handle is not None:
                try:
                    self._handle.close()
                except OSError:
                    pass
                self._handle = None


_active: Telemetry | NullTelemetry = NULL


def active() -> Telemetry | NullTelemetry:
    """The process-wide current telemetry (a no-op sink when inactive)."""
    return _active


def enabled() -> bool:
    """Whether an enabled telemetry is currently active."""
    return _active.enabled


def install(telemetry: Telemetry | NullTelemetry | None) -> None:
    """Install ``telemetry`` ambiently with no restore semantics.

    The pool-initializer counterpart of :func:`activate`: a spawned
    worker process belongs to its pool for its whole lifetime, so there
    is no enclosing scope to restore a previous emitter into.
    """
    global _active
    _active = telemetry if telemetry is not None else NULL


@contextmanager
def activate(telemetry: Telemetry | None) -> Iterator[Telemetry | NullTelemetry]:
    """Install ``telemetry`` as the ambient emitter for the ``with`` body.

    ``None`` (or an ``off``-mode telemetry) activates the shared no-op
    sink.  On exit the previous emitter is restored and the outgoing one
    flushed — the final metrics snapshot and a durable span file.
    """
    global _active
    previous = _active
    _active = telemetry if telemetry is not None else NULL
    try:
        yield _active
    finally:
        try:
            _active.flush()
        finally:
            _active = previous
