"""Workload-agnostic parallel sweep engine.

Every experiment of this repository is, at heart, a sweep: a list of
independent work items (scenario chunks, (size, platform) grid cells,
message probes, participation configurations …) whose results are
re-assembled in item order.  :func:`run_sweep` maps a plain ``fn(item)``
over the items for every entry point — the scenario runner (and through
it Figures 10-13), the crossover sweep, fig08, fig09 and fig14:

* items are dealt round-robin into ``jobs`` strided chunks (balancing load
  when later items are costlier, e.g. growing matrix sizes);
* chunks run either inline (``jobs=1``, the default) or on a
  ``concurrent.futures.ProcessPoolExecutor`` (``jobs=N`` / ``jobs=None``
  for one worker per CPU);
* chunk results are merged back by item index, so the output is
  independent of scheduling order — any ``jobs`` setting produces the same
  list, element for element;
* an optional per-chunk memo keyed by ``cache_key(item)`` evaluates
  repeated items once per chunk.

Workers must be picklable when ``jobs > 1`` (module-level callables, or
``functools.partial`` over one).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Sequence, TypeVar

import repro.obs as obs
from repro.exceptions import ExperimentError

__all__ = ["resolve_jobs", "run_sweep"]


Item = TypeVar("Item")
Result = TypeVar("Result")

#: A chunk worker: receives ``(index, item)`` pairs, yields ``(index,
#: result)`` pairs (in any order).
ChunkWorker = Callable[[Sequence[tuple[int, Item]]], Iterable[tuple[int, Result]]]


def resolve_jobs(jobs: int | None) -> int:
    """Normalise a ``jobs`` parameter to a concrete worker count.

    ``None`` means one worker per available CPU; values below one are
    rejected (a sweep cannot run on zero workers).
    """
    if jobs is None:
        return max(1, os.cpu_count() or 1)
    if jobs < 1:
        raise ExperimentError(f"jobs must be at least 1 (got {jobs})")
    return int(jobs)


def _sweep_chunks(
    worker: ChunkWorker,
    items: Sequence[Item],
    jobs: int | None = 1,
    executor: ProcessPoolExecutor | None = None,
) -> list[Result]:
    """Run ``worker`` over strided chunks of ``items``; results in item order.

    ``worker`` is called once per chunk with a list of ``(index, item)``
    pairs and must return ``(index, result)`` pairs for each of them.  With
    ``jobs > 1`` the chunks are dispatched to a process pool, so ``worker``
    (and the items and results) must be picklable.  ``executor`` lets a
    caller that sweeps repeatedly (e.g. the scenario runner's chunk
    groups) reuse one long-lived pool instead of paying worker spawn +
    import per call; it is never shut down here, and ``jobs`` still
    controls how many chunks are formed.
    """
    indexed = list(enumerate(items))
    if not indexed:
        return []
    jobs = min(resolve_jobs(jobs), len(indexed))

    telemetry = obs.active()
    if jobs <= 1:
        if telemetry.enabled:
            started = time.perf_counter()
            pairs = list(worker(indexed))
            telemetry.observe("sweep.chunk.wall_seconds", time.perf_counter() - started)
            telemetry.counter("sweep.chunks")
            telemetry.counter("sweep.items", len(indexed))
        else:
            pairs = list(worker(indexed))
    else:
        chunks = [indexed[i::jobs] for i in range(jobs)]
        pairs = []
        if executor is None:
            # A transient pool still joins the campaign trace: children
            # adopt the ambient trace context so their spans stitch into
            # the caller's causal tree.
            with ProcessPoolExecutor(
                max_workers=jobs,
                initializer=obs.install_in_worker,
                initargs=(obs.trace_context(telemetry),),
            ) as pool:
                pairs = _collect_futures(pool, worker, chunks)
        else:
            pairs = _collect_futures(executor, worker, chunks)

    pairs.sort(key=lambda pair: pair[0])
    if [index for index, _ in pairs] != list(range(len(indexed))):
        raise ExperimentError(
            "sweep worker did not return exactly one result per item"
        )
    return [result for _, result in pairs]


def _collect_futures(
    pool: ProcessPoolExecutor,
    worker: ChunkWorker,
    chunks: Sequence[Sequence[tuple[int, Item]]],
) -> list[tuple[int, Result]]:
    """Submit one future per chunk and drain them as they complete.

    With a telemetry active, every future's submit-to-completion wall
    (dispatch queueing plus worker compute) lands in the
    ``sweep.chunk.wall_seconds`` histogram — the parent-side view of the
    per-chunk queue phase.
    """
    telemetry = obs.active()
    submitted = {pool.submit(worker, chunk): len(chunk) for chunk in chunks}
    started = time.perf_counter()
    pairs: list[tuple[int, Result]] = []
    for future in as_completed(submitted):
        if telemetry.enabled:
            telemetry.observe("sweep.chunk.wall_seconds", time.perf_counter() - started)
            telemetry.counter("sweep.chunks")
            telemetry.counter("sweep.items", submitted[future])
        pairs.extend(future.result())
    return pairs


@dataclass(frozen=True)
class _MappedChunk:
    """Picklable chunk worker applying ``fn`` per item with an optional memo."""

    fn: Callable
    cache_key: Callable | None = None

    def __call__(self, chunk: Sequence[tuple[int, Item]]) -> list[tuple[int, Result]]:
        if self.cache_key is None:
            return [(index, self.fn(item)) for index, item in chunk]
        memo: dict[Hashable, Result] = {}
        pairs: list[tuple[int, Result]] = []
        for index, item in chunk:
            key = self.cache_key(item)
            if key not in memo:
                memo[key] = self.fn(item)
            pairs.append((index, memo[key]))
        return pairs


def run_sweep(
    fn: Callable[[Item], Result],
    items: Sequence[Item],
    jobs: int | None = 1,
    cache_key: Callable[[Item], Hashable] | None = None,
    executor: ProcessPoolExecutor | None = None,
) -> list[Result]:
    """Map ``fn`` over ``items``, chunked and optionally process-parallel.

    ``cache_key`` enables a per-chunk memo: items with equal keys are
    evaluated once per chunk and share the result.  Only safe when ``fn``
    is deterministic in the key (the engine does not verify this).
    ``executor`` reuses a caller-owned pool (see :func:`_sweep_chunks`).
    """
    return _sweep_chunks(_MappedChunk(fn, cache_key), items, jobs=jobs, executor=executor)
