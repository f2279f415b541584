"""The query service: cached, batched resource-selection answers.

:class:`QueryService` answers the paper's decision problem — *which
workers should participate, in what order, and what makespan should we
expect* — through three layers:

1. the :class:`~repro.api.cache.AnswerCache` (canonical content-hash
   keys, LRU + optional disk tier);
2. the :class:`~repro.api.funnel.BatchingFunnel` (concurrent single
   queries coalesce into one stacked kernel call);
3. the batched scenario kernels themselves
   (:func:`repro.core.linear_program.solve_scenarios`, both port models).

Bit-identity contract: for every heuristic the answer's loads, orders,
throughput and predicted makespan equal the scalar reference path —
``compare_heuristics`` / ``optimal_fifo_schedule`` under one-port,
``two_port_fifo_for_order`` / ``optimal_two_port_{fifo,lifo}_schedule``
under two-port — float for float.  The service is a pure
latency/throughput layer; tests pin this, including through the HTTP
JSON round trip.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from dataclasses import replace
from pathlib import Path
from typing import Mapping, Sequence

from repro.api.cache import AnswerCache, query_key
from repro.api.funnel import BatchingFunnel
from repro.api.schemas import DEFAULT_HEURISTICS, Answer, HeuristicAnswer, Query
from repro.core.dispatch import heuristic_orders
from repro.core.heuristics import HEURISTICS, HeuristicResult
from repro.core.linear_program import solve_scenarios
from repro.core.platform import StarPlatform
from repro.obs import active

__all__ = ["QueryService"]


class QueryService:
    """Thread-safe front door answering resource-selection queries.

    Parameters
    ----------
    cache_size:
        In-memory LRU capacity (answers are small; a few thousand fit in
        single-digit MB).
    cache_dir:
        Optional directory for the persistent answer tier — a restarted
        service reuses its predecessor's answers.
    window:
        Micro-batch latency budget in seconds.  ``0`` solves every miss
        immediately; a couple of milliseconds lets concurrent misses share
        one stacked kernel call.
    max_batch:
        Flush the funnel early once this many queries are waiting.
    """

    def __init__(
        self,
        *,
        cache_size: int = 1024,
        cache_dir: str | Path | None = None,
        window: float = 0.0,
        max_batch: int = 64,
    ) -> None:
        self.cache = AnswerCache(max_entries=cache_size, directory=cache_dir)
        self.funnel = BatchingFunnel(self._solve_queries, window=window, max_batch=max_batch)
        self._stats_lock = threading.Lock()
        self._queries = 0
        self._hits = 0
        self._misses = 0
        self._solved = 0

    # ------------------------------------------------------------------ API

    def query(
        self,
        platform: StarPlatform | Mapping | Query,
        *,
        one_port: bool = True,
        heuristics: Sequence[str] = DEFAULT_HEURISTICS,
        total_tasks: float = 1000.0,
        deadline: float = 1.0,
    ) -> Answer:
        """Answer one query (cache hit, or one — possibly shared — solve)."""
        request = Query.build(
            platform,
            one_port=one_port,
            heuristics=heuristics,
            total_tasks=total_tasks,
            deadline=deadline,
        )
        telemetry = active()
        start = time.perf_counter()
        with telemetry.span("api.query", one_port=request.one_port):
            telemetry.counter("api.queries")
            self._count("_queries")
            key = query_key(request)
            answer = self.cache.get(key)
            if answer is not None:
                telemetry.counter("api.cache.hits")
                self._count("_hits")
                answer = replace(answer, cached=True)
            else:
                telemetry.counter("api.cache.misses")
                self._count("_misses")
                answer = self.funnel.submit((key, request))
                self.cache.put(key, answer)
        telemetry.observe("api.query.seconds", time.perf_counter() - start)
        return answer

    def query_batch(
        self, queries: Sequence[StarPlatform | Mapping | Query]
    ) -> list[Answer]:
        """Answer many queries: cache hits filtered, misses solved stacked.

        Equivalent to ``[service.query(q) for q in queries]`` answer for
        answer, but every miss of the batch lands in one kernel call per
        (port model, deadline) group — this is the high-QPS entry point
        the HTTP tier's ``/v1/query/batch`` maps to.
        """
        requests = [Query.build(query) for query in queries]
        telemetry = active()
        start = time.perf_counter()
        with telemetry.span("api.query_batch", size=len(requests)):
            telemetry.counter("api.queries", float(len(requests)))
            self._count("_queries", len(requests))
            keyed = [(query_key(request), request) for request in requests]
            answers: dict[int, Answer] = {}
            misses: list[int] = []
            for index, (key, _) in enumerate(keyed):
                hit = self.cache.get(key)
                if hit is not None:
                    answers[index] = replace(hit, cached=True)
                else:
                    misses.append(index)
            telemetry.counter("api.cache.hits", float(len(answers)))
            telemetry.counter("api.cache.misses", float(len(misses)))
            self._count("_hits", len(answers))
            self._count("_misses", len(misses))
            if misses:
                solved = self._solve_queries(tuple(keyed[i] for i in misses))
                for index, answer in zip(misses, solved):
                    self.cache.put(answer.key, answer)
                    answers[index] = answer
        telemetry.observe("api.query.seconds", time.perf_counter() - start)
        return [answers[index] for index in range(len(requests))]

    def stats(self) -> dict[str, int]:
        """Lifetime counters (the health endpoint's payload)."""
        with self._stats_lock:
            return {
                "queries": self._queries,
                "cache_hits": self._hits,
                "cache_misses": self._misses,
                "solved": self._solved,
                "cache_entries": len(self.cache),
                "funnel_batches": self.funnel.batches,
                "funnel_coalesced": self.funnel.coalesced,
            }

    # ---------------------------------------------------------------- solve

    def _count(self, name: str, value: int = 1) -> None:
        with self._stats_lock:
            setattr(self, name, getattr(self, name) + value)

    def _solve_queries(self, items: Sequence[tuple[str, Query]]) -> list[Answer]:
        """Solve a batch of (cache-missed) ``(key, query)`` pairs with stacked kernels.

        The keys are the ones the cache lookup computed.  Identical
        queries inside the batch are deduplicated and solved once; the
        rest group by (port model, deadline) — one ``solve_scenarios``
        call per group stacks every heuristic of every query of the group.
        """
        unique: dict[str, Query] = dict(items)
        groups: dict[tuple[bool, float], list[tuple[str, Query]]] = defaultdict(list)
        for key, query in unique.items():
            groups[(query.one_port, query.deadline)].append((key, query))
        answers: dict[str, Answer] = {}
        telemetry = active()
        with telemetry.span("api.solve", queries=len(unique), groups=len(groups)):
            for (one_port, deadline), group in groups.items():
                self._solve_group(group, one_port=one_port, deadline=deadline, out=answers)
        self._count("_solved", len(unique))
        telemetry.counter("api.solved", float(len(unique)))
        return [answers[key] for key, _ in items]

    def _solve_group(
        self,
        items: list[tuple[str, Query]],
        *,
        one_port: bool,
        deadline: float,
        out: dict[str, Answer],
    ) -> None:
        """One stacked kernel call for every LP-backed heuristic of ``items``.

        Mirrors :func:`repro.core.heuristics.compare_heuristics_batch`
        (one-port: FIFO scenarios with ``sigma2=None``, LIFO via the
        closed form) and :func:`repro.core.dispatch.
        compare_heuristics_two_port_batch` (two-port: every heuristic is
        LP-backed, LIFO with a reversed return order) — so each answer is
        bit-identical to the scalar reference for its port model.
        """
        scenarios: list[tuple[StarPlatform, Sequence[str], Sequence[str] | None]] = []
        slots: list[tuple[str, str]] = []
        for key, query in items:
            platform = query.platform
            for name in query.heuristics:
                if one_port and name == "LIFO":
                    continue  # closed form, no LP needed
                sigma1, sigma2 = heuristic_orders(platform, name, one_port=one_port)
                scenarios.append((platform, sigma1, sigma2 if not one_port else None))
                slots.append((key, name))
        solutions = solve_scenarios(scenarios, deadline=deadline, one_port=one_port)
        solved: dict[tuple[str, str], HeuristicResult] = {}
        for (key, name), solution in zip(slots, solutions):
            solved[(key, name)] = HeuristicResult(
                name=name, schedule=solution.schedule, throughput=solution.throughput
            )
        for key, query in items:
            results = []
            for name in query.heuristics:
                if one_port and name == "LIFO":
                    result = HEURISTICS["LIFO"](query.platform, deadline=deadline)
                else:
                    result = solved[(key, name)]
                results.append(HeuristicAnswer.from_result(result, query.total_tasks))
            best = max(results, key=lambda entry: entry.throughput)
            out[key] = Answer(
                key=key,
                one_port=query.one_port,
                heuristics=query.heuristics,
                total_tasks=query.total_tasks,
                deadline=query.deadline,
                platform_rows=query.platform_rows,
                best=best.name,
                results=tuple(results),
            )
