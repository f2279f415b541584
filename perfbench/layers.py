"""The layer ledger: which program functions a traced run wraps, and how
their spans become the per-layer metrics of ``BENCHMARK.json``.

Span names are metric names.  A span whose metric has the unit
``us/scenario`` reports its self time in microseconds per scenario (per
answered request for ``query-http``); counts are reported per scenario.
A layer a workload never calls reports 0.
"""

from __future__ import annotations

import json

from tracer import ModuleProxy, Tracer, counts_between, self_times

#: Every per-layer metric with its unit, in ``BENCHMARK.json`` order.
PER_LAYER = {
    "setup.import_repro_cli_s": "s",
    "setup.import_scipy_s": "s",
    "workloads.sampling.us": "us/scenario",
    "core.batch_scenario.build_us": "us/scenario",
    "core.batch_scenario.simplex_us": "us/scenario",
    "core.batch_scenario.lps": "1/scenario",
    "core.batch_scenario.pivots": "1/scenario",
    "core.batch_scenario.fallbacks": "1/scenario",
    "experiments.campaign_engine.prepare_self_us": "us/scenario",
    "experiments.campaign_engine.replay_us": "us/scenario",
    "experiments.campaign_engine.replay_runs": "1/scenario",
    "simulation.executor.layout_us": "us/scenario",
    "simulation.executor.layouts_built": "1/scenario",
    "simulation.executor.layouts_replayed_ratio": "ratio",
    "simulation.noise.us": "us/scenario",
    "simulation.noise.draws": "1/scenario",
    "simulation.fast_twoport.us": "us/scenario",
    "simulation.fast_twoport.calls": "1/scenario",
    "core.rounding.us": "us/scenario",
    "scenarios.runner.encode_self_us": "us/scenario",
    "scenarios.runner.campaign_self_us": "us/scenario",
    "scenarios.store.append_us": "us/scenario",
    "scenarios.store.bytes_appended": "B/scenario",
    "scenarios.store.fsyncs": "1/chunk",
    "api.server.transport_ms": "ms",
    "api.server.json_us": "us/scenario",
    "api.schemas.parse_us": "us/scenario",
    "api.schemas.encode_us": "us/scenario",
    "api.cache.key_us": "us/scenario",
    "api.cache.lookup_us": "us/scenario",
    "api.cache.hit_ratio": "ratio",
    "api.funnel.wait_us": "us/scenario",
    "api.funnel.batch_size_mean": "count",
    "api.service.solve_us": "us/scenario",
    "api.service.answer_self_us": "us/scenario",
    "other_us": "us/scenario",
    "trace.overhead_pct": "%",
}

#: Root span of one HTTP request in the server; its self time is the
#: handler's own plumbing, reported as ``other_us``.
HANDLER = "api.server.handler"
#: One-port layouts replayed (the numerator of ``layouts_replayed_ratio``).
REPLAYED_LAYOUTS = "replayed_layouts"


def _count_kernel(tracer: Tracer, args, result) -> None:
    tracer.count("core.batch_scenario.lps", result.loads.shape[0])
    tracer.count("core.batch_scenario.pivots", int(result.iterations.sum()))
    tracer.count("core.batch_scenario.fallbacks", int(result.fallbacks.sum()))


def _patch_kernel(tracer: Tracer, caller) -> None:
    tracer.patch(caller, "scenario_arrays_batch", "core.batch_scenario.build_us")
    tracer.patch(
        caller, "solve_scenario_arrays_batch", "core.batch_scenario.simplex_us", _count_kernel
    )


def install_campaign_layers(tracer: Tracer) -> None:
    """Wrap the campaign path's layers at their call sites."""
    from repro.core import batch_scenario
    from repro.experiments import campaign_engine
    from repro.scenarios import runner, store
    from repro.simulation import executor

    def count_replays(one_port: bool):
        def count(tracer: Tracer, args, result) -> None:
            tracer.count("experiments.campaign_engine.replay_runs", result.size)
            if one_port:
                tracer.count(REPLAYED_LAYOUTS, result.size)

        return count

    sizes: dict = {}

    def count_bytes(tracer: Tracer, args, result) -> None:
        path = args[0].chunks_path
        size = path.stat().st_size
        tracer.count("scenarios.store.bytes_appended", size - sizes.get(path, 0))
        sizes[path] = size

    tracer.patch(runner, "run_campaign", "scenarios.runner.campaign_self_us")
    tracer.patch(runner, "evaluate_chunk", "scenarios.runner.encode_self_us")
    for name in ("sample_factors", "cost_table", "workload_base_costs"):
        tracer.patch(runner, name, "workloads.sampling.us")
    tracer.patch(runner, "prepare_cells", "experiments.campaign_engine.prepare_self_us")
    tracer.patch(
        runner, "perturb_sequence", "simulation.noise.us",
        lambda tracer, args, result: tracer.count("simulation.noise.draws", len(args[1])),
    )
    tracer.patch(
        runner, "replay_grouped", "experiments.campaign_engine.replay_us", count_replays(True)
    )
    tracer.patch(
        runner, "replay_two_port", "experiments.campaign_engine.replay_us", count_replays(False)
    )
    _patch_kernel(tracer, campaign_engine)
    tracer.patch(campaign_engine, "two_port_arrays_batch", "core.batch_scenario.build_us")
    tracer.patch(
        campaign_engine, "prepare_measurement_arrays", "simulation.executor.layout_us",
        lambda tracer, args, result: tracer.count("simulation.executor.layouts_built"),
    )
    tracer.patch(campaign_engine, "round_values", "core.rounding.us")
    tracer.patch(executor, "round_values", "core.rounding.us")
    tracer.patch(
        campaign_engine, "run_fast_twoport", "simulation.fast_twoport.us",
        lambda tracer, args, result: tracer.count("simulation.fast_twoport.calls"),
    )
    tracer.patch(store.CampaignState, "append_chunk", "scenarios.store.append_us", count_bytes)
    # The query path reaches the kernel through batch_scenario's own globals.
    _patch_kernel(tracer, batch_scenario)


def install_query_layers(tracer: Tracer) -> None:
    """Wrap the query path's layers at their call sites.

    Must run before the :class:`~repro.api.QueryService` is built: its
    funnel binds ``_solve_queries`` at construction.
    """
    from repro.api import cache, funnel, schemas, server, service
    from repro.core import batch_scenario

    tracer.patch(server._QueryHandler, "do_POST", HANDLER)
    tracer.replace(
        server,
        "json",
        ModuleProxy(
            json,
            loads=tracer.wrap("api.server.json_us", json.loads),
            dumps=tracer.wrap("api.server.json_us", json.dumps),
        ),
    )
    tracer.patch(schemas.Query, "from_dict", "api.schemas.parse_us")
    tracer.patch(schemas.Answer, "as_dict", "api.schemas.encode_us")
    tracer.patch(service.QueryService, "query", "api.service.answer_self_us")
    tracer.patch(service, "query_key", "api.cache.key_us")
    tracer.patch(cache.AnswerCache, "get", "api.cache.lookup_us")
    tracer.patch(cache.AnswerCache, "put", "api.cache.lookup_us")
    tracer.patch(funnel.BatchingFunnel, "submit", "api.funnel.wait_us")
    tracer.patch(service.QueryService, "_solve_queries", "api.service.solve_us")
    _patch_kernel(tracer, batch_scenario)


def _ledger(totals: dict, counts: dict, scenarios: int) -> dict[str, float]:
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    for name, unit in PER_LAYER.items():
        if unit == "us/scenario" and name in totals:
            metrics[name] = totals[name] * 1e6 / scenarios
        elif unit in ("1/scenario", "B/scenario"):
            metrics[name] = counts.get(name, 0.0) / scenarios
    built = counts.get("simulation.executor.layouts_built", 0.0)
    if built:
        metrics["simulation.executor.layouts_replayed_ratio"] = (
            counts.get(REPLAYED_LAYOUTS, 0.0) / built
        )
    return metrics


def campaign_ledger(
    tracer: Tracer, scenarios: int, chunks: int, wall: float, fsyncs: int
) -> dict[str, float]:
    """Per-layer metrics of the traced campaigns.

    ``wall`` is the traced campaigns' wall time; whatever no span covers
    is ``other_us``.
    """
    totals, _ = self_times(tracer.span_lists())
    metrics = _ledger(totals, counts_between(tracer.events, float("-inf"), float("inf")), scenarios)
    metrics["scenarios.store.fsyncs"] = fsyncs / chunks
    metrics["other_us"] = (wall - sum(totals.values())) * 1e6 / scenarios
    return metrics


def query_ledger(
    spans: dict, window: tuple[float, float], round_trips: list[float]
) -> dict[str, float]:
    """Per-layer metrics of the requests the server began inside ``window``.

    ``spans`` is what the traced server wrote at exit; ``round_trips`` are
    the client's request times over the same window.  The time a request
    spends outside the server's handler is ``api.server.transport_ms``.
    """
    start, end = window
    totals, roots = self_times(
        spans["spans"], lambda span: span[0] == HANDLER and start <= span[1] <= end
    )
    requests = len(roots)
    metrics = _ledger(totals, counts_between(spans["counts"], start, end), requests)
    handler = sum(root[2] - root[1] for root in roots) / requests
    metrics["api.server.transport_ms"] = (sum(round_trips) / len(round_trips) - handler) * 1e3
    metrics["other_us"] = totals.get(HANDLER, 0.0) * 1e6 / requests
    return metrics


def import_seconds(importtime: str) -> tuple[float, float]:
    """``import repro.cli`` and SciPy's part of it, from ``-X importtime``.

    SciPy's part is the cumulative time of every outermost ``scipy``
    import: SciPy's modules plus whatever they pulled in first.
    """
    entries = []
    for line in importtime.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        name = fields[2].rstrip()
        entries.append((len(name) - len(name.lstrip()), name.strip(), int(fields[1])))
    cli = next(cumulative for _, name, cumulative in entries if name == "repro.cli")
    scipy = 0
    enclosing: list[tuple[int, bool]] = []
    # The log lists a module after its imports; walk it backwards so each
    # module is seen before the imports it encloses.
    for depth, name, cumulative in reversed(entries):
        while enclosing and enclosing[-1][0] >= depth:
            enclosing.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(inside for _, inside in enclosing):
            scipy += cumulative
        enclosing.append((depth, is_scipy))
    return cli / 1e6, scipy / 1e6
