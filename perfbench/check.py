"""Correctness gate: the program's outputs against the scalar reference path.

Runs outside every timed window.  Campaign rows are re-derived cell by cell
with :func:`repro.compare` (scalar LPs, either port model) and
:func:`repro.simulation.executor.measure_heuristic` (the rounded, noisy
replay); query answers are re-derived with :func:`repro.compare`.  Every
comparison is float for float: JSON round-trips floats exactly.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro import StarPlatform, Worker, compare
from repro.api.schemas import DEFAULT_HEURISTICS, DEFAULT_TOTAL_TASKS
from repro.core.makespan import predicted_makespan
from repro.core.order_rules import worker_names
from repro.experiments.campaign_engine import noise_seed
from repro.scenarios.runner import NOISE_FACTORIES
from repro.simulation.executor import measure_heuristic
from repro.workloads.sampling import FactorTable, cost_table, workload_base_costs


def cell_platform(spec, table: FactorTable, index: int, size) -> StarPlatform:
    """Platform ``index`` of a sampled family at one grid point."""
    view = table.rows(index, index + 1)
    c, w, d = cost_table(workload_base_costs(spec.workload, size), view.comm, view.comp, view.ret)
    names = worker_names(c.shape[1])
    return StarPlatform(
        Worker(name=name, c=float(c[0, k]), w=float(w[0, k]), d=float(d[0, k]))
        for k, name in enumerate(names)
    )


def reference_values(spec, table: FactorTable, index: int, size) -> dict:
    """A campaign row's ``values`` computed by the scalar reference path."""
    platform = cell_platform(spec, table, index, size)
    total = spec.effective_total_tasks
    results = compare(platform, spec.heuristics, one_port=spec.one_port)
    reference_time = total / results[spec.reference].throughput
    noise = None
    if spec.noise is not None:
        noise = NOISE_FACTORIES[spec.noise](noise_seed(spec.family.seed, index, int(size)))
    values: dict[str, float | int] = {}
    for name in spec.heuristics:
        report = measure_heuristic(
            results[name], total, noise=noise, one_port=spec.one_port, collect_trace=False
        )
        values[f"{name} lp"] = (total / results[name].throughput) / reference_time
        if noise is not None:
            values[f"{name} real"] = report.measured_makespan / reference_time
        values[f"{name} workers"] = len(report.participants)
    values[f"{spec.reference} time"] = reference_time
    return values


def check_chunk(
    spec,
    table: FactorTable,
    rows: Sequence[Mapping],
    start: int,
    stop: int,
    sample: int,
) -> list[str]:
    """Mismatches of one persisted chunk.

    The chunk must hold one row per (platform, grid point) of
    ``[start, stop)`` in order; row ``sample`` is compared in full with
    :func:`reference_values`.
    """
    grid = list(spec.grid)
    expected_cells = [(index, size) for index in range(start, stop) for size in grid]
    cells = [(row["platform"], row["size"]) for row in rows]
    if cells != expected_cells:
        return [f"chunk [{start}, {stop}) does not hold one row per platform and grid point"]
    row = rows[sample % len(rows)]
    expected = reference_values(spec, table, row["platform"], row["size"])
    if row["values"] != expected:
        differ = sorted(
            key for key in set(expected) | set(row["values"])
            if row["values"].get(key) != expected.get(key)
        )
        return [f"platform {row['platform']} size {row['size']}: {differ} differ from the reference"]
    return []


def query_platform(payload: Mapping) -> StarPlatform:
    return StarPlatform(
        Worker(name=name, c=costs["c"], w=costs["w"], d=costs["d"])
        for name, costs in payload["platform"].items()
    )


def reference_answer(payload: Mapping) -> dict:
    """The parts of an answer the scalar reference path determines."""
    one_port = payload.get("one_port", True)
    total = payload.get("total_tasks", DEFAULT_TOTAL_TASKS)
    results = compare(query_platform(payload), DEFAULT_HEURISTICS, one_port=one_port)
    per_heuristic = {}
    for name in DEFAULT_HEURISTICS:
        result = results[name]
        schedule = result.schedule
        per_heuristic[name] = {
            "order": list(schedule.sigma1),
            "return_order": list(schedule.sigma2),
            "throughput": result.throughput,
            "loads": {worker: result.loads[worker] for worker in schedule.sigma1},
            "participants": list(result.participants),
            "predicted_makespan": predicted_makespan(schedule, total),
        }
    best = max(DEFAULT_HEURISTICS, key=lambda name: results[name].throughput)
    return {
        "platform": payload["platform"],
        "one_port": one_port,
        "best": best,
        "results": per_heuristic,
    }


def check_answer(answer: Mapping, reference: Mapping) -> str | None:
    """Why ``answer`` disagrees with ``reference``, or ``None``."""
    for key in ("platform", "one_port", "best"):
        if answer.get(key) != reference[key]:
            return f"{key!r} differs from the reference"
    results = answer.get("results", {})
    for name, expected in reference["results"].items():
        if results.get(name) != expected:
            return f"heuristic {name} differs from the reference"
    return None
