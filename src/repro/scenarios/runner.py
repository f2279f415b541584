"""Streaming, resumable execution of scenario-space campaigns.

The runner turns a :class:`~repro.scenarios.spec.ScenarioSpec` into
results by sharding its platform draws into fixed-size **chunks** and
pushing each chunk through the array-level campaign machinery:

1. the vectorised sampler (:mod:`repro.workloads.sampling`) materialises
   the family's factor tables once (vectorised RNG, no platform objects);
2. each chunk's (platform, size) cells become stacked cost tables and one
   batched scenario-kernel call via
   :func:`repro.experiments.campaign_engine.prepare_cells`, which rounds
   every load vector once and builds replay layouts only for measured
   spaces;
3. for measured spaces (``spec.noise``), every cell draws one batched
   noise stream — seeded per (platform index, size) by
   :func:`~repro.experiments.campaign_engine.noise_seed` — and the
   replays run chunk-vectorised through
   :func:`~repro.experiments.campaign_engine.replay_grouped`;
4. every finished chunk is appended to the persistent store
   (:mod:`repro.scenarios.store`) before the next group starts, so an
   interrupted campaign **resumes** where it left off: chunk results are
   deterministic in the spec, making a resumed campaign bit-identical to
   an uninterrupted one (pinned by the test-suite).

``jobs`` spreads the chunks of each group over worker processes through
the generic sweep engine; the parent stays the single store writer, and
every jobs setting persists identical rows.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

import repro.obs as obs
from repro.core.bus import (
    optimal_bus_fifo_schedule,
    optimal_bus_throughput,
    two_port_bus_throughput,
)
from repro.core.platform import bus_platform
from repro.exceptions import ExperimentError
from repro.experiments.campaign_engine import (
    noise_seed,
    prepare_cells,
    replay_grouped,
    replay_two_port,
)
from repro.experiments.common import FigureResult, default_noise, overhead_noise
from repro.experiments.fig08_linearity import measure_transfer
from repro.experiments.sweep_engine import resolve_jobs, run_sweep
from repro.workloads.sampling import cost_table, sample_factors, workload_base_costs
from repro.scenarios.spec import ScenarioSpec, named_space
from repro.scenarios.store import CampaignState, CampaignStore, aggregate_rows
from repro.simulation.noise import NoiseModel, perturb_sequence
from repro.workloads.matrices import MatrixProductWorkload

__all__ = [
    "NOISE_FACTORIES",
    "CampaignProgress",
    "aggregate_figure",
    "evaluate_chunk",
    "evaluate_range",
    "figure_campaign",
    "plan_chunks",
    "run_campaign",
    "validate_plan",
]


#: Seedable noise factories a spec may name (see ``ScenarioSpec.noise``):
#: the campaigns' default jitter and the Figure-13b per-message overhead
#: variant.
NOISE_FACTORIES: dict[str, Callable[[int], NoiseModel]] = {
    "default": default_noise,
    "overhead": overhead_noise,
}


#: Platforms evaluated (and persisted) per chunk when the caller does not
#: choose: small enough that interrupts lose little work, large enough
#: that the batched kernel amortises its stacking.
DEFAULT_CHUNK_SIZE = 100


def plan_chunks(count: int, chunk_size: int) -> list[tuple[int, int]]:
    """Contiguous ``[start, stop)`` platform ranges covering ``count``."""
    if chunk_size <= 0:
        raise ExperimentError("chunk_size must be positive")
    return [(start, min(start + chunk_size, count)) for start in range(0, count, chunk_size)]


def validate_plan(state: CampaignState, chunks: list[tuple[int, int]]) -> set[int]:
    """Check a store's persisted chunks against a chunk plan.

    Returns the completed chunk indices; raises when the store holds
    chunks outside the plan or with drifted ``[start, stop)`` ranges (a
    campaign resumed with a different chunk size).  Shared by the
    single-writer runner and the lease coordinator — every writer agrees
    on one plan.
    """
    completed = state.completed_chunks
    unknown = completed - set(range(len(chunks)))
    mismatched = sorted(
        index for index in completed - unknown if state.chunk_range(index) != chunks[index]
    )
    if unknown or mismatched:
        raise ExperimentError(
            f"store chunks {sorted(unknown) + mismatched} do not fit the "
            f"{len(chunks)}-chunk plan; resume with the chunk size the campaign "
            "was started with"
        )
    return completed


def _grid_noise_key(spec: ScenarioSpec, grid_index: int, x) -> int:
    """The "size" term of a cell's noise seed.

    Matrix grids keep the matrix size itself — the paper campaigns'
    formula, which the bit-identity guarantee rests on.  Non-integer grids
    (bus ``w/c`` ratios) use the grid *position* instead: truncating 0.5
    and 1.0 and 1.5 to ints would hand several grid points one shared
    noise stream.
    """
    return int(x) if spec.workload.kind == "matrix" else grid_index


def _row_size(spec: ScenarioSpec, x) -> int | float:
    """The JSON form of a row's grid point (ints for matrix sizes)."""
    return int(x) if spec.workload.kind == "matrix" else float(x)


def _bus_closed_form(comm_row: np.ndarray, w_row: np.ndarray, d_row: np.ndarray) -> dict:
    """Theorem 2's closed forms for one (platform, ratio) bus cell.

    Values are produced by :mod:`repro.core.bus` itself on the very cost
    table the LP sees, so the series are bit-identical to the legacy
    closed-form driver by construction: the optimal one-port FIFO
    throughput, the two-port optimum ``rho~``, the port-capacity bound
    ``1/(c+d)``, and the uniform gap the constructive Figure 7
    transformation inserts (with its saturation flag).
    """
    platform = bus_platform(w_row.tolist(), c=float(comm_row[0]), d=float(d_row[0]))
    construction = optimal_bus_fifo_schedule(platform)
    c, d = platform.bus_costs
    return {
        "bus closed-form": optimal_bus_throughput(platform),
        "bus two-port": two_port_bus_throughput(platform),
        "bus port bound": 1.0 / (c + d),
        "bus gap": construction.gap,
        "bus saturated": 1.0 if construction.saturated else 0.0,
    }


def _evaluate_probe_chunk(
    spec: ScenarioSpec,
    descriptor: tuple[int, int, np.ndarray, np.ndarray, np.ndarray | None],
) -> list[dict]:
    """Evaluate one chunk of a probe-workload space.

    Every (platform, message size) cell replays the Figure 8 measurement —
    :func:`repro.experiments.fig08_linearity.measure_transfer`, one
    rendezvous transfer per worker through the one-port master on the
    simulated runtime — so the rows are bit-identical to the legacy
    linearity driver's series on the same factors.
    """
    start, stop, comm, _, _ = descriptor
    workload_model = MatrixProductWorkload(int(spec.workload.param("matrix_size")))
    rows: list[dict] = []
    for offset in range(stop - start):
        factors = comm[offset]
        for megabytes in spec.grid:
            values = {
                f"worker {index + 1} transfer": float(
                    measure_transfer(workload_model, float(factor), float(megabytes))
                )
                for index, factor in enumerate(factors)
            }
            rows.append(
                {"platform": start + offset, "size": _row_size(spec, megabytes), "values": values}
            )
    return rows


def evaluate_chunk(
    spec: ScenarioSpec,
    descriptor: tuple[int, int, np.ndarray, np.ndarray, np.ndarray | None],
) -> list[dict]:
    """Evaluate one chunk of platforms across every grid point.

    Returns one row per (platform, grid point) cell: the per-heuristic LP
    ratio (vs the reference heuristic's LP prediction), the measured ratio
    when the spec names a noise model, the rounded participant count, and
    the reference's absolute predicted time; bus cells additionally carry
    Theorem 2's closed-form series, probe cells their per-worker transfer
    times.  Pure function of (spec, descriptor) — the resume guarantee
    rests on this.  With a telemetry active the chunk runs inside an
    ``evaluate`` span with nested ``solve`` / ``replay`` phase spans (in
    the evaluating process — per-pid sidecar files under ``jobs=``).
    """
    telemetry = obs.active()
    with telemetry.span(
        "evaluate", start=descriptor[0], stop=descriptor[1], workload=spec.workload.kind
    ) as span:
        if spec.workload.kind == "probe":
            rows = _evaluate_probe_chunk(spec, descriptor)
        else:
            rows = _evaluate_lp_chunk(spec, descriptor)
        span.set(rows=len(rows))
        return rows


def _evaluate_lp_chunk(
    spec: ScenarioSpec,
    descriptor: tuple[int, int, np.ndarray, np.ndarray, np.ndarray | None],
) -> list[dict]:
    """The LP-backed (matrix/bus) chunk evaluation behind ``evaluate_chunk``."""
    telemetry = obs.active()
    start, stop, comm, comp, ret = descriptor
    count = stop - start
    grid = spec.grid
    is_bus = spec.workload.kind == "bus"

    # Key the prepared cells on the factor vectors themselves: families
    # with repeated draws (every constant dimension — fig10's homogeneous
    # space repeats one factor set 50 times) prepare each distinct
    # (factor set, grid point) pair once instead of once per platform.
    # The emitted rows are unchanged — identical inputs prepare to
    # identical values.
    factor_keys = [
        (
            comm[offset].tobytes(),
            comp[offset].tobytes(),
            None if ret is None else ret[offset].tobytes(),
        )
        for offset in range(count)
    ]
    with telemetry.span("solve") as solve_span:
        keyed_tables = []
        closed_forms: dict[tuple, dict] = {}
        seen: set[tuple] = set()
        for x in grid:
            c, w, d = cost_table(workload_base_costs(spec.workload, x), comm, comp, ret)
            for offset in range(count):
                key = (factor_keys[offset], x)
                if key not in seen:
                    seen.add(key)
                    keyed_tables.append((key, c[offset], w[offset], d[offset]))
                    if is_bus and spec.one_port:
                        closed_forms[key] = _bus_closed_form(c[offset], w[offset], d[offset])
        total_tasks = spec.effective_total_tasks
        cells = prepare_cells(
            spec.heuristics, spec.reference, total_tasks, keyed_tables,
            one_port=spec.one_port, measured=spec.noise is not None,
        )
        solve_span.set(cells=len(keyed_tables))

    noise_factory = NOISE_FACTORIES[spec.noise] if spec.noise is not None else None
    occurrences = []
    for offset in range(count):
        platform_index = start + offset
        for grid_index, x in enumerate(grid):
            cell = cells[(factor_keys[offset], x)]
            payload = None
            if noise_factory is not None:
                noise = noise_factory(
                    noise_seed(
                        spec.family.seed, platform_index, _grid_noise_key(spec, grid_index, x)
                    )
                )
                if spec.one_port:
                    # One-port: the draw order is static, so the cell's
                    # whole stream is drawn here in one batched call.
                    payload = perturb_sequence(
                        noise, cell.durations, cell.kinds, cell.workers(noise)
                    )
                else:
                    # Two-port: the draw order depends on the realised
                    # times, so the occurrence carries the seeded model and
                    # the chunk's lockstep replay draws its stream.
                    payload = noise
            occurrences.append((platform_index, x, cell, payload))

    if noise_factory is None:
        makespans = None
    else:
        with telemetry.span("replay", occurrences=len(occurrences)):
            if spec.one_port:
                makespans = replay_grouped(occurrences, len(spec.heuristics))
            else:
                makespans = replay_two_port(occurrences, len(spec.heuristics))

    rows: list[dict] = []
    for occurrence, (platform_index, x, cell, _) in enumerate(occurrences):
        values: dict[str, float] = {}
        for slot, (name, lp_ratio) in enumerate(cell.lp_ratios):
            values[f"{name} lp"] = lp_ratio
            if makespans is not None:
                values[f"{name} real"] = makespans[occurrence, slot] / cell.reference_time
            values[f"{name} workers"] = cell.participants[slot]
        values[f"{spec.reference} time"] = cell.reference_time
        offset = occurrence // len(grid)
        closed = closed_forms.get((factor_keys[offset], x))
        if closed is not None:
            values.update(closed)
        rows.append({"platform": platform_index, "size": _row_size(spec, x), "values": values})
    return rows


def evaluate_range(spec: ScenarioSpec, start: int, stop: int) -> list[dict]:
    """Evaluate platforms ``[start, stop)`` of a spec, self-contained.

    The worker entry point: a worker process holds only the spec
    and a lease's platform range — it re-samples the family's factor
    tables itself (deterministic in the spec, vectorised, cheap next to a
    chunk evaluation) and runs the shared chunk evaluator, so a chunk
    evaluated by any worker, on any machine, yields the exact rows the
    single-writer runner would have persisted.
    """
    table = sample_factors(spec.family)
    view = table.rows(start, stop)
    return evaluate_chunk(spec, (start, stop, view.comm, view.comp, view.ret))


@dataclass
class CampaignProgress:
    """Outcome of one :func:`run_campaign` call (possibly partial)."""

    state: CampaignState
    chunk_size: int
    total_chunks: int
    completed_before: int
    completed_after: int

    @property
    def finished(self) -> bool:
        """Whether every chunk of the space is persisted."""
        return self.completed_after == self.total_chunks

    def rows(self) -> list[dict]:
        return self.state.rows()

    def aggregate(self, quantiles: Sequence[float] = (0.05, 0.5, 0.95)) -> dict:
        return self.state.aggregate(quantiles=quantiles)


def run_campaign(
    spec: ScenarioSpec,
    store: CampaignStore | str | Path,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    jobs: int | None = 1,
    max_chunks: int | None = None,
    progress: Callable[[int, int], None] | None = None,
) -> CampaignProgress:
    """Run (or resume) a scenario campaign, persisting chunk by chunk.

    Chunks already present in the store are skipped — calling this on an
    interrupted campaign completes it with results identical to an
    uninterrupted run.  ``jobs`` evaluates up to that many pending chunks
    concurrently (``None`` = one per CPU); the parent process writes each
    group's results in chunk order before starting the next group, so the
    store never holds a partially evaluated chunk.  ``max_chunks`` bounds
    how many *new* chunks this call evaluates (used to budget sessions —
    and by the resume tests to interrupt deterministically);
    ``progress(done, total)`` is called after every persisted group.
    """
    if isinstance(store, (str, Path)):
        store = CampaignStore(store)
    state = store.campaign(spec)

    chunks = plan_chunks(spec.family.count, chunk_size)
    completed = validate_plan(state, chunks)
    pending = [index for index in range(len(chunks)) if index not in completed]
    before = len(completed)
    if max_chunks is not None:
        if max_chunks < 0:
            raise ExperimentError(f"max_chunks must be non-negative (got {max_chunks})")
        pending = pending[:max_chunks]

    telemetry = obs.active()
    if pending:
        if telemetry.enabled and not telemetry.trace_id:
            telemetry.adopt_trace(obs.new_trace_id())
        telemetry.gauge("campaign.total_chunks", len(chunks))
        table = sample_factors(spec.family)
        group_size = max(resolve_jobs(jobs), 1)
        worker = partial(evaluate_chunk, spec)
        with telemetry.span("campaign", total_chunks=len(chunks), pending=len(pending)):
            # The open campaign span is every pool child's causal parent:
            # the initializer adopts the trace context in each worker so
            # all sidecar spans stitch into one tree (fork children only
            # need the adoption; spawn children rebuild the telemetry).
            context = obs.trace_context(telemetry)
            # One pool for the whole campaign: chunk groups reuse the
            # workers instead of paying process spawn + numpy import per
            # group.
            pool = (
                ProcessPoolExecutor(
                    max_workers=group_size,
                    initializer=obs.install_in_worker,
                    initargs=(context,),
                )
                if group_size > 1
                else None
            )
            try:
                for group_start in range(0, len(pending), group_size):
                    group = pending[group_start : group_start + group_size]
                    descriptors = []
                    for index in group:
                        start, stop = chunks[index]
                        view = table.rows(start, stop)
                        descriptors.append((start, stop, view.comm, view.comp, view.ret))
                    # The parent-side queue phase: dispatch-and-wait of one
                    # chunk group (includes the workers' compute time; the
                    # solve/replay split lives in their own spans).
                    with telemetry.span("queue", chunks=len(group)):
                        results = run_sweep(worker, descriptors, jobs=group_size, executor=pool)
                    for index, rows in zip(group, results):
                        with telemetry.span("append", chunk=index, rows=len(rows)):
                            state.append_chunk(index, chunks[index][0], chunks[index][1], rows)
                        telemetry.counter("campaign.chunks_completed")
                        telemetry.counter("campaign.rows_appended", len(rows))
                    # Spans fsynced per chunk group; the metrics snapshot
                    # is refreshed at most once a second until the end.
                    telemetry.flush(throttle_metrics=True)
                    if progress is not None:
                        progress(len(state.completed_chunks), len(chunks))
            finally:
                if pool is not None:
                    # cancel_futures: an interrupt (Ctrl-C) must not sit
                    # through the whole queued backlog before reporting
                    # what was persisted.
                    pool.shutdown(cancel_futures=True)

    return CampaignProgress(
        state=state,
        chunk_size=chunk_size,
        total_chunks=len(chunks),
        completed_before=before,
        completed_after=len(state.completed_chunks),
    )


#: The x-axis label of each workload kind's grid.
_X_LABELS = {"matrix": "matrix size", "bus": "w/c ratio", "probe": "megabytes"}


def aggregate_figure(spec: ScenarioSpec, aggregated: dict):
    """Render an aggregate as a :class:`FigureResult` (mean per cell).

    Gives ``scenarios run/show`` the same aligned-table output as the
    figure experiments; quantile columns stay available through the raw
    aggregate.  Heuristic series come first in the campaign order; any
    remaining series (bus closed forms, probe transfer times) follow
    sorted by name.
    """
    result = FigureResult(
        figure=spec.name,
        title=spec.description or f"scenario space {spec.name}",
        x_label=_X_LABELS[spec.workload.kind],
        parameters={"spec": spec.as_dict()},
    )
    emitted = set()
    for name in spec.heuristics:
        for suffix in ("lp", "real", "workers"):
            series = f"{name} {suffix}"
            emitted.add(series)
            for size, cell in aggregated.get(series, {}).items():
                result.add_point(series, size, cell["mean"])
    if spec.reference:
        series = f"{spec.reference} time"
        emitted.add(series)
        for size, cell in aggregated.get(series, {}).items():
            result.add_point(series, size, cell["mean"])
    for series in sorted(set(aggregated) - emitted):
        for size, cell in aggregated[series].items():
            result.add_point(series, size, cell["mean"])
    return result


def _evaluate_bounds(spec: ScenarioSpec, bounds: tuple[int, int]) -> list[dict]:
    """:func:`evaluate_range` over one ``(start, stop)`` plan entry."""
    return evaluate_range(spec, *bounds)


def figure_campaign(
    space: str,
    title: str,
    campaign: str,
    jobs: int | None = 1,
    **overrides,
) -> FigureResult:
    """Run one of the paper's campaign spaces in memory (Figures 10–13).

    ``overrides`` are the figure drivers' arguments, applied to the named
    space with :meth:`ScenarioSpec.derive` (``platform_count`` is the
    family's ``count``), so the spec's validation rejects what cannot run:
    no platforms, no tasks, a reference heuristic that is not evaluated.
    The platforms are split into ``jobs`` contiguous chunks, evaluated by
    :func:`evaluate_range` — no store — on up to ``jobs`` processes, and
    averaged per (series, size) with :func:`aggregate_rows`.  Rows are pure
    in the spec, so every ``jobs`` setting gives the same floats.

    The result is named after the space (``fig10`` … ``fig13b``);
    ``campaign`` only labels it (the paper's campaign kind,
    ``"homogeneous"``, ``"hetero-comp"`` or ``"hetero-star"``).  The series
    are ``"INC_C lp"`` (the normalisation baseline, identically 1) and
    ``"<H> lp/INC_C lp"`` / ``"<H> real/INC_C lp"`` for every other
    heuristic ``<H>``: each LP prediction and noisy measurement divided by
    the reference heuristic's LP prediction, averaged over the platforms.
    """
    if "platform_count" in overrides:
        overrides["count"] = overrides.pop("platform_count")
    spec = named_space(space).derive(**overrides)
    family = spec.family
    # One chunk per job: at jobs=1 every platform shares one batch, so
    # repeated factor sets (fig10's homogeneous draws) are prepared once.
    chunk_size = -(-family.count // min(resolve_jobs(jobs), family.count))
    chunks = run_sweep(
        partial(_evaluate_bounds, spec), plan_chunks(family.count, chunk_size), jobs=jobs
    )
    # The figures plot means only; no quantiles to compute.
    aggregated = aggregate_rows((row for rows in chunks for row in rows), quantiles=())

    reference = spec.reference
    result = FigureResult(
        figure=space,
        title=title,
        x_label=_X_LABELS["matrix"],
        parameters={
            "campaign": campaign,
            "heuristics": list(spec.heuristics),
            "platform_count": family.count,
            "workers": family.workers,
            "total_tasks": spec.total_tasks,
            "comm_scale": family.comm_scale,
            "comp_scale": family.comp_scale,
            "seed": family.seed,
            "matrix_sizes": list(spec.matrix_sizes),
        },
    )
    for size in spec.matrix_sizes:
        for name in spec.heuristics:
            lp_label = f"{name} lp" if name == reference else f"{name} lp/{reference} lp"
            result.add_point(lp_label, size, aggregated[f"{name} lp"][size]["mean"])
            result.add_point(
                f"{name} real/{reference} lp", size, aggregated[f"{name} real"][size]["mean"]
            )
    result.notes.append(
        "every curve is normalised by the LP prediction of the reference heuristic "
        f"({reference}) and averaged over {family.count} random platforms"
    )
    return result
