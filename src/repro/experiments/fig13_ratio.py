"""Figure 13 — changing the communication/computation ratio.

Starting from the fully heterogeneous campaign of Figure 12, the paper
re-runs the experiments with every CPU ten times faster (Figure 13a) and then
with every link ten times faster (Figure 13b), to probe how the heuristics
and the accuracy of the linear model react when one resource dominates.

The observations to reproduce:

* 13a (computation x10, communication-bound): the FIFO strategies become
  nearly indistinguishable and the LIFO advantage shrinks or disappears in
  the measurements;
* 13b (communication x10, computation-bound): fixed per-message overheads
  become visible, so the measured-over-predicted ratio grows with the
  matrix size (the limit of the linear cost model) while the LP still ranks
  the heuristics correctly.
"""

from __future__ import annotations

from typing import Sequence

from repro.exceptions import ExperimentError
from repro.experiments.common import (
    DEFAULT_MATRIX_SIZES,
    DEFAULT_PLATFORM_COUNT,
    DEFAULT_TOTAL_TASKS,
    FigureResult,
    overhead_noise,
)

__all__ = ["run", "run_computation_x10", "run_communication_x10", "overhead_noise"]


def run_computation_x10(
    matrix_sizes: Sequence[int] = DEFAULT_MATRIX_SIZES,
    platform_count: int = DEFAULT_PLATFORM_COUNT,
    workers: int = 11,
    total_tasks: int = DEFAULT_TOTAL_TASKS,
    seed: int = 12,
    jobs: int | None = 1,
) -> FigureResult:
    """Reproduce Figure 13a (every CPU ten times faster): the ``fig13a`` space."""
    from repro.scenarios.runner import figure_campaign

    result = figure_campaign(
        "fig13a",
        title="Heterogeneous campaign with computation ten times faster, normalised by the INC_C LP prediction",
        campaign="hetero-star",
        matrix_sizes=matrix_sizes,
        platform_count=platform_count,
        workers=workers,
        total_tasks=total_tasks,
        seed=seed,
        jobs=jobs,
    )
    result.notes.append(
        "with cheap computation the platform is communication-bound: the FIFO variants "
        "converge and the LIFO advantage shrinks"
    )
    return result


def run_communication_x10(
    matrix_sizes: Sequence[int] = DEFAULT_MATRIX_SIZES,
    platform_count: int = DEFAULT_PLATFORM_COUNT,
    workers: int = 11,
    total_tasks: int = DEFAULT_TOTAL_TASKS,
    seed: int = 12,
    jobs: int | None = 1,
) -> FigureResult:
    """Reproduce Figure 13b (every link ten times faster): the ``fig13b`` space.

    Its measurements use :func:`overhead_noise` (jitter plus a fixed
    per-message latency).
    """
    from repro.scenarios.runner import figure_campaign

    result = figure_campaign(
        "fig13b",
        title="Heterogeneous campaign with communication ten times faster, normalised by the INC_C LP prediction",
        campaign="hetero-star",
        matrix_sizes=matrix_sizes,
        platform_count=platform_count,
        workers=workers,
        total_tasks=total_tasks,
        seed=seed,
        jobs=jobs,
    )
    result.notes.append(
        "per-message overheads dominate short transfers: the measured/predicted ratio "
        "moves far from 1, exposing the limits of the linear cost model (the paper "
        "observes the same loss of accuracy, with the drift growing with matrix size)"
    )
    return result


def run(
    variant: str = "both",
    matrix_sizes: Sequence[int] = DEFAULT_MATRIX_SIZES,
    platform_count: int = DEFAULT_PLATFORM_COUNT,
    workers: int = 11,
    total_tasks: int = DEFAULT_TOTAL_TASKS,
    seed: int = 12,
    jobs: int | None = 1,
) -> FigureResult | tuple[FigureResult, FigureResult]:
    """Run Figure 13: ``"a"``, ``"b"`` or ``"both"`` (returns a pair)."""
    if variant == "a":
        return run_computation_x10(matrix_sizes, platform_count, workers, total_tasks, seed, jobs=jobs)
    if variant == "b":
        return run_communication_x10(matrix_sizes, platform_count, workers, total_tasks, seed, jobs=jobs)
    if variant == "both":
        return (
            run_computation_x10(matrix_sizes, platform_count, workers, total_tasks, seed, jobs=jobs),
            run_communication_x10(matrix_sizes, platform_count, workers, total_tasks, seed, jobs=jobs),
        )
    raise ExperimentError(f"unknown Figure 13 variant {variant!r}; expected 'a', 'b' or 'both'")
