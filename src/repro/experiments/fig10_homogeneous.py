"""Figure 10 — campaign on homogeneous bus platforms.

Fifty homogeneous platforms (every worker at the reference speed), matrix
sizes from 40 to 200, execution times normalised by the INC_C LP prediction.
On a homogeneous platform every FIFO ordering is equivalent, so only INC_C
and LIFO are compared; the paper observes that LIFO outperforms FIFO both in
the LP predictions and in the measurements.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.common import (
    DEFAULT_MATRIX_SIZES,
    DEFAULT_PLATFORM_COUNT,
    DEFAULT_TOTAL_TASKS,
    FigureResult,
)

__all__ = ["run"]


def run(
    matrix_sizes: Sequence[int] = DEFAULT_MATRIX_SIZES,
    platform_count: int = DEFAULT_PLATFORM_COUNT,
    workers: int = 11,
    total_tasks: int = DEFAULT_TOTAL_TASKS,
    seed: int = 10,
    jobs: int | None = 1,
) -> FigureResult:
    """Reproduce Figure 10 (homogeneous random platforms): the ``fig10`` space."""
    from repro.scenarios.runner import figure_campaign

    result = figure_campaign(
        "fig10",
        title="Average execution times on homogeneous random platforms, normalised by the INC_C LP prediction",
        campaign="homogeneous",
        matrix_sizes=matrix_sizes,
        platform_count=platform_count,
        workers=workers,
        total_tasks=total_tasks,
        seed=seed,
        jobs=jobs,
    )
    result.notes.append(
        "all FIFO orderings coincide on a homogeneous platform, so only INC_C is shown; "
        "the paper's observation to check is LIFO <= INC_C on every point"
    )
    return result
