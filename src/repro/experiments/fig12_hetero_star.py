"""Figure 12 — campaign on fully heterogeneous star platforms.

Fifty random platforms with both communication and computation factors in
1..10.  The paper's observations to reproduce: INC_C is the best FIFO
strategy (as Theorem 1 predicts), LIFO beats the FIFO strategies, and the LP
ranks the heuristics correctly while absolute measurements deviate by a
factor bounded by roughly 20%.
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
    seed: int = 12,
    jobs: int | None = 1,
) -> FigureResult:
    """Reproduce Figure 12 (fully heterogeneous star platforms): the ``fig12`` space."""
    from repro.scenarios.runner import figure_campaign

    result = figure_campaign(
        "fig12",
        title="Average execution times on heterogeneous random platforms, normalised by the INC_C LP prediction",
        campaign="hetero-star",
        matrix_sizes=matrix_sizes,
        platform_count=platform_count,
        workers=workers,
        total_tasks=total_tasks,
        seed=seed,
        jobs=jobs,
    )
    result.notes.append(
        "expected ranking (paper): LIFO <= INC_C <= INC_W in LP-predicted time; "
        "measured/predicted gaps stay within ~20%"
    )
    return result
