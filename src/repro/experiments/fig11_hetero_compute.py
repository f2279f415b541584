"""Figure 11 — campaign with homogeneous links and heterogeneous CPUs.

Fifty random platforms whose communication links are all at the reference
speed while the computation factors are drawn in 1..10 — exactly the bus
platforms covered by Theorem 2.  The paper's observations to reproduce:
INC_C beats INC_W, LIFO beats both, and the LP correctly ranks the three
heuristics even though the measured times deviate from the predictions.
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
    seed: int = 11,
    jobs: int | None = 1,
) -> FigureResult:
    """Reproduce Figure 11 (homogeneous communication, heterogeneous computation).

    Runs the ``fig11`` scenario space.
    """
    from repro.scenarios.runner import figure_campaign

    result = figure_campaign(
        "fig11",
        title="Average execution times with homogeneous links and heterogeneous CPUs, normalised by the INC_C LP prediction",
        campaign="hetero-comp",
        matrix_sizes=matrix_sizes,
        platform_count=platform_count,
        workers=workers,
        total_tasks=total_tasks,
        seed=seed,
        jobs=jobs,
    )
    result.notes.append(
        "expected ranking (paper): LIFO <= INC_C <= INC_W in LP-predicted time; "
        "these are the bus platforms of Theorem 2"
    )
    return result
