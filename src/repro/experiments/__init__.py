"""Experiment harness reproducing the paper's evaluation (Figures 8–14)."""

from __future__ import annotations

from repro.experiments.common import (
    DEFAULT_MATRIX_SIZES,
    DEFAULT_PLATFORM_COUNT,
    DEFAULT_TOTAL_TASKS,
    FigureResult,
    default_noise,
)

__all__ = [
    "FigureResult",
    "default_noise",
    "DEFAULT_MATRIX_SIZES",
    "DEFAULT_PLATFORM_COUNT",
    "DEFAULT_TOTAL_TASKS",
    "run_experiment",
    "available_experiments",
    "EXPERIMENTS",
]


def __getattr__(name: str):
    # The registry imports every experiment module; defer that import so that
    # ``import repro`` stays cheap and cycle-free.
    if name in {"run_experiment", "available_experiments", "EXPERIMENTS"}:
        from repro.experiments import registry

        return getattr(registry, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
