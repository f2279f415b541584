"""Shared infrastructure of the experiment harness.

Every figure of the paper's evaluation is reproduced by one module in this
package; they all return a :class:`FigureResult` — a set of named series over
a common x-axis — so that reporting, benchmarking and the CLI can treat every
experiment uniformly.  Figures 10–13 (random platform campaigns comparing
the INC_C / INC_W / LIFO heuristics, normalised by the INC_C LP prediction)
are named scenario spaces, run by
:func:`repro.scenarios.runner.figure_campaign`; their noise models live
here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import ExperimentError
from repro.simulation.noise import AffineOverhead, ComposedNoise, NoiseModel, UniformJitter

__all__ = [
    "FigureResult",
    "default_noise",
    "overhead_noise",
    "DEFAULT_MATRIX_SIZES",
    "DEFAULT_PLATFORM_COUNT",
    "DEFAULT_TOTAL_TASKS",
]


#: Matrix sizes swept by the paper's campaigns (x-axis of Figures 10–13).
DEFAULT_MATRIX_SIZES: tuple[int, ...] = tuple(range(40, 201, 20))

#: Number of random platforms averaged per point (the paper uses 50).
DEFAULT_PLATFORM_COUNT = 50

#: Number of matrix products per campaign (the paper fixes M = 1000).
DEFAULT_TOTAL_TASKS = 1000


@dataclass
class FigureResult:
    """Series reproducing one figure (or table) of the paper.

    ``series`` maps a series label (e.g. ``"LIFO real/INC_C lp"``) to a list
    of ``(x, y)`` points sharing the x-axis described by ``x_label``.
    """

    figure: str
    title: str
    x_label: str
    series: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    parameters: dict[str, object] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    # Per-series x -> y index backing value()/x_values; rebuilt lazily when
    # the fingerprint shows the series were touched.  Cache-only state:
    # excluded from __init__, __eq__ and repr.
    _index: dict[str, dict[float, float]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _index_fingerprint: tuple = field(default=(), init=False, repr=False, compare=False)

    def add_point(self, series: str, x: float, y: float) -> None:
        """Append one point to a series (creating the series on first use)."""
        self.series.setdefault(series, []).append((float(x), float(y)))

    def _indexed(self) -> dict[str, dict[float, float]]:
        """The per-series point index, rebuilt only when stale.

        ``series`` is a public mutable mapping, so staleness is detected by
        fingerprinting each series' point count and last point *value* —
        O(#series), versus the O(points) rebuild and the O(points) scans
        the index replaces.  This catches every append and every edit that
        touches a series' tail; swapping a *middle* point of a series for
        a new value of the same length is the one mutation the fingerprint
        cannot see — replace the whole point list instead of editing
        single interior entries.
        """
        fingerprint = tuple(
            (name, len(points), points[-1] if points else None)
            for name, points in self.series.items()
        )
        if fingerprint != self._index_fingerprint:
            index: dict[str, dict[float, float]] = {}
            for name, points in self.series.items():
                mapping: dict[float, float] = {}
                for x, y in points:
                    # first match wins, like the linear scan this replaces
                    mapping.setdefault(x, y)
                index[name] = mapping
            self._index = index
            self._index_fingerprint = fingerprint
        return self._index

    @property
    def x_values(self) -> list[float]:
        """Sorted union of the x values of every series."""
        values: set[float] = set()
        for points in self._indexed().values():
            values.update(points)
        return sorted(values)

    def value(self, series: str, x: float) -> float:
        """Value of ``series`` at ``x`` (exact match required)."""
        try:
            return self._indexed()[series][x]
        except KeyError:
            raise ExperimentError(f"series {series!r} has no point at x={x}") from None

    def format_table(self, float_format: str = "{:.4f}") -> str:
        """Render the result as an aligned text table (one row per x value)."""
        names = list(self.series)
        header = [self.x_label] + names
        rows: list[list[str]] = [header]
        for x in self.x_values:
            row = [f"{x:g}"]
            for name in names:
                try:
                    row.append(float_format.format(self.value(name, x)))
                except ExperimentError:
                    row.append("-")
            rows.append(row)
        widths = [max(len(row[col]) for row in rows) for col in range(len(header))]
        lines = [f"{self.figure}: {self.title}"]
        for index, row in enumerate(rows):
            lines.append("  ".join(cell.rjust(width) for cell, width in zip(row, widths)))
            if index == 0:
                lines.append("  ".join("-" * width for width in widths))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def as_dict(self) -> dict[str, object]:
        """JSON-friendly view of the result."""
        return {
            "figure": self.figure,
            "title": self.title,
            "x_label": self.x_label,
            "parameters": dict(self.parameters),
            "series": {name: list(points) for name, points in self.series.items()},
            "notes": list(self.notes),
        }


def default_noise(seed: int) -> NoiseModel:
    """Measurement noise used for the "real" curves of the campaigns.

    Communication suffers more jitter than computation (protocol overheads,
    contention), matching the qualitative behaviour of the paper's measured
    curves; the composition stays within the ~20% envelope reported for
    Figure 12.
    """
    return ComposedNoise(
        UniformJitter(amplitude=0.04, comm_amplitude=0.15, seed=seed),
    )


def overhead_noise(seed: int) -> NoiseModel:
    """Noise for the communication-x10 variant: jitter plus per-message latency.

    When links are ten times faster, each transfer is short enough for fixed
    per-message overheads (MPI envelope, synchronisation) to matter, so the
    measured times drift away from the linear-model prediction — the effect
    Figure 13b attributes to "the limits of the linear cost model".  (The
    paper's measured drift grows with the matrix size; a fixed per-message
    overhead instead penalises the smallest matrices most.  EXPERIMENTS.md
    discusses the difference.)
    """
    return ComposedNoise(default_noise(seed), AffineOverhead(comm_latency=1.0e-3))
