"""Tests for the experiment harness (Figures 8–14) and its reporting."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.exceptions import ExperimentError
from repro.experiments import (
    fig08_linearity,
    fig09_trace,
    fig10_homogeneous,
    fig11_hetero_compute,
    fig12_hetero_star,
    fig13_ratio,
    fig14_participation,
)
from repro.experiments.common import FigureResult, default_noise
from repro.experiments.registry import EXPERIMENTS, available_experiments, run_experiment
from repro.experiments.report import render_report, to_csv, to_markdown


#: Reduced campaign settings shared by the experiment tests (the quick preset
#: still takes a second or two per campaign; tests trim it further).
_TINY = {"matrix_sizes": (60, 180), "platform_count": 2, "total_tasks": 100, "workers": 5}


class TestFigureResult:
    def test_add_point_and_value(self):
        result = FigureResult(figure="f", title="t", x_label="x")
        result.add_point("a", 1.0, 2.0)
        result.add_point("a", 2.0, 3.0)
        result.add_point("b", 1.0, 5.0)
        assert result.x_values == [1.0, 2.0]
        assert result.value("a", 2.0) == pytest.approx(3.0)
        with pytest.raises(ExperimentError):
            result.value("a", 99.0)

    def test_format_table_contains_all_series(self):
        result = FigureResult(figure="f", title="demo", x_label="size")
        result.add_point("s1", 1.0, 2.0)
        result.add_point("s2", 1.0, 4.0)
        result.notes.append("a note")
        table = result.format_table()
        assert "s1" in table and "s2" in table and "a note" in table

    def test_as_dict(self):
        result = FigureResult(figure="f", title="t", x_label="x", parameters={"p": 1})
        result.add_point("a", 1.0, 2.0)
        data = result.as_dict()
        assert data["figure"] == "f"
        assert data["series"]["a"] == [(1.0, 2.0)]


class TestCampaignEngine:
    """The Figure 10-13 drivers, run through the scenario runner."""

    def test_campaign_produces_expected_series(self):
        result = fig12_hetero_star.run(seed=5, **_TINY)
        assert "INC_C lp" in result.series
        assert "INC_C real/INC_C lp" in result.series
        assert "INC_W lp/INC_C lp" in result.series
        assert "LIFO real/INC_C lp" in result.series
        # the reference LP series is identically one
        for _, value in result.series["INC_C lp"]:
            assert value == pytest.approx(1.0)
        # every x value appears in every series
        assert all(len(points) == len(_TINY["matrix_sizes"]) for points in result.series.values())

    def test_inc_w_never_beats_inc_c_in_lp(self):
        """Theorem 1's ordering result, observed through the campaign engine."""
        result = fig12_hetero_star.run(seed=6, **_TINY)
        for x in result.x_values:
            assert result.value("INC_W lp/INC_C lp", x) >= 1.0 - 1e-9

    def test_measured_times_exceed_lp_predictions(self):
        result = fig10_homogeneous.run(seed=7, **_TINY)
        for x in result.x_values:
            assert result.value("INC_C real/INC_C lp", x) >= 1.0 - 1e-6

    def test_requires_reference_heuristic(self):
        from repro.scenarios.runner import figure_campaign

        with pytest.raises(ExperimentError):
            figure_campaign(
                "fig10",
                title="t",
                campaign="homogeneous",
                heuristics=("LIFO",),
                **_TINY,
            )

    def test_rejects_bad_counts(self):
        with pytest.raises(ExperimentError):
            fig10_homogeneous.run(platform_count=0)
        with pytest.raises(ExperimentError):
            fig11_hetero_compute.run(**{**_TINY, "total_tasks": 0})

    def test_jobs_do_not_change_series(self, monkeypatch):
        """Two processes over two chunks give the one-process floats."""
        from repro.scenarios import runner

        chunk_counts = []
        real_sweep = runner.run_sweep

        def counting_sweep(fn, items, jobs=1, **kwargs):
            chunk_counts.append(len(items))
            return real_sweep(fn, items, jobs=jobs, **kwargs)

        monkeypatch.setattr(runner, "run_sweep", counting_sweep)
        tiny = {**_TINY, "platform_count": 4}
        serial = fig13_ratio.run_communication_x10(jobs=1, **tiny)
        parallel = fig13_ratio.run_communication_x10(jobs=2, **tiny)
        assert chunk_counts == [1, 2]
        assert parallel.as_dict() == serial.as_dict()


class TestFigureGolden:
    """Figures 10-13 at the quick preset, pinned to the recorded floats.

    ``golden_figures_quick.json`` holds every ``FigureResult.as_dict()``
    the quick preset produced before the figures moved onto the scenario
    runner; JSON floats round-trip exactly, so equality here is
    bit-identity (series order included).
    """

    GOLDEN = json.loads(
        (Path(__file__).with_name("golden_figures_quick.json")).read_text(encoding="utf-8")
    )

    @pytest.mark.parametrize("figure", ("fig10", "fig11", "fig12", "fig13"))
    def test_quick_preset_matches_golden(self, figure):
        results = run_experiment(figure, preset="quick")
        produced = json.loads(json.dumps([result.as_dict() for result in results]))
        assert produced == self.GOLDEN[figure]
        for result, golden in zip(produced, self.GOLDEN[figure]):
            assert list(result["series"]) == list(golden["series"])
            assert list(result["parameters"]) == list(golden["parameters"])


class TestFig08:
    def test_linearity_of_the_simulated_network(self):
        result = fig08_linearity.run(
            message_sizes_mb=(1.0, 2.0, 4.0), comm_factors=(1.0, 2.0)
        )
        assert len(result.series) == 2
        residuals = fig08_linearity.linear_fit_residuals(result)
        assert max(residuals.values()) < 1e-9
        # doubling the size doubles the time
        series = result.series["worker 1 (x1)"]
        times = dict(series)
        assert times[2.0] == pytest.approx(2 * times[1.0])
        # a worker twice as fast is twice as quick
        fast = dict(result.series["worker 2 (x2)"])
        assert fast[1.0] == pytest.approx(times[1.0] / 2.0)

    def test_rejects_empty_inputs(self):
        with pytest.raises(ExperimentError):
            fig08_linearity.run(message_sizes_mb=(), comm_factors=(1.0,))


class TestFig09:
    def test_trace_contains_gantt_and_selection(self):
        result = fig09_trace.run(total_tasks=40)
        assert any("Gantt" in note for note in result.notes)
        enrolled = [value for _, value in result.series["enrolled"]]
        assert 1 <= sum(enrolled) <= len(enrolled)
        # not every worker participates on this deliberately skewed platform
        assert sum(enrolled) < len(enrolled)

    def test_mismatched_factors_rejected(self):
        with pytest.raises(ExperimentError):
            fig09_trace.run(comm_factors=(1.0,), comp_factors=(1.0, 2.0))


class TestFig13AndFig14:
    def test_fig13_variants(self):
        with pytest.raises(ExperimentError):
            fig13_ratio.run(variant="c")
        result_a = fig13_ratio.run(variant="a", **_TINY)
        assert result_a.figure == "fig13a"
        assert result_a.parameters["comp_scale"] == 10.0

    def test_fig14_participation_shape(self):
        results = fig14_participation.run(total_tasks=200, noisy=False)
        by_x = {result.parameters["x"]: result for result in results}
        # x = 1: the slow fourth worker is never enrolled
        assert by_x[1.0].value("nb of workers", 4) == pytest.approx(3)
        # x = 3: it is enrolled and the completion time improves (weakly)
        assert by_x[3.0].value("nb of workers", 4) == pytest.approx(4)
        assert by_x[3.0].value("lp time", 4) <= by_x[3.0].value("lp time", 3) + 1e-9
        # more available workers never hurt
        for result in results:
            times = [result.value("lp time", k) for k in (1, 2, 3, 4)]
            assert times == sorted(times, reverse=True)

    def test_fig14_rejects_bad_x(self):
        with pytest.raises(ExperimentError):
            fig14_participation.run_single(0.0)
        with pytest.raises(ExperimentError):
            fig14_participation.run(x_values=(1.0, -2.0), total_tasks=100)

    def test_fig14_batched_grid_matches_per_cell_path(self):
        """run() stacks the whole x-grid into one batched kernel call; the
        series must equal the scalar run_single panels bit for bit."""
        batched = fig14_participation.run(x_values=(1.0, 3.0), total_tasks=200)
        for panel, x in zip(batched, (1.0, 3.0)):
            single = fig14_participation.run_single(x, total_tasks=200)
            assert panel.series == single.series
            assert panel.figure == single.figure
            assert panel.parameters == single.parameters

    def test_fig14_jobs_do_not_change_series(self):
        serial = fig14_participation.run(total_tasks=200, jobs=1)
        parallel = fig14_participation.run(total_tasks=200, jobs=2)
        assert [r.series for r in serial] == [r.series for r in parallel]


class TestRegistryAndReport:
    def test_registry_lists_all_figures(self):
        assert available_experiments() == [
            "crossover",
            "fig08",
            "fig09",
            "fig10",
            "fig11",
            "fig12",
            "fig13",
            "fig14",
        ]
        assert all(spec.description for spec in EXPERIMENTS.values())

    def test_run_experiment_quick_preset(self):
        results = run_experiment("fig08", preset="quick")
        assert len(results) == 1
        assert results[0].figure == "fig08"

    def test_run_experiment_unknown_id_and_preset(self):
        with pytest.raises(ExperimentError):
            run_experiment("fig99")
        with pytest.raises(ExperimentError):
            run_experiment("fig08", preset="huge")

    def test_report_rendering(self):
        results = run_experiment("fig08", preset="quick")
        csv_text = to_csv(results)
        assert csv_text.startswith("figure,series,x,y")
        assert "fig08" in csv_text
        markdown = to_markdown(results[0])
        assert markdown.startswith("### fig08")
        report = render_report(results, title="Demo")
        assert report.startswith("# Demo")

    def test_default_noise_is_reproducible(self):
        a = default_noise(3)
        b = default_noise(3)
        assert a.perturb(1.0, "send", "P1") == pytest.approx(b.perturb(1.0, "send", "P1"))
