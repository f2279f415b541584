"""Tests of the generic sweep engine and the batched measurement path."""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from repro.exceptions import ExperimentError
from repro.experiments.common import default_noise
from repro.experiments.sweep_engine import _sweep_chunks, resolve_jobs, run_sweep
from repro.simulation.executor import measure_heuristic
from repro.core.heuristics import compare_heuristics
from repro.simulation.noise import (
    AffineOverhead,
    ComposedNoise,
    GaussianJitter,
    NoJitter,
    UniformJitter,
    perturb_sequence,
)
from repro.workloads.matrices import MatrixProductWorkload
from repro.workloads.platforms import campaign_factors


def _double(value):
    return 2 * value


def _indexed_doubler(chunk):
    return [(index, 2 * item) for index, item in chunk]


class TestResolveJobs:
    def test_none_means_cpu_count(self):
        assert resolve_jobs(None) >= 1

    def test_explicit_count_passes_through(self):
        assert resolve_jobs(3) == 3

    def test_rejects_non_positive(self):
        with pytest.raises(ExperimentError):
            resolve_jobs(0)


class TestRunSweep:
    def test_results_in_item_order(self):
        assert run_sweep(_double, [3, 1, 2]) == [6, 2, 4]

    def test_empty_items(self):
        assert run_sweep(_double, []) == []

    def test_process_pool_matches_serial(self):
        items = list(range(7))
        assert run_sweep(_double, items, jobs=2) == run_sweep(_double, items)

    def test_cache_key_memoises_per_chunk(self):
        calls = []

        def record(item):
            calls.append(item)
            return item

        results = run_sweep(record, [1, 1, 2, 1], cache_key=lambda item: item)
        assert results == [1, 1, 2, 1]
        assert calls == [1, 2]  # the duplicates hit the chunk memo


class TestRunChunked:
    def test_chunk_worker_sees_indices(self):
        assert _sweep_chunks(_indexed_doubler, [5, 6], jobs=1) == [10, 12]

    def test_missing_results_are_detected(self):
        def broken(chunk):
            return [(index, item) for index, item in chunk[:-1]]

        with pytest.raises(ExperimentError):
            _sweep_chunks(broken, [1, 2, 3])


class TestPerturbSequence:
    """Vectorised noise must consume the random stream like scalar calls."""

    _CASES = (
        NoJitter(),
        AffineOverhead(comm_latency=0.5, compute_latency=0.25),
    )

    def _operations(self, count=150):
        rng = np.random.default_rng(7)
        durations = rng.uniform(0.0, 5.0, count)
        kinds = [("send", "compute", "return")[i % 3] for i in range(count)]
        workers = [f"P{i % 5}" for i in range(count)]
        return durations, kinds, workers

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: NoJitter(),
            lambda: AffineOverhead(comm_latency=0.5, compute_latency=0.25),
            lambda: UniformJitter(amplitude=0.05, comm_amplitude=0.2, seed=123),
            lambda: GaussianJitter(sigma=0.1, seed=123),
            lambda: ComposedNoise(
                UniformJitter(amplitude=0.05, seed=5), AffineOverhead(comm_latency=0.1)
            ),
        ],
    )
    def test_stream_identical_to_scalar_calls(self, factory):
        durations, kinds, workers = self._operations()
        vector_model = factory()
        scalar_model = factory()
        vectorised = perturb_sequence(vector_model, durations, kinds, workers)
        scalar = [
            scalar_model.perturb(float(duration), kind, worker)
            for duration, kind, worker in zip(durations, kinds, workers)
        ]
        assert vectorised.tolist() == scalar
        # ...and both models are left in the same state for the next draw
        assert vector_model.perturb(1.0, "send", "P0") == scalar_model.perturb(
            1.0, "send", "P0"
        )

    def test_split_draws_match_one_shot(self):
        """Consuming the sequence in two halves equals one shot."""
        durations, kinds, workers = self._operations(101)
        one = UniformJitter(amplitude=0.1, seed=3)
        two = UniformJitter(amplitude=0.1, seed=3)
        whole = perturb_sequence(one, durations, kinds, workers)
        halves = np.concatenate(
            [
                perturb_sequence(two, durations[:40], kinds[:40], workers[:40]),
                perturb_sequence(two, durations[40:], kinds[40:], workers[40:]),
            ]
        )
        assert whole.tolist() == halves.tolist()

    def test_composed_multi_stateful_falls_back_to_scalar_order(self):
        durations, kinds, workers = self._operations(30)
        vector_model = ComposedNoise(
            UniformJitter(amplitude=0.05, seed=1), GaussianJitter(sigma=0.05, seed=2)
        )
        scalar_model = ComposedNoise(
            UniformJitter(amplitude=0.05, seed=1), GaussianJitter(sigma=0.05, seed=2)
        )
        assert not vector_model.stateless
        vectorised = perturb_sequence(vector_model, durations, kinds, workers)
        scalar = [
            scalar_model.perturb(float(duration), kind, worker)
            for duration, kind, worker in zip(durations, kinds, workers)
        ]
        assert vectorised.tolist() == scalar


class _WorkerKeyedNoise:
    """A perturb-only model whose factor depends on the worker and kind.

    It cannot pre-draw, so a replay must hand it each operation's worker
    name; a wrong sender mapping changes the makespans.
    """

    stateless = True

    def perturb(self, duration, kind, worker):
        return duration * (1.0 + 0.01 * int(worker[1:]) + 0.003 * len(kind))


class TestCampaignEngineAgainstReferencePath:
    """The array-level campaign evaluation equals the public reference path."""

    def test_prepared_cell_measure_matches_reference(self):
        """The scalar cell replay equals measure_heuristic per heuristic:
        on a 5-worker platform for a pre-drawing model and for two that
        need each worker name, and on three 7-worker platforms for three
        default-noise seeds and the noise-free model."""
        from repro.experiments.campaign_engine import prepare_cells
        from repro.workloads.sampling import base_costs, cost_table

        heuristic_names = ("INC_C", "INC_W", "LIFO")
        noise_models = {
            "predraw": lambda: default_noise(77),
            "composed-perturb": lambda: ComposedNoise(
                UniformJitter(amplitude=0.05, seed=1), GaussianJitter(sigma=0.05, seed=2)
            ),
            "worker-keyed": _WorkerKeyedNoise,
        }
        seeded = {f"default-{seed}": partial(default_noise, seed) for seed in range(3)}
        # (workers, platform seed, matrix size, total tasks, noise models)
        cases = [(5, 4, 100, 250, noise_models)] + [
            (7, seed, 100 + 20 * seed, 1000, {**seeded, "noise-free": NoJitter})
            for seed in range(3)
        ]
        for workers, seed, size, total_tasks, models in cases:
            factors = campaign_factors("hetero-star", 1, size=workers, seed=seed)[0]
            c, w, d = cost_table(
                base_costs(size), np.array(factors.comm), np.array(factors.comp)
            )
            cells = prepare_cells(heuristic_names, "INC_C", total_tasks, [("cell", c, w, d)])
            cell = cells["cell"]
            platform = factors.platform(MatrixProductWorkload(size))
            evaluations = compare_heuristics(platform, heuristic_names)
            for label, make_noise in models.items():
                noise = make_noise()
                if not getattr(noise, "predraws", False):
                    assert len(cell.workers(noise)) == len(cell.durations)
                measured = cell.measure(noise)
                noise = make_noise()
                for name, makespan in zip(heuristic_names, measured):
                    report = measure_heuristic(
                        evaluations[name], total_tasks, noise=noise, collect_trace=False
                    )
                    assert makespan == report.measured_makespan, (seed, label, name)

    def test_chunk_ratios_match_scalar_reference(self):
        from repro.experiments.campaign_engine import noise_seed
        from repro.scenarios.runner import evaluate_range
        from repro.scenarios.spec import named_space

        spec = named_space("fig12").derive(
            count=3, workers=6, seed=11, matrix_sizes=(60, 140), total_tasks=300
        )
        rows = evaluate_range(spec, 0, 3)
        assert len(rows) == spec.scenario_count

        factor_sets = campaign_factors("hetero-star", 3, size=6, seed=11)
        for row in rows:
            platform_index, size = row["platform"], row["size"]
            platform = factor_sets[platform_index].platform(
                MatrixProductWorkload(size), name=f"{factor_sets[platform_index].label}-s{size}"
            )
            evaluations = compare_heuristics(platform, spec.heuristics)
            reference_time = evaluations["INC_C"].makespan_for(spec.total_tasks)
            noise = default_noise(noise_seed(spec.family.seed, platform_index, size))
            for name in spec.heuristics:
                evaluation = evaluations[name]
                lp_time = evaluation.makespan_for(spec.total_tasks)
                report = measure_heuristic(
                    evaluation, spec.total_tasks, noise=noise, collect_trace=False
                )
                assert row["values"][f"{name} lp"] == lp_time / reference_time
                assert row["values"][f"{name} real"] == (
                    report.measured_makespan / reference_time
                )
