"""Tests of the array-level scenario fast path and the fast timeline replay.

The fast kernel (:mod:`repro.core.fast_scenario`) is the default production
solver for scenario LPs, with the modelling layer + SciPy and the exact
rational simplex as references.  These tests pin:

* numerical agreement (objective, loads, participant set) between the three
  paths on fixed and randomised platforms — including ``z > 1`` mirrored
  orders and two-port (``one_port=False``) scenarios;
* the dispatch rules of :func:`~repro.core.linear_program.solve_scenario`;
* bit-identical behaviour of the analytic one-port timeline replay against
  the discrete-event engine, noise included.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import platforms
from repro.core.fast_scenario import (
    scenario_arrays,
    solve_scenario_arrays,
    solve_scenario_arrays_linprog,
    solve_scenario_fast,
)
from repro.core.fifo import optimal_fifo_order
from repro.core.linear_program import build_scenario_program, solve_scenario
from repro.core.platform import StarPlatform, Worker
from repro.exceptions import ScheduleError, SimulationError, SolverError
from repro.simulation.cluster import ClusterSimulation
from repro.simulation.noise import GaussianJitter, NoJitter, UniformJitter


_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _assert_agrees(platform, sigma1, sigma2=None, one_port=True, tol=1e-9):
    """Fast path and exact simplex must agree.

    The objective must always match.  Vertex equality (participants and
    loads) is asserted too — except when the instance has *multiple*
    optimal vertices (possible on degenerate platforms with tied costs,
    e.g. ``z > 1`` mirrored orders with equal ``c`` values), where float
    pivoting may legitimately land on a different optimal vertex than the
    rational simplex; the fast solution must then still be a feasible
    point of the exact scenario program achieving the same objective.
    """
    fast = solve_scenario(platform, sigma1, sigma2, one_port=one_port, fast=True)
    exact = solve_scenario(platform, sigma1, sigma2, one_port=one_port, solver="exact")
    assert fast.throughput == pytest.approx(exact.throughput, abs=tol)
    same_vertex = fast.participants == exact.participants and all(
        abs(fast.loads[name] - exact.loads[name]) <= tol for name in sigma1
    )
    if not same_vertex:
        # alternative optima: verify optimality instead of vertex identity
        values = {f"alpha[{name}]": fast.loads[name] for name in sigma1}
        assert exact.program.is_feasible(values, tol=1e-7)


class TestScenarioArrays:
    def test_matches_modelling_layer_export(self, three_workers):
        """The array builder reproduces the LinearProgram dense export."""
        order = three_workers.ordered_by_c()
        sigma2 = list(reversed(order))
        a, b = scenario_arrays(three_workers, order, sigma2, deadline=2.0)
        program = build_scenario_program(three_workers, order, sigma2, deadline=2.0)
        _, a_ub, b_ub, _, _, _ = program.to_dense()
        np.testing.assert_allclose(a, a_ub, atol=0, rtol=0)
        np.testing.assert_allclose(b, b_ub, atol=0, rtol=0)

    def test_two_port_drops_coupling_row(self, three_workers):
        order = three_workers.ordered_by_c()
        a, b = scenario_arrays(three_workers, order, one_port=False)
        assert a.shape == (3, 3)
        a1, _ = scenario_arrays(three_workers, order, one_port=True)
        assert a1.shape == (4, 3)

    def test_validation_mirrors_modelling_layer(self, three_workers):
        with pytest.raises(ScheduleError):
            solve_scenario_fast(three_workers, [])
        with pytest.raises(ScheduleError):
            solve_scenario_fast(three_workers, ["P1", "P1"])
        with pytest.raises(ScheduleError):
            solve_scenario_fast(three_workers, ["P1"], ["P2"])
        with pytest.raises(ScheduleError):
            solve_scenario_fast(three_workers, ["nope"])
        with pytest.raises(ScheduleError):
            solve_scenario_fast(three_workers, ["P1"], deadline=0.0)


class TestKernelAgreement:
    def test_three_workers_fifo(self, three_workers):
        _assert_agrees(three_workers, three_workers.ordered_by_c())

    def test_four_workers_lifo_pair(self, four_workers):
        order = four_workers.ordered_by_c()
        _assert_agrees(four_workers, order, list(reversed(order)))

    def test_two_port(self, four_workers):
        order = four_workers.ordered_by_c()
        _assert_agrees(four_workers, order, one_port=False)

    def test_agrees_with_highs_on_arrays(self, four_workers):
        """Kernel and HiGHS agree on the same constraint arrays."""
        order = four_workers.ordered_by_c()
        a, b = scenario_arrays(four_workers, order)
        kernel = solve_scenario_arrays(a, b)
        highs = solve_scenario_arrays_linprog(a, b)
        assert kernel.objective == pytest.approx(highs.objective, abs=1e-9)
        np.testing.assert_allclose(kernel.loads, highs.loads, atol=1e-9)

    @_SETTINGS
    @given(platforms(min_size=1, max_size=5, z=0.5), st.randoms(use_true_random=False))
    def test_random_platforms_fifo(self, platform, rnd):
        order = list(platform.worker_names)
        rnd.shuffle(order)
        _assert_agrees(platform, order)

    @_SETTINGS
    @given(platforms(min_size=1, max_size=5, z=2.0))
    def test_mirrored_order_when_z_above_one(self, platform):
        """z > 1: Theorem 1's mirrored (non-increasing c) order."""
        order = optimal_fifo_order(platform)
        assert order == platform.ordered_by_c(descending=True)
        _assert_agrees(platform, order)
        _assert_agrees(platform, order, list(reversed(order)))

    @_SETTINGS
    @given(platforms(min_size=1, max_size=5, z=None))
    def test_two_port_random_permutation_pairs(self, platform):
        order = platform.ordered_by_c()
        sigma2 = list(reversed(order))
        _assert_agrees(platform, order, sigma2, one_port=False)

    def test_degenerate_homogeneous_platform_matches_exact_vertex(self):
        """Alternative optima: the kernel picks the exact simplex's vertex."""
        from repro.core.platform import homogeneous_platform

        platform = homogeneous_platform(8, c=1.0, w=2.0, d=0.5)
        _assert_agrees(platform, platform.ordered_by_c())


class TestSolveScenarioDispatch:
    def test_fast_is_default_without_solver(self, three_workers):
        solution = solve_scenario(three_workers, three_workers.ordered_by_c())
        assert solution.lp_result.backend == "fast-kernel"

    def test_explicit_solver_uses_modelling_layer(self, three_workers):
        solution = solve_scenario(three_workers, three_workers.ordered_by_c(), solver="scipy")
        assert solution.lp_result.backend == "scipy-highs"

    def test_idle_variables_force_modelling_layer(self, three_workers):
        solution = solve_scenario(
            three_workers, three_workers.ordered_by_c(), include_idle_variables=True
        )
        assert solution.lp_result.backend != "fast-kernel"

    def test_contradictory_requests_are_rejected(self, three_workers):
        order = three_workers.ordered_by_c()
        with pytest.raises(SolverError):
            solve_scenario(three_workers, order, fast=True, solver="exact")
        with pytest.raises(SolverError):
            solve_scenario(three_workers, order, fast=True, include_idle_variables=True)

    def test_program_is_rebuilt_lazily_on_fast_path(self, three_workers):
        order = three_workers.ordered_by_c()
        solution = solve_scenario(three_workers, order, fast=True)
        program = solution.program  # built on demand
        assert program.num_variables == len(order)
        # the lazily built program accepts the fast path's solution
        values = {f"alpha[{name}]": solution.loads[name] for name in order}
        assert program.is_feasible(values, tol=1e-7)


class _DrawRecorder:
    """A perturb-only model recording each draw's ``(kind, worker)``."""

    def __init__(self):
        self.draws = []

    def perturb(self, duration, kind, worker):
        self.draws.append((kind, worker))
        return duration * (1.0 + 0.01 * len(self.draws))


class TestFastTimelineReplay:
    @_SETTINGS
    @given(
        platforms(min_size=1, max_size=5, z=None),
        st.integers(min_value=0, max_value=2**31 - 1),
        st.sampled_from(["none", "uniform", "gaussian"]),
    )
    def test_bit_identical_to_event_engine(self, platform, seed, noise_kind):
        """Same makespan, records and noise draws as the discrete-event run."""

        def noise():
            if noise_kind == "none":
                return NoJitter()
            if noise_kind == "uniform":
                return UniformJitter(amplitude=0.05, comm_amplitude=0.2, seed=seed)
            return GaussianJitter(sigma=0.1, seed=seed)

        rng = np.random.default_rng(seed)
        loads = {name: float(rng.uniform(0.0, 4.0)) for name in platform.worker_names}
        sigma1 = list(rng.permutation(platform.worker_names))
        sigma2 = list(rng.permutation(platform.worker_names))

        fast = ClusterSimulation(platform, noise=noise(), engine="auto").run_assignment(
            loads, sigma1, sigma2
        )
        event = ClusterSimulation(platform, noise=noise(), engine="event").run_assignment(
            loads, sigma1, sigma2
        )
        assert fast.makespan == event.makespan
        assert set(fast.records) == set(event.records)
        for name, expected in event.records.items():
            got = fast.records[name]
            assert got.as_dict() == expected.as_dict()
        # same Gantt bars (ordering within equal timestamps may differ)
        def key(e):
            return (e.resource, e.kind, e.start, e.end, e.load, e.note)

        assert sorted(map(key, fast.trace)) == sorted(map(key, event.trace))

    @pytest.mark.parametrize("seed", range(6))
    def test_draw_order_matches_event_engine(self, seed):
        """Each draw's (kind, worker) comes in the event engine's order,
        so perturb-only models that read the worker see the same calls."""
        rng = np.random.default_rng(seed)
        platform = StarPlatform(
            [Worker(f"P{i}", *rng.uniform(0.5, 4.0, 3)) for i in range(5)]
        )
        loads = {name: float(rng.integers(0, 4)) for name in platform.worker_names}
        loads["P0"] = 1.0
        sigma1 = list(rng.permutation(platform.worker_names))
        sigma2 = list(rng.permutation(platform.worker_names))
        runs = {}
        for engine in ("auto", "event"):
            recorder = _DrawRecorder()
            run = ClusterSimulation(platform, noise=recorder, engine=engine).run_assignment(
                loads, sigma1, sigma2
            )
            runs[engine] = (run.makespan, recorder.draws)
        assert runs["auto"] == runs["event"]

    def test_two_port_auto_matches_event_engine(self, three_workers):
        simulation = ClusterSimulation(three_workers, one_port=False, engine="auto")
        loads = {name: 1.0 for name in three_workers.worker_names}
        run = simulation.run_assignment(
            loads, three_workers.worker_names, three_workers.worker_names
        )
        assert run.makespan > 0
        assert not run.one_port
        reference = ClusterSimulation(
            three_workers, one_port=False, engine="event"
        ).run_assignment(loads, three_workers.worker_names, three_workers.worker_names)
        assert run.makespan == reference.makespan

    def test_collect_trace_false_skips_gantt_only(self, three_workers):
        loads = {name: 1.0 for name in three_workers.worker_names}
        names = three_workers.worker_names
        with_trace = ClusterSimulation(three_workers, engine="auto").run_assignment(
            loads, names, names
        )
        without = ClusterSimulation(
            three_workers, engine="auto", collect_trace=False
        ).run_assignment(loads, names, names)
        assert without.makespan == with_trace.makespan
        assert len(list(without.trace)) == 0
        assert len(list(with_trace.trace)) > 0

    def test_fast_engine_value_is_gone(self, three_workers):
        with pytest.raises(SimulationError, match="unknown simulation engine"):
            ClusterSimulation(three_workers, engine="fast")
