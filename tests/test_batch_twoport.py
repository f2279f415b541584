"""Tests of the batched two-port scenario kernel.

:mod:`repro.core.batch_twoport` must be **bit-identical** to the scalar
reference paths on the paper's campaign factor sets:

* the stacked uncoupled build + masked simplex against
  :func:`repro.core.fast_scenario.solve_scenario_fast` with
  ``one_port=False``, scenario by scenario, for every heuristic order
  (FIFO rules and the reversed-return LIFO);
* the batched optimal two-port FIFO/LIFO evaluation against the scalar
  :mod:`repro.core.twoport` functions (same orders, loads, throughputs).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batch_twoport import (
    optimal_two_port_fifo_batch,
    optimal_two_port_lifo_batch,
    solve_two_port_batch,
    solve_two_port_scenarios,
    two_port_arrays_batch,
)
from repro.core.fast_scenario import scenario_arrays, solve_scenario_fast
from repro.core.order_rules import (
    REVERSED_RETURN,
    TWO_PORT_ORDER_RULES,
    worker_names,
)
from repro.core.twoport import (
    optimal_two_port_fifo_schedule,
    optimal_two_port_lifo_schedule,
)
from repro.scenarios.spec import named_space
from repro.workloads.matrices import MatrixProductWorkload
from repro.workloads.sampling import family_cost_tables, sample_factors
from repro.workloads.platforms import PlatformFactors

#: The paper's campaign spaces, truncated (the sampled factor prefix is
#: identical to the full fig10-13 factor sets).
SPACES = ("fig10", "fig11", "fig12", "fig13a", "fig13b")

SIZES = (40, 200)

COUNT = 4


def _platforms(space: str, size: int):
    """The space's first platforms at one matrix size, plus cost tables."""
    family = named_space(space).derive(count=COUNT).family
    table = sample_factors(family)
    c, w, d = family_cost_tables(table, size)
    workload = MatrixProductWorkload(size)
    platforms = [
        PlatformFactors(
            comm=tuple(table.comm[i].tolist()), comp=tuple(table.comp[i].tolist())
        ).platform(workload)
        for i in range(COUNT)
    ]
    return platforms, (c, w, d)


class TestKernelBitIdentity:
    @pytest.mark.parametrize("space", SPACES)
    @pytest.mark.parametrize("size", SIZES)
    def test_batch_matches_scalar_kernel_per_heuristic(self, space, size):
        """Stacked two-port solve == scalar fast kernel, every heuristic."""
        platforms, (c, w, d) = _platforms(space, size)
        names = worker_names(c.shape[1])
        q = len(names)
        for heuristic, rule in TWO_PORT_ORDER_RULES.items():
            reversed_return = heuristic in REVERSED_RETURN
            c_matrix = np.empty((COUNT, q))
            w_matrix = np.empty((COUNT, q))
            d_matrix = np.empty((COUNT, q))
            orders = []
            for row in range(COUNT):
                order = rule(names, c[row].tolist(), w[row].tolist(), d[row].tolist())
                orders.append(order)
                c_matrix[row] = c[row][order]
                w_matrix[row] = w[row][order]
                d_matrix[row] = d[row][order]
            rank2 = np.arange(q)[::-1] if reversed_return else None
            solved = solve_two_port_batch(c_matrix, w_matrix, d_matrix, rank2=rank2)
            assert not solved.fallbacks.any()
            for row, (platform, order) in enumerate(zip(platforms, orders)):
                sigma1 = [names[i] for i in order]
                sigma2 = list(reversed(sigma1)) if reversed_return else sigma1
                scalar = solve_scenario_fast(platform, sigma1, sigma2, one_port=False)
                assert (solved.loads[row] == scalar.loads).all()
                assert solved.objectives[row] == scalar.objective
                assert solved.iterations[row] == scalar.iterations

    def test_arrays_match_scalar_build(self):
        """The stacked uncoupled arrays equal the scalar build bit for bit."""
        platforms, (c, w, d) = _platforms("fig12", 120)
        names = worker_names(c.shape[1])
        q = len(names)
        a, b = two_port_arrays_batch(c, w, d, rank2=np.arange(q)[::-1])
        assert a.shape == (COUNT, q, q)  # no coupling row
        for row, platform in enumerate(platforms):
            sigma1 = list(names)
            scalar_a, scalar_b = scenario_arrays(
                platform, sigma1, list(reversed(sigma1)), one_port=False
            )
            assert (a[row] == scalar_a).all()
            assert (b[row] == scalar_b).all()

    def test_mixed_front_end_matches_scalar(self):
        """solve_two_port_scenarios groups mixed worker counts correctly."""
        small, _ = _platforms("fig12", 40)
        scenarios = []
        for platform in small:
            scenarios.append((platform, platform.ordered_by_c(), None))
            order = platform.ordered_by_c()
            scenarios.append((platform, order, list(reversed(order))))
        # A platform of a different size interleaved in the same chunk.
        tiny = PlatformFactors(comm=(2.0, 5.0), comp=(1.0, 4.0)).platform(
            MatrixProductWorkload(40)
        )
        scenarios.insert(1, (tiny, tiny.ordered_by_c(), None))
        results = solve_two_port_scenarios(scenarios)
        for (platform, sigma1, sigma2), result in zip(scenarios, results):
            scalar = solve_scenario_fast(platform, sigma1, sigma2, one_port=False)
            assert (result.loads == scalar.loads).all()
            assert result.objective == scalar.objective


class TestHeuristicBatches:
    @pytest.mark.parametrize("space", SPACES)
    def test_fifo_batch_matches_reference(self, space):
        platforms, _ = _platforms(space, 120)
        batched = optimal_two_port_fifo_batch(platforms)
        for platform, solution in zip(platforms, batched):
            reference = optimal_two_port_fifo_schedule(platform)
            assert solution.order == reference.order
            assert solution.throughput == reference.throughput
            assert solution.loads == reference.loads
            assert solution.participants == reference.participants

    @pytest.mark.parametrize("space", SPACES)
    def test_lifo_batch_matches_reference(self, space):
        platforms, _ = _platforms(space, 120)
        batched = optimal_two_port_lifo_batch(platforms)
        for platform, solution in zip(platforms, batched):
            reference = optimal_two_port_lifo_schedule(platform)
            assert solution.order == reference.order
            assert solution.throughput == reference.throughput
            assert solution.loads == reference.loads
            assert solution.schedule.sigma2 == reference.schedule.sigma2

    def test_two_port_dominates_one_port(self):
        """Dropping the coupling row can only increase the optimum."""
        platforms, _ = _platforms("fig12", 120)
        for platform in platforms:
            order = platform.ordered_by_c()
            one_port = solve_scenario_fast(platform, order, one_port=True)
            two_port = solve_scenario_fast(platform, order, one_port=False)
            assert two_port.objective >= one_port.objective - 1e-12
