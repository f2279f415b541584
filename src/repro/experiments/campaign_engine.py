"""Array-level evaluation layers of the random-platform campaigns.

Every campaign cell — one platform's cost vectors at one grid point —
goes through the same steps: evaluate a set of heuristics with the
scenario LP, measure each schedule on the noisy simulated cluster, and
normalise by the reference heuristic's LP prediction.  This module holds
those steps as array layers; :mod:`repro.scenarios.runner` drives them
for every campaign, the paper's Figures 10-13 included:

* :func:`prepare_cells` stacks all LP evaluations of a batch of cost
  tables into **one batched scenario-kernel call** per worker count,
  rounds each load vector once, and — for measured campaigns only —
  builds the replay layouts straight from the kernel's load vectors and
  those counts, no platform or schedule objects;
* the heuristic order rules and the closed-form LIFO chain come from
  :mod:`repro.core.order_rules`, the cost tables from
  :mod:`repro.workloads.sampling`;
* :func:`replay_grouped` replays the one-port measurements vectorised
  across a whole chunk, :func:`replay_two_port` replays the chunk's
  two-port runs in one lockstep merge of their event streams;
* :func:`noise_seed` is the one per-(platform, size) noise-seed formula.

Everything is pinned bit-for-bit by the test-suite against the public
:func:`repro.core.heuristics.compare_heuristics` +
:func:`repro.simulation.executor.measure_heuristic` reference path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.batch_scenario import scenario_arrays_batch, solve_scenario_arrays_batch
from repro.core.batch_twoport import two_port_arrays_batch
from repro.core.heuristics import HEURISTICS
from repro.core.order_rules import (
    ORDER_RULES,
    TWO_PORT_ORDER_RULES,
    TWO_PORT_REVERSED_RETURN,
    lifo_chain_values,
    sorted_indices,
    worker_names,
)
from repro.core.rounding import round_values
from repro.exceptions import ScheduleError
from repro.simulation.executor import (
    PreparedMeasurement,
    prepare_measurement_arrays,
    timeline_indices,
)
from repro.simulation.fast_twoport import PreparedTwoPortRun, run_fast_twoport
from repro.simulation.noise import NoiseModel, perturb_sequence

__all__ = [
    "PreparedCell",
    "PreparedTwoPortRun",
    "TwoPortCell",
    "noise_seed",
    "prepare_cells",
    "replay_grouped",
    "replay_two_port",
]


def noise_seed(seed: int, platform_index: int, size: int) -> int:
    """The per-(platform, size) noise seed of every campaign.

    One formula for every seeded campaign: the runner's chunks and the
    scalar reference path the tests pin them against both call it.
    """
    return seed * 100_003 + platform_index * 1_009 + int(size)


@dataclass(frozen=True)
class PreparedCell:
    """One (factor set, size) pair with every noise-independent step done.

    ``lp_ratios`` are the (noise-free) LP ratio entries and
    ``participants`` each heuristic's worker count after the paper's
    rounding.  The measurement side — empty for LP-only cells — is the
    concatenation of the heuristics' prepared replays (see
    :class:`~repro.simulation.executor.PreparedMeasurement`): one batched
    ``perturb_sequence`` call per platform draws the cell's whole noise
    stream — in exactly the order the per-run path would — and the
    heuristics' slices are replayed vectorised across the whole chunk.
    """

    lp_ratios: tuple[tuple[str, float], ...]
    reference_time: float
    participants: tuple[int, ...]
    prepared: tuple = ()
    durations: np.ndarray | None = None
    kinds: tuple[str, ...] = ()
    workers: tuple[str, ...] = ()
    offsets: tuple[int, ...] = ()

    def measure(self, noise: NoiseModel) -> list[float]:
        """Measured makespans of every heuristic, one batched draw.

        Scalar reference path (the runner batches the replays with
        :func:`replay_grouped` instead); kept for tests and small callers.
        """
        perturbed = perturb_sequence(noise, self.durations, self.kinds, self.workers)
        return [
            measurement.makespan(perturbed[start:end])
            for measurement, start, end in zip(
                self.prepared, self.offsets, self.offsets[1:]
            )
        ]


def replay_grouped(
    occurrences: list[tuple[int, int, PreparedCell, np.ndarray]],
    heuristic_count: int,
) -> np.ndarray:
    """Replay every (occurrence, heuristic) run, vectorised per q.

    Returns the ``(len(occurrences), heuristic_count)`` makespan matrix.
    The timeline arithmetic is the one-port replay of
    :meth:`PreparedMeasurement.makespan` run row-parallel — cumulative
    sends, computes at send end, returns folded left-to-right with
    ``maximum`` — and produces the same floats (sequential ``cumsum`` and
    elementwise ``maximum``/``add`` match the scalar operations).
    """
    groups: dict[int, list[tuple[int, int]]] = {}
    for index, (_, _, cell, _) in enumerate(occurrences):
        for slot, measurement in enumerate(cell.prepared):
            groups.setdefault(measurement.participant_count, []).append((index, slot))

    makespans = np.empty((len(occurrences), heuristic_count))
    for q, members in groups.items():
        count = len(members)
        perturbed = np.empty((count, 3 * q))
        sigma2_positions = np.empty((count, q), dtype=np.intp)
        for row, (index, slot) in enumerate(members):
            cell = occurrences[index][2]
            perturbed[row] = occurrences[index][3][cell.offsets[slot] : cell.offsets[slot + 1]]
            sigma2_positions[row] = cell.prepared[slot].sigma2_positions
        send_index, compute_index = timeline_indices(q)
        send_end = np.cumsum(perturbed[:, send_index], axis=1)
        compute_end = send_end + perturbed[:, compute_index]
        collected = np.take_along_axis(compute_end, sigma2_positions, axis=1)
        returns = perturbed[:, 2 * q :]
        port_free = send_end[:, q - 1]
        for i in range(q):
            port_free = np.maximum(port_free, collected[:, i]) + returns[:, i]
        rows = np.array([index for index, _ in members])
        slots = np.array([slot for _, slot in members])
        makespans[rows, slots] = port_free
    return makespans


@dataclass(frozen=True)
class TwoPortCell:
    """One (factor set, size) pair prepared for two-port evaluation.

    The two-port counterpart of :class:`PreparedCell`: ``lp_ratios`` come
    from the batched two-port kernel (every heuristic is LP-backed —
    two-port LIFO has no closed form), and ``prepared`` holds one
    :class:`~repro.simulation.fast_twoport.PreparedTwoPortRun` per
    heuristic (none for LP-only cells): the rounded schedule's participants
    in send order, their noise-free durations and the collection order.
    Replaying them from one shared noise stream, in slot order, is
    bit-identical to ``measure_heuristic(result, total, noise=noise,
    one_port=False).measured_makespan`` per heuristic — same rounding, same
    filtered sigmas, same merge-ordered draws (pinned by the test-suite).
    """

    lp_ratios: tuple[tuple[str, float], ...]
    reference_time: float
    participants: tuple[int, ...]
    prepared: tuple[PreparedTwoPortRun, ...] = ()


def replay_two_port(
    occurrences: list[tuple[int, int, TwoPortCell, NoiseModel]],
    heuristic_count: int,
) -> np.ndarray:
    """Replay every (occurrence, heuristic) two-port run in one batch.

    Returns the ``(len(occurrences), heuristic_count)`` makespan matrix.
    Each occurrence carries its own noise model (seeded per (platform,
    size) like the one-port campaigns); its heuristics draw from that one
    stream in slot order, mirroring the serial path that measures each
    heuristic in sequence.  One :func:`~repro.simulation.fast_twoport.
    run_fast_twoport` call replays the whole chunk in lockstep: the
    streams are drawn up front and each step merges every run's next event.
    """
    times = run_fast_twoport([(noise, cell.prepared) for _, _, cell, noise in occurrences])
    return times.makespans.reshape(len(occurrences), heuristic_count)


def _cost_tables(keyed_tables):
    """Array + list views of the batch's cost tables.

    Arrays feed the stacked kernel; the list views feed the Python-level
    ordering/chain/layout code (same floats).
    """
    return [
        (worker_names(len(c)), c, w, d, c.tolist(), w.tolist(), d.tolist())
        for _, c, w, d in keyed_tables
    ]


def _solve_stacked_orders(
    tables,
    orders: list[list[int]],
    reversed_returns: list[bool] | None = None,
    one_port: bool = True,
) -> list[np.ndarray]:
    """Stack ordered LP scenarios by worker count and solve each group.

    ``orders`` holds one send order per (table, heuristic slot) pair in
    flat order — ``orders[index * slots + offset]`` is slot ``offset`` of
    table ``index``.  ``reversed_returns`` flags the slots whose return
    order is the reverse of the send order (the two-port LIFO); groups
    that end up all-FIFO pass ``rank2=None``, exactly like the scalar
    build.  Returns the kernel's load vector per flat index — the shared
    stacking scaffold of both port models (one batched kernel call per
    worker count either way).
    """
    slots = len(orders) // len(tables) if tables else 0
    groups: dict[int, list[int]] = {}
    for flat, order in enumerate(orders):
        groups.setdefault(len(order), []).append(flat)
    loads_rows: list[np.ndarray] = [None] * len(orders)  # type: ignore[list-item]
    for q, flats in groups.items():
        c_matrix = np.empty((len(flats), q))
        w_matrix = np.empty((len(flats), q))
        d_matrix = np.empty((len(flats), q))
        rank2 = np.empty((len(flats), q), dtype=np.int64)
        identity = np.arange(q)
        fifo_only = True
        for row, flat in enumerate(flats):
            _, c, w, d, _, _, _ = tables[flat // slots]
            order = orders[flat]
            c_matrix[row] = c[order]
            w_matrix[row] = w[order]
            d_matrix[row] = d[order]
            if reversed_returns is not None and reversed_returns[flat]:
                # sigma2 = reversed(sigma1): position i is collected at
                # rank q-1-i, exactly the scalar build's rank vector.
                rank2[row] = identity[::-1]
                fifo_only = False
            else:
                rank2[row] = identity
        if one_port:
            a, b = scenario_arrays_batch(
                c_matrix, w_matrix, d_matrix, rank2=None if fifo_only else rank2
            )
        else:
            a, b = two_port_arrays_batch(
                c_matrix, w_matrix, d_matrix, rank2=None if fifo_only else rank2
            )
        solved = solve_scenario_arrays_batch(
            a, b, kernel="batch_scenario" if one_port else "batch_twoport"
        )
        for row, flat in enumerate(flats):
            loads_rows[flat] = solved.loads[row]
    return loads_rows


def _cell_ratios(throughputs, reference: str, total: int, heuristic_names):
    """Reference time and LP ratios of one cell.

    ``throughputs`` maps each heuristic to its LP throughput.  Shared by
    both port models so the series definition — every ratio normalised by
    the reference heuristic's LP prediction — can never diverge between
    them.
    """
    reference_time = total / throughputs[reference]
    lp_ratios = tuple(
        (name, (total / throughputs[name]) / reference_time) for name in heuristic_names
    )
    return reference_time, lp_ratios


def _rounded_counts(values: list[float], total: int) -> tuple[list[int], int]:
    """The paper's integer counts of one load vector and its participant count.

    The one rounding of each (cell, heuristic) pair: LP-only cells keep
    just the participant count, measured cells lay their replay out from
    the same counts.  Mirrors ``measure_heuristic``'s ``round_loads``.
    """
    counts = round_values(values, total)
    # Loads are non-negative, so are their counts: the zeros are exactly
    # the idle workers.
    participants = len(counts) - counts.count(0)
    if not participants:
        raise ScheduleError("rounded schedule has no participating worker")
    return counts, participants


def prepare_cells(
    heuristic_names: Sequence[str],
    reference: str,
    total_tasks: int,
    keyed_tables: Sequence[tuple[tuple, np.ndarray, np.ndarray, np.ndarray]],
    one_port: bool = True,
    measured: bool = True,
) -> dict[tuple, PreparedCell] | dict[tuple, TwoPortCell]:
    """Prepare a batch of ``(key, c, w, d)`` cost tables for evaluation.

    Each table is one scenario cell: a platform's cost vectors at one grid
    point of whatever workload produced them — a matrix size for the
    matrix workload (Figures 10-13), a bus ``w/c`` ratio for a
    bus-workload space.  Every LP
    the batch needs — one per (table, LP-backed
    heuristic) pair — is stacked into one batched kernel call per worker
    count; throughputs and prepared replays are assembled straight from
    the kernel's load vectors, no platform or schedule objects at all.
    Each load vector is rounded once; the replay material is built from
    those counts only when the cells will be ``measured`` (the runner
    passes ``spec.noise is not None``), so LP-only cells carry just their
    ratios and participant counts.  Everything here is bit-identical to
    evaluating :func:`repro.core.heuristics.compare_heuristics` and
    :func:`repro.simulation.executor.measure_heuristic` per cell — the
    public reference path the test-suite pins this engine against.

    ``one_port=False`` dispatches to the two-port chain: the LPs drop the
    coupling row and run through :mod:`repro.core.batch_twoport`, LIFO
    becomes LP-backed with a reversed return permutation, and the cells
    come back as :class:`TwoPortCell` (merge-ordered replay) instead of
    :class:`PreparedCell` (static-timeline replay) — bit-identical to the
    scalar :mod:`repro.core.twoport` + ``measure_heuristic(one_port=False)``
    reference path.
    """
    if not one_port:
        return _prepare_two_port_cells(
            heuristic_names, reference, total_tasks, keyed_tables, measured
        )
    for name in heuristic_names:
        if name not in HEURISTICS:
            raise ScheduleError(
                f"unknown heuristic {name!r}; available: {sorted(HEURISTICS)}"
            )
    lp_names = [name for name in heuristic_names if name in ORDER_RULES]
    total = total_tasks

    tables = _cost_tables(keyed_tables)
    orders = [
        ORDER_RULES[name](names, c_list, w_list, d_list)
        for names, _, _, _, c_list, w_list, d_list in tables
        for name in lp_names
    ]
    loads_rows = _solve_stacked_orders(tables, orders)

    lp_slots = {name: offset for offset, name in enumerate(lp_names)}
    cells: dict[tuple, PreparedCell] = {}
    for index, ((key, _, _, _), table) in enumerate(zip(keyed_tables, tables)):
        names, _, _, _, c_list, w_list, d_list = table
        throughputs: dict[str, float] = {}
        participants = []
        prepared: list[PreparedMeasurement] = []
        for name in heuristic_names:
            slot = lp_slots.get(name)
            if slot is None:
                # The only non-LP heuristic: the closed-form optimal LIFO.
                order = sorted_indices(names, c_list)
                values = lifo_chain_values(c_list, w_list, d_list, order)
            else:
                flat = index * len(lp_names) + slot
                order = orders[flat]
                values = loads_rows[flat].tolist()
            # sum(values) is the schedule's total load; the unit deadline
            # makes it the throughput (same float as total_load / 1.0).
            throughputs[name] = sum(values)
            counts, participant_count = _rounded_counts(values, total)
            participants.append(participant_count)
            if not measured:
                continue
            ordered_names = [names[i] for i in order]
            prepared.append(
                prepare_measurement_arrays(
                    (
                        [c_list[i] for i in order],
                        [w_list[i] for i in order],
                        [d_list[i] for i in order],
                    ),
                    ordered_names,
                    ordered_names if slot is not None else ordered_names[::-1],
                    counts,
                )
            )

        reference_time, lp_ratios = _cell_ratios(
            throughputs, reference, total, heuristic_names
        )
        if not measured:
            cells[key] = PreparedCell(
                lp_ratios=lp_ratios,
                reference_time=reference_time,
                participants=tuple(participants),
            )
            continue
        offsets = [0]
        for measurement in prepared:
            offsets.append(offsets[-1] + len(measurement.durations))
        cells[key] = PreparedCell(
            lp_ratios=lp_ratios,
            reference_time=reference_time,
            participants=tuple(participants),
            prepared=tuple(prepared),
            durations=np.concatenate([m.durations for m in prepared]),
            kinds=tuple(kind for m in prepared for kind in m.kinds),
            workers=tuple(worker for m in prepared for worker in m.workers),
            offsets=tuple(offsets),
        )
    return cells


def _prepare_two_port_cells(
    heuristic_names: Sequence[str],
    reference: str,
    total_tasks: int,
    keyed_tables: Sequence[tuple[tuple, np.ndarray, np.ndarray, np.ndarray]],
    measured: bool,
) -> dict[tuple, TwoPortCell]:
    """Two-port cell preparation (see :func:`prepare_cells`).

    Every heuristic is LP-backed here: the FIFO orderings keep their
    one-port rules (Theorem 1's permutation does not depend on the
    coupling row) and LIFO serves by non-decreasing ``c_i`` collecting in
    reverse — the rules of :mod:`repro.core.twoport`, mirrored at the
    array level by :data:`~repro.core.order_rules.TWO_PORT_ORDER_RULES`.
    All the batch's LPs are stacked per worker count into
    :func:`~repro.core.batch_twoport.solve_two_port_batch` calls.
    """
    for name in heuristic_names:
        if name not in TWO_PORT_ORDER_RULES:
            raise ScheduleError(
                f"unknown two-port heuristic {name!r}; "
                f"available: {sorted(TWO_PORT_ORDER_RULES)}"
            )
    total = total_tasks
    heuristic_count = len(heuristic_names)

    tables = _cost_tables(keyed_tables)
    # Every heuristic is a stacked-LP slot here; LIFO rows get the
    # reversed return permutation, everything else is FIFO.
    orders: list[list[int]] = []
    reversed_returns: list[bool] = []
    for names, _, _, _, c_list, w_list, d_list in tables:
        for name in heuristic_names:
            orders.append(TWO_PORT_ORDER_RULES[name](names, c_list, w_list, d_list))
            reversed_returns.append(name in TWO_PORT_REVERSED_RETURN)
    loads_rows = _solve_stacked_orders(
        tables, orders, reversed_returns=reversed_returns, one_port=False
    )

    cells: dict[tuple, TwoPortCell] = {}
    for index, ((key, _, _, _), table) in enumerate(zip(keyed_tables, tables)):
        names, _, _, _, c_list, w_list, d_list = table
        costs = np.array((c_list, w_list, d_list)) if measured else None
        throughputs: dict[str, float] = {}
        participants = []
        prepared: list[PreparedTwoPortRun] = []
        for offset, name in enumerate(heuristic_names):
            flat = index * heuristic_count + offset
            values = loads_rows[flat].tolist()
            throughputs[name] = sum(values)
            # Rounding mirrors measure_heuristic's round_loads: integer
            # counts summing to the total, zero-load workers dropped from
            # both sigmas (reversal and filtering commute).
            counts, participant_count = _rounded_counts(values, total)
            participants.append(participant_count)
            if not measured:
                continue
            order = orders[flat]
            active = [order[k] for k, count in enumerate(counts) if count > 0]
            loads = np.array([count for count in counts if count > 0], dtype=float)
            collect = np.arange(len(active))
            prepared.append(
                PreparedTwoPortRun(
                    workers=tuple(names[i] for i in active),
                    durations=costs.take(active, axis=1) * loads,
                    collect=collect[::-1] if reversed_returns[flat] else collect,
                )
            )

        reference_time, lp_ratios = _cell_ratios(
            throughputs, reference, total, heuristic_names
        )
        cells[key] = TwoPortCell(
            lp_ratios=lp_ratios,
            reference_time=reference_time,
            participants=tuple(participants),
            prepared=tuple(prepared),
        )
    return cells
