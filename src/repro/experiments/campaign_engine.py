"""Array-level evaluation layers of the random-platform campaigns.

Every campaign cell — one platform's cost vectors at one grid point —
goes through the same steps: evaluate a set of heuristics with the
scenario LP, measure each schedule on the noisy simulated cluster, and
normalise by the reference heuristic's LP prediction.  This module holds
those steps as array layers; :mod:`repro.scenarios.runner` drives them
for every campaign, the paper's Figures 10-13 included:

* :func:`prepare_cells` stacks all LP evaluations of a batch of cost
  tables into **one batched scenario-kernel call** per worker count,
  stacks every (cell, heuristic) load row — kernel rows and closed-form
  LIFO rows alike — into one matrix per worker count and rounds it with
  one row-wise :func:`~repro.core.rounding.round_values` call, and — for
  measured campaigns only — lays the whole matrix out for replay with one
  row-wise :func:`~repro.simulation.fast_cluster.
  prepare_measurement_arrays` call; cells reference rows of those
  chunk-wide arrays, no platform, schedule or per-pair objects.  Both
  port models take this one path: the port model picks only the order
  rules and the kernel;
* the heuristic order rules and the closed-form LIFO chain come from
  :mod:`repro.core.order_rules`, the cost tables from
  :mod:`repro.workloads.sampling`;
* :func:`replay_grouped` replays the one-port measurements vectorised
  across a whole chunk, gathering each participant count's runs with one
  fancy index into :func:`~repro.simulation.fast_cluster.replay_timelines`,
  the replay every one-port simulation runs; :func:`replay_two_port`
  hands the same layout to one lockstep merge of the chunk's two-port
  event streams;
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
    REVERSED_RETURN,
    TWO_PORT_ORDER_RULES,
    lifo_chain_values,
    sorted_indices,
    worker_names,
)
from repro.core.rounding import round_values
from repro.exceptions import ScheduleError
from repro.simulation.fast_cluster import (
    kind_pattern,
    operation_workers,
    prepare_measurement_arrays,
    replay_timelines,
)
from repro.simulation.fast_twoport import run_fast_twoport
from repro.simulation.noise import NoiseModel, perturb_sequence

__all__ = [
    "PreparedCell",
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
    rounding.  The measurement side — absent for LP-only cells — is the
    cell's rows of its chunk's layout, the same for both port models:
    ``durations`` holds each heuristic's ``3p`` operations in the one-port
    draw order, heuristic after heuristic, ``sigma2_positions`` each
    heuristic's return slots and ``senders`` its participants' worker
    indices into ``names``, all views of chunk-wide arrays.  ``kinds`` is
    each entry's operation kind on one-port cells, where that order is the
    draw order: one batched ``perturb_sequence`` call per occurrence draws
    the stream and :func:`replay_grouped` replays the whole chunk.
    Two-port cells leave ``kinds`` empty — their draw order depends on the
    realised times — and :func:`replay_two_port` draws while it replays.
    """

    lp_ratios: tuple[tuple[str, float], ...]
    reference_time: float
    participants: tuple[int, ...]
    durations: np.ndarray | None = None
    sigma2_positions: np.ndarray | None = None
    senders: np.ndarray | None = None
    names: tuple[str, ...] = ()
    kinds: tuple[str, ...] = ()

    def workers(self, noise: NoiseModel) -> tuple[str, ...]:
        """The worker of every entry of ``durations``, for ``noise``.

        Empty for models that pre-draw: they never read the workers.
        """
        if getattr(noise, "predraws", False):
            return ()
        senders = self.senders.tolist()
        positions = self.sigma2_positions.tolist()
        workers: list[str] = []
        start = 0
        for p in self.participants:
            sigma1 = [self.names[index] for index in senders[start : start + p]]
            workers.extend(operation_workers(sigma1, positions[start : start + p]))
            start += p
        return tuple(workers)

    def measure(self, noise: NoiseModel) -> list[float]:
        """Measured makespans of every heuristic of a one-port cell, one
        batched draw.

        The runner draws and replays whole chunks instead; kept for tests
        and small callers.  Two-port cells (no ``kinds``) replay through
        :func:`replay_two_port`.
        """
        if not self.kinds:
            raise ScheduleError("a two-port cell replays through replay_two_port, not measure")
        perturbed = perturb_sequence(noise, self.durations, self.kinds, self.workers(noise))
        return replay_grouped([(0, 0, self, perturbed)], len(self.participants))[0].tolist()


def replay_grouped(
    occurrences: list[tuple[int, int, PreparedCell, np.ndarray]],
    heuristic_count: int,
) -> np.ndarray:
    """Replay every (occurrence, heuristic) run, vectorised per q.

    Returns the ``(len(occurrences), heuristic_count)`` makespan matrix.
    The occurrences' perturbed streams are concatenated once, and each
    participant count's runs are gathered with one fancy index and
    replayed row-parallel by
    :func:`~repro.simulation.fast_cluster.replay_timelines`, whose last
    return end is each run's makespan.
    """
    perturbed = np.concatenate([payload for _, _, _, payload in occurrences])
    sigma2 = np.concatenate([cell.sigma2_positions for _, _, cell, _ in occurrences])
    participants = np.array(
        [cell.participants for _, _, cell, _ in occurrences], dtype=np.intp
    ).reshape(-1, heuristic_count)
    # Each run's first operation in the concatenated streams (its returns
    # start a third of the way into the concatenated sigma2 positions).
    lengths = 3 * participants.ravel()
    starts = np.cumsum(lengths) - lengths

    makespans = np.empty(participants.shape)
    flat = makespans.reshape(-1)
    for q in np.unique(participants).tolist():
        members = np.flatnonzero(lengths == 3 * q)
        first = starts[members, None]
        _, _, _, return_end = replay_timelines(
            perturbed[first + np.arange(3 * q)], sigma2[first // 3 + np.arange(q)]
        )
        flat[members] = return_end[:, -1]
    return makespans


def replay_two_port(
    occurrences: list[tuple[int, int, PreparedCell, NoiseModel]],
    heuristic_count: int,
) -> np.ndarray:
    """Replay every (occurrence, heuristic) two-port run in one batch.

    Returns the ``(len(occurrences), heuristic_count)`` makespan matrix.
    Each occurrence carries its own noise model (seeded per (platform,
    size) like the one-port campaigns); its heuristics draw from that one
    stream in slot order, mirroring the serial path that measures each
    heuristic in sequence.  One :func:`~repro.simulation.fast_twoport.
    run_fast_twoport` call replays the whole chunk in lockstep from the
    cells' layouts: the streams are drawn up front and each step merges
    every run's next event.
    """
    times = run_fast_twoport(
        [
            (noise, cell.durations, cell.sigma2_positions, cell.participants, cell.workers(noise))
            for _, _, cell, noise in occurrences
        ]
    )
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
    tables, orders: list[list[int]], reversed_slots: np.ndarray, one_port: bool
) -> list[np.ndarray]:
    """Stack ordered LP scenarios by worker count and solve each group.

    ``orders`` holds one send order per (table, heuristic slot) pair in
    flat order — ``orders[index * slots + offset]`` is slot ``offset`` of
    table ``index``.  ``reversed_slots`` flags the slots whose return
    order is the reverse of the send order (the two-port LIFO); groups
    that end up all-FIFO pass ``rank2=None``, exactly like the scalar
    build.  Returns the kernel's load vector per flat index (one batched
    kernel call per worker count).
    """
    slots = len(reversed_slots)
    groups: dict[int, list[int]] = {}
    for flat, order in enumerate(orders):
        groups.setdefault(len(order), []).append(flat)
    loads_rows: list[np.ndarray] = [None] * len(orders)  # type: ignore[list-item]
    for q, flats in groups.items():
        order_matrix = np.array([orders[flat] for flat in flats])
        c_matrix, w_matrix, d_matrix = _ordered_costs(
            tables, np.array(flats) // slots, order_matrix
        )
        reversed_rows = reversed_slots[np.array(flats) % slots]
        rank2 = None
        if reversed_rows.any():
            # sigma2 = reversed(sigma1): position i is collected at rank
            # q-1-i, exactly the scalar build's rank vector.
            identity = np.arange(q)
            rank2 = np.where(reversed_rows[:, None], identity[::-1], identity)
        if one_port:
            a, b = scenario_arrays_batch(c_matrix, w_matrix, d_matrix, rank2=rank2)
        else:
            a, b = two_port_arrays_batch(c_matrix, w_matrix, d_matrix, rank2=rank2)
        solved = solve_scenario_arrays_batch(
            a, b, kernel="batch_scenario" if one_port else "batch_twoport"
        )
        for row, flat in enumerate(flats):
            loads_rows[flat] = solved.loads[row]
    return loads_rows


def _ordered_costs(tables, table_ids: np.ndarray, orders: np.ndarray) -> np.ndarray:
    """The ``(3, rows, q)`` costs ``c``, ``w``, ``d`` of ordered pairs.

    Row ``k`` holds table ``table_ids[k]``'s costs permuted by
    ``orders[k]`` (tables of one worker count ``q``).
    """
    unique, inverse = np.unique(table_ids, return_inverse=True)
    stacked = np.concatenate(
        [cost for index in unique.tolist() for cost in tables[index][1:4]]
    ).reshape(-1, 3, orders.shape[1])
    return np.take_along_axis(
        stacked[inverse].transpose(1, 0, 2), orders[None], axis=2
    )


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


def _round_pairs(pair_loads: list, total: int):
    """The paper's rounding of every (cell, heuristic) load row at once.

    Rows are stacked per worker count and each stack is rounded with one
    :func:`~repro.core.rounding.round_values` call — the one rounding of
    each pair, mirroring ``measure_heuristic``'s one-row call.  Returns
    each pair's throughput (the Python ``sum`` of its row: the unit
    deadline makes the total load the throughput), its participant count,
    and per worker count the pair indices with their ``(rows, q)`` counts.
    """
    groups: dict[int, list[int]] = {}
    for flat, values in enumerate(pair_loads):
        groups.setdefault(len(values), []).append(flat)
    throughputs = [0.0] * len(pair_loads)
    participants = np.empty(len(pair_loads), dtype=np.int64)
    rounded = []
    for flats in groups.values():
        loads = np.array([pair_loads[flat] for flat in flats])
        for flat, row in zip(flats, loads.tolist()):
            throughputs[flat] = sum(row)
        counts = round_values(loads, total)
        # Loads are non-negative, so are their counts: the zeros are
        # exactly the idle workers.
        participants[flats] = (counts != 0).sum(axis=1)
        rounded.append((np.array(flats), counts))
    if not participants.all():
        raise ScheduleError("rounded schedule has no participating worker")
    return throughputs, participants, rounded


def prepare_cells(
    heuristic_names: Sequence[str],
    reference: str,
    total_tasks: int,
    keyed_tables: Sequence[tuple[tuple, np.ndarray, np.ndarray, np.ndarray]],
    one_port: bool = True,
    measured: bool = True,
) -> dict[tuple, PreparedCell]:
    """Prepare a batch of ``(key, c, w, d)`` cost tables for evaluation.

    Each table is one scenario cell: a platform's cost vectors at one grid
    point of whatever workload produced them — a matrix size for the
    matrix workload (Figures 10-13), a bus ``w/c`` ratio for a
    bus-workload space.  Every LP the batch needs — one per (table,
    LP-backed heuristic) pair — is stacked into one batched kernel call
    per worker count; throughputs and prepared replays are assembled
    straight from the kernel's load vectors, no platform or schedule
    objects at all.  Every (table, heuristic) load row is rounded once, in
    one row-wise call per worker count; the replay layouts are built from
    those counts, again one row-wise call per worker count, only when the
    cells will be ``measured`` (the runner passes ``spec.noise is not
    None``), so LP-only cells carry just their ratios and participant
    counts.  Everything here is bit-identical to
    evaluating :func:`repro.core.heuristics.compare_heuristics` and
    :func:`repro.simulation.executor.measure_heuristic` per cell — the
    public reference path the test-suite pins this engine against.

    The port model selects data only.  One-port cells use
    :data:`~repro.core.order_rules.ORDER_RULES` plus the closed-form LIFO
    chain and the one-port kernel.  ``one_port=False`` uses
    :data:`~repro.core.order_rules.TWO_PORT_ORDER_RULES`, whose LIFO is an
    LP row, and :mod:`repro.core.batch_twoport`'s kernel without the
    coupling row — bit-identical to the scalar :mod:`repro.core.twoport` +
    ``measure_heuristic(one_port=False)`` reference path.  Either way,
    :data:`~repro.core.order_rules.REVERSED_RETURN` names the
    rows that collect in reverse (one-port LIFO is never an LP row, so
    its kernel stacks stay all-FIFO), and measured cells share one
    layout; two-port cells carry no ``kinds``, since their draw order is
    dynamic.
    """
    rules = ORDER_RULES if one_port else TWO_PORT_ORDER_RULES
    for name in heuristic_names:
        if name not in HEURISTICS:
            raise ScheduleError(f"unknown heuristic {name!r}; available: {sorted(HEURISTICS)}")
    lp_names = [name for name in heuristic_names if name in rules]
    heuristic_count = len(heuristic_names)

    tables = _cost_tables(keyed_tables)
    orders = [
        rules[name](names, c_list, w_list, d_list)
        for names, _, _, _, c_list, w_list, d_list in tables
        for name in lp_names
    ]
    loads_rows = _solve_stacked_orders(tables, orders, _reversed(lp_names), one_port)

    # Every (table, heuristic) pair in flat order: its sigma1 order and its
    # loads, kernel rows and closed-form LIFO rows alike.
    lp_slots = {name: offset for offset, name in enumerate(lp_names)}
    pair_orders: list[list[int]] = []
    pair_loads: list = []
    for index, (names, _, _, _, c_list, w_list, d_list) in enumerate(tables):
        for name in heuristic_names:
            slot = lp_slots.get(name)
            if slot is None:
                # The only non-LP heuristic: the one-port closed-form LIFO.
                order = sorted_indices(names, c_list)
                pair_loads.append(lifo_chain_values(c_list, w_list, d_list, order))
            else:
                flat = index * len(lp_names) + slot
                order = orders[flat]
                pair_loads.append(loads_rows[flat])
            pair_orders.append(order)
    throughputs, participants, rounded = _round_pairs(pair_loads, total_tasks)
    if measured:
        durations, sigma2_positions, senders, starts = _chunk_layout(
            tables, heuristic_names, pair_orders, participants, rounded
        )
    participants = participants.tolist()

    # The kinds of a whole noise stream depend on the participant counts
    # only: cells sharing them share one tuple.
    stream_kinds: dict[tuple[int, ...], tuple[str, ...]] = {}
    cells: dict[tuple, PreparedCell] = {}
    for index, ((key, _, _, _), table) in enumerate(zip(keyed_tables, tables)):
        first = index * heuristic_count
        reference_time, lp_ratios = _cell_ratios(
            dict(zip(heuristic_names, throughputs[first : first + heuristic_count])),
            reference, total_tasks, heuristic_names,
        )
        cell_participants = tuple(participants[first : first + heuristic_count])
        if not measured:
            cells[key] = PreparedCell(lp_ratios, reference_time, cell_participants)
            continue
        kinds = stream_kinds.get(cell_participants, ())
        if one_port and not kinds:
            kinds = stream_kinds[cell_participants] = tuple(
                kind for p in cell_participants for kind in kind_pattern(p)
            )
        start, stop = starts[first], starts[first + heuristic_count]
        cells[key] = PreparedCell(
            lp_ratios,
            reference_time,
            cell_participants,
            durations=durations[3 * start : 3 * stop],
            sigma2_positions=sigma2_positions[start:stop],
            senders=senders[start:stop],
            names=table[0],
            kinds=kinds,
        )
    return cells


def _reversed(heuristic_names) -> np.ndarray:
    """Which heuristics collect in reverse send order (LIFO)."""
    return np.array([name in REVERSED_RETURN for name in heuristic_names], dtype=bool)


def _chunk_layout(tables, heuristic_names, pair_orders, participants, rounded):
    """Replay layouts of every (cell, heuristic) pair, as chunk-wide arrays.

    One :func:`~repro.simulation.fast_cluster.prepare_measurement_arrays` call
    per worker count lays out all its pairs at once (FIFO pairs collect in
    ``sigma1`` order, LIFO ones in reverse, on either port model); the
    groups are then scattered into flat arrays in pair order.  Pair ``k``'s
    ``p`` participants take entries ``starts[k]:starts[k + 1]`` of
    ``sigma2_positions`` and ``senders``, and its ``3p`` operations
    ``3 * starts[k]:3 * starts[k + 1]`` of ``durations``.
    """
    heuristic_count = len(heuristic_names)
    lifo = _reversed(heuristic_names)
    starts = np.zeros(len(participants) + 1, dtype=np.intp)
    np.cumsum(participants, out=starts[1:])
    durations = np.empty(3 * starts[-1])
    sigma2_positions = np.empty(starts[-1], dtype=np.intp)
    senders = np.empty(starts[-1], dtype=np.intp)
    for flats, counts in rounded:
        orders = np.array([pair_orders[flat] for flat in flats.tolist()])
        costs = _ordered_costs(tables, flats // heuristic_count, orders)
        identity = np.arange(counts.shape[1])
        sigma2 = np.where(lifo[flats % heuristic_count, None], identity[::-1], identity)
        for p, group in prepare_measurement_arrays(costs, counts, sigma2).items():
            first = starts[flats[group.rows], None]
            durations[3 * first + np.arange(3 * p)] = group.durations
            sigma2_positions[first + np.arange(p)] = group.sigma2_positions
            senders[first + np.arange(p)] = np.take_along_axis(
                orders[group.rows], group.senders, axis=1
            )
    return durations, sigma2_positions, senders, starts.tolist()

