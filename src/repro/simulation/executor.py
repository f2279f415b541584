"""High-level execution of schedules on the simulated cluster.

This module is the bridge between the analytic side of the library (LP
schedules, closed forms) and the measurement side (the discrete-event
cluster).  It mirrors the workflow of the paper's experiments:

1. a heuristic produces a unit-deadline schedule;
2. the schedule is rescaled to the concrete total load (``M = 1000`` matrix
   products in the paper) and rounded to integer loads;
3. the resulting prescription is executed on the (possibly noisy) simulated
   cluster, yielding a *measured* makespan to compare against the
   *LP-predicted* makespan.

:func:`execute_schedule` performs step 3; :func:`measure_heuristic` performs
steps 2–3 from a heuristic result and reports both numbers.

Campaigns measure many rounded schedules under many noise streams, so the
noise-independent part of step 3 is split off:
:func:`prepare_measurement_arrays` lays a whole matrix of rounded load
rows out for replay at once (grouped by participant count, in the
replay's draw order), and :func:`prepare_measurement` /
:class:`PreparedMeasurement` are its one-row form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.core.heuristics import HeuristicResult
from repro.core.makespan import predicted_makespan
from repro.core.rounding import round_loads, round_values
from repro.core.schedule import Schedule
from repro.exceptions import ScheduleError, SimulationError
from repro.simulation.cluster import ClusterRun, ClusterSimulation
from repro.simulation.noise import NoiseModel, perturb_sequence

__all__ = [
    "ExecutionReport",
    "LayoutGroup",
    "PreparedMeasurement",
    "execute_schedule",
    "kind_pattern",
    "measure_heuristic",
    "operation_workers",
    "prepare_measurement",
    "prepare_measurement_arrays",
    "prepare_measurement_parts",
    "replay_timelines",
]


@dataclass(frozen=True)
class ExecutionReport:
    """Predicted vs. measured execution of one schedule.

    Attributes
    ----------
    heuristic:
        Name of the heuristic that produced the schedule ("" when unknown).
    predicted_makespan:
        Completion time predicted by the linear model (LP value).
    measured_makespan:
        Completion time measured on the simulated cluster.
    total_load:
        Load units actually dispatched (after rounding, if any).
    run:
        Full cluster run (per-worker records and Gantt trace).
    """

    heuristic: str
    predicted_makespan: float
    measured_makespan: float
    total_load: float
    run: ClusterRun

    @property
    def relative_gap(self) -> float:
        """``measured / predicted - 1`` (the paper's "real vs lp" gap)."""
        if self.predicted_makespan <= 0:
            raise SimulationError("predicted makespan must be positive")
        return self.measured_makespan / self.predicted_makespan - 1.0

    @property
    def participants(self) -> list[str]:
        """Workers that actually processed load in the run."""
        return [name for name, record in self.run.records.items() if record.load > 0]


def execute_schedule(
    schedule: Schedule,
    noise: NoiseModel | None = None,
    one_port: bool = True,
    heuristic: str = "",
) -> ExecutionReport:
    """Execute ``schedule`` as-is on the simulated cluster.

    The predicted makespan is the eager makespan of the schedule under the
    ideal linear model; the measured makespan comes from the discrete-event
    run (identical when ``noise`` is ``None``).
    """
    simulation = ClusterSimulation(schedule.platform, noise=noise, one_port=one_port)
    run = simulation.run(schedule)
    return ExecutionReport(
        heuristic=heuristic,
        predicted_makespan=schedule.makespan(),
        measured_makespan=run.makespan,
        total_load=run.total_load,
        run=run,
    )


@dataclass(frozen=True)
class PreparedMeasurement:
    """A measurement with everything but the noise draws precomputed.

    Campaign loops measure the *same* rounded schedule under many
    independent noise streams (one per random platform).  Rounding the
    loads, filtering the participants and laying out the operation
    durations is identical across those measurements, so
    :func:`prepare_measurement` does it once; :meth:`measure` then only
    draws the noise (one batched :func:`~repro.simulation.noise.
    perturb_sequence` call) and replays the one-port timeline with plain
    arithmetic.  The result is bit-identical to
    ``measure_heuristic(result, total, noise=...).measured_makespan`` —
    same draws in the same order, same floating-point operations — which
    the test-suite asserts.

    ``durations``/``kinds``/``workers`` describe the ``3q`` operations in
    the replay's draw order (see :mod:`repro.simulation.fast_cluster`):
    sends and computes interleaved, then the returns in ``sigma2`` order.
    ``sigma2_positions`` maps each return slot to its worker's position in
    the (participant-filtered) ``sigma1``.
    """

    durations: np.ndarray
    kinds: tuple[str, ...]
    workers: tuple[str, ...]
    participant_count: int
    sigma2_positions: tuple[int, ...]

    def measure(self, noise: NoiseModel | None) -> float:
        """Measured makespan of the prepared schedule under ``noise``."""
        if noise is None:
            return self.makespan(self.durations)
        return self.makespan(perturb_sequence(noise, self.durations, self.kinds, self.workers))

    def makespan(self, perturbed) -> float:
        """Replay the one-port timeline over already-perturbed durations."""
        runs = np.asarray(perturbed, dtype=float)[None]
        return float(replay_timelines(runs, np.array([self.sigma2_positions]))[0])


def replay_timelines(runs: np.ndarray, sigma2_positions: np.ndarray) -> np.ndarray:
    """Makespans of one-port runs of ``p`` participants each, row-parallel.

    Each row of ``runs`` holds one run's ``3p`` perturbed durations in
    draw order and the matching row of ``sigma2_positions`` its return
    slots (see :class:`LayoutGroup`).  Sends go back to back, compute ``k``
    ends at send ``k``'s end plus its duration, and the returns are
    serialised on the port after the last send, each waiting for its
    compute: the last return's end is the makespan.  Sequential ``cumsum``
    and elementwise ``maximum``/``add`` give every row the floats of the
    scalar replay.
    """
    q = sigma2_positions.shape[1]
    send_index, compute_index = timeline_indices(q)
    send_end = np.cumsum(runs[:, send_index], axis=1)
    compute_end = send_end + runs[:, compute_index]
    collected = np.take_along_axis(compute_end, sigma2_positions, axis=1)
    returns = runs[:, 2 * q :]
    port_free = send_end[:, q - 1]
    for i in range(q):
        port_free = np.maximum(port_free, collected[:, i]) + returns[:, i]
    return port_free


#: Cached per-participant-count kind layouts (the layout depends on ``q``
#: only): ``send, (send, compute) * (q-1), compute, return * q``.
_KIND_PATTERNS: dict[int, tuple[str, ...]] = {}


def kind_pattern(q: int) -> tuple[str, ...]:
    """The operation kinds of a ``q``-participant run, in draw order."""
    pattern = _KIND_PATTERNS.get(q)
    if pattern is None:
        kinds = ["send"] + ["send", "compute"] * (q - 1) + ["compute"] + ["return"] * q
        pattern = _KIND_PATTERNS[q] = tuple(kinds)
    return pattern


def operation_workers(sigma1, sigma2_positions) -> tuple[str, ...]:
    """The worker of every operation of one run, in draw order.

    ``sigma1`` names the participants in send order and
    ``sigma2_positions`` their return slots (see :class:`LayoutGroup`).
    """
    workers = [sigma1[0]]
    for k in range(1, len(sigma1)):
        workers += (sigma1[k], sigma1[k - 1])
    workers.append(sigma1[-1])
    workers.extend(sigma1[position] for position in sigma2_positions)
    return tuple(workers)


#: Cached per-q gather indices into the interleaved duration layout:
#: send k at 0 / 2k-1, compute k at 2k+2 (compute q-1 at 2q-1).
_TIMELINE_INDICES: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def timeline_indices(q: int) -> tuple[np.ndarray, np.ndarray]:
    """The (send, compute) positions of the interleaved duration layout."""
    cached = _TIMELINE_INDICES.get(q)
    if cached is None:
        send = np.array([0] + [2 * k - 1 for k in range(1, q)])
        compute = np.array([2 * k + 2 for k in range(q - 1)] + [2 * q - 1])
        cached = _TIMELINE_INDICES[q] = (send, compute)
    return cached


def prepare_measurement(result: HeuristicResult, total_load: float) -> PreparedMeasurement:
    """Round and lay out one heuristic measurement for repeated noisy replay.

    Mirrors the ``round_to_integers`` path of :func:`measure_heuristic`:
    the unit-deadline loads are rounded to integers summing to
    ``int(round(total_load))``, workers rounded to zero are dropped, and
    the remaining operations are laid out in the replay's draw order.
    """
    schedule = result.schedule
    return prepare_measurement_parts(
        schedule.platform,
        schedule.sigma1,
        schedule.sigma2,
        [schedule.load(name) for name in schedule.sigma1],
        total_load,
    )


def prepare_measurement_parts(
    platform,
    schedule_sigma1,
    schedule_sigma2,
    values,
    total_load: float,
) -> PreparedMeasurement:
    """:func:`prepare_measurement` from raw schedule components.

    ``values`` are the unit-deadline loads in ``schedule_sigma1`` order,
    rounded here to integers summing to ``int(round(total_load))``; the
    layout is :func:`prepare_measurement_arrays` of that one row.
    """
    if total_load <= 0:
        raise SimulationError("total_load must be positive")
    total = int(round(total_load))
    if total <= 0:
        raise ScheduleError("total must be positive")
    position = {name: index for index, name in enumerate(schedule_sigma1)}
    ((q, group),) = prepare_measurement_arrays(
        np.array(platform.cost_vectors(schedule_sigma1))[:, None],
        round_values([values], total),
        [[position[name] for name in schedule_sigma2]],
    ).items()
    sigma1 = [schedule_sigma1[index] for index in group.senders[0].tolist()]
    sigma2_positions = tuple(group.sigma2_positions[0].tolist())
    return PreparedMeasurement(
        durations=group.durations[0],
        kinds=kind_pattern(q),
        workers=operation_workers(sigma1, sigma2_positions),
        participant_count=q,
        sigma2_positions=sigma2_positions,
    )


class LayoutGroup(NamedTuple):
    """The replay layouts of the rows that keep ``p`` participants.

    ``durations`` holds each row's ``3p`` operations in the replay's draw
    order (see :class:`PreparedMeasurement`); ``sigma2_positions`` maps
    each return slot to its worker's position among the participants in
    ``sigma1`` order, and ``senders`` gives those participants' input
    columns.
    """

    rows: np.ndarray
    durations: np.ndarray
    sigma2_positions: np.ndarray
    senders: np.ndarray


def prepare_measurement_arrays(costs, counts, sigma2) -> dict[int, LayoutGroup]:
    """Lay out already-rounded integer loads for replay, row-wise.

    ``counts`` is a ``(rows, q)`` matrix of integer loads and ``costs`` the
    matching ``(3, rows, q)`` stack of ``c``, ``w`` and ``d``, both in each
    row's ``sigma1`` order; ``sigma2`` gives each row's ``sigma1`` columns
    in collection order.  Workers rounded to zero are dropped and the rows
    come back grouped by participant count ``p`` (ascending), in input
    order within a group.  Campaign code that holds the cost tables and has
    rounded the kernel's load vectors itself lays a whole chunk out here:
    no platform objects, and no second rounding.
    """
    counts = np.asarray(counts)
    active = counts > 0
    participants = active.sum(axis=1)
    if not participants.all():
        raise ScheduleError("rounded schedule has no participating worker")
    q = counts.shape[1]
    # Participant rank of every sigma1 column, read in sigma2 order.
    sigma2 = np.asarray(sigma2)
    collected = np.take_along_axis(active, sigma2, axis=1)
    ranks = np.take_along_axis(np.cumsum(active, axis=1) - 1, sigma2, axis=1)
    # float(count) * cost, exactly the scalar product.
    scaled = counts * np.asarray(costs, dtype=float)
    groups: dict[int, LayoutGroup] = {}
    for p in np.unique(participants).tolist():
        rows = np.flatnonzero(participants == p)
        senders = (np.flatnonzero(active[rows]) % q).reshape(-1, p)
        positions = ranks[rows][collected[rows]].reshape(-1, p)
        sends, computes, returns = np.take_along_axis(scaled[:, rows], senders[None], axis=2)
        send_index, compute_index = timeline_indices(p)
        durations = np.empty((len(rows), 3 * p))
        durations[:, send_index] = sends
        durations[:, compute_index] = computes
        durations[:, 2 * p :] = np.take_along_axis(returns, positions, axis=1)
        groups[p] = LayoutGroup(rows, durations, positions, senders)
    return groups


def measure_heuristic(
    result: HeuristicResult,
    total_load: float,
    noise: NoiseModel | None = None,
    one_port: bool = True,
    round_to_integers: bool = True,
    collect_trace: bool = True,
) -> ExecutionReport:
    """Measure a heuristic's schedule for a concrete total load.

    Parameters
    ----------
    result:
        Output of one of the :mod:`repro.core.heuristics` functions (a
        unit-deadline schedule and its throughput).
    total_load:
        Number of load units to dispatch (the paper's ``M``).
    round_to_integers:
        Apply the paper's rounding policy before executing (default).  The
        *predicted* makespan always refers to the un-rounded LP schedule, so
        the reported gap includes the rounding imbalance, exactly like the
        paper's "real / lp" curves.
    collect_trace:
        Keep the Gantt trace of the run (default).  Campaign loops that
        only read the measured makespan pass ``False`` to skip it.
    """
    if total_load <= 0:
        raise SimulationError("total_load must be positive")
    prediction = predicted_makespan(result.schedule, total_load)
    schedule = result.schedule
    simulation = ClusterSimulation(
        schedule.platform, noise=noise, one_port=one_port, collect_trace=collect_trace
    )
    if round_to_integers:
        # round_loads rescales the unit-deadline loads proportionally to the
        # integer total itself, so the intermediate rescaled Schedule (and
        # the eager-makespan computation integer_load_schedule performs for
        # its deadline, which the simulation ignores) can be skipped.
        total = int(round(total_load))
        if total <= 0:
            # same guard integer_load_schedule applied on the old path
            raise ScheduleError("total must be positive")
        dispatch_loads = round_loads(schedule.loads, schedule.sigma1, total)
        run = simulation.run_assignment(
            {name: float(value) for name, value in dispatch_loads.items()},
            schedule.sigma1,
            schedule.sigma2,
        )
    else:
        run = simulation.run(schedule.scaled_to_total_load(total_load))
    return ExecutionReport(
        heuristic=result.name,
        predicted_makespan=prediction,
        measured_makespan=run.makespan,
        total_load=run.total_load,
        run=run,
    )
