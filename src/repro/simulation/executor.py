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
"""

from __future__ import annotations

from dataclasses import dataclass

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
    "PreparedMeasurement",
    "execute_schedule",
    "measure_heuristic",
    "prepare_measurement",
    "prepare_measurement_arrays",
    "prepare_measurement_parts",
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
        q = self.participant_count
        values = perturbed.tolist() if isinstance(perturbed, np.ndarray) else list(perturbed)
        # Sends back-to-back; compute k ends at send_end[k] + its duration.
        send_end = [0.0] * q
        compute_end = [0.0] * q
        clock = values[0]
        send_end[0] = clock
        for k in range(1, q):
            clock += values[2 * k - 1]
            send_end[k] = clock
            compute_end[k - 1] = send_end[k - 1] + values[2 * k]
        compute_end[q - 1] = send_end[q - 1] + values[2 * q - 1]
        # Returns serialised on the port after the last send; the last
        # return's end is the makespan (ends are non-decreasing).
        port_free = clock
        for slot, position in enumerate(self.sigma2_positions):
            start = max(port_free, compute_end[position])
            port_free = start + values[2 * q + slot]
        return port_free


#: Cached per-participant-count kind layouts (the layout depends on ``q``
#: only): ``send, (send, compute) * (q-1), compute, return * q``.
_KIND_PATTERNS: dict[int, tuple[str, ...]] = {}


def _kind_pattern(q: int) -> tuple[str, ...]:
    pattern = _KIND_PATTERNS.get(q)
    if pattern is None:
        kinds = ["send"] + ["send", "compute"] * (q - 1) + ["compute"] + ["return"] * q
        pattern = _KIND_PATTERNS[q] = tuple(kinds)
    return pattern


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
    rounded here to integers summing to ``int(round(total_load))``.
    """
    if total_load <= 0:
        raise SimulationError("total_load must be positive")
    total = int(round(total_load))
    if total <= 0:
        raise ScheduleError("total must be positive")
    return prepare_measurement_arrays(
        platform.cost_vectors(schedule_sigma1),
        schedule_sigma1,
        schedule_sigma2,
        round_values(values, total),
    )


def prepare_measurement_arrays(
    cost_vectors,
    schedule_sigma1,
    schedule_sigma2,
    counts,
) -> PreparedMeasurement:
    """Lay out already-rounded integer loads for repeated noisy replay.

    ``cost_vectors`` is the ``(c, w, d)`` triple and ``counts`` the
    integer loads, both in ``schedule_sigma1`` order.  Campaign code that
    holds the cost table and has rounded the kernel's load vector itself
    calls this directly: no platform objects, and no second rounding.
    """
    rounded = dict(zip(schedule_sigma1, counts))
    sigma1 = [name for name in schedule_sigma1 if rounded[name] > 0]
    sigma2 = [name for name in schedule_sigma2 if rounded[name] > 0]
    q = len(sigma1)
    if q == 0:
        raise ScheduleError("rounded schedule has no participating worker")

    # Lay the active operations out in plain Python floats (cheaper than
    # numpy at these worker counts; the arithmetic is identical).
    full_c, full_w, full_d = cost_vectors
    if isinstance(full_c, np.ndarray):
        full_c, full_w, full_d = full_c.tolist(), full_w.tolist(), full_d.tolist()
    active = [index for index, count in enumerate(counts) if count > 0]
    sends = [float(counts[i]) * full_c[i] for i in active]
    computes = [float(counts[i]) * full_w[i] for i in active]
    returns = [float(counts[i]) * full_d[i] for i in active]

    position = {name: index for index, name in enumerate(sigma1)}
    sigma2_positions = tuple(position[name] for name in sigma2)
    durations: list[float] = [sends[0]]
    workers: list[str] = [sigma1[0]]
    for k in range(1, q):
        durations.append(sends[k])
        workers.append(sigma1[k])
        durations.append(computes[k - 1])
        workers.append(sigma1[k - 1])
    durations.append(computes[q - 1])
    workers.append(sigma1[q - 1])
    for name, index in zip(sigma2, sigma2_positions):
        durations.append(returns[index])
        workers.append(name)

    return PreparedMeasurement(
        durations=np.array(durations),
        kinds=_kind_pattern(q),
        workers=tuple(workers),
        participant_count=q,
        sigma2_positions=sigma2_positions,
    )


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
