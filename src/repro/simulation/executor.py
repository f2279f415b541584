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
steps 2–3 from a heuristic result and reports both numbers.  Campaigns
measure many rounded schedules at once through the row-wise layout and
replay of :mod:`repro.simulation.fast_cluster` instead, the same replay a
one-port :func:`measure_heuristic` reaches through
:class:`~repro.simulation.cluster.ClusterSimulation`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.heuristics import HeuristicResult
from repro.core.makespan import predicted_makespan
from repro.core.rounding import round_values
from repro.core.schedule import Schedule
from repro.exceptions import ScheduleError, SimulationError
from repro.simulation.cluster import ClusterRun, ClusterSimulation
from repro.simulation.noise import NoiseModel

__all__ = ["ExecutionReport", "execute_schedule", "measure_heuristic"]


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
        # round_values rescales the unit-deadline loads proportionally to
        # the integer total itself, so the intermediate rescaled Schedule
        # (and the eager-makespan computation integer_load_schedule performs
        # for its deadline, which the simulation ignores) can be skipped.
        total = int(round(total_load))
        if total <= 0:
            # same guard integer_load_schedule applied on the old path
            raise ScheduleError("total must be positive")
        sigma1 = schedule.sigma1
        (counts,) = round_values([[schedule.load(name) for name in sigma1]], total).tolist()
        run = simulation.run_assignment(
            {name: float(count) for name, count in zip(sigma1, counts)},
            sigma1,
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
