"""Simulated master-worker cluster executing divisible-load schedules.

This is the stand-in for the paper's MPI testbed.  The master-worker program
of Section 5 is reproduced faithfully as three families of simulation
processes:

* the *master send loop* transmits each enrolled worker's share back-to-back
  in ``sigma1`` order, each transfer holding the master's port;
* each *worker* starts computing as soon as its share is fully received and
  announces its result when the computation finishes;
* the *master receive loop* starts once every initial message has been sent
  (exactly like the MPI master that posts its receives after its sends) and
  collects results in ``sigma2`` order, each return transfer holding the
  master's port again.

The one-port model is enforced structurally: both loops acquire the same
:class:`~repro.simulation.engine.Resource` of capacity one.  Setting
``one_port=False`` gives the two-port behaviour (independent ports) used by
the companion-report baselines.

Per-operation durations are the linear-model costs (``load * c_i`` etc.)
optionally perturbed by a :mod:`~repro.simulation.noise` model, which is how
the "real" measurements of the experiments are produced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Mapping, Sequence

from repro.core.platform import StarPlatform
from repro.core.schedule import Schedule
from repro.exceptions import SimulationError
from repro.simulation.engine import Event, Simulator
from repro.simulation.network import MasterPorts
from repro.simulation.noise import NoiseModel, NoJitter
from repro.simulation.trace import Trace

__all__ = ["WorkerRecord", "ClusterRun", "ClusterSimulation", "replayed_run"]


@dataclass
class WorkerRecord:
    """Measured timeline of one worker in a simulated run.

    All fields are absolute times; ``None`` marks a phase that never happened
    (a worker with zero load neither receives nor computes nor returns).
    """

    worker: str
    load: float
    send_start: float | None = None
    send_end: float | None = None
    compute_start: float | None = None
    compute_end: float | None = None
    return_start: float | None = None
    return_end: float | None = None

    @property
    def idle(self) -> float:
        """Measured gap between computation end and return start."""
        if self.compute_end is None or self.return_start is None:
            return 0.0
        return self.return_start - self.compute_end

    def as_dict(self) -> dict[str, object]:
        """JSON-friendly view."""
        return {
            "worker": self.worker,
            "load": self.load,
            "send_start": self.send_start,
            "send_end": self.send_end,
            "compute_start": self.compute_start,
            "compute_end": self.compute_end,
            "return_start": self.return_start,
            "return_end": self.return_end,
            "idle": self.idle,
        }


@dataclass
class ClusterRun:
    """Outcome of one simulated execution."""

    makespan: float
    records: dict[str, WorkerRecord]
    trace: Trace
    one_port: bool

    @property
    def total_load(self) -> float:
        """Total load actually processed."""
        return sum(record.load for record in self.records.values())

    def master_communication_time(self) -> float:
        """Total time the master spends sending or receiving."""
        return self.trace.busy_time("master", kinds=("send", "return"))


def replayed_run(
    loads: Mapping[str, float],
    sigma1: Sequence[str],
    sigma2: Sequence[str],
    send_end: Mapping[str, float],
    compute_end: Mapping[str, float],
    return_start: Mapping[str, float],
    return_end: Mapping[str, float],
    one_port: bool,
    collect_trace: bool = True,
) -> ClusterRun:
    """The run of an analytic replay, from its per-worker operation times.

    Sends go back to back in ``sigma1`` order from time 0 and each compute
    starts at its send's end.  The trace holds the event engine's bars
    (ordered differently within equal timestamps; consumers sort per
    resource anyway); ``collect_trace=False`` skips it.
    """
    trace = Trace()
    records: dict[str, WorkerRecord] = {}
    previous = 0.0
    for name in sigma1:
        records[name] = WorkerRecord(
            worker=name, load=float(loads[name]), send_start=previous,
            send_end=send_end[name], compute_start=send_end[name],
            compute_end=compute_end[name], return_start=return_start[name],
            return_end=return_end[name],
        )
        previous = send_end[name]
    if collect_trace:
        for name, record in records.items():
            bar = (record.send_start, record.send_end)
            trace.record("master", "send", *bar, load=record.load, note=name)
            trace.record(name, "send", *bar, load=record.load)
        for name in sorted(sigma1, key=compute_end.__getitem__):
            bar = (send_end[name], compute_end[name])
            trace.record(name, "compute", *bar, load=records[name].load)
        for name in sigma2:
            record = records[name]
            bar = (record.return_start, record.return_end)
            trace.record("master", "return", *bar, load=record.load, note=name)
            trace.record(name, "return", *bar, load=record.load)
    makespan = max([0.0, *return_end.values()])
    return ClusterRun(makespan=makespan, records=records, trace=trace, one_port=one_port)


class ClusterSimulation:
    """Discrete-event simulation of one schedule on one platform.

    Parameters
    ----------
    platform:
        Per-unit costs of every worker.
    noise:
        Noise model applied to every operation duration
        (default: :class:`~repro.simulation.noise.NoJitter`).
    one_port:
        Enforce the one-port model (default) or the two-port model.
    engine:
        ``"auto"`` (default) replays one-port executions analytically
        through :func:`~repro.simulation.fast_cluster.run_fast_timeline`
        (static timeline, batched noise draws), an order of magnitude
        faster than the discrete-event engine, and runs two-port
        executions on the engine: the campaigns' lockstep merge-ordered
        replay (:func:`~repro.simulation.fast_twoport.run_fast_twoport`)
        only pays off over batches of many runs, and a batch of one is
        slower than the engine.  ``"event"`` forces the discrete-event
        engine.  Both have the same event times and noise draws,
        bit-identical.
    """

    def __init__(
        self,
        platform: StarPlatform,
        noise: NoiseModel | None = None,
        one_port: bool = True,
        engine: str = "auto",
        collect_trace: bool = True,
    ) -> None:
        if engine not in ("auto", "event"):
            raise SimulationError(f"unknown simulation engine {engine!r}")
        self.platform = platform
        self.noise = noise if noise is not None else NoJitter()
        self.one_port = one_port
        self.engine = engine
        # Campaigns only consume the makespan; skipping the Gantt trace
        # saves ~40 TraceEvent allocations per run (fast engine only — the
        # event engine threads the trace through its processes).
        self.collect_trace = collect_trace

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def run(self, schedule: Schedule) -> ClusterRun:
        """Execute ``schedule`` and return the measured run.

        Only the orders and the loads of ``schedule`` are used; its deadline
        is ignored (the simulation measures the actual completion time).
        """
        if schedule.platform is not self.platform and schedule.platform != self.platform:
            raise SimulationError("schedule and simulation target different platforms")
        return self.run_assignment(schedule.loads, schedule.sigma1, schedule.sigma2)

    def run_assignment(
        self,
        loads: Mapping[str, float],
        sigma1: Sequence[str],
        sigma2: Sequence[str],
    ) -> ClusterRun:
        """Execute an explicit (loads, sigma1, sigma2) prescription."""
        sigma1 = [name for name in sigma1 if loads.get(name, 0.0) > 0]
        sigma2 = [name for name in sigma2 if loads.get(name, 0.0) > 0]
        if sorted(sigma1) != sorted(sigma2):
            raise SimulationError("sigma1 and sigma2 must enrol the same workers")
        for name in sigma1:
            if name not in self.platform:
                raise SimulationError(f"unknown worker {name!r}")

        if self.one_port and self.engine != "event":
            from repro.simulation.fast_cluster import run_fast_timeline

            return run_fast_timeline(
                self.platform, loads, sigma1, sigma2, self.noise,
                collect_trace=self.collect_trace,
            )
        simulator = Simulator()
        ports = MasterPorts(simulator, one_port=self.one_port)
        trace = Trace()
        records = {
            name: WorkerRecord(worker=name, load=float(loads[name])) for name in sigma1
        }

        data_ready: dict[str, Event] = {name: simulator.event() for name in sigma1}
        result_ready: dict[str, Event] = {name: simulator.event() for name in sigma1}
        sends_done = simulator.event()

        simulator.process(
            self._master_send_loop(simulator, ports, trace, records, data_ready, sends_done, sigma1, loads),
            name="master-send",
        )
        for name in sigma1:
            simulator.process(
                self._worker_loop(simulator, trace, records, data_ready[name], result_ready[name], name, loads[name]),
                name=f"worker-{name}",
            )
        receive_process = simulator.process(
            self._master_receive_loop(simulator, ports, trace, records, result_ready, sends_done, sigma2, loads),
            name="master-receive",
        )

        simulator.run()
        if sigma1 and not receive_process.triggered:
            raise SimulationError("simulation finished before all results were collected")
        makespan = max((record.return_end or 0.0) for record in records.values()) if records else 0.0
        return ClusterRun(makespan=makespan, records=records, trace=trace, one_port=self.one_port)

    # ------------------------------------------------------------------ #
    # simulation processes
    # ------------------------------------------------------------------ #
    def _master_send_loop(
        self,
        simulator: Simulator,
        ports: MasterPorts,
        trace: Trace,
        records: dict[str, WorkerRecord],
        data_ready: dict[str, Event],
        sends_done: Event,
        sigma1: Sequence[str],
        loads: Mapping[str, float],
    ) -> Generator[Event, None, None]:
        for name in sigma1:
            load = float(loads[name])
            duration = self.noise.perturb(load * self.platform[name].c, "send", name)
            yield ports.send_port.request()
            start = simulator.now
            yield simulator.timeout(duration)
            ports.send_port.release()
            end = simulator.now
            records[name].send_start = start
            records[name].send_end = end
            trace.record("master", "send", start, end, load=load, note=name)
            trace.record(name, "send", start, end, load=load)
            data_ready[name].succeed(end)
        sends_done.succeed(simulator.now)

    def _worker_loop(
        self,
        simulator: Simulator,
        trace: Trace,
        records: dict[str, WorkerRecord],
        data_ready: Event,
        result_ready: Event,
        name: str,
        load: float,
    ) -> Generator[Event, None, None]:
        yield data_ready
        start = simulator.now
        duration = self.noise.perturb(load * self.platform[name].w, "compute", name)
        yield simulator.timeout(duration)
        end = simulator.now
        records[name].compute_start = start
        records[name].compute_end = end
        trace.record(name, "compute", start, end, load=load)
        result_ready.succeed(end)

    def _master_receive_loop(
        self,
        simulator: Simulator,
        ports: MasterPorts,
        trace: Trace,
        records: dict[str, WorkerRecord],
        result_ready: dict[str, Event],
        sends_done: Event,
        sigma2: Sequence[str],
        loads: Mapping[str, float],
    ) -> Generator[Event, None, None]:
        # The one-port MPI master posts its receives only after all its sends;
        # under the two-port model the incoming port is independent and results
        # can be collected while later initial messages are still being sent.
        if self.one_port:
            yield sends_done
        for name in sigma2:
            load = float(loads[name])
            yield result_ready[name]
            duration = self.noise.perturb(load * self.platform[name].d, "return", name)
            yield ports.receive_port.request()
            start = simulator.now
            yield simulator.timeout(duration)
            ports.receive_port.release()
            end = simulator.now
            records[name].return_start = start
            records[name].return_end = end
            trace.record("master", "return", start, end, load=load, note=name)
            trace.record(name, "return", start, end, load=load)
