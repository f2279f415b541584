"""Lockstep merge-ordered replay of two-port cluster executions.

The *two-port* master collects results **while** later initial messages
are still being sent, so the order in which noise is drawn depends on the
realised (perturbed) event times, and that order feeds back into the
times.  Every run still draws exactly one perturbation per operation, ``3q``
in all, from two threads of the discrete-event program
(:meth:`ClusterSimulation.run_assignment` with ``engine="event"``):

* the **send thread**, in a fixed order: the send of ``sigma1[0]`` at time
  0, then at the end of each transfer ``k`` the send of ``sigma1[k+1]``
  followed by the compute of ``sigma1[k]``;
* the **receive thread**: the returns in ``sigma2`` order, each once its
  worker's ``result_ready`` has fired and the previous return has ended.

The send thread's order is the one-port draw order of
:mod:`repro.simulation.fast_cluster` without its returns, so a run comes
in that module's layout: draw ``m`` of the send thread is entry ``m`` of
the run's durations and return slot ``i`` is entry ``2q + i``.  The replay
only merges the two threads.  :func:`run_fast_twoport` steps all runs of a
batch in lockstep over arrays padded to the largest ``q``: each of the
``3q`` steps gives every run's next draw to the thread whose draw comes
first — the earlier draw time; at an exact tie, the thread the event
engine itself picks (:func:`_return_first`).  Models that pre-draw (see
:class:`~repro.simulation.noise.NoiseModel`) have each occurrence's stream
taken up front — a run uses ``3q`` draws, so every run's slice sits at its
durations' offset — and each step applies one column of draws.  Other
models draw one ``perturb`` call at a time inside the same loop, one run of
each stream per pass, so every stream is consumed as the serial path
consumes it.

The event times — hence makespans, per-worker records and trace bars
through :func:`~repro.simulation.cluster.replayed_run` — are bit-identical
to the event engine, ties included (asserted by the test-suite under every
noise model).  A lone run is faster on the engine itself, so
:class:`~repro.simulation.cluster.ClusterSimulation` runs single two-port
runs there; the campaigns batch whole chunks through
:func:`run_fast_twoport`.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from repro.core.order_rules import worker_names
from repro.core.platform import StarPlatform, Worker
from repro.simulation.noise import KIND_CODES, NoiseModel, apply_key

__all__ = ["TwoPortTimes", "run_fast_twoport"]

_SEND, _COMPUTE, _RETURN = KIND_CODES["send"], KIND_CODES["compute"], KIND_CODES["return"]
_KIND_NAMES = sorted(KIND_CODES, key=KIND_CODES.get)
#: Marks the passes of live streams (models that do not pre-draw).
_LIVE = object()


class TwoPortTimes(NamedTuple):
    """Event times of a replayed batch, one row per run padded to the
    largest ``q``: sends and computes by ``sigma1`` position, returns by
    ``sigma2`` slot."""

    send_end: np.ndarray
    compute_end: np.ndarray
    return_start: np.ndarray
    return_end: np.ndarray
    makespans: np.ndarray


def run_fast_twoport(
    occurrences: Sequence[tuple[NoiseModel, np.ndarray, np.ndarray, Sequence[int], Sequence[str]]],
) -> TwoPortTimes:
    """Replay every run of every occurrence, in lockstep.

    An occurrence ``(noise, durations, sigma2_positions, participants,
    workers)`` holds one run of ``p`` workers per entry of
    ``participants``, laid out run after run as by
    :func:`~repro.simulation.fast_cluster.prepare_measurement_arrays`.
    ``workers`` names the worker of every duration; only models that do
    not pre-draw read it.  Each occurrence's runs draw from its noise
    stream in order, exactly as if replayed one after the other.  Rows are
    in (occurrence, run) order.
    """
    noises, runs, positions, counts, names = zip(*occurrences)
    sizes = np.array([p for participants in counts for p in participants], dtype=np.intp)
    streams = []
    models = []
    # Runs replayed together: pre-drawing models by apply_key (one apply
    # per step); a live stream's n-th run in pass n, after the runs before.
    passes: dict = {}
    drawn = set()
    live_runs: dict[int, int] = {}
    for noise, durations, participants in zip(noises, runs, counts):
        members = range(len(models), len(models) + len(participants))
        models.extend([noise] * len(participants))
        stream = None
        if getattr(noise, "predraws", False):
            key = apply_key(noise)
            stream = noise.draw(len(durations))
            if stream is not None:
                drawn.add(key)
            passes.setdefault(key, []).extend(members)
        else:
            for member in members:
                number = live_runs[id(noise)] = live_runs.get(id(noise), -1) + 1
                passes.setdefault((_LIVE, number), []).append(member)
        streams.append(np.zeros(len(durations)) if stream is None else stream)
    first = np.cumsum(3 * sizes) - 3 * sizes
    flat, sigma2_positions, draws = map(np.concatenate, (runs, positions, streams))
    workers = None
    if live_runs:
        # The worker of every duration, read by live models only.
        workers = [name for run, given in zip(runs, names) for name in given or [None] * len(run)]

    width = int(sizes.max(initial=0))
    times = np.empty((4, len(sizes), width))
    for key, members in passes.items():
        times[:, members] = _replay(
            np.array(members), draws if key in drawn else None, width,
            key[0] is _LIVE, sizes, first, flat, sigma2_positions, models, workers,
        )
    return TwoPortTimes(*times, makespans=times[3, np.arange(len(sizes)), sizes - 1])


def _replay(
    members, draws, width: int, live: bool, sizes, first, flat, sigma2_positions, models, workers
) -> np.ndarray:
    """One lockstep pass over the ``members`` runs of a batch: runs of
    equal pre-drawing models, or ``live`` runs whose models draw one
    ``perturb`` call at a time.

    ``sizes`` and ``first`` hold every run's ``q`` and first entry of the
    concatenated ``flat`` durations; ``models`` every run's noise model and
    ``workers`` the worker of every duration (``None`` without live runs).
    Returns ``(send_end, compute_end, return_start, return_end)`` stacked,
    each ``(len(members), width)`` in input order.
    """
    count = len(members)
    # Largest q first: the runs still drawing at step t are a prefix.
    order = np.argsort(-sizes[members], kind="stable")
    rows = members[order]
    q = sizes[rows, None]
    active = np.searchsorted(-3 * q[:, 0], -np.arange(3 * width)).tolist()
    first = first[rows, None]
    # Each run's return slots, padded with its last one.
    collect = sigma2_positions[first // 3 + np.minimum(np.arange(width), q - 1)]

    # ends[:, kind, 1 + x]: end of the send or compute of worker position
    # x, or of the return of sigma2 slot x.  Column 0 is the time before
    # each thread's first draw: 0 for the send thread, -inf for the
    # receive thread.  A compute not yet drawn ends at +inf, which keeps its
    # return out of the merge; the extra last cell is the +inf draw time of
    # a finished send thread.
    stride = 3 * (width + 1)
    ends_flat = np.full(count * stride + 1, np.inf)
    ends = ends_flat[:-1].reshape(count, 3, width + 1)
    ends[:, _SEND, 0] = 0.0
    ends[:, _RETURN, 0] = -np.inf

    # Candidate draws, indexed by send-thread position m of each row, then
    # by receive-thread slot i of each row: kind, entry of the batch's
    # durations (m, then 2q + i, past the run's own start) and end cell of
    # each; the cell of a send-thread draw's time (the previous transfer's
    # end); the cells a return waits on.
    cells = np.arange(count)[:, None] * stride
    m = np.arange(2 * width + 1)
    k = (m - 1) >> 1
    is_send = ((m & 1).astype(bool) & (k < q - 1)) | (m == 0)
    send_kind = np.where(is_send, _SEND, _COMPUTE)
    kinds = np.concatenate((send_kind.ravel(), np.full(count * width, _RETURN)))
    operations = np.minimum(
        np.concatenate(((first + m).ravel(), (first + 2 * q + np.arange(width)).ravel())),
        flat.size - 1,
    )
    durations = flat[operations]
    send_at = np.where(m < 2 * q, cells + k + 1, ends_flat.size - 1).ravel()
    unused = np.zeros(send_at.size, dtype=np.intp)
    compute_cell = np.concatenate((unused, (cells + width + 2 + collect).ravel()))
    previous_cell = np.concatenate((unused, (cells + 2 * (width + 1) + np.arange(width)).ravel()))
    send_target = cells + send_kind * (width + 1) + k + is_send + 1
    targets = np.concatenate((send_target.ravel(), previous_cell[send_at.size :] + 1))
    send_rows = np.arange(count) * (2 * width + 1)
    return_rows = np.arange(count) * width + send_at.size

    applied = np.zeros((count, 3 * width))  # each row's perturbed durations, in draw order
    collected = np.zeros(count, dtype=np.intp)
    for step in range(3 * width):
        n = active[step]
        i = collected[:n]
        send = send_rows[:n] + step - i
        ret = return_rows[:n] + i
        send_time = ends_flat[send_at[send]]
        compute_end = ends_flat[compute_cell[ret]]
        previous_end = ends_flat[previous_cell[ret]]
        # Return i is drawn at the later of the previous return's end and
        # its worker's compute end; the earlier draw goes first.
        start = np.maximum(previous_end, compute_end)
        take_return = start < send_time
        for row in np.flatnonzero(start == send_time).tolist():
            take_return[row] = _return_first(collect[row, : q[row, 0]], applied[row, :step])
        chosen = np.where(take_return, ret, send)
        if live:
            values = np.array(
                [
                    models[index].perturb(
                        float(durations[candidate]), _KIND_NAMES[kinds[candidate]],
                        workers[operations[candidate]],
                    )
                    for index, candidate in zip(rows.tolist(), chosen.tolist())
                ]
            )
        else:
            column = None if draws is None else draws[first[:n, 0] + step]
            values = models[rows[0]].apply(durations[chosen], kinds[chosen], column)
        ends_flat[targets[chosen]] = np.minimum(start, send_time) + values
        applied[:n, step] = values
        collected[:n] += take_return

    back = np.empty_like(order)
    back[order] = np.arange(count)
    ends = ends[back]
    return_start = np.maximum(
        ends[:, _RETURN, :-1], np.take_along_axis(ends[:, _COMPUTE, 1:], collect[back], axis=1)
    )
    return np.stack((ends[:, _SEND, 1:], ends[:, _COMPUTE, 1:], return_start, ends[:, _RETURN, 1:]))


class _Stop(BaseException):
    """Stops the event engine at its first draw past a served prefix.

    Not an ``Exception``: the engine wraps those raised inside a process,
    and this one must reach :func:`_return_first` as it is.
    """


class _Prefix:
    """Serves a run's perturbed durations to the event engine, in draw order."""

    def __init__(self, durations: np.ndarray) -> None:
        self.durations = iter(durations.tolist())

    def perturb(self, duration: float, kind: str, worker: str) -> float:
        value = next(self.durations, None)
        if value is None:
            raise _Stop(kind)
        return value


def _return_first(collect: np.ndarray, durations: np.ndarray) -> bool:
    """Whether a run's next draw, after ``durations``, is a return.

    ``collect`` holds the run's return slots.  Breaks an exact tie between
    the two threads the way the engine does: its scheduler counters depend
    on the whole event history, so the run is replayed through the
    discrete-event engine with the same durations until it asks for one
    more draw.  The engine orders events by counter, never by worker name
    or cost, so canonical names and unit costs stand in for the real ones.
    """
    from repro.simulation.cluster import ClusterSimulation

    names = worker_names(len(collect))
    platform = StarPlatform(Worker(name=name, c=1.0, w=1.0, d=1.0) for name in names)
    simulation = ClusterSimulation(platform, _Prefix(durations), one_port=False, engine="event")
    try:
        simulation.run_assignment(
            dict.fromkeys(names, 1.0), names, [names[j] for j in collect.tolist()]
        )
    except _Stop as stop:
        return stop.args == ("return",)
    raise AssertionError("the run has no draw left")  # pragma: no cover - live rows draw
