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

So the replay only merges the two threads.  :func:`run_fast_twoport` steps
all runs of a batch in lockstep over arrays padded to the largest ``q``:
each of the ``3q`` steps gives every run's next draw to the thread whose
draw comes first — the earlier draw time; at an exact tie, the thread the
event engine itself picks (:func:`_return_first`).  Models that pre-draw
(see :class:`~repro.simulation.noise.NoiseModel`) have each occurrence's
stream taken up front — a run uses ``3q`` draws, so every run's slice sits
at a known offset — and each step applies one column of draws.  Other
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

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from repro.core.platform import StarPlatform, Worker
from repro.simulation.noise import KIND_CODES, NoiseModel, apply_key

__all__ = ["PreparedTwoPortRun", "TwoPortTimes", "run_fast_twoport"]

_SEND, _COMPUTE, _RETURN = KIND_CODES["send"], KIND_CODES["compute"], KIND_CODES["return"]
_KIND_NAMES = sorted(KIND_CODES, key=KIND_CODES.get)
#: Marks the passes of live streams (models that do not pre-draw).
_LIVE = object()


@dataclass(frozen=True)
class PreparedTwoPortRun:
    """One two-port run ready for replay.

    ``workers`` is ``sigma1`` restricted to the participants, ``durations``
    the ``(3, q)`` noise-free send, compute and return durations in that
    order, ``collect`` the ``workers`` position of each ``sigma2`` slot.
    """

    workers: tuple[str, ...]
    durations: np.ndarray
    collect: np.ndarray


class TwoPortTimes(NamedTuple):
    """Event times of a replayed batch, one row per run padded to the
    largest ``q``: sends and computes by ``workers`` position, returns by
    ``sigma2`` slot."""

    send_end: np.ndarray
    compute_end: np.ndarray
    return_start: np.ndarray
    return_end: np.ndarray
    makespans: np.ndarray


def run_fast_twoport(
    occurrences: Sequence[tuple[NoiseModel, Sequence[PreparedTwoPortRun]]],
) -> TwoPortTimes:
    """Replay every run of every ``(noise, runs)`` occurrence, in lockstep.

    Each occurrence's runs draw from its noise stream in order, exactly as
    if replayed one after the other.  Rows are in (occurrence, run) order.
    """
    runs = [run for _, occurrence_runs in occurrences for run in occurrence_runs]
    models, draws = [], []
    # Runs replayed together: pre-drawing models by apply_key (one apply
    # per step); a live stream's n-th run in pass n, after the runs before.
    passes: dict = {}
    live_runs: dict[int, int] = {}
    for noise, occurrence_runs in occurrences:
        models.extend([noise] * len(occurrence_runs))
        if getattr(noise, "predraws", False):
            lengths = [3 * len(run.workers) for run in occurrence_runs]
            stream = noise.draw(sum(lengths))
            key = apply_key(noise)
            offset = 0
            for length in lengths:
                draws.append(None if stream is None else stream[offset : offset + length])
                passes.setdefault(key, []).append(len(draws) - 1)
                offset += length
        else:
            for run in occurrence_runs:
                number = live_runs[id(noise)] = live_runs.get(id(noise), -1) + 1
                draws.append(None)
                passes.setdefault((_LIVE, number), []).append(len(draws) - 1)

    sizes = np.array([len(run.workers) for run in runs], dtype=np.intp)
    width = int(sizes.max(initial=0))
    times = np.empty((4, len(runs), width))
    for key, members in passes.items():
        times[:, members] = _replay(
            [runs[index] for index in members],
            sizes[members],
            [models[index] for index in members],
            [draws[index] for index in members],
            width,
            live=key[0] is _LIVE,
        )
    return TwoPortTimes(*times, makespans=times[3, np.arange(len(runs)), sizes - 1])


def _ragged(lengths: np.ndarray, stride: int) -> np.ndarray:
    """Flat cells of row-major ragged rows of ``lengths`` in ``(rows, stride)``."""
    starts = np.cumsum(lengths) - lengths
    within = np.arange(int(lengths.sum())) - np.repeat(starts, lengths)
    return np.repeat(np.arange(lengths.size) * stride, lengths) + within


def _replay(runs, sizes, models, draws, width: int, live: bool) -> np.ndarray:
    """One lockstep pass: runs of equal pre-drawing models, or ``live``
    runs whose models draw one ``perturb`` call at a time.

    Returns ``(send_end, compute_end, return_start, return_end)`` stacked,
    each ``(len(runs), width)`` in input order.
    """
    count = len(runs)
    # Largest q first: the runs still drawing at step t are a prefix.
    order = np.argsort(-sizes, kind="stable")
    rows = order.tolist()
    q = sizes[order]
    active = np.searchsorted(-3 * q, -np.arange(3 * width)).tolist()
    flat = np.concatenate([runs[index].durations.ravel() for index in rows])
    collect = np.zeros(count * width, dtype=np.intp)
    collect[_ragged(q, width)] = np.concatenate([runs[index].collect for index in rows])
    collect = collect.reshape(count, width)

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
    # by receive-thread slot i of each row: kind, worker position,
    # noise-free duration and end cell of each; the cell of a send-thread
    # draw's time (the previous transfer's end); the cells a return waits on.
    cells = np.arange(count)[:, None] * stride
    m = np.arange(2 * width + 1)
    k = (m - 1) >> 1
    is_send = ((m & 1).astype(bool) & (k < q[:, None] - 1)) | (m == 0)
    send_kind = np.where(is_send, _SEND, _COMPUTE)
    position = k + is_send
    first = (np.cumsum(3 * q) - 3 * q)[:, None]
    kinds = np.concatenate((send_kind.ravel(), np.full(count * width, _RETURN)))
    positions = np.concatenate((position.ravel(), collect.ravel()))
    send_operation = (first + send_kind * q[:, None] + position).ravel()
    operations = np.concatenate((send_operation, (first + 2 * q[:, None] + collect).ravel()))
    durations = flat[np.minimum(operations, flat.size - 1)]
    send_at = np.where(m < 2 * q[:, None], cells + k + 1, ends_flat.size - 1).ravel()
    unused = np.zeros(send_at.size, dtype=np.intp)
    compute_cell = np.concatenate((unused, (cells + width + 2 + collect).ravel()))
    previous_cell = np.concatenate((unused, (cells + 2 * (width + 1) + np.arange(width)).ravel()))
    send_target = cells + send_kind * (width + 1) + position + 1
    targets = np.concatenate((send_target.ravel(), previous_cell[send_at.size :] + 1))
    send_rows = np.arange(count) * (2 * width + 1)
    return_rows = np.arange(count) * width + send_at.size

    matrix = None
    if not live and draws[0] is not None:
        streams = [draws[index] for index in rows]
        matrix = np.zeros(count * 3 * width)
        matrix[_ragged(3 * q, 3 * width)] = np.concatenate(streams)
        matrix = matrix.reshape(count, 3 * width)
    drawn = np.zeros((count, 3 * width))  # each row's perturbed durations, in draw order
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
            take_return[row] = _return_first(runs[rows[row]], drawn[row, :step])
        chosen = np.where(take_return, ret, send)
        if live:
            values = np.array(
                [
                    models[index].perturb(
                        float(durations[operation]), _KIND_NAMES[kinds[operation]],
                        runs[index].workers[positions[operation]],
                    )
                    for index, operation in zip(rows, chosen.tolist())
                ]
            )
        else:
            column = None if matrix is None else matrix[:n, step]
            values = models[0].apply(durations[chosen], kinds[chosen], column)
        ends_flat[targets[chosen]] = np.minimum(start, send_time) + values
        drawn[:n, step] = values
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


def _return_first(run: PreparedTwoPortRun, durations: np.ndarray) -> bool:
    """Whether a run's next draw, after ``durations``, is a return.

    Breaks an exact tie between the two threads the way the engine does:
    its scheduler counters depend on the whole event history, so the run
    is replayed through the discrete-event engine with the same durations
    (the costs are irrelevant) until it asks for one more draw.
    """
    from repro.simulation.cluster import ClusterSimulation

    platform = StarPlatform(Worker(name=name, c=1.0, w=1.0, d=1.0) for name in run.workers)
    simulation = ClusterSimulation(platform, _Prefix(durations), one_port=False, engine="event")
    try:
        simulation.run_assignment(
            dict.fromkeys(run.workers, 1.0), run.workers, [run.workers[j] for j in run.collect]
        )
    except _Stop as stop:
        return stop.args == ("return",)
    raise AssertionError("the run has no draw left")  # pragma: no cover - live rows draw
