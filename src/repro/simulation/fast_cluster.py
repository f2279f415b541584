"""Fast timeline replay of one-port cluster executions.

The discrete-event engine of :mod:`repro.simulation.engine` is the reference
executor, but the one-port master-worker program it runs has a completely
deterministic structure: initial messages go out back-to-back in ``sigma1``
order, every worker computes as soon as its share arrives, and the master
collects results in ``sigma2`` order once all sends are done.  That timeline
can be replayed with plain arithmetic — prefix sums for the sends, one
``max`` per return — two orders of magnitude cheaper than driving
generators through an event queue.

The subtle part is noise: campaign noise models draw from a single seeded RNG
stream, so the replay must call :meth:`NoiseModel.perturb` in *exactly* the
order the event engine would.  For the one-port program that order is:

1. the send perturbation of ``sigma1[0]`` (drawn by the master before its
   first transfer);
2. at the end of each transfer ``k``: the send perturbation of
   ``sigma1[k+1]`` (the master's loop body runs before the completed
   worker's process is scheduled), then the compute perturbation of
   ``sigma1[k]``;
3. after the last send: the return perturbations in ``sigma2`` order (the
   receive loop only starts once every initial message is out, and every
   compute perturbation has been drawn by then).

This module is the one place that knows that order, and both replays read
runs laid out in it.  :func:`timeline_indices`, :func:`kind_pattern` and
:func:`operation_workers` lay a run's ``3q`` operations out in it, so
**one** batched :func:`~repro.simulation.noise.perturb_sequence` call
draws them all, and :func:`replay_timelines` replays any number of
laid-out runs row-parallel.  :func:`prepare_measurement_arrays` lays out a
whole matrix of rounded load rows for the campaigns of both port models
(:mod:`repro.experiments.campaign_engine`); :func:`run_fast_timeline` lays
out and replays one run for
:class:`~repro.simulation.cluster.ClusterSimulation`.

Both reproduce makespans and per-worker records *bit-for-bit* (same
floating-point operations in the same order); the equivalence is asserted
against the event engine by the test-suite.  Trace events carry the same
bars but may be ordered differently within equal timestamps.

The two-port program interleaves return transfers with pending sends, so its
draw order depends on the realised times; :mod:`repro.simulation.fast_twoport`
replays the same layout by merging the send and receive threads' draws in
lockstep (its send thread draws in this layout's order, returns aside).
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Sequence

import numpy as np

from repro.core.platform import StarPlatform
from repro.exceptions import ScheduleError
from repro.simulation.noise import NoiseModel, perturb_sequence

__all__ = [
    "LayoutGroup",
    "kind_pattern",
    "operation_workers",
    "prepare_measurement_arrays",
    "replay_timelines",
    "run_fast_timeline",
    "timeline_indices",
]


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
    """The (send, compute) positions of the interleaved duration layout.

    The layout is ``[s0, s1, c0, s2, c1, ..., s_{q-1}, c_{q-2}, c_{q-1},
    r(sigma2[0]), ...]``: the returns fill the last ``q`` slots in
    ``sigma2`` order.
    """
    cached = _TIMELINE_INDICES.get(q)
    if cached is None:
        send = np.array([0] + [2 * k - 1 for k in range(1, q)])
        compute = np.array([2 * k + 2 for k in range(q - 1)] + [2 * q - 1])
        cached = _TIMELINE_INDICES[q] = (send, compute)
    return cached


class LayoutGroup(NamedTuple):
    """The replay layouts of the rows that keep ``p`` participants.

    ``durations`` holds each row's ``3p`` operations in draw order (see
    :func:`timeline_indices`); ``sigma2_positions`` maps each return slot
    to its worker's position among the participants in ``sigma1`` order,
    and ``senders`` gives those participants' input columns.
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


def replay_timelines(runs: np.ndarray, sigma2_positions: np.ndarray):
    """Replay one-port runs of ``q`` participants each, row-parallel.

    Each row of ``runs`` holds one run's ``3q`` perturbed durations in
    draw order and the matching row of ``sigma2_positions`` its return
    slots (see :class:`LayoutGroup`).  Sends go back to back, compute ``k``
    ends at send ``k``'s end plus its duration, and the returns are
    serialised on the port after the last send, each waiting for its
    compute.  Returns the ``(rows, q)`` arrays ``(send_end, compute_end,
    return_start, return_end)``, the first two in ``sigma1`` order and the
    last two in return-slot order: ``return_end[:, -1]`` is the makespan.
    Sequential ``cumsum`` and elementwise ``maximum``/``add`` give every
    row the floats of a scalar replay.
    """
    q = sigma2_positions.shape[1]
    send_index, compute_index = timeline_indices(q)
    send_end = np.cumsum(runs[:, send_index], axis=1)
    compute_end = send_end + runs[:, compute_index]
    collected = compute_end[np.arange(len(runs))[:, None], sigma2_positions]
    returns = runs[:, 2 * q :]
    return_start = np.empty_like(returns)
    return_end = np.empty_like(returns)
    port_free = send_end[:, q - 1]
    for start, end, collect, duration in zip(
        return_start.T, return_end.T, collected.T, returns.T
    ):
        np.maximum(port_free, collect, out=start)
        port_free = np.add(start, duration, out=end)
    return send_end, compute_end, return_start, return_end


def run_fast_timeline(
    platform: StarPlatform,
    loads: Mapping[str, float],
    sigma1: Sequence[str],
    sigma2: Sequence[str],
    noise: NoiseModel,
    collect_trace: bool = True,
):
    """Replay a one-port execution analytically and return a ``ClusterRun``.

    ``sigma1``/``sigma2`` must already be restricted to workers with a
    strictly positive load (as :meth:`ClusterSimulation.run_assignment`
    guarantees before dispatching here).  ``collect_trace=False`` skips the
    Gantt bars (records and makespan are unaffected) for callers that only
    measure completion times.
    """
    from repro.simulation.cluster import replayed_run

    if not sigma1:
        return replayed_run(loads, (), (), {}, {}, {}, {}, one_port=True)

    q = len(sigma1)
    position = {name: k for k, name in enumerate(sigma1)}
    sigma2_positions = [position[name] for name in sigma2]
    specs = [platform[name] for name in sigma1]
    costs = np.array([(spec.c, spec.w, spec.d) for spec in specs])
    sends, computes, returns = costs.T * [float(loads[name]) for name in sigma1]
    send_index, compute_index = timeline_indices(q)
    durations = np.empty(3 * q)
    durations[send_index] = sends
    durations[compute_index] = computes
    durations[2 * q :] = returns[sigma2_positions]
    perturbed = perturb_sequence(
        noise, durations, kind_pattern(q), operation_workers(sigma1, sigma2_positions)
    )
    send_end, compute_end, return_start, return_end = (
        times[0].tolist()
        for times in replay_timelines(perturbed[None], np.array([sigma2_positions]))
    )
    return replayed_run(
        loads, sigma1, sigma2,
        dict(zip(sigma1, send_end)), dict(zip(sigma1, compute_end)),
        dict(zip(sigma2, return_start)), dict(zip(sigma2, return_end)),
        one_port=True, collect_trace=collect_trace,
    )
