"""Fast timeline replay of one-port cluster executions.

The discrete-event engine of :mod:`repro.simulation.engine` is the reference
executor, but the one-port master-worker program it runs has a completely
deterministic structure: initial messages go out back-to-back in ``sigma1``
order, every worker computes as soon as its share arrives, and the master
collects results in ``sigma2`` order once all sends are done.  That timeline
can be replayed with plain arithmetic — prefix sums for the sends, one
``max`` per return — in a single flat loop, two orders of magnitude cheaper
than driving generators through an event queue.

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

Because the whole timeline is static, all ``3q`` perturbations are drawn
through **one** batched :func:`~repro.simulation.noise.perturb_sequence`
call whose operation order is exactly the event order above — same draws,
far fewer noise-model dispatches.

:func:`run_fast_timeline` reproduces makespans and per-worker records
*bit-for-bit* (same floating-point operations in the same order); the
equivalence is asserted against the event engine by the test-suite.  Trace
events carry the same bars but may be ordered differently within equal
timestamps.

The two-port program interleaves return transfers with pending sends, so its
draw order depends on the realised times; :mod:`repro.simulation.fast_twoport`
replays it by merging the send and receive threads' draws in lockstep.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.core.platform import StarPlatform
from repro.simulation.noise import NoiseModel, perturb_sequence

__all__ = ["run_fast_timeline"]

#: Per-unit cost attribute of each operation kind.
_COST = {"send": "c", "compute": "w", "return": "d"}


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

    # All operation durations are known upfront (load times unit cost), so
    # the noise draws are batched through one perturb_sequence call — in
    # the event engine's exact order: send 0; then send k+1 before compute
    # k at each send end (the master's loop body runs before the woken
    # worker); compute q-1 after the last send; returns in sigma2 order.
    # The interleaved layout is [s0, s1, c0, s2, c1, ..., s_{q-1}, c_{q-2},
    # c_{q-1}, r(sigma2[0]), ...]: send k >= 1 sits at 2k-1, compute k at
    # 2k+2 (except compute q-1 at 2q-1), return slot i at 2q+i.
    q = len(sigma1)
    first, last = sigma1[0], sigma1[-1]
    operations = [(first, "send")]
    for k in range(1, q):
        operations += [(sigma1[k], "send"), (sigma1[k - 1], "compute")]
    operations += [(last, "compute")] + [(name, "return") for name in sigma2]
    names, kinds = zip(*operations)
    durations = [
        float(loads[name]) * getattr(platform[name], _COST[kind]) for name, kind in operations
    ]
    perturbed = perturb_sequence(noise, durations, kinds, names).tolist()

    # Phase 1+2 — sends back-to-back, computes starting at each send end.
    send_end: dict[str, float] = {}
    compute_end: dict[str, float] = {}
    clock = perturbed[0]
    send_end[first] = clock
    for k in range(1, q):
        name = sigma1[k]
        clock += perturbed[2 * k - 1]
        send_end[name] = clock
        previous = sigma1[k - 1]
        compute_end[previous] = send_end[previous] + perturbed[2 * k]
    compute_end[last] = send_end[last] + perturbed[2 * q - 1]

    # Phase 3 — returns in sigma2 order, one-port: the receive loop starts
    # after the last send and serialises the return transfers.
    port_free = clock
    return_start: dict[str, float] = {}
    return_end: dict[str, float] = {}
    for slot, name in enumerate(sigma2):
        start = max(port_free, compute_end[name])
        return_start[name] = start
        port_free = start + perturbed[2 * q + slot]
        return_end[name] = port_free
    return replayed_run(
        loads, sigma1, sigma2, send_end, compute_end, return_start, return_end,
        one_port=True, collect_trace=collect_trace,
    )
