"""Measuring on a shared machine: time every operation several times, keep
its fastest time, and report CPU-bound times at the reference machine's
speed.

Other tenants of the machine share its cores.  On a 2-vCPU VM a fixed
Python loop took from 1.0x to 2.1x its fastest time, in phases lasting
seconds, so a plain median over a 10-second run moved by ~25% between
runs however long the run.  The slow-down is one-sided (interference only
adds time) and not a property of the program.  A tail percentile suffers
most: ``op_p90_ms`` sits ~10% above ``op_p50_ms``, so once a tenth of the
timed chunks ran during a busy phase it reads the busy speed.

So a campaign run makes ``PASSES`` passes over the same campaigns, each
into fresh stores: the passes do identical work, chunk for chunk, seconds
apart.  An operation's time is its fastest over the passes: it reads slow
only if the machine was busy in every pass.  Which inputs run does not
depend on the machine, and every operation is kept, so nothing favours
cheap inputs.  ``MIN_OPS`` distinct operations per run give the 90th
percentile 10 samples beyond it.

The machine's quiet speed itself drifts over hours: on the reference VM the
quiet probe went from 0.150 ms to 0.198 ms between two afternoon hours, and
a quiet ``campaign-lp`` chunk from 14.0 ms to 18.1 ms with it.  So times
spent on the CPU are scaled by ``REFERENCE_PROBE / probe``: they read as on
the reference machine at its quiet speed, and a drift that slows probe and
program alike cancels out.  The probe, a fixed loop, is timed before every
chunk of every pass, and a chunk's time is scaled by the median probe
around it in its pass, before the fastest pass is taken.  The probe tracks
busy phases, but under-corrects them: in one busy phase chunks ran 1.6x
their quiet time while the probe read 1.37x.  So the scaling shrinks the
gap between passes and the fastest pass removes most of what is left.
Over seven ``campaign-twoport`` seeds, scaling each chunk by its own
window before taking the fastest pass cut the spread of ``op_p90_ms``
from 0.111 (fastest pass, then one scale for the run) to 0.044, and on
``campaign-lp`` from 0.229 to 0.056 (five seeds).

Start-ups are scaled by probes timed while no child process runs: a round
of probes before each start-up; the quiet probe is the median over the
rounds of each round's fastest probe.
"""

from __future__ import annotations

import statistics
from typing import Iterable, Sequence

from tracer import clock

#: Passes over a run's campaigns; an operation's time is its fastest.
PASSES = 5
#: Distinct operations per run: then the 90th percentile has 10 samples
#: beyond it.
MIN_OPS = 100
#: The probe's quiet time on the reference machine, in seconds.
REFERENCE_PROBE = 150e-6
#: Probes on either side of a chunk that give its pass's speed there.
AROUND = 5


def probe() -> float:
    """Seconds a fixed pure-Python loop takes now (about 0.15 ms when quiet)."""
    start = clock()
    total = 0
    for value in range(5000):
        total += value
    return clock() - start


def fastest(passes: Sequence[Sequence[float]]) -> list[float]:
    """Per position, the fastest of the passes' times.

    Every pass times the same operations in the same order.
    """
    lengths = {len(times) for times in passes}
    if len(lengths) != 1:
        raise ValueError(f"passes timed different numbers of operations: {sorted(lengths)}")
    return [min(times) for times in zip(*passes)]


def chunk_times(passes: Sequence[Sequence[Sequence[float]]]) -> list[float]:
    """Each chunk's time at the reference speed: the fastest over the passes.

    ``passes[k][i]`` is ``[seconds, probe seconds]`` of chunk ``i`` in pass
    ``k``.  Within a pass a chunk's time is scaled by the median of the
    probes around it, ``AROUND`` on either side: they follow a busy phase
    (seconds long) while one odd probe does not move them.
    """
    scaled = []
    for ops in passes:
        probes = [calm for _, calm in ops]
        scaled.append([
            seconds * REFERENCE_PROBE / statistics.median(probes[max(0, i - AROUND) : i + AROUND + 1])
            for i, (seconds, _) in enumerate(ops)
        ])
    return fastest(scaled)


def quiet_probe(rounds: Iterable[Sequence[float]]) -> float:
    """The median over ``rounds`` of each round's fastest probe."""
    return statistics.median(min(round_) for round_ in rounds)
