"""Integer rounding of rational load assignments (Section 5 policy).

The scenario LPs produce rational loads, but the experiments dispatch an
integer number of matrix products to each worker.  The paper's policy is:

    "We first round down every value to the immediate lower integer, and
     then we distribute the K remaining tasks to the first K workers of the
     schedule in the order of the sending permutation, by giving one more
     matrix to process to each of these workers."

This module implements exactly that policy, plus the small amount of
book-keeping needed to apply it to a :class:`~repro.core.schedule.Schedule`
whose fractional loads have been scaled to a target total ``M``.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from repro.core.schedule import Schedule
from repro.exceptions import ScheduleError

__all__ = ["round_values", "round_loads", "integer_load_schedule"]


def round_loads(
    loads: Mapping[str, float],
    sigma1: Sequence[str],
    total: int,
    tol: float = 1e-6,
    validate: bool = True,
) -> dict[str, int]:
    """Round fractional ``loads`` to integers summing exactly to ``total``.

    Parameters
    ----------
    loads:
        Fractional loads, expected to sum to ``total`` (up to ``tol``); if
        they do not, they are first rescaled proportionally, which is how a
        unit-deadline schedule is applied to a concrete workload.
    sigma1:
        Sending permutation; the ``K`` leftover units go to its first ``K``
        workers, exactly as in the paper's example.
    total:
        Total integer number of load units to distribute.
    validate:
        Check that ``loads`` is consistent with ``sigma1`` (default).
        Internal callers whose inputs come from a :class:`Schedule` — whose
        invariants already guarantee consistency — skip the check; the
        rounded values are identical either way.

    Returns
    -------
    dict
        Worker name → integer load, summing to ``total``.
    """
    if total < 0:
        raise ScheduleError("total must be non-negative")
    sigma1 = list(sigma1)
    if not sigma1:
        raise ScheduleError("sigma1 must not be empty")
    if validate:
        unknown = set(loads) - set(sigma1)
        if unknown:
            raise ScheduleError(f"loads reference workers absent from sigma1: {sorted(unknown)}")
        if any(value < 0 for value in loads.values()):
            raise ScheduleError("loads must be non-negative")

    values = [loads.get(name, 0.0) for name in sigma1]
    return dict(zip(sigma1, round_values([values], total, tol=tol)[0].tolist()))


def round_values(values, total: int, tol: float = 1e-6) -> np.ndarray:
    """Row-wise core of :func:`round_loads`: round a matrix of load vectors.

    Each row of the ``(rows, q)`` matrix ``values`` holds fractional loads
    in its sending-permutation order; every row of the returned integer
    matrix sums to ``total``.  Row by row, the policy is: rescale
    proportionally unless the row's sum ``math.isclose`` to ``total`` (a
    row left with a non-finite value is dealt out from zero instead);
    floor ``value + tol``; shave any overshoot from the end of the
    permutation, skipping workers already at zero; give the ``K`` leftover
    units round-robin to the front of the permutation, wrapping when
    ``K > q``.  Row sums are Python ``sum()`` over each row's floats, so a
    row rounds to the same integers alone or in a matrix, on every
    interpreter.
    """
    if total < 0:
        raise ScheduleError("total must be non-negative")
    values = np.array(values, dtype=float, ndmin=2)
    rows, q = values.shape
    if not q:
        raise ScheduleError("sigma1 must not be empty")
    if total == 0:
        return np.zeros((rows, q), dtype=np.int64)
    sums = [sum(row) for row in values.tolist()]
    if any(row_total <= 0 for row_total in sums):
        raise ScheduleError("cannot round an all-zero load assignment to a positive total")
    scales = [
        1.0 if math.isclose(row_total, total, rel_tol=tol, abs_tol=tol) else total / row_total
        for row_total in sums
    ]
    # v * 1.0 == v bit for bit, so unscaled rows keep their exact values.
    with np.errstate(over="ignore", invalid="ignore"):
        values = values * np.array(scales)[:, None]
    # Degenerate inputs (e.g. a vanishingly small total load) can overflow
    # the rescaling; fall back to an even distribution of the leftovers.
    values[~np.isfinite(values).all(axis=1)] = 0.0

    counts = np.floor(values + tol).astype(np.int64)
    leftover = total - counts.sum(axis=1)
    over = leftover < 0
    if over.any():
        # Floating-point slack pushed floors too high: shave the excess
        # from the end of the permutation, each worker down to zero at most.
        spare = np.maximum(counts[over], 0)
        after = np.cumsum(spare[:, ::-1], axis=1)[:, ::-1] - spare
        shaved = np.clip(-leftover[over, None] - after, 0, spare)
        counts[over] -= shaved
        leftover[over] += shaved.sum(axis=1)
    # Paper policy: one extra unit to each of the first `leftover` workers
    # of the sending permutation, round after round.
    extra = np.maximum(leftover, 0)
    counts += extra[:, None] // q + (np.arange(q) < (extra % q)[:, None])
    return counts


def integer_load_schedule(schedule: Schedule, total: int) -> Schedule:
    """Return ``schedule`` with its loads rounded to integers summing to ``total``.

    The schedule is first rescaled so its fractional loads sum to ``total``
    (keeping proportions), then rounded with :func:`round_loads`; the
    deadline of the returned schedule is the eager makespan of the rounded
    loads, i.e. the completion time a simulator or a real run would achieve.
    """
    if total <= 0:
        raise ScheduleError("total must be positive")
    rounded = round_loads(schedule.loads, schedule.sigma1, total)
    candidate = Schedule(
        platform=schedule.platform,
        loads={name: float(value) for name, value in rounded.items()},
        sigma1=schedule.sigma1,
        sigma2=schedule.sigma2,
        deadline=schedule.deadline,
    )
    makespan = candidate.makespan()
    return Schedule(
        platform=schedule.platform,
        loads={name: float(value) for name, value in rounded.items()},
        sigma1=schedule.sigma1,
        sigma2=schedule.sigma2,
        deadline=makespan if makespan > 0 else schedule.deadline,
    )
