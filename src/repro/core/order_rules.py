"""Array-level mirrors of the heuristic order rules and the LIFO chain.

The campaign machinery evaluates heuristics on raw ``(c, w, d)`` cost
tables — no :class:`~repro.core.platform.StarPlatform` or
:class:`~repro.core.schedule.Schedule` objects on the hot path.  This
module holds the array-level mirrors of :mod:`repro.core.heuristics` that
make that possible:

* :func:`sorted_indices` / :func:`optimal_fifo_indices` — the ordering
  rules of the FIFO heuristics on plain cost vectors, ties broken exactly
  like :meth:`StarPlatform.ordered_by_c` / ``ordered_by_w`` (same
  ``(cost, name)`` sort keys, pinned by the test-suite);
* :data:`ORDER_RULES` — the per-heuristic one-port FIFO order rules (the
  mirror of ``repro.core.heuristics._FIFO_ORDERS``);
* :func:`lifo_chain_values` — the closed-form optimal one-port LIFO loads,
  operation for operation the computation of
  :func:`repro.core.lifo.lifo_closed_form_loads`;
* :data:`TWO_PORT_ORDER_RULES` — the *two-port* mirror (companion report
  RR-2005-21, see :mod:`repro.core.twoport`): the FIFO rules are
  unchanged — dropping the coupling constraint does not change Theorem 1's
  ordering — while LIFO loses its closed form and becomes an LP-backed
  rule (serve by non-decreasing ``c_i``);
* :data:`REVERSED_RETURN` — the heuristics that collect in reverse send
  order, on either port model.

It sits below :mod:`repro.workloads` in the import hierarchy so that the
workload generators, the campaign engine and the scenario subsystem can
all share one implementation without cycles.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.core.platform import _RATIO_TOLERANCE

__all__ = [
    "ORDER_RULES",
    "REVERSED_RETURN",
    "TWO_PORT_ORDER_RULES",
    "lifo_chain_values",
    "optimal_fifo_indices",
    "sorted_indices",
    "worker_names",
]


#: Cached ``("P1", ..., "Pq")`` name tuples (the names the matrix workload
#: gives its platform's workers).
_WORKER_NAMES: dict[int, tuple[str, ...]] = {}


def worker_names(q: int) -> tuple[str, ...]:
    """The canonical worker names of a ``q``-worker matrix platform."""
    names = _WORKER_NAMES.get(q)
    if names is None:
        names = _WORKER_NAMES[q] = tuple(f"P{i + 1}" for i in range(q))
    return names


def sorted_indices(
    names: Sequence[str], costs: Sequence[float], descending: bool = False
) -> list[int]:
    """Worker indices sorted by cost, ties broken by name.

    Mirrors :meth:`StarPlatform.ordered_by_c` / ``ordered_by_w`` exactly
    (same ``(cost, name)`` sort keys), which the test-suite pins.
    """
    return sorted(
        range(len(names)), key=lambda i: (costs[i], names[i]), reverse=descending
    )


def optimal_fifo_indices(names, c, w, d) -> list[int]:
    """Theorem 1's order on a cost table (mirrors ``optimal_fifo_order``)."""
    ratios = [d[i] / c[i] for i in range(len(names))]
    first = ratios[0]
    z = first if all(
        math.isclose(r, first, rel_tol=_RATIO_TOLERANCE, abs_tol=_RATIO_TOLERANCE)
        for r in ratios
    ) else None
    return sorted_indices(names, c, descending=z is not None and z > 1.0)


#: Per-heuristic FIFO order rules on a (names, c, w, d) cost table —
#: the array-level mirror of ``repro.core.heuristics._FIFO_ORDERS``
#: (asserted equal by the test-suite).
ORDER_RULES = {
    "INC_C": lambda names, c, w, d: sorted_indices(names, c),
    "INC_W": lambda names, c, w, d: sorted_indices(names, w),
    "DEC_C": lambda names, c, w, d: sorted_indices(names, c, descending=True),
    "PLATFORM_ORDER": lambda names, c, w, d: list(range(len(names))),
    "OPT_FIFO": optimal_fifo_indices,
}


#: Per-heuristic *two-port* send-order rules (mirror of
#: :mod:`repro.core.twoport`).  The FIFO heuristics keep their one-port
#: orders — removing coupling constraint (2b) does not change the optimal
#: permutation of Theorem 1 — and ``LIFO``, which has no two-port closed
#: form, becomes an LP-backed rule serving workers by non-decreasing
#: ``c_i`` exactly like ``optimal_two_port_lifo_schedule``.
TWO_PORT_ORDER_RULES = {
    **ORDER_RULES,
    "LIFO": lambda names, c, w, d: sorted_indices(names, c),
}

#: Heuristics whose return order is the *reverse* of the send order
#: (``sigma2 = reversed(sigma1)``) on either port model; every other rule
#: is FIFO (``sigma2 = sigma1``).
REVERSED_RETURN = frozenset({"LIFO"})


def lifo_chain_values(c, w, d, order, deadline: float = 1.0) -> list[float]:
    """Closed-form LIFO loads on a cost table, in ``order``.

    Mirrors :func:`repro.core.lifo.lifo_closed_form_loads` operation for
    operation (same additions, multiplications and divisions).
    """
    values: list[float] = []
    previous_load = None
    previous = None
    for index in order:
        denominator = c[index] + d[index] + w[index]
        if previous_load is None:
            load = deadline / denominator
        else:
            load = previous_load * w[previous] / denominator
        values.append(load)
        previous_load = load
        previous = index
    return values
