"""Request/response schemas of the query service.

Both sides of the wire are frozen dataclasses that round-trip through
JSON:

* :class:`Query` — platform cost table + port model + heuristic set +
  workload size.  The platform arrives either as a
  :class:`~repro.core.platform.StarPlatform` or, over HTTP, as a mapping
  ``{"name": {"c": ..., "w": ..., "d": ...}, ...}`` in platform order.
* :class:`Answer` — best heuristic, per-heuristic schedules (send/return
  orders, loads, throughput, predicted makespan) and the cache key the
  answer is stored under.

Python's ``json`` writes floats via ``repr`` and reads them back with
exact binary round-trip, so an :class:`Answer` that travelled through the
HTTP tier (or the disk cache) compares equal, float for float, to one
computed in-process — the bit-identity tests pin this.

Everything here is immutable (tuples of tuples, no shared arrays): once a
query is built, mutating the caller's cost table cannot change the
query's key or a cached answer derived from it.

A :class:`Query` is valid by construction: its platform is built (and
so checked by :class:`~repro.core.platform.Worker` and
:class:`~repro.core.platform.StarPlatform`) when the query is, so a bad
cost is rejected before the query can reach a shared kernel call.  The
wire form is stricter than the Python one: :meth:`Query.from_dict` takes
JSON numbers and booleans only, never a string or a boolean standing in
for a number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.core.heuristics import HEURISTICS, HeuristicResult
from repro.core.makespan import makespan_for_load
from repro.core.platform import StarPlatform, Worker
from repro.core.schedule import Schedule
from repro.exceptions import ScheduleError

__all__ = [
    "DEFAULT_HEURISTICS",
    "Query",
    "HeuristicAnswer",
    "Answer",
]

#: Heuristic set a query evaluates by default: the paper's experimental
#: comparison (INC_C / INC_W / LIFO) plus the provably optimal FIFO of
#: Theorem 1 — so the default answer always contains the reference
#: schedule resource selection is about.
DEFAULT_HEURISTICS = ("OPT_FIFO", "INC_C", "INC_W", "LIFO")

#: Default workload size (the paper's campaigns process M = 1000 tasks).
DEFAULT_TOTAL_TASKS = 1000.0


def _platform_rows(platform: StarPlatform) -> tuple[tuple[str, float, float, float], ...]:
    """The cost table as immutable ``(name, c, w, d)`` rows, platform order."""
    return tuple(
        (worker.name, float(worker.c), float(worker.w), float(worker.d))
        for worker in platform
    )


def _platform_from_rows(rows: Sequence[Sequence]) -> StarPlatform:
    return StarPlatform([Worker(str(name), float(c), float(w), float(d)) for name, c, w, d in rows])


#: Python types a JSON number decodes to.  Matched exactly: ``bool`` is an
#: ``int`` subclass, but ``true`` is not a number on the wire.
_JSON_NUMBER_TYPES = (int, float)


def _check_wire_platform(platform: Mapping) -> None:
    """Reject cost entries that are not JSON numbers, naming the field."""
    for name, costs in platform.items():
        for key in ("c", "w", "d"):
            try:
                value = costs[key]
            except (KeyError, TypeError):
                continue  # missing, or costs not a mapping: _platform_mapping_rows reports it
            if type(value) not in _JSON_NUMBER_TYPES:
                raise ScheduleError(
                    f"worker {name!r} needs numeric 'c', 'w' and 'd' costs: "
                    f"{key!r} is {type(value).__name__}"
                )


def _platform_mapping_rows(payload: Mapping) -> tuple[tuple[str, float, float, float], ...]:
    rows = []
    for name, costs in payload.items():
        try:
            rows.append((str(name), float(costs["c"]), float(costs["w"]), float(costs["d"])))
        except (KeyError, TypeError, ValueError) as error:
            raise ScheduleError(
                f"worker {name!r} needs numeric 'c', 'w' and 'd' costs: {error}"
            ) from None
    return tuple(rows)


@dataclass(frozen=True)
class Query:
    """One resource-selection question, normalised and immutable.

    The platform is captured as a cost-table *copy* at construction time
    (``platform_rows``), so later mutation of whatever the caller built the
    query from — a numpy cost table, a list of dicts — can neither poison a
    cached answer nor change the query's key.  The table is turned into a
    :class:`StarPlatform` right away, so a NaN, infinite or non-positive
    cost raises :class:`~repro.exceptions.PlatformError` here.
    """

    platform_rows: tuple[tuple[str, float, float, float], ...]
    one_port: bool = True
    heuristics: tuple[str, ...] = DEFAULT_HEURISTICS
    total_tasks: float = DEFAULT_TOTAL_TASKS
    deadline: float = 1.0
    _platform: StarPlatform = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "platform_rows", tuple(tuple(row) for row in self.platform_rows))
        object.__setattr__(self, "heuristics", tuple(self.heuristics))
        if not self.platform_rows:
            raise ScheduleError("a query needs at least one worker")
        object.__setattr__(self, "_platform", _platform_from_rows(self.platform_rows))
        if not self.heuristics:
            raise ScheduleError("a query needs at least one heuristic")
        for name in self.heuristics:
            if name not in HEURISTICS:
                raise ScheduleError(
                    f"unknown heuristic {name!r}; available: {sorted(HEURISTICS)}"
                )
        if not (self.total_tasks > 0 and math.isfinite(self.total_tasks)):
            raise ScheduleError("total_tasks must be positive and finite")
        if not (self.deadline > 0 and math.isfinite(self.deadline)):
            raise ScheduleError("deadline must be positive and finite")

    @classmethod
    def build(
        cls,
        platform: "StarPlatform | Mapping | Query",
        *,
        one_port: bool = True,
        heuristics: Sequence[str] = DEFAULT_HEURISTICS,
        total_tasks: float = DEFAULT_TOTAL_TASKS,
        deadline: float = 1.0,
    ) -> "Query":
        """Normalise any accepted platform form into a :class:`Query`."""
        if isinstance(platform, Query):
            return platform
        if isinstance(platform, StarPlatform):
            rows = _platform_rows(platform)
        elif isinstance(platform, Mapping):
            rows = _platform_mapping_rows(platform)
        else:
            raise ScheduleError(
                "platform must be a StarPlatform or a {name: {c,w,d}} mapping, "
                f"got {type(platform).__name__}"
            )
        return cls(
            platform_rows=rows,
            one_port=bool(one_port),
            heuristics=tuple(heuristics),
            total_tasks=float(total_tasks),
            deadline=float(deadline),
        )

    @property
    def platform(self) -> StarPlatform:
        """The :class:`StarPlatform` of the captured cost table."""
        return self._platform

    def as_dict(self) -> dict:
        """JSON form — the request schema of ``POST /v1/query``."""
        return {
            "platform": {name: {"c": c, "w": w, "d": d} for name, c, w, d in self.platform_rows},
            "one_port": self.one_port,
            "heuristics": list(self.heuristics),
            "total_tasks": self.total_tasks,
            "deadline": self.deadline,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "Query":
        """Parse the request schema (unknown keys and ill-typed values rejected)."""
        if not isinstance(payload, Mapping):
            raise ScheduleError("the request body must be a JSON object")
        unknown = set(payload) - {"platform", "one_port", "heuristics", "total_tasks", "deadline"}
        if unknown:
            raise ScheduleError(f"unknown request fields: {sorted(unknown)}")
        try:
            platform = payload["platform"]
        except KeyError:
            raise ScheduleError("the request needs a 'platform' mapping") from None
        if not isinstance(platform, Mapping):
            raise ScheduleError("'platform' must map worker names to {c,w,d} costs")
        _check_wire_platform(platform)
        one_port = payload.get("one_port", True)
        if not isinstance(one_port, bool):
            raise ScheduleError(
                f"'one_port' must be a JSON boolean, got {type(one_port).__name__}"
            )
        heuristics = payload.get("heuristics", DEFAULT_HEURISTICS)
        if not (
            isinstance(heuristics, (list, tuple))
            and all(isinstance(name, str) for name in heuristics)
        ):
            raise ScheduleError("'heuristics' must be a list of heuristic names")
        total_tasks = payload.get("total_tasks", DEFAULT_TOTAL_TASKS)
        deadline = payload.get("deadline", 1.0)
        for key, value in (("total_tasks", total_tasks), ("deadline", deadline)):
            if type(value) not in _JSON_NUMBER_TYPES:
                raise ScheduleError(f"{key!r} must be a JSON number, got {type(value).__name__}")
        return cls.build(
            platform,
            one_port=one_port,
            heuristics=heuristics,
            total_tasks=total_tasks,
            deadline=deadline,
        )


@dataclass(frozen=True)
class HeuristicAnswer:
    """One heuristic's full schedule, flattened to wire-safe tuples."""

    name: str
    order: tuple[str, ...]
    return_order: tuple[str, ...]
    throughput: float
    loads: tuple[tuple[str, float], ...]
    participants: tuple[str, ...]
    predicted_makespan: float

    @classmethod
    def from_result(cls, result: HeuristicResult, total_tasks: float) -> "HeuristicAnswer":
        schedule = result.schedule
        loads = schedule.loads
        return cls(
            name=result.name,
            order=tuple(schedule.sigma1),
            return_order=tuple(schedule.sigma2),
            throughput=result.throughput,
            loads=tuple((name, loads[name]) for name in schedule.sigma1),
            participants=tuple(schedule.participants),
            predicted_makespan=makespan_for_load(result.throughput, total_tasks),
        )

    @property
    def loads_dict(self) -> dict[str, float]:
        return dict(self.loads)

    def schedule(self, platform: StarPlatform, deadline: float = 1.0) -> Schedule:
        """Rebuild the full :class:`Schedule` object on ``platform``."""
        return Schedule(
            platform,
            loads=self.loads_dict,
            sigma1=self.order,
            sigma2=self.return_order,
            deadline=deadline,
        )

    def as_dict(self) -> dict:
        return {
            "order": list(self.order),
            "return_order": list(self.return_order),
            "throughput": self.throughput,
            "loads": {name: load for name, load in self.loads},
            "participants": list(self.participants),
            "predicted_makespan": self.predicted_makespan,
        }

    @classmethod
    def from_dict(cls, name: str, payload: Mapping) -> "HeuristicAnswer":
        order = tuple(payload["order"])
        loads = payload["loads"]
        return cls(
            name=name,
            order=order,
            return_order=tuple(payload["return_order"]),
            throughput=float(payload["throughput"]),
            loads=tuple((worker, float(loads[worker])) for worker in order),
            participants=tuple(payload["participants"]),
            predicted_makespan=float(payload["predicted_makespan"]),
        )


@dataclass(frozen=True)
class Answer:
    """The service's reply: best heuristic + per-heuristic comparison.

    ``cached`` is transport metadata (was this answer served from the
    cache?) and is excluded from equality — a cache hit *is* the original
    answer.
    """

    key: str
    one_port: bool
    heuristics: tuple[str, ...]
    total_tasks: float
    deadline: float
    platform_rows: tuple[tuple[str, float, float, float], ...]
    best: str
    results: tuple[HeuristicAnswer, ...]
    cached: bool = field(default=False, compare=False)

    @property
    def best_result(self) -> HeuristicAnswer:
        return self.result(self.best)

    @property
    def predicted_makespan(self) -> float:
        """Predicted completion time of ``total_tasks`` under the best schedule."""
        return self.best_result.predicted_makespan

    @property
    def throughput(self) -> float:
        return self.best_result.throughput

    @property
    def platform(self) -> StarPlatform:
        return _platform_from_rows(self.platform_rows)

    def result(self, name: str) -> HeuristicAnswer:
        for entry in self.results:
            if entry.name == name:
                return entry
        raise ScheduleError(f"answer holds no heuristic {name!r}; has {self.heuristics}")

    def schedule(self, platform: StarPlatform | None = None) -> Schedule:
        """The best heuristic's full schedule (rebuilt from the answer)."""
        return self.best_result.schedule(
            platform if platform is not None else self.platform, deadline=self.deadline
        )

    def as_dict(self) -> dict:
        """JSON form — the response schema of ``POST /v1/query``."""
        return {
            "key": self.key,
            "cached": self.cached,
            "one_port": self.one_port,
            "heuristics": list(self.heuristics),
            "total_tasks": self.total_tasks,
            "deadline": self.deadline,
            "platform": {name: {"c": c, "w": w, "d": d} for name, c, w, d in self.platform_rows},
            "best": self.best,
            "predicted_makespan": self.predicted_makespan,
            "results": {entry.name: entry.as_dict() for entry in self.results},
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "Answer":
        heuristics = tuple(payload["heuristics"])
        results = payload["results"]
        return cls(
            key=str(payload["key"]),
            one_port=bool(payload["one_port"]),
            heuristics=heuristics,
            total_tasks=float(payload["total_tasks"]),
            deadline=float(payload["deadline"]),
            platform_rows=_platform_mapping_rows(payload["platform"]),
            best=str(payload["best"]),
            results=tuple(
                HeuristicAnswer.from_dict(name, results[name]) for name in heuristics
            ),
            cached=bool(payload.get("cached", False)),
        )
