"""Shared fixtures and hypothesis strategies for the test-suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.core.platform import StarPlatform, Worker, bus_platform, homogeneous_platform
from repro.workloads.platforms import PlatformFactors, campaign_factors
from repro.workloads.sampling import sample_factors


# --------------------------------------------------------------------------- #
# deterministic example platforms
# --------------------------------------------------------------------------- #
@pytest.fixture
def three_workers() -> StarPlatform:
    """A small fully heterogeneous platform with z = 1/2."""
    return StarPlatform(
        [
            Worker("P1", c=1.0, w=5.0, d=0.5),
            Worker("P2", c=2.0, w=3.0, d=1.0),
            Worker("P3", c=1.5, w=4.0, d=0.75),
        ],
        name="three",
    )


@pytest.fixture
def four_workers() -> StarPlatform:
    """A slightly larger heterogeneous platform with z = 1/2."""
    return StarPlatform(
        [
            Worker("A", c=0.8, w=6.0, d=0.4),
            Worker("B", c=1.6, w=2.5, d=0.8),
            Worker("C", c=1.1, w=4.0, d=0.55),
            Worker("D", c=2.4, w=1.5, d=1.2),
        ],
        name="four",
    )


@pytest.fixture
def bus_three() -> StarPlatform:
    """A three-worker bus platform (c=1, d=0.5)."""
    return bus_platform([5.0, 3.0, 4.0], c=1.0, d=0.5, name="bus-three")


@pytest.fixture
def homogeneous_five() -> StarPlatform:
    """A five-worker fully homogeneous platform."""
    return homogeneous_platform(5, c=1.0, w=4.0, d=0.5, name="homog-five")


@pytest.fixture
def z_greater_one() -> StarPlatform:
    """A platform whose return messages are larger than the initial ones (z=2)."""
    return StarPlatform(
        [
            Worker("P1", c=1.0, w=5.0, d=2.0),
            Worker("P2", c=2.0, w=3.0, d=4.0),
            Worker("P3", c=1.5, w=4.0, d=3.0),
        ],
        name="z2",
    )


@pytest.fixture
def rng() -> np.random.Generator:
    """A seeded numpy generator for deterministic randomised tests."""
    return np.random.default_rng(20060501)


def reference_factors(spec, campaign_kind, scale_kwargs):
    """The scalar reference path's factor sets for a campaign parity test.

    Paper campaigns come from the sequential ``campaign_factors`` draws;
    ``campaign_kind=None`` takes the rows of the vectorised sampler.
    """
    if campaign_kind is None:
        table = sample_factors(spec.family)
        return [
            PlatformFactors(comm=tuple(comm), comp=tuple(comp))
            for comm, comp in zip(table.comm.tolist(), table.comp.tolist())
        ]
    return [
        factor_set.scaled(**scale_kwargs) if scale_kwargs else factor_set
        for factor_set in campaign_factors(
            campaign_kind, spec.family.count,
            size=spec.family.workers, seed=spec.family.seed,
        )
    ]


# --------------------------------------------------------------------------- #
# hypothesis strategies
# --------------------------------------------------------------------------- #
def worker_costs(min_value: float = 0.05, max_value: float = 20.0) -> st.SearchStrategy[float]:
    """Positive, finite, well-scaled cost values."""
    return st.floats(
        min_value=min_value, max_value=max_value, allow_nan=False, allow_infinity=False
    )


@st.composite
def platforms(
    draw: st.DrawFn,
    min_size: int = 1,
    max_size: int = 5,
    z: float | None = 0.5,
) -> StarPlatform:
    """Random star platforms; when ``z`` is given, ``d = z * c`` for every worker."""
    size = draw(st.integers(min_value=min_size, max_value=max_size))
    workers = []
    for index in range(size):
        c = draw(worker_costs())
        w = draw(worker_costs())
        if z is None:
            d = draw(worker_costs())
        else:
            d = z * c
        workers.append(Worker(name=f"P{index + 1}", c=c, w=w, d=d))
    return StarPlatform(workers, name="hypothesis")


@st.composite
def bus_platforms(
    draw: st.DrawFn, min_size: int = 1, max_size: int = 6
) -> StarPlatform:
    """Random bus platforms (shared c and d, heterogeneous w)."""
    size = draw(st.integers(min_value=min_size, max_value=max_size))
    c = draw(worker_costs())
    d = draw(worker_costs())
    compute = [draw(worker_costs()) for _ in range(size)]
    return bus_platform(compute, c=c, d=d, name="hypothesis-bus")
