"""Tests of the two-port merge-ordered analytic replay.

:mod:`repro.simulation.fast_twoport` must reproduce the discrete-event
engine *bit for bit* — makespans, per-worker records, trace bars and noise
draws — under every noise model, including the default campaign noise whose
draw order couples the send/compute stream with the return stream through
the realised event times.  The batched lockstep replay is pinned run by run
against the engine, shared noise streams and exact ties included.  Every
replay input is laid out by
:func:`~repro.simulation.fast_cluster.prepare_measurement_arrays`, as the
two-port campaigns lay out their cells.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import platforms
from repro.core.platform import StarPlatform, Worker
from repro.experiments.common import default_noise
from repro.simulation.cluster import ClusterSimulation, replayed_run
from repro.simulation.fast_cluster import operation_workers, prepare_measurement_arrays
from repro.simulation.fast_twoport import run_fast_twoport
from repro.simulation.noise import (
    AffineOverhead,
    ComposedNoise,
    GaussianJitter,
    NoJitter,
    UniformJitter,
)

_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _layout(platform, loads, sigma1, sigma2):
    """One run's replay input, from a one-row ``prepare_measurement_arrays``
    call: ``(durations, sigma2_positions, participants, workers)``.

    Zero-load workers are dropped, as the campaigns drop them.
    """
    costs = [[[getattr(platform[name], cost) for name in sigma1]] for cost in "cwd"]
    counts = [[float(loads[name]) for name in sigma1]]
    collect = [[list(sigma1).index(name) for name in sigma2]]
    ((p, group),) = prepare_measurement_arrays(costs, counts, collect).items()
    senders = [sigma1[j] for j in group.senders[0].tolist()]
    positions = group.sigma2_positions[0]
    return group.durations[0], positions, (p,), operation_workers(senders, positions.tolist())


def _occurrence(noise, layouts):
    """Runs drawing from one noise stream, concatenated as in a campaign cell."""
    durations, positions, participants, workers = zip(*layouts)
    return (
        noise, np.concatenate(durations), np.concatenate(positions),
        sum(participants, ()), sum(workers, ()),
    )


def _replay_one(platform, loads, sigma1, sigma2, noise, collect_trace=True):
    """One two-port run through the lockstep replay, as a ``ClusterRun``.

    ``sigma1``/``sigma2`` hold the workers with a positive load only.
    """
    if not sigma1:
        return replayed_run(loads, (), (), {}, {}, {}, {}, one_port=False)
    times = run_fast_twoport([_occurrence(noise, [_layout(platform, loads, sigma1, sigma2)])])
    send_end, compute_end = (dict(zip(sigma1, row[0].tolist())) for row in times[:2])
    return_start, return_end = (dict(zip(sigma2, row[0].tolist())) for row in times[2:4])
    return replayed_run(
        loads, sigma1, sigma2, send_end, compute_end, return_start, return_end,
        one_port=False, collect_trace=collect_trace,
    )


def _assert_same_run(fast, event):
    assert fast.makespan == event.makespan
    assert not fast.one_port
    assert set(fast.records) == set(event.records)
    for name, expected in event.records.items():
        assert fast.records[name].as_dict() == expected.as_dict()
    def key(e):
        return (e.resource, e.kind, e.start, e.end, e.load, e.note)
    assert sorted(map(key, fast.trace)) == sorted(map(key, event.trace))


class TestTwoPortReplay:
    @_SETTINGS
    @given(
        platforms(min_size=1, max_size=5, z=None),
        st.integers(min_value=0, max_value=2**31 - 1),
        st.sampled_from(["none", "uniform", "gaussian", "default", "composed"]),
    )
    def test_bit_identical_to_event_engine(self, platform, seed, noise_kind):
        """Same makespan, records, bars and draws as the discrete-event run."""

        def noise():
            if noise_kind == "none":
                return NoJitter()
            if noise_kind == "uniform":
                return UniformJitter(amplitude=0.05, comm_amplitude=0.2, seed=seed)
            if noise_kind == "gaussian":
                return GaussianJitter(sigma=0.1, seed=seed)
            if noise_kind == "default":
                return default_noise(seed)
            return ComposedNoise(
                UniformJitter(amplitude=0.04, comm_amplitude=0.15, seed=seed),
                AffineOverhead(comm_latency=0.01, compute_latency=0.002),
            )

        rng = np.random.default_rng(seed)
        loads = {name: float(rng.uniform(0.0, 4.0)) for name in platform.worker_names}
        sigma1 = list(rng.permutation(platform.worker_names))
        sigma2 = list(rng.permutation(platform.worker_names))

        fast = _replay_one(
            platform,
            loads,
            [name for name in sigma1 if loads[name] > 0],
            [name for name in sigma2 if loads[name] > 0],
            noise(),
        )
        event = ClusterSimulation(
            platform, noise=noise(), one_port=False, engine="event"
        ).run_assignment(loads, sigma1, sigma2)
        _assert_same_run(fast, event)

    def test_auto_engine_runs_lone_runs_on_event_engine(self, three_workers, monkeypatch):
        """A batch of one is slower than the engine, so a single two-port
        run never takes the lockstep replay under the default engine."""
        from repro.simulation import fast_twoport

        loads = {name: 1.0 for name in three_workers.worker_names}
        names = three_workers.worker_names
        replayed = _replay_one(three_workers, loads, names, names, default_noise(5))

        def forbidden(*args, **kwargs):
            raise AssertionError("lockstep replay used")

        monkeypatch.setattr(fast_twoport, "run_fast_twoport", forbidden)
        run = ClusterSimulation(
            three_workers, noise=default_noise(5), one_port=False, engine="auto"
        ).run_assignment(loads, names, names)
        _assert_same_run(replayed, run)

    def test_empty_assignment(self, three_workers):
        run = _replay_one(three_workers, {}, [], [], NoJitter())
        assert run.makespan == 0.0
        assert run.records == {}

    def test_collect_trace_false_skips_gantt_only(self, three_workers):
        loads = {name: 1.0 for name in three_workers.worker_names}
        names = three_workers.worker_names
        with_trace = _replay_one(three_workers, loads, names, names, NoJitter())
        without = _replay_one(
            three_workers, loads, names, names, NoJitter(), collect_trace=False
        )
        assert without.makespan == with_trace.makespan
        assert len(list(without.trace)) == 0
        assert len(list(with_trace.trace)) > 0

    def test_returns_interleave_with_pending_sends(self):
        """The two-port master collects early results during later sends.

        On a platform whose first worker computes instantly-ish and whose
        last send is long, the first return must start before the last
        send ends — the regime the merge-ordered draw replay exists for.
        """
        from repro.core.platform import StarPlatform, Worker

        platform = StarPlatform(
            [
                Worker(name="fast", c=0.1, w=0.1, d=0.1),
                Worker(name="slow", c=10.0, w=1.0, d=1.0),
            ],
            name="interleaved",
        )
        loads = {"fast": 1.0, "slow": 1.0}
        run = _replay_one(platform, loads, ["fast", "slow"], ["fast", "slow"], NoJitter())
        assert run.records["fast"].return_end < run.records["slow"].send_end
        event = ClusterSimulation(
            platform, one_port=False, engine="event"
        ).run_assignment(loads, ["fast", "slow"], ["fast", "slow"])
        _assert_same_run(run, event)


class _PerturbOnly:
    """A user model with only ``perturb``: the replay draws it live."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def perturb(self, duration, kind, worker):
        return duration * (1.0 + 0.2 * self.rng.random())


class _Recorder:
    """Records each draw's ``(kind, worker)``; every ``zero_every``-th
    operation takes no time, others keep their duration."""

    def __init__(self, zero_every=0):
        self.draws = []
        self.zero_every = zero_every

    def perturb(self, duration, kind, worker):
        self.draws.append((kind, worker))
        if self.zero_every and len(self.draws) % self.zero_every == 0:
            return 0.0
        return duration


_NOISES = {
    "none": lambda seed: NoJitter(),
    "uniform": lambda seed: UniformJitter(amplitude=0.05, comm_amplitude=0.2, seed=seed),
    "gaussian": lambda seed: GaussianJitter(sigma=0.1, seed=seed),
    "default": default_noise,
    "composed": lambda seed: ComposedNoise(
        UniformJitter(amplitude=0.04, comm_amplitude=0.15, seed=seed),
        AffineOverhead(comm_latency=0.01, compute_latency=0.002),
    ),
    "two-stateful": lambda seed: ComposedNoise(
        UniformJitter(amplitude=0.05, seed=seed), GaussianJitter(sigma=0.05, seed=seed + 1)
    ),
    "perturb-only": _PerturbOnly,
}


class TestBatchedReplay:
    @_SETTINGS
    @given(st.data(), st.integers(0, 2**31 - 1))
    def test_batch_matches_event_engine_run_by_run(self, data, seed):
        """Several occurrences in one call, each concatenating two runs that
        share its stream; the occurrences' noise kinds (and so replay
        passes) may differ."""
        rng = np.random.default_rng(seed)
        occurrences, expected = [], []
        for number in range(data.draw(st.integers(min_value=2, max_value=4))):
            noise_kind = data.draw(st.sampled_from(sorted(_NOISES)))
            platform = data.draw(platforms(min_size=1, max_size=8, z=None))
            names = platform.worker_names
            slots = []
            for _ in range(2):
                loads = {name: float(rng.uniform(0.0, 4.0)) for name in names}
                loads[names[int(rng.integers(len(names)))]] = 1.0  # at least one worker
                slots.append((loads, list(rng.permutation(names)), list(rng.permutation(names))))
            reference = ClusterSimulation(
                platform, noise=_NOISES[noise_kind](seed + number), one_port=False, engine="event"
            )
            expected.extend(reference.run_assignment(*slot).makespan for slot in slots)
            layouts = [_layout(platform, *slot) for slot in slots]
            occurrences.append(_occurrence(_NOISES[noise_kind](seed + number), layouts))
        assert run_fast_twoport(occurrences).makespans.tolist() == expected

    @pytest.mark.parametrize("q", range(1, 7))
    @pytest.mark.parametrize("collect", ["fifo", "reversed", "shuffled"])
    @pytest.mark.parametrize("zero_every", [0, 3])
    def test_tie_order_matches_event_engine(self, q, collect, zero_every):
        """With c = w = d and integer loads, results become ready exactly
        when sends end; the draws must follow the engine's tie-breaks."""
        rng = np.random.default_rng(q)
        costs = rng.integers(1, 3, q).tolist()
        platform = StarPlatform(
            [Worker(name=f"P{k}", c=cost, w=cost, d=cost) for k, cost in enumerate(costs)]
        )
        loads = {name: float(rng.integers(1, 4)) for name in platform.worker_names}
        sigma1 = list(platform.worker_names)
        sigma2 = {
            "fifo": sigma1,
            "reversed": sigma1[::-1],
            "shuffled": [str(name) for name in rng.permutation(sigma1)],
        }[collect]
        batched, event = _Recorder(zero_every), _Recorder(zero_every)
        times = run_fast_twoport(
            [_occurrence(batched, [_layout(platform, loads, sigma1, sigma2)])]
        )
        reference = ClusterSimulation(
            platform, noise=event, one_port=False, engine="event"
        ).run_assignment(loads, sigma1, sigma2)
        assert batched.draws == event.draws
        assert times.makespans[0] == reference.makespan
