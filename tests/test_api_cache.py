"""Cache-keying tests for the query service (:mod:`repro.api.cache`).

Satellite 4 of ISSUE 10: the content-addressed key must canonicalise
numerics (``1`` and ``1.0`` are the same platform), must separate the
one-port and two-port twins of a scenario, must be immune to mutation of
the caller's cost structures after caching, and the disk tier must
survive a process restart without re-solving.
"""

from __future__ import annotations

import json

import numpy as np

from repro.api import AnswerCache, Query, QueryService, query_key
from repro.api.cache import KEY_LENGTH
from repro.core.platform import StarPlatform, Worker
from repro.workloads.matrices import MatrixProductWorkload
from repro.workloads.platforms import participation_platform

COSTS = {
    "P1": {"c": 1.0, "w": 3.0, "d": 2.0},
    "P2": {"c": 2.0, "w": 5.0, "d": 1.0},
}


def _platform():
    return participation_platform(3.0, MatrixProductWorkload(400))


class TestNumericCanonicalisation:
    def test_int_and_float_literals_hash_equal(self):
        as_ints = {"P1": {"c": 1, "w": 3, "d": 2}, "P2": {"c": 2, "w": 5, "d": 1}}
        assert query_key(Query.build(as_ints)) == query_key(Query.build(COSTS))
        # Python callers may pass NumPy scalars (only the wire form is strict).
        as_numpy = {
            "P1": {"c": np.int64(1), "w": np.float32(3), "d": np.float64(2)},
            "P2": {"c": np.float32(2), "w": np.int32(5), "d": np.float64(1)},
        }
        assert query_key(Query.build(as_numpy, total_tasks=np.int64(1000))) == query_key(
            Query.build(COSTS)
        )

    def test_mapping_and_object_platform_hash_equal(self):
        platform = StarPlatform(
            [Worker("P1", c=1.0, w=3.0, d=2.0), Worker("P2", c=2.0, w=5.0, d=1.0)]
        )
        assert query_key(Query.build(platform)) == query_key(Query.build(COSTS))

    def test_int_total_tasks_hashes_like_float(self):
        assert query_key(Query.build(COSTS, total_tasks=500)) == query_key(
            Query.build(COSTS, total_tasks=500.0)
        )

    def test_key_length_and_charset(self):
        key = query_key(Query.build(COSTS))
        assert len(key) == KEY_LENGTH
        assert set(key) <= set("0123456789abcdef")


class TestKeySeparation:
    def test_port_model_twins_keyed_apart(self):
        one = Query.build(COSTS, one_port=True)
        two = Query.build(COSTS, one_port=False)
        assert query_key(one) != query_key(two)

    def test_cost_perturbation_changes_key(self):
        perturbed = json.loads(json.dumps(COSTS))
        perturbed["P2"]["d"] = 1.0000000001
        assert query_key(Query.build(perturbed)) != query_key(Query.build(COSTS))

    def test_heuristic_set_and_deadline_change_key(self):
        base = Query.build(COSTS)
        assert query_key(Query.build(COSTS, heuristics=("OPT_FIFO",))) != query_key(base)
        assert query_key(Query.build(COSTS, deadline=2.0)) != query_key(base)

    def test_worker_name_is_part_of_the_key(self):
        renamed = {"Q1": COSTS["P1"], "P2": COSTS["P2"]}
        assert query_key(Query.build(renamed)) != query_key(Query.build(COSTS))


class TestMutationSafety:
    def test_mutating_source_mapping_after_caching_cannot_poison(self):
        service = QueryService()
        costs = {name: dict(entry) for name, entry in COSTS.items()}
        first = service.query(costs)
        # The caller mutates its cost table in place. The Query captured
        # the rows at build time, so the cached entry must stay keyed to
        # the original costs and the new costs must be a cache miss.
        costs["P2"]["w"] = 50.0
        second = service.query(costs)
        assert not second.cached
        assert second.key != first.key
        assert second.result("OPT_FIFO").throughput != first.result("OPT_FIFO").throughput
        # And the original is still served unpoisoned.
        third = service.query(COSTS)
        assert third.cached
        assert third == first

    def test_query_is_deeply_immutable(self):
        query = Query.build(COSTS)
        assert isinstance(query.platform_rows, tuple)
        assert all(isinstance(row, tuple) for row in query.platform_rows)
        assert isinstance(query.heuristics, tuple)


class TestDiskCache:
    def test_survives_process_restart(self, tmp_path):
        platform = _platform()
        first = QueryService(cache_dir=tmp_path / "answers")
        cold = first.query(platform)
        assert first.stats()["solved"] == 1

        # A fresh service over the same directory models a new process.
        second = QueryService(cache_dir=tmp_path / "answers")
        warm = second.query(platform)
        assert warm.cached
        assert warm == cold
        assert second.stats()["solved"] == 0

    def test_disk_round_trip_is_bit_exact(self, tmp_path):
        platform = _platform()
        service = QueryService(cache_dir=tmp_path / "answers")
        cold = service.query(platform, one_port=False)
        reloaded = AnswerCache(directory=tmp_path / "answers").get(cold.key)
        assert reloaded == cold
        for name in cold.heuristics:
            assert reloaded.result(name).throughput == cold.result(name).throughput
            assert reloaded.result(name).loads_dict == cold.result(name).loads_dict

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        platform = _platform()
        directory = tmp_path / "answers"
        service = QueryService(cache_dir=directory)
        cold = service.query(platform)
        path = next(directory.glob("*.json"))
        path.write_text("{not json", encoding="utf-8")
        fresh = QueryService(cache_dir=directory)
        again = fresh.query(platform)
        assert not again.cached  # miss, silently re-solved
        assert again == cold

    def test_memory_eviction_falls_through_to_disk(self, tmp_path):
        service = QueryService(cache_dir=tmp_path / "answers", cache_size=1)
        cache = service.cache
        a = service.query(_platform())
        service.query(participation_platform(1.0, MatrixProductWorkload(400)))
        assert len(cache) == 1  # first answer evicted from memory
        hot = service.query(_platform())  # served from disk
        assert hot.cached
        assert hot == a

    def test_memory_only_without_directory(self):
        service = QueryService()
        service.query(_platform())
        assert service.cache.directory is None
