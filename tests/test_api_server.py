"""HTTP-tier tests for the query service (:mod:`repro.api.server`).

Run a real ``QueryHTTPServer`` on a loopback port and talk to it with
``urllib`` — the acceptance bar is bit-identity *through the wire*: the
JSON body of ``POST /v1/query`` must decode to floats equal to the
scalar reference path, both port models.  Also pinned: concurrent mixed
queries, error statuses (400 for the client's faults, 500 for the
server's, 499 for a client that hung up), keep-alive latency, one cache
key per request, the graceful drain, and request telemetry.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import socket
import statistics
import struct
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.api.service
from repro.api import DEFAULT_HEURISTICS, Query, QueryService
from repro.api.server import make_server, run_server
from repro.core.fifo import optimal_fifo_schedule
from repro.core.heuristics import compare_heuristics
from repro.core.twoport import optimal_two_port_fifo_schedule
from repro.exceptions import SolverError
from repro.obs import Telemetry, activate
from repro.workloads.matrices import MatrixProductWorkload
from repro.workloads.platforms import participation_platform

COSTS = {"P1": {"c": 1, "w": 3, "d": 2}, "P2": {"c": 2, "w": 5, "d": 1}}


@contextlib.contextmanager
def _serving(service):
    """A live server on a free loopback port; drained and closed on exit."""
    instance = make_server(service)
    thread = threading.Thread(target=instance.serve_forever, kwargs={"poll_interval": 0.05})
    thread.start()
    try:
        yield instance
    finally:
        instance.shutdown()
        thread.join()
        instance.server_close()


@pytest.fixture()
def server():
    with _serving(QueryService(window=0.002)) as instance:
        yield instance


def _url(server, path):
    host, port = server.server_address[:2]
    return f"http://{host}:{port}{path}"


def _post(server, path, payload):
    request = urllib.request.Request(
        _url(server, path),
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, json.loads(response.read())


def _get(server, path):
    with urllib.request.urlopen(_url(server, path), timeout=10) as response:
        return response.status, json.loads(response.read())


def _platform(x=3.0):
    return participation_platform(x, MatrixProductWorkload(400))


class TestEndpoints:
    def test_query_bit_identical_to_scalar_reference(self, server):
        platform = _platform()
        status, body = _post(server, "/v1/query", Query.build(platform).as_dict())
        assert status == 200
        reference = optimal_fifo_schedule(platform)
        opt = body["results"]["OPT_FIFO"]
        assert opt["throughput"] == reference.throughput
        assert opt["loads"] == reference.loads
        comparison = compare_heuristics(platform, DEFAULT_HEURISTICS)
        assert body["best"] == max(comparison, key=lambda name: comparison[name].throughput)
        for name, result in comparison.items():
            assert body["results"][name]["throughput"] == result.throughput
            assert body["results"][name]["loads"] == result.loads

    def test_two_port_query_over_the_wire(self, server):
        platform = _platform()
        payload = Query.build(platform, one_port=False).as_dict()
        status, body = _post(server, "/v1/query", payload)
        assert status == 200
        assert not body["one_port"]
        reference = optimal_two_port_fifo_schedule(platform)
        assert body["results"]["OPT_FIFO"]["throughput"] == reference.throughput
        assert body["results"]["OPT_FIFO"]["loads"] == reference.loads

    def test_batch_mixed_port_models(self, server):
        platform = _platform()
        queries = [
            Query.build(platform).as_dict(),
            Query.build(platform, one_port=False).as_dict(),
            Query.build(platform).as_dict(),  # duplicate: served from cache
        ]
        status, body = _post(server, "/v1/query/batch", {"queries": queries})
        assert status == 200
        answers = body["answers"]
        assert len(answers) == 3
        assert answers[0]["results"] == answers[2]["results"]
        assert answers[0]["one_port"] and not answers[1]["one_port"]

    def test_repeat_query_is_a_cache_hit(self, server):
        payload = Query.build(_platform()).as_dict()
        _, cold = _post(server, "/v1/query", payload)
        _, warm = _post(server, "/v1/query", payload)
        assert not cold["cached"]
        assert warm["cached"]
        assert warm["results"] == cold["results"]
        assert warm["key"] == cold["key"]

    def test_healthz(self, server):
        _post(server, "/v1/query", Query.build(_platform()).as_dict())
        status, body = _get(server, "/v1/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["queries"] == 1
        assert body["uptime_seconds"] >= 0


class TestErrorStatuses:
    def _status_of(self, call):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            call()
        return excinfo.value.code, json.loads(excinfo.value.read())

    def test_invalid_json_is_400(self, server):
        request = urllib.request.Request(
            _url(server, "/v1/query"), data=b"{not json", method="POST"
        )
        code, body = self._status_of(lambda: urllib.request.urlopen(request, timeout=10))
        assert code == 400
        assert "invalid JSON" in body["error"]

    def test_schema_violation_is_400(self, server):
        cases = [
            ({"bogus": 1}, "unknown request fields"),
            # JSON types are strict: "false" is not false, "5" is not 5.
            ({"platform": COSTS, "one_port": "false"}, "'one_port' must be a JSON boolean"),
            ({"platform": COSTS, "one_port": 0}, "'one_port' must be a JSON boolean"),
            ({"platform": COSTS, "total_tasks": "5"}, "'total_tasks' must be a JSON number"),
            ({"platform": COSTS, "deadline": True}, "'deadline' must be a JSON number"),
            ({"platform": COSTS, "deadline": float("inf")}, "deadline must be positive and finite"),
            ({"platform": COSTS, "heuristics": [["LIFO"]]}, "'heuristics' must be a list"),
        ]
        for payload, message in cases:
            code, body = self._status_of(lambda: _post(server, "/v1/query", payload))
            assert code == 400, payload
            assert message in body["error"], payload

    def test_bad_costs_are_400(self, server):
        cases = [
            ({"c": "fast", "w": 1, "d": 1}, "numeric"),
            ({"c": "1", "w": 1, "d": 1}, "'c' is str"),
            ({"c": 1, "w": True, "d": 1}, "'w' is bool"),
            ({"c": 1, "w": 1, "d": None}, "'d' is NoneType"),
            ({"c": float("nan"), "w": 1, "d": 1}, "worker 'P1': c must be finite"),
            ({"c": 1, "w": 0, "d": 1}, "worker 'P1': w must be positive"),
            ({"c": 1, "w": 1, "d": -1.5}, "worker 'P1': d must be positive"),
        ]
        for costs, message in cases:
            payload = {"platform": {"P1": costs}}
            code, body = self._status_of(lambda: _post(server, "/v1/query", payload))
            assert code == 400, costs
            assert message in body["error"], costs

    def test_solver_error_is_500(self, monkeypatch, tmp_path, caplog):
        def failing_solve(*args, **kwargs):
            raise SolverError("unbounded direction")

        monkeypatch.setattr(repro.api.service, "solve_scenarios", failing_solve)
        telemetry = Telemetry(tmp_path / "telemetry", owner="test", mode="on")
        with activate(telemetry), _serving(QueryService()) as instance:
            code, body = self._status_of(
                lambda: _post(instance, "/v1/query", Query.build(COSTS).as_dict())
            )
        telemetry.close()
        assert code == 500
        assert body == {"error": "internal error"}
        assert "http.internal" in caplog.text
        counters = telemetry.metrics.snapshot()["counters"]
        assert counters["api.http.500"] == 1
        assert "api.http.400" not in counters

    def test_unknown_path_is_404(self, server):
        code, body = self._status_of(lambda: _get(server, "/v1/nope"))
        assert code == 404
        assert "unknown path" in body["error"]

    def test_empty_body_is_400(self, server):
        request = urllib.request.Request(_url(server, "/v1/query"), data=b"", method="POST")
        code, body = self._status_of(lambda: urllib.request.urlopen(request, timeout=10))
        assert code == 400
        assert "JSON body" in body["error"]

    def test_malformed_batch_is_400(self, server):
        code, body = self._status_of(
            lambda: _post(server, "/v1/query/batch", {"queries": "nope"})
        )
        assert code == 400
        assert "list" in body["error"]


class TestConcurrency:
    def test_concurrent_mixed_queries_bit_identical(self, server):
        platforms = [_platform(x) for x in (0.5, 1.0, 2.0, 3.0, 6.0)]
        payloads = [Query.build(p).as_dict() for p in platforms]
        payloads += [Query.build(p, one_port=False).as_dict() for p in platforms]

        with ThreadPoolExecutor(max_workers=8) as pool:
            bodies = list(pool.map(lambda pl: _post(server, "/v1/query", pl)[1], payloads))

        for platform, body in zip(platforms, bodies[: len(platforms)]):
            reference = optimal_fifo_schedule(platform)
            assert body["results"]["OPT_FIFO"]["throughput"] == reference.throughput
            assert body["results"]["OPT_FIFO"]["loads"] == reference.loads
        for platform, body in zip(platforms, bodies[len(platforms):]):
            reference = optimal_two_port_fifo_schedule(platform)
            assert body["results"]["OPT_FIFO"]["throughput"] == reference.throughput
            assert body["results"]["OPT_FIFO"]["loads"] == reference.loads

    def test_bad_query_does_not_fail_its_batch_mates(self):
        # Both requests land in one funnel window; the bad one must be
        # turned away before it can poison the shared kernel call.
        platform = _platform()
        good = Query.build(platform).as_dict()
        bad = {"platform": {"P1": {"c": float("nan"), "w": 1, "d": 1}}}
        barrier = threading.Barrier(2)

        def ask(payload):
            barrier.wait()
            try:
                return _post(instance, "/v1/query", payload)
            except urllib.error.HTTPError as error:
                return error.code, json.loads(error.read())

        with _serving(QueryService(window=0.3, max_batch=2)) as instance:
            with ThreadPoolExecutor(max_workers=2) as pool:
                (good_code, good_body), (bad_code, bad_body) = pool.map(ask, [good, bad])
        assert bad_code == 400
        assert "worker 'P1': c must be finite" in bad_body["error"]
        assert good_code == 200
        for name, result in compare_heuristics(platform, DEFAULT_HEURISTICS).items():
            assert good_body["results"][name]["throughput"] == result.throughput
            assert good_body["results"][name]["loads"] == result.loads


def _keep_alive(server) -> http.client.HTTPConnection:
    """One persistent connection that sends each request in one segment."""
    host, port = server.server_address[:2]
    connection = http.client.HTTPConnection(host, port, timeout=10)
    connection.connect()
    connection.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return connection


class TestKeepAlive:
    def test_sequential_queries_do_not_wait_for_delayed_acks(self, server):
        # A response written in two sends stalls ~40 ms per request on a
        # keep-alive connection (Nagle vs. the client's delayed ACK).
        body = json.dumps(Query.build(_platform()).as_dict()).encode()
        connection = _keep_alive(server)
        round_trips = []
        try:
            for _ in range(20):
                began = time.perf_counter()
                connection.request("POST", "/v1/query", body=body,
                                   headers={"Content-Type": "application/json"})
                response = connection.getresponse()
                response.read()
                round_trips.append(time.perf_counter() - began)
                assert response.status == 200
        finally:
            connection.close()
        assert statistics.median(round_trips) < 0.020

    def test_client_hang_up_is_499_without_traceback(self, tmp_path, capsys):
        service = QueryService()
        entered, release = threading.Event(), threading.Event()
        query = service.query

        def held_query(request):
            entered.set()
            release.wait(10)
            return query(request)

        service.query = held_query
        telemetry = Telemetry(tmp_path / "telemetry", owner="test", mode="on")
        body = json.dumps(Query.build(COSTS).as_dict()).encode()
        with activate(telemetry), _serving(service) as instance:
            client = socket.create_connection(instance.server_address[:2], timeout=10)
            client.sendall(
                b"POST /v1/query HTTP/1.1\r\nHost: test\r\n"
                b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
            )
            assert entered.wait(10)
            # Hang up abortively while the server is still working.
            client.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            client.close()
            release.set()
        telemetry.close()
        counters = telemetry.metrics.snapshot()["counters"]
        assert counters["api.http.499"] == 1
        assert "Traceback" not in capsys.readouterr().err


class TestOneKeyPerRequest:
    @pytest.fixture()
    def key_calls(self, monkeypatch):
        calls = []
        key = repro.api.service.query_key

        def counting_key(query):
            calls.append(query)
            return key(query)

        monkeypatch.setattr(repro.api.service, "query_key", counting_key)
        return calls

    def test_query_hashes_once_per_call(self, key_calls):
        service = QueryService()
        service.query(COSTS)  # miss: solved through the funnel
        assert len(key_calls) == 1
        assert service.query(COSTS).cached
        assert len(key_calls) == 2

    def test_query_batch_hashes_once_per_query(self, key_calls):
        service = QueryService()
        service.query_batch([COSTS, Query.build(COSTS, one_port=False), COSTS])
        assert len(key_calls) == 3
        answers = service.query_batch([COSTS, Query.build(COSTS, total_tasks=5.0)])
        assert answers[0].cached and not answers[1].cached
        assert len(key_calls) == 5


class TestDrain:
    def test_run_server_stop_event_drains_and_returns_zero(self, capsys):
        service = QueryService()
        stop = threading.Event()
        codes = []
        runner = threading.Thread(
            target=lambda: codes.append(
                run_server("127.0.0.1", 0, service=service, stop=stop)
            )
        )
        runner.start()
        try:
            # Scrape the printed port (what the CI smoke does with a pipe).
            for _ in range(200):
                printed = capsys.readouterr().out
                if "serving on http://" in printed:
                    break
                threading.Event().wait(0.01)
            port = int(printed.split("http://127.0.0.1:")[1].split(" ")[0])
            payload = Query.build(_platform()).as_dict()
            request = urllib.request.Request(
                f"http://127.0.0.1:{port}/v1/query",
                data=json.dumps(payload).encode("utf-8"),
                method="POST",
            )
            with urllib.request.urlopen(request, timeout=10) as response:
                assert response.status == 200
        finally:
            stop.set()
            runner.join(timeout=10)
        assert not runner.is_alive()
        assert codes == [0]
        out = capsys.readouterr().out
        assert "draining in-flight requests" in out
        assert "served 1 queries (0 cache hits, 1 solved); bye" in out


class TestRequestTelemetry:
    def test_spans_counters_and_latency_histogram(self, tmp_path):
        telemetry = Telemetry(tmp_path / "telemetry", owner="test", mode="on")
        with activate(telemetry), _serving(QueryService()) as instance:
            _post(instance, "/v1/query", Query.build(_platform()).as_dict())
            _get(instance, "/v1/healthz")
            with pytest.raises(urllib.error.HTTPError):
                _post(instance, "/v1/query", {"bogus": 1})
        telemetry.close()
        snapshot = telemetry.metrics.snapshot()
        assert snapshot["counters"]["api.http.200"] == 2
        assert snapshot["counters"]["api.http.400"] == 1
        assert snapshot["histograms"]["api.request.seconds"]["count"] == 3
