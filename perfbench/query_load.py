"""Seeded query traffic and the closed-loop HTTP client of ``query-http``.

The client holds one persistent HTTP/1.1 connection per thread and sends
each request in one segment (``TCP_NODELAY``, as curl, Go and browsers
do), so any Nagle/delayed-ACK stall it measures is the server's.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
from collections import deque
from dataclasses import dataclass

import numpy as np
from repro.workloads.matrices import MatrixProductWorkload
from repro.workloads.platforms import campaign_factors

from tracer import clock

#: Share of requests that ask about a platform nobody asked about before.
FRESH_SHARE = 0.3
#: Share of fresh platforms asked about under the two-port model.
TWO_PORT_SHARE = 0.25
#: Worker counts of fresh platforms and their probabilities.
WORKER_COUNTS = ((11, 0.8), (5, 0.1), (25, 0.1))
#: Fresh platforms are fully heterogeneous stars costed for this matrix
#: product, as in the repository's query-service benchmark.
MATRIX = MatrixProductWorkload(120)
#: Repeats pick among this many most recent fresh platforms ...
RECENT = 64
#: ... except the newest few, which another client thread may still be
#: waiting for (a repeat must be a cache read, not a second miss).
IN_FLIGHT = 2


@dataclass(frozen=True)
class Request:
    ident: int
    payload: dict


class QueryStream:
    """~70% repeats of recently answered platforms, ~30% fresh ones."""

    def __init__(self, seed: int, salt: int = 1) -> None:
        self._rng = np.random.default_rng([seed % 2**31, salt])
        self._recent: deque[Request] = deque(maxlen=RECENT)
        self._count = 0

    def fresh(self) -> Request:
        rng = self._rng
        sizes, weights = zip(*WORKER_COUNTS)
        q = int(rng.choice(sizes, p=weights))
        (factors,) = campaign_factors("hetero-star", 1, size=q, seed=int(rng.integers(2**31)))
        payload = {
            "platform": {
                worker.name: {"c": worker.c, "w": worker.w, "d": worker.d}
                for worker in factors.platform(MATRIX).workers
            },
            "one_port": bool(rng.random() >= TWO_PORT_SHARE),
        }
        request = Request(self._count, payload)
        self._count += 1
        self._recent.append(request)
        return request

    def next(self) -> Request:
        candidates = list(self._recent)[:-IN_FLIGHT]
        if candidates and self._rng.random() >= FRESH_SHARE:
            return candidates[int(self._rng.integers(len(candidates)))]
        return self.fresh()


def connect(port: int) -> http.client.HTTPConnection:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    connection.connect()
    connection.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return connection


def post(connection: http.client.HTTPConnection, path: str, payload) -> tuple[int, bytes]:
    connection.request(
        "POST", path, body=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    response = connection.getresponse()
    return response.status, response.read()


def health(port: int) -> dict:
    connection = connect(port)
    try:
        connection.request("GET", "/v1/healthz")
        return json.loads(connection.getresponse().read())
    finally:
        connection.close()


@dataclass(frozen=True)
class Record:
    request: Request
    start: float
    end: float
    status: int | None
    body: bytes


def drive(
    port: int, stream: QueryStream, seconds: float, min_requests: int, threads: int
) -> tuple[list[Record], float]:
    """Closed loop: each thread sends its next request when the last returns.

    Runs until ``seconds`` have passed and at least ``min_requests`` were
    sent; returns every request's record and the window's start.
    """
    lock = threading.Lock()
    records: list[Record] = []
    sent = 0
    start = clock()
    deadline = start + seconds

    def client() -> None:
        nonlocal sent
        connection = connect(port)
        try:
            while True:
                with lock:
                    if sent >= min_requests and clock() >= deadline:
                        return
                    sent += 1
                    request = stream.next()
                began = clock()
                try:
                    status, body = post(connection, "/v1/query", request.payload)
                except (OSError, http.client.HTTPException) as error:
                    status, body = None, repr(error).encode()
                    connection.close()
                    connection = connect(port)
                records.append(Record(request, began, clock(), status, body))
        finally:
            connection.close()

    workers = [threading.Thread(target=client) for _ in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    return records, start
