#!/usr/bin/env python3
"""The repository's benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload campaign-lp --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ledger of a separate traced run.  Inputs come from ``--seed`` only; every
output is checked against the scalar reference path, and a mismatch makes
the run exit 1.  See ``perfbench/README.md`` for the workloads, the
metrics and how to compare two commits.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import queue
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from layers import PER_LAYER, import_seconds, query_ledger
from quiet import REFERENCE_PROBE, chunk_times, probe, quiet_probe
from tracer import clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

CAMPAIGNS = ("campaign-lp", "campaign-measured", "campaign-twoport")
WORKLOADS = CAMPAIGNS + ("query-http",)
END_TO_END = {
    "setup_s": "s",
    "scenarios_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_pct": "%",
}
#: Timed fresh start-ups per run; ``setup_s`` is their lower quartile.
SETUP_RUNS = 8
#: Probes timed before each start-up, while no child is running.
IDLE_PROBES = 50
#: Client threads of ``query-http``, each with one keep-alive connection
#: (one per vCPU of the 2-vCPU reference VM).
CLIENTS = 2
#: Fewest requests of a ``query-http`` run (of each half of a traced one):
#: then the 90th percentile has 10 samples beyond it.
MIN_REQUESTS = 100
#: The server's default LRU capacity.  Filling it before the window makes
#: every fresh platform in the window evict an answer.
CACHE_ENTRIES = 1024
#: Longest wait for one step of a child process, in seconds.
STEP_TIMEOUT = 120.0


class BenchError(Exception):
    """The benchmark could not measure (not a wrong answer)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Child:
    """A child process whose stdout lines are stamped on arrival."""

    def __init__(self, argv: list[str]) -> None:
        self.argv = argv
        self.started = clock()
        self.process = subprocess.Popen(
            argv, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=child_env()
        )
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.process.stdout:
            self._lines.put((clock(), line.rstrip("\n")))
        self._lines.put((clock(), None))

    def expect(self, prefix: str) -> tuple[float, str]:
        """The first line starting with ``prefix`` and when it arrived."""
        deadline = clock() + STEP_TIMEOUT
        while True:
            try:
                at, line = self._lines.get(timeout=max(0.0, deadline - clock()))
            except queue.Empty:
                raise BenchError(f"{self.argv[1]}: no {prefix!r} line in time") from None
            if line is None:
                raise BenchError(f"{self.argv[1]} exited before printing {prefix!r}")
            if line.startswith(prefix):
                return at, line

    def ready(self, prefix: str) -> float:
        """Seconds from launch to the ``prefix`` line."""
        return self.expect(prefix)[0] - self.started

    def finish(self) -> float:
        """Reap the process (killing it after ``STEP_TIMEOUT``); its peak RSS in MB."""
        deadline = clock() + STEP_TIMEOUT
        while True:
            pid, status, usage = os.wait4(self.process.pid, os.WNOHANG)
            if pid:
                break
            if clock() > deadline:
                self.process.kill()
                deadline = float("inf")
            time.sleep(0.005)
        self.process.returncode = os.waitstatus_to_exitcode(status)
        self._reader.join(STEP_TIMEOUT)
        self.process.stdout.close()
        if self.process.returncode != 0:
            raise BenchError(f"{self.argv[1]} exited with {self.process.returncode}")
        return usage.ru_maxrss / 1024.0

    def stop(self) -> None:
        if self.process.returncode is None:
            self.process.kill()
            try:
                self.finish()
            except BenchError:
                pass


class Children:
    """Every child of this run; the ones still running are killed on exit."""

    def __init__(self) -> None:
        self._started: list[Child] = []

    def start(self, argv: list[str]) -> Child:
        child = Child(argv)
        self._started.append(child)
        return child

    def __enter__(self) -> "Children":
        return self

    def __exit__(self, *exc) -> None:
        for child in self._started:
            child.stop()


def import_metrics(runs: int = 3) -> dict[str, float]:
    """``setup.*``: medians over fresh ``-X importtime`` interpreters."""
    samples = []
    for _ in range(runs):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import repro.cli"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=STEP_TIMEOUT, check=True,
        )
        samples.append(import_seconds(done.stderr))
    cli, scipy = zip(*samples)
    return {
        "setup.import_repro_cli_s": statistics.median(cli),
        "setup.import_scipy_s": statistics.median(scipy),
    }


def set_up(start, stop):
    """``SETUP_RUNS`` timed fresh start-ups: the last one's handle and
    ``setup_s``.

    ``start(last)`` launches one and returns ``(handle, seconds)``; every
    start-up but the last is ``stop``-ped.  One more start-up runs first,
    untimed: it warms the file (and bytecode) caches.  Interference only
    adds time, so ``setup_s`` is the lower quartile of the start-ups,
    scaled by probes timed while no child runs (see ``quiet.py``).
    """
    setup: list[float] = []
    probes: list[list[float]] = []
    for number in range(SETUP_RUNS + 1):
        if number:
            probes.append([probe() for _ in range(IDLE_PROBES)])
        handle, seconds = start(number == SETUP_RUNS)
        if number:
            setup.append(seconds)
        if number < SETUP_RUNS:
            stop(handle)
    print("perfbench: start-ups " + " ".join(f"{s:.3f}" for s in setup) + " s", file=sys.stderr)
    low = statistics.quantiles(setup, n=4, method="inclusive")[0]
    return handle, low * reference_scale(quiet_probe(probes), "idle")


def end_to_end(
    setup_s: float, rate: float, latencies: list[float], rss: float,
    attempted: int, failed: int,
) -> dict[str, float]:
    """The end-to-end figures; ``latencies`` in seconds."""
    latencies_ms = [latency * 1e3 for latency in latencies]
    return {
        "setup_s": setup_s,
        "scenarios_per_s": rate,
        "op_p50_ms": statistics.median(latencies_ms),
        "op_p90_ms": statistics.quantiles(latencies_ms, n=10, method="inclusive")[8],
        "peak_rss_mb": rss,
        "ok_pct": 100.0 * (attempted - failed) / attempted,
    }


# ------------------------------------------------------------- campaigns


def campaign_run(args, work: Path, children: Children) -> tuple[dict, int, int, list[str]]:
    argv = [
        sys.executable, str(HERE / "campaign_worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--src", str(SRC),
    ]
    run = argv + ["--store", str(work / "store"), "--seconds", str(args.seconds)]
    if args.trace:
        worker = children.start(run + ["--trace"])
    else:
        stores = itertools.count()

        def start(last: bool) -> tuple[Child, float]:
            child = children.start(
                run if last else argv + ["--store", str(work / f"probe{next(stores)}"), "--probe"]
            )
            return child, child.ready("ready")

        worker, setup_s = set_up(start, Child.finish)
    result = json.loads(worker.expect("{")[1])
    rss = worker.finish()
    attempted, failed = result["attempted"], result["failed"]
    if args.trace:
        metrics = {
            **result["layers"],
            **import_metrics(),
            "trace.overhead_pct": result["overhead_pct"],
        }
    else:
        # A chunk's time is its fastest over the passes, at the reference
        # speed (see ``quiet.py``).
        for number, ops in enumerate(result["passes"]):
            probes = statistics.median(calm for _, calm in ops)
            print(f"perfbench: pass {number} median chunk probe {probes * 1e6:.1f} us "
                  f"({probes / REFERENCE_PROBE:.3f}x the reference machine's)", file=sys.stderr)
        latencies = chunk_times(result["passes"])
        rate = result["scenarios_per_op"] * len(latencies) / sum(latencies)
        metrics = end_to_end(setup_s, rate, latencies, rss, attempted, failed)
    return metrics, attempted, failed, result["errors"]


# ----------------------------------------------------------------- query


def query_run(args, work: Path, children: Children) -> tuple[dict, int, int, list[str]]:
    from query_load import QueryStream, connect, drive, health, post

    serve = [sys.executable, "-m", "repro.cli", "scenarios", "serve", "--port", "0"]
    warm_stream = QueryStream(args.seed, salt=0)
    warm = [dict(warm_stream.fresh().payload, one_port=port) for port in (True, False)]
    stream = QueryStream(args.seed)

    def start_server(argv: list[str] = serve) -> tuple[tuple[Child, int], float]:
        """Launch, bind and warm up a server: it and its port, and the
        set-up seconds it took."""
        child = children.start(argv)
        line = child.expect("serving on")[1]
        port = int(line.split("//", 1)[1].split()[0].rsplit(":", 1)[1])
        connection = connect(port)
        try:
            status, body = post(connection, "/v1/query/batch", {"queries": warm})
        finally:
            connection.close()
        if status != 200:
            raise BenchError(f"warm-up answered {status}: {body[:200]!r}")
        return (child, port), clock() - child.started

    def fill(port: int) -> None:
        connection = connect(port)
        try:
            for _ in range(CACHE_ENTRIES // 256):
                queries = [stream.fresh().payload for _ in range(256)]
                status, body = post(connection, "/v1/query/batch", {"queries": queries})
                if status != 200:
                    raise BenchError(f"cache fill answered {status}: {body[:200]!r}")
        finally:
            connection.close()

    def stop_server(child: Child) -> float:
        child.process.send_signal(signal.SIGTERM)
        return child.finish()

    def answered_rate(records, start: float) -> float:
        answered = sum(record.status == 200 for record in records)
        return answered / (max(record.end for record in records) - start)

    if args.trace:
        (child, port), _ = start_server()
        fill(port)
        plain, plain_start = drive(port, stream, args.seconds / 2, MIN_REQUESTS, CLIENTS)
        stop_server(child)
        spans_path = work / "spans.json"
        (child, port), _ = start_server(
            [sys.executable, str(HERE / "serve_traced.py"), str(spans_path)] + serve[3:]
        )
        fill(port)
        before = health(port)
        records, start = drive(port, stream, args.seconds / 2, MIN_REQUESTS, CLIENTS)
        after = health(port)
        stop_server(child)
        window = (start, max(record.end for record in records))
        metrics = query_ledger(
            json.loads(spans_path.read_text(encoding="utf-8")),
            window,
            [record.end - record.start for record in records],
        )
        metrics.update(import_metrics())
        delta = {key: after[key] - before[key] for key in after if isinstance(after[key], int)}
        metrics["api.cache.hit_ratio"] = delta["cache_hits"] / delta["queries"]
        metrics["api.funnel.batch_size_mean"] = (
            delta["funnel_coalesced"] / delta["funnel_batches"] if delta["funnel_batches"] else 0.0
        )
        metrics["trace.overhead_pct"] = 100.0 * (
            1.0 - answered_rate(records, start) / answered_rate(plain, plain_start)
        )
        checked = plain + records
    else:
        (child, port), setup_s = set_up(
            lambda last: start_server(), lambda server: stop_server(server[0])
        )
        fill(port)
        records, start = drive(port, stream, args.seconds, MIN_REQUESTS, CLIENTS)
        rss = stop_server(child)
        checked = records

    attempted, failed, errors = check_answers(checked)
    if not args.trace:
        # Every request counts, unscaled: a keep-alive request mostly waits
        # on a kernel timer, whatever the machine's speed.  Closed loop:
        # CLIENTS requests are always in flight (Little's law).
        latencies = [record.end - record.start for record in records]
        rate = CLIENTS * len(latencies) / sum(latencies)
        metrics = end_to_end(setup_s, rate, latencies, rss, attempted, failed)
    return metrics, attempted, failed, errors


def reference_scale(calm: float, where: str) -> float:
    """The factor that brings CPU times measured at the quiet probe time
    ``calm`` to the reference machine's speed (see ``quiet.py``)."""
    print(
        f"perfbench: quiet {where} probe {calm * 1e6:.1f} us "
        f"({calm / REFERENCE_PROBE:.3f}x the reference machine's)",
        file=sys.stderr,
    )
    return REFERENCE_PROBE / calm


def check_answers(records) -> tuple[int, int, list[str]]:
    """Every answer against the scalar reference of its platform."""
    from check import check_answer, reference_answer

    references: dict[int, dict] = {}
    failed = 0
    errors: list[str] = []
    for record in records:
        if record.status != 200:
            problem = f"status {record.status}: {record.body[:200]!r}"
        else:
            request = record.request
            if request.ident not in references:
                references[request.ident] = reference_answer(request.payload)
            problem = check_answer(json.loads(record.body), references[request.ident])
        if problem:
            failed += 1
            errors.append(f"request {record.request.ident}: {problem}")
    return len(records), failed, errors


# ------------------------------------------------------------------ main


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC / 'repro'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        with Children() as children:
            run = campaign_run if args.workload in CAMPAIGNS else query_run
            metrics, attempted, failed, errors = run(args, work, children)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run's directory is still there
    for error in errors:
        print(f"perfbench: wrong output: {error}", file=sys.stderr)
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
