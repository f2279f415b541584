"""Append a compact per-run summary of a bench-smoke run to the trajectory.

``make bench-smoke`` writes the raw pytest-benchmark record to
``BENCH_campaign.json`` (overwritten every run, as before) and then calls
this script, which distils the run into one JSON line appended to
``BENCH_TRAJECTORY.jsonl``:

* git sha and timestamp of the run;
* per-figure wall-clocks of the Figure 10-13 campaigns and the crossover
  sweep (whatever ``REPRO_BENCH_PLATFORM_COUNT`` the run used), plus —
  when the machine has more than one CPU — the ``jobs=0`` multi-core
  wall-clock, the cpu count and the resulting process-pool speedup;
* the mean single-scenario solve time of the fast kernel vs the SciPy
  modelling layer, and the batched-kernel-over-scalar-loop speedup;
* the array-native scenario sampler's speedup over StarPlatform-object
  materialisation (batch = 1000 platforms);
* the two-port scenario campaign's wall-clock (the ``one_port: false``
  evaluation chain at whatever ``REPRO_BENCH_PLATFORM_COUNT`` the run
  used: two-port kernel LPs plus merge-ordered noisy replays);
* the attributed overhead of telemetry instrumentation and of the PR-9
  trace-correlation layer on top of it, both gated by ``bench-check``;
* the query service's per-query p50 latency, cold (cache miss, funnel +
  stacked kernel) and cached (content-hash hit), in milliseconds;
* the wall-clock speedup against the PR-1 engine (reference numbers
  measured at commit dc51bf3 on the benchmark VM, same scales);
* ``src_loc``, the line count of every ``.py`` file under ``src/`` (what
  ``find src -name '*.py' | xargs cat | wc -l`` prints), so "less code"
  is tracked next to "faster code".  It is recorded, not gated.

Successive PRs therefore accumulate a perf trajectory instead of
overwriting it.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

#: PR-1 (commit dc51bf3) wall-clocks measured on the benchmark VM, keyed by
#: the campaign platform count: figures 10-13 plus the paper-scale
#: crossover, in seconds.  The speedup column of the trajectory is computed
#: against these.
PR1_REFERENCE_SECONDS = {
    5: 0.175,
    50: 1.278,
}


def _git_sha() -> str:
    try:
        return (
            subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                capture_output=True,
                text=True,
                check=True,
            ).stdout.strip()
        )
    except Exception:
        return "unknown"


def _src_loc() -> int:
    """Lines of Python under the repository's ``src/`` directory."""
    src = Path(__file__).resolve().parent.parent / "src"
    return sum(path.read_bytes().count(b"\n") for path in src.rglob("*.py"))


def summarise(record_path: str, trajectory_path: str) -> dict:
    """Distil one BENCH_campaign.json into a trajectory entry (appended)."""
    data = json.loads(Path(record_path).read_text())

    campaign = None
    sampler = None
    twoport = None
    telemetry = None
    trace_context = None
    query_service = None
    kernel_means: dict[str, dict[int, float]] = {"fast": {}, "scipy": {}}
    batch_speedups: dict[int, float] = {}
    for bench in data.get("benchmarks", []):
        extra = bench.get("extra_info", {})
        if "campaign" in extra:
            campaign = extra["campaign"]
        if "sampler" in extra:
            sampler = extra["sampler"]
        if "twoport_campaign" in extra:
            twoport = extra["twoport_campaign"]
        if "telemetry" in extra:
            telemetry = extra["telemetry"]
        if "trace_context" in extra:
            trace_context = extra["trace_context"]
        if "query_service" in extra:
            query_service = extra["query_service"]
        name = bench.get("name", "")
        workers = extra.get("workers")
        if workers is not None and "test_fast_kernel" in name:
            kernel_means["fast"][workers] = bench["stats"]["mean"]
        if workers is not None and "test_modelling_layer_scipy" in name:
            kernel_means["scipy"][workers] = bench["stats"]["mean"]
        if "batch_over_scalar_speedup" in extra:
            batch_speedups[extra["workers"]] = extra["batch_over_scalar_speedup"]

    entry: dict = {
        "sha": _git_sha(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "src_loc": _src_loc(),
    }
    if campaign is not None:
        platform_count = campaign.get("platform_count")
        total = campaign.get("total_wall_clock_seconds")
        entry["platform_count"] = platform_count
        entry["wall_clock_seconds"] = campaign.get("wall_clock_seconds")
        entry["total_wall_clock_seconds"] = total
        if campaign.get("cpu_count") is not None:
            entry["cpu_count"] = campaign["cpu_count"]
        multicore_total = campaign.get("multicore_total_wall_clock_seconds")
        if multicore_total is not None:
            entry["multicore_total_wall_clock_seconds"] = multicore_total
            if total:
                entry["multicore_speedup"] = round(total / multicore_total, 2)
        reference = PR1_REFERENCE_SECONDS.get(platform_count)
        if reference is not None and total:
            entry["pr1_reference_seconds"] = reference
            entry["speedup_vs_pr1"] = round(reference / total, 2)
    if sampler is not None:
        entry["sampler_vs_objects_speedup"] = sampler.get("speedup")
    if twoport is not None:
        entry["twoport_platform_count"] = twoport.get("platform_count")
        entry["twoport_wall_clock_seconds"] = twoport.get("wall_clock_seconds")
        entry["twoport_scenarios_per_second"] = twoport.get("scenarios_per_second")
    if telemetry is not None:
        entry["telemetry_overhead_pct"] = telemetry.get("overhead_pct")
    if trace_context is not None:
        entry["trace_context_overhead_pct"] = trace_context.get("overhead_pct")
    if query_service is not None:
        entry["query_cold_p50_ms"] = query_service.get("cold_p50_ms")
        entry["query_cached_p50_ms"] = query_service.get("cached_p50_ms")
        entry["query_cache_speedup"] = query_service.get("speedup")
    kernel_speedup = {
        workers: round(kernel_means["scipy"][workers] / mean, 2)
        for workers, mean in kernel_means["fast"].items()
        if workers in kernel_means["scipy"]
    }
    if kernel_speedup:
        entry["kernel_vs_scipy_speedup"] = kernel_speedup
    if batch_speedups:
        entry["batch_vs_scalar_speedup"] = batch_speedups

    with open(trajectory_path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")
    return entry


def main(argv: list[str]) -> int:
    record = argv[1] if len(argv) > 1 else "BENCH_campaign.json"
    trajectory = argv[2] if len(argv) > 2 else "BENCH_TRAJECTORY.jsonl"
    entry = summarise(record, trajectory)
    printable = {key: value for key, value in entry.items() if key != "wall_clock_seconds"}
    print(f"trajectory += {json.dumps(printable, sort_keys=True)}")
    clocks = entry.get("wall_clock_seconds") or {}
    for name, seconds in clocks.items():
        print(f"  {name:10s} {seconds:.4f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
