PYTHON ?= python
PYTHONPATH_SRC := PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH),)

.PHONY: test bench bench-smoke bench-check

## Tier-1 correctness suite (what CI gates on).
test:
	$(PYTHONPATH_SRC) $(PYTHON) -m pytest -x -q

## Full benchmark harness (all figure and solver benchmarks).
bench:
	$(PYTHONPATH_SRC) $(PYTHON) -m pytest benchmarks -q

## Fast perf-trajectory smoke run: the Figure 10-13 + crossover campaign
## benchmarks, the scenario/batch kernel benchmarks and the two-port
## scenario campaign (the one_port:false evaluation chain) at a reduced
## platform count.  The raw record goes to BENCH_campaign.json (overwritten,
## untracked: CI uploads it as an artifact); a compact per-run summary (git sha, wall-clocks incl. the
## two-port campaign, the query service's cold/cached p50 latency,
## speedup vs the PR-1 reference, and the telemetry subsystem's measured
## overhead_pct) is APPENDED to
## BENCH_TRAJECTORY.jsonl so successive PRs accumulate a perf trajectory.
## REPRO_BENCH_PLATFORM_COUNT=50 reproduces the paper-scale acceptance
## measurement.
bench-smoke:
	$(PYTHONPATH_SRC) REPRO_BENCH_PLATFORM_COUNT=$(or $(REPRO_BENCH_PLATFORM_COUNT),5) \
	    $(PYTHON) -m pytest \
	    benchmarks/test_bench_scenario_kernel.py benchmarks/test_bench_batch_kernel.py \
	    benchmarks/test_bench_scenarios.py benchmarks/test_bench_query_service.py -q \
	    --benchmark-json=BENCH_campaign.json
	@$(PYTHONPATH_SRC) $(PYTHON) benchmarks/trajectory.py BENCH_campaign.json BENCH_TRAJECTORY.jsonl

## Bench-regression gate: compare the newest BENCH_TRAJECTORY.jsonl row
## against the most recent comparable one (same platform_count/cpu_count)
## and fail if any wall-clock regressed by more than 25% — or if the
## newest row's telemetry_overhead_pct exceeds 2%.
bench-check:
	$(PYTHON) benchmarks/check_trajectory.py BENCH_TRAJECTORY.jsonl
