"""One fresh interpreter running a campaign workload.

    python3 perfbench/campaign_worker.py --workload campaign-lp --seed 1 \\
        --store DIR --src SRC [--seconds 10] [--probe] [--trace]

Set-up is what a user pays before the first chunk: this interpreter,
``import repro``, opening the store and a two-chunk warm-up campaign.  The
worker prints ``ready`` when set-up is done, so the parent times it from
outside.  ``--probe`` exits there.  Otherwise it runs campaigns through
``repro.scenarios.run_campaign`` in ``quiet.PASSES`` passes: the first
runs fresh campaigns back to back for its share of ``--seconds`` (and at
least ``quiet.MIN_OPS`` chunks), the others repeat them into fresh stores.
It times every persisted chunk through the ``progress`` callback, then
checks one sampled row of every chunk against the scalar reference path
and prints one JSON line.

With ``--trace``, campaigns alternate between untraced and traced (layer
functions wrapped); the JSON line then carries the per-layer ledger of the
traced ones and the throughput cost of tracing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from quiet import MIN_OPS, PASSES, probe
from tracer import ModuleProxy, Tracer, clock


#: Chunks per campaign: enough that a campaign's opening (store
#: directory, factor sampling) lands on few chunk timings.
CHUNKS = 50


@dataclass(frozen=True)
class CampaignWorkload:
    space: str
    #: Platforms per chunk (``None``: ``run_campaign``'s default).
    chunk_size: int | None


WORKLOADS = {
    "campaign-lp": CampaignWorkload("mega-uniform", None),
    "campaign-measured": CampaignWorkload("fig12", 5),
    "campaign-twoport": CampaignWorkload("fig12-twoport", 4),
}


class FsyncCounter:
    """Counts the store's fsyncs without waiting for a disk.

    The store runs as if on tmpfs, where fsync returns at once: the count
    is measured, the shared disk's flush latency is not.  The benchmark
    may write only inside its checkout, so it cannot mount one itself.
    """

    def __init__(self) -> None:
        self.calls = 0

    def __call__(self, fd: int) -> None:
        self.calls += 1


def campaign_spec(workload: str, seed: int, number: int, chunks: int | None = None):
    """Campaign ``number`` of a seed (-1: the warm-up): the inputs come from the seed."""
    from repro.scenarios import named_space

    return named_space(WORKLOADS[workload].space).derive(
        name=f"perfbench-{workload}",
        count=chunk_size(workload) * (chunks or CHUNKS),
        seed=(seed % 2**31) * 1000 + number + 1,
    )


def chunk_size(workload: str) -> int:
    from repro.scenarios.runner import DEFAULT_CHUNK_SIZE

    return WORKLOADS[workload].chunk_size or DEFAULT_CHUNK_SIZE


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--store", type=Path, required=True)
    parser.add_argument("--src", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    import repro
    import repro.scenarios as scenarios
    from repro.scenarios import CampaignStore
    from repro.scenarios import store as store_module

    if args.src.resolve() not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"imported {repro.__file__}, not the checkout's {args.src}")
    fsyncs = FsyncCounter()
    store_module.os = ModuleProxy(os, fsync=fsyncs)

    size = chunk_size(args.workload)
    store = CampaignStore(args.store)
    scenarios.run_campaign(campaign_spec(args.workload, args.seed, -1, chunks=2), store, size)
    print("ready", flush=True)
    if args.probe:
        return 0

    tracer = Tracer()
    done: list[dict] = []
    failure = None

    def run_one(spec, store, traced: bool = False, timings: list | None = None) -> bool:
        """Run one campaign (False if it raised).  ``timings`` gets
        ``[seconds, probe seconds]`` per chunk, with a probe before each."""
        nonlocal failure
        if traced:
            from layers import install_campaign_layers

            install_campaign_layers(tracer)
        fsyncs_before = fsyncs.calls
        calm = probe() if timings is not None else 0.0
        begun = started = clock()

        def persisted(completed: int, total: int) -> None:
            nonlocal calm, begun
            if timings is not None:
                timings.append([clock() - begun, calm])
                calm = probe()
                begun = clock()

        try:
            progress = scenarios.run_campaign(
                spec, store, chunk_size=size, jobs=1, progress=persisted
            )
        except Exception as error:  # an operation failed: report it, stop measuring
            failure = f"campaign seed {spec.family.seed}: {error!r}"
            return False
        finally:
            tracer.restore()
        done.append(
            {
                "spec": spec,
                "state": progress.state,
                "traced": traced,
                "wall": clock() - started,
                "fsyncs": fsyncs.calls - fsyncs_before,
            }
        )
        return True

    def elapsed() -> float:
        return sum(campaign["wall"] for campaign in done)

    #: Per pass, ``[seconds, probe seconds]`` per chunk (untraced runs).
    passes: list[list[list[float]]] = []
    if args.trace:
        # Untraced and traced campaigns alternate.
        number = 0
        while run_one(campaign_spec(args.workload, args.seed, number), store, number % 2 == 1):
            number += 1
            if elapsed() >= args.seconds and number >= 2:
                break
    else:
        # The first pass picks the campaigns; the others repeat them, each
        # pass into a fresh store (see ``quiet.py``).
        specs = []
        for number in range(PASSES):
            timings: list[list[float]] = []
            pass_store = CampaignStore(args.store / f"pass{number}")
            if number == 0:
                while run_one(spec := campaign_spec(args.workload, args.seed, len(specs)),
                              pass_store, timings=timings):
                    specs.append(spec)
                    if elapsed() >= args.seconds / PASSES and len(timings) >= MIN_OPS:
                        break
            else:
                for spec in specs:
                    if not run_one(spec, pass_store, timings=timings):
                        break
            if failure and number:
                break  # a pass cut short by a failure times no operation
            passes.append(timings)
            if failure:
                break

    result = summarise(done, failure, args.seed)
    result["passes"] = passes
    result["scenarios_per_op"] = size * len(campaign_spec(args.workload, args.seed, 0).grid)
    if args.trace:
        from layers import campaign_ledger

        traced = [campaign for campaign in done if campaign["traced"]]
        result["layers"] = campaign_ledger(
            tracer,
            scenarios=sum(campaign["spec"].scenario_count for campaign in traced),
            chunks=sum(len(campaign["state"].completed_chunks) for campaign in traced),
            wall=sum(campaign["wall"] for campaign in traced),
            fsyncs=sum(campaign["fsyncs"] for campaign in traced),
        )
        result["overhead_pct"] = 100.0 * (1.0 - rate(traced) / rate(
            [campaign for campaign in done if not campaign["traced"]]
        ))
    print(json.dumps(result), flush=True)
    return 0


def rate(campaigns: list[dict]) -> float:
    """Scenarios per second over the given campaigns' own wall time."""
    scenarios = sum(campaign["spec"].scenario_count for campaign in campaigns)
    return scenarios / sum(campaign["wall"] for campaign in campaigns)


def summarise(done: list[dict], failure: str | None, seed: int) -> dict:
    """The correctness gate: one sampled row of every persisted chunk."""
    import numpy as np
    from check import check_chunk
    from repro.workloads.sampling import sample_factors

    rng = np.random.default_rng(seed % 2**31)
    attempted = failed = 0
    errors = [failure] if failure else []
    for campaign in done:
        spec, state = campaign["spec"], campaign["state"]
        table = sample_factors(spec.family)
        for index in sorted(state.completed_chunks):
            start, stop = state.chunk_range(index)
            problems = check_chunk(
                spec, table, state.chunk_rows(index), start, stop, int(rng.integers(1 << 30))
            )
            attempted += 1
            if problems:
                failed += 1
                errors.extend(problems)
    if failure:
        attempted += 1
        failed += 1
    return {"attempted": attempted, "failed": failed, "errors": errors[:10]}


if __name__ == "__main__":
    sys.exit(main())
