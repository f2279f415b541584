"""Command-line interface of the reproduction.

Examples
--------
List the available experiments::

    repro-experiments list

Run one experiment with the paper's parameters and print the tables::

    repro-experiments run fig12

Run every experiment with the reduced "quick" preset and write a Markdown
report and a CSV dump::

    repro-experiments run all --preset quick --markdown report.md --csv report.csv

Scenario spaces (declarative campaigns over generated platform families)::

    repro-experiments scenarios list
    repro-experiments scenarios run fig12 --store results --jobs 0
    repro-experiments scenarios run fig12-twoport --store results
    repro-experiments scenarios run bus-hetero --store results
    repro-experiments scenarios run fig08-probe --store results
    repro-experiments scenarios run my_space.json --chunk-size 50
    repro-experiments scenarios resume mega-uniform --store results
    repro-experiments scenarios show mega-uniform --store results
    repro-experiments scenarios export mega-uniform --store results --npz mega.npz

Fault-tolerant multi-worker campaigns (local workers)::

    repro-experiments scenarios run mega-uniform --store results --workers 4
    repro-experiments scenarios run fig12 --workers 3 --faults "crash-pre@0,hang@2"
    repro-experiments scenarios heal mega-uniform --store results
    repro-experiments scenarios merge mega-uniform --store results

Multi-machine campaigns (detached workers, any hosts sharing one
directory)::

    repro-experiments scenarios work shared/results --space mega-uniform   # on each machine
    repro-experiments scenarios run mega-uniform --store shared/results --detached-workers

``scenarios run`` persists every finished chunk, so an interrupted
campaign (Ctrl-C, crash) picks up where it left off — ``resume`` is
``run`` that insists prior results exist.  ``--workers N`` and
``--detached-workers`` run the same lease coordinator: wall-clock leases
with skew slack, epoch fencing against zombie writers,
per-worker stores merged canonically, and an append-only
``coordinator.jsonl`` journal a restarted coordinator replays.
``--workers N`` also starts N local ``scenarios work`` loops and restarts
any that crash; ``--faults`` injects a deterministic chaos schedule into
them (testing).  ``--detached-workers`` leaves the workers to external
``scenarios work`` processes.  ``heal`` recovers a campaign whose
coordinator died (merges worker stores, re-evaluates abandoned leases);
``merge`` folds worker stores in without healing.
Every verb works for every workload (matrix, ``bus-*`` sweeps,
``*-probe`` grids) and for one-port and two-port (``*-twoport``, or
``"one_port": false`` in a spec JSON) spaces alike; ``export`` turns a
finished store into a columnar ``.npz``.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from pathlib import Path
from typing import Sequence

from repro._version import __version__
from repro.experiments.common import FigureResult
from repro.experiments.registry import EXPERIMENTS, available_experiments, run_experiment
from repro.experiments.report import render_report, to_csv

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Reproduce the evaluation of the one-port FIFO divisible-load paper.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list the available experiments")

    run_parser = subparsers.add_parser("run", help="run one experiment (or 'all')")
    run_parser.add_argument(
        "experiment",
        help="experiment identifier (fig08 ... fig14) or 'all'",
    )
    run_parser.add_argument(
        "--preset",
        choices=("paper", "quick"),
        default="paper",
        help="parameter preset: full paper-scale campaign or the reduced quick sweep",
    )
    run_parser.add_argument("--csv", metavar="PATH", help="also write the series as CSV")
    run_parser.add_argument(
        "--markdown", metavar="PATH", help="also write a Markdown report of the results"
    )
    run_parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for the experiment sweeps (figures 8-14 and the "
        "crossover): N processes, or 0 for one per CPU; default runs in-process. "
        "Every jobs setting produces identical series.",
    )
    run_parser.add_argument(
        "--seed",
        type=int,
        default=None,
        metavar="N",
        help="override the random seed of every selected experiment (platform "
        "draws and noise streams).  Threaded uniformly: experiments without "
        "randomness (fig08, fig09 run noise-free) accept and record it.",
    )

    scenarios_parser = subparsers.add_parser(
        "scenarios", help="declarative scenario-space campaigns (repro.scenarios)"
    )
    scenarios_sub = scenarios_parser.add_subparsers(dest="scenarios_command", required=True)

    scenarios_sub.add_parser("list", help="list the built-in named scenario spaces")

    def add_space_argument(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "space",
            help="name of a built-in space (see 'scenarios list') or path to a spec JSON file",
        )
        sub.add_argument(
            "--store",
            metavar="DIR",
            default="scenario-results",
            help="result store directory (default: ./scenario-results)",
        )
        sub.add_argument(
            "--count",
            type=int,
            default=None,
            metavar="N",
            help="override the family's platform count (derives a new space)",
        )
        sub.add_argument(
            "--seed",
            type=int,
            default=None,
            metavar="N",
            help="override the family's seed (derives a new space)",
        )

    def add_observability_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--telemetry",
            choices=("off", "on", "verbose"),
            default="off",
            help="write spans + metric snapshots to the campaign's telemetry/ "
            "sidecar (additive: chunks.jsonl stays byte-identical; 'verbose' "
            "fsyncs every span line and emits per-call kernel records)",
        )
        sub.add_argument(
            "--log-level",
            choices=("debug", "info", "warning", "error", "critical"),
            default=None,
            help="stderr threshold for the repro.* structured loggers "
            "(default: warning)",
        )

    for verb, help_text in (
        ("run", "run (or continue) a scenario campaign, persisting chunk by chunk"),
        ("resume", "complete a previously interrupted campaign (requires prior results)"),
    ):
        sub = scenarios_sub.add_parser(verb, help=help_text)
        add_space_argument(sub)
        add_observability_arguments(sub)
        sub.add_argument(
            "--chunk-size",
            type=int,
            default=None,
            metavar="N",
            help="platforms evaluated and persisted per chunk (default: 100)",
        )
        sub.add_argument(
            "--jobs",
            type=int,
            default=None,
            metavar="N",
            help="chunks evaluated concurrently: N processes, or 0 for one per CPU; "
            "default runs in-process.  Every jobs setting persists identical rows.",
        )
        sub.add_argument(
            "--max-chunks",
            type=int,
            default=None,
            metavar="N",
            help="evaluate at most N new chunks this invocation (budgeted sessions)",
        )
        sub.add_argument(
            "--workers",
            type=int,
            default=None,
            metavar="N",
            help="run N local 'scenarios work' processes under the lease "
            "coordinator: isolated per-worker stores, chunk leases with "
            "retries and timeouts, crashed workers restarted, and a "
            "canonical merge at the end (results identical to a "
            "single-writer run)",
        )
        sub.add_argument(
            "--faults",
            metavar="SPEC",
            default=None,
            help="inject a deterministic fault schedule into the local "
            "workers (requires --workers): comma-separated "
            "kind@chunk[:attempt] with kinds crash-pre, crash-post, hang, "
            "poison, abandon, partition, zombie — or random:SEED:RATE",
        )
        sub.add_argument(
            "--chunk-timeout",
            type=float,
            default=None,
            metavar="SECONDS",
            help="per-attempt budget of one chunk, in seconds (default: 60): "
            "the lease TTL, fixed when the chunk is claimed; once it has run "
            "out (plus the skew slack) the chunk is re-issued under a bumped "
            "epoch",
        )
        sub.add_argument(
            "--detached-workers",
            action="store_true",
            help="coordinate external 'scenarios work' processes over the "
            "shared store directory instead of spawning workers: wall-clock "
            "leases, epoch fencing, and a crash-recoverable coordinator "
            "journal",
        )
        sub.add_argument(
            "--skew-slack",
            type=float,
            default=None,
            metavar="SECONDS",
            help="wall-clock slack past a lease deadline before expiry may be "
            "declared (detached tier; default: 2.0) — set it above the worst "
            "clock skew between your machines",
        )
        sub.add_argument(
            "--wait-timeout",
            type=float,
            default=None,
            metavar="SECONDS",
            help="give up coordinating detached or local workers after this "
            "long (default: wait until the campaign completes)",
        )

    for verb, help_text in (
        ("merge", "fold per-worker fabric stores into the canonical store"),
        (
            "heal",
            "recover a fabric campaign whose coordinator died: merge worker "
            "stores, re-evaluate abandoned leases, clear stale lease files",
        ),
    ):
        sub = scenarios_sub.add_parser(verb, help=help_text)
        add_space_argument(sub)
        sub.add_argument(
            "--chunk-size",
            type=int,
            default=None,
            metavar="N",
            help="chunk size the campaign was started with, used only when the "
            "directory records none (default: the recorded size, else 100)",
        )
        if verb == "heal":
            sub.add_argument(
                "--skew-slack",
                type=float,
                default=None,
                metavar="SECONDS",
                help="wall-clock slack before a detached worker's lease counts "
                "as expired (default: the campaign advert's, else 2.0); live "
                "leases are left to their workers",
            )

    work = scenarios_sub.add_parser(
        "work",
        help="run a detached fabric worker over a shared campaign directory: "
        "claim chunk leases, append to an isolated per-worker store until "
        "the plan is complete (SIGTERM drains gracefully)",
    )
    work.add_argument(
        "store_dir",
        metavar="DIR",
        help="the campaign directory (…/<spec-hash>, as printed by the "
        "coordinator) — or, with --space, the store root the other verbs use",
    )
    work.add_argument(
        "--space",
        default=None,
        help="space name or spec JSON path; DIR is then the store root and "
        "the campaign directory is derived from the spec hash",
    )
    work.add_argument(
        "--count", type=int, default=None, metavar="N",
        help="override the family's platform count (derives a new space)",
    )
    work.add_argument(
        "--seed", type=int, default=None, metavar="N",
        help="override the family's seed (derives a new space)",
    )
    work.add_argument(
        "--owner",
        default=None,
        metavar="ID",
        help="worker id used for lease ownership and the per-worker store "
        "directory (default: <hostname>-<pid>)",
    )
    work.add_argument(
        "--faults",
        metavar="SPEC",
        default=None,
        help="act out a deterministic fault schedule in this worker "
        "(kind@chunk[:attempt], random:SEED:RATE, skew:SECONDS; kinds "
        "include partition and zombie)",
    )
    work.add_argument(
        "--poll",
        type=float,
        default=None,
        metavar="SECONDS",
        help="base delay between claim scans when nothing was claimable "
        "(jittered per owner; default: 0.25)",
    )
    work.add_argument(
        "--max-chunks",
        type=int,
        default=None,
        metavar="N",
        help="work at most N claims, then exit (budgeted workers)",
    )
    work.add_argument(
        "--wait",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="how long to wait for the coordinator's campaign advert to "
        "appear before giving up (default: 30)",
    )
    add_observability_arguments(work)

    status = scenarios_sub.add_parser(
        "status",
        help="live status view of a campaign directory: chunk progress, "
        "throughput/ETA, lease health, and phase/kernel profile from the "
        "telemetry sidecar when present",
    )
    status.add_argument(
        "store_dir",
        metavar="DIR",
        help="the campaign directory (…/<spec-hash>) — or, with --space, the "
        "store root the other verbs use",
    )
    status.add_argument(
        "--space",
        default=None,
        help="space name or spec JSON path; DIR is then the store root and "
        "the campaign directory is derived from the spec hash",
    )
    status.add_argument(
        "--count", type=int, default=None, metavar="N",
        help="override the family's platform count (derives a new space)",
    )
    status.add_argument(
        "--seed", type=int, default=None, metavar="N",
        help="override the family's seed (derives a new space)",
    )
    status.add_argument(
        "--follow",
        action="store_true",
        help="re-render every --interval seconds until the campaign completes",
    )
    status.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="refresh period for --follow (default: 2.0)",
    )

    report = scenarios_sub.add_parser(
        "report",
        help="post-hoc campaign forensics from the telemetry sidecar + "
        "coordinator journal: stitched causal trace, critical path, "
        "per-worker utilization, straggler and fault attribution "
        "(read-only; exits 0 even on torn or mid-crash campaign state)",
    )
    report.add_argument(
        "store_dir",
        metavar="DIR",
        help="the campaign directory (…/<spec-hash>) — or, with --space, the "
        "store root the other verbs use",
    )
    report.add_argument(
        "--space",
        default=None,
        help="space name or spec JSON path; DIR is then the store root and "
        "the campaign directory is derived from the spec hash",
    )
    report.add_argument(
        "--count", type=int, default=None, metavar="N",
        help="override the family's platform count (derives a new space)",
    )
    report.add_argument(
        "--seed", type=int, default=None, metavar="N",
        help="override the family's seed (derives a new space)",
    )
    report.add_argument(
        "--json",
        action="store_true",
        help="machine-readable JSON on stdout instead of the terminal report",
    )
    report.add_argument(
        "--trace-export",
        metavar="PATH",
        default=None,
        help="also write the stitched trace as Chrome trace-event JSON "
        "(loads in Perfetto / chrome://tracing)",
    )
    report.add_argument(
        "--compare",
        metavar="DIR",
        default=None,
        help="baseline campaign directory (resolved like DIR when --space "
        "is given): report per-phase regression deltas against it",
    )

    show = scenarios_sub.add_parser(
        "show", help="print a space's spec and any stored progress/aggregates"
    )
    add_space_argument(show)

    serve = scenarios_sub.add_parser(
        "serve",
        help="stdlib HTTP query service over the batched kernels: "
        "POST /v1/query, POST /v1/query/batch, GET /v1/healthz "
        "(no store directory; SIGTERM drains gracefully)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)")
    serve.add_argument(
        "--port",
        type=int,
        default=8765,
        help="bind port; 0 picks a free one and prints it (default: 8765)",
    )
    serve.add_argument(
        "--cache-size",
        type=int,
        default=1024,
        metavar="N",
        help="in-memory LRU capacity in answers (default: 1024)",
    )
    serve.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persistent answer-cache directory (survives restarts); also "
        "hosts the telemetry/ sidecar when --telemetry is on",
    )
    serve.add_argument(
        "--window",
        type=float,
        default=0.002,
        metavar="SECONDS",
        help="micro-batch latency budget: concurrent queries arriving within "
        "this window share one stacked kernel call (default: 0.002; 0 "
        "solves each miss immediately)",
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=64,
        metavar="N",
        help="flush the batching funnel early at N queued queries (default: 64)",
    )
    add_observability_arguments(serve)

    export = scenarios_sub.add_parser(
        "export", help="columnar .npz export of a finished campaign store"
    )
    add_space_argument(export)
    export.add_argument(
        "--npz",
        metavar="PATH",
        required=True,
        help="output .npz path: one float column per series plus "
        "platform/size index arrays and the spec JSON",
    )

    return parser


def _run(
    identifiers: Sequence[str],
    preset: str,
    jobs: int | None = None,
    seed: int | None = None,
) -> list[FigureResult]:
    results: list[FigureResult] = []
    for identifier in identifiers:
        overrides: dict[str, object] = {}
        if jobs is not None and _supports(identifier, "jobs"):
            # CLI convention: 0 means "one worker per CPU" (engine: None).
            overrides["jobs"] = None if jobs == 0 else jobs
        if seed is not None and _supports(identifier, "seed"):
            overrides["seed"] = seed
        results.extend(run_experiment(identifier, preset=preset, **overrides))
    return results


def _supports(identifier: str, parameter: str) -> bool:
    """Whether an experiment runner accepts the given parameter."""
    runner = EXPERIMENTS[identifier].runner
    return parameter in inspect.signature(runner).parameters


def _load_space(space: str):
    """Resolve a CLI space argument: spec JSON path or built-in name.

    Only a ``.json`` suffix selects the file path route, so a stray local
    file named like a built-in space cannot shadow it.
    """
    import json

    from repro.exceptions import ExperimentError
    from repro.scenarios.spec import ScenarioSpec, named_space

    if not space.endswith(".json"):
        return named_space(space)
    path = Path(space)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as error:
        raise ExperimentError(f"cannot read scenario spec {space!r}: {error}") from None
    try:
        return ScenarioSpec.from_json(text)
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as error:
        raise ExperimentError(f"invalid scenario spec {space!r}: {error}") from None


def _show_fabric_state(snapshot) -> None:
    """Print any fabric leftovers (worker stores, leases) of a campaign snapshot."""
    if snapshot.workers:
        print(f"worker stores pending merge: {', '.join(snapshot.workers)}")
    if snapshot.leases:
        chunks = ", ".join(
            f"{lease.chunk} (owner {lease.owner}, epoch {lease.epoch})"
            for lease in snapshot.leases
        )
        print(f"outstanding leases: {chunks}")
    if snapshot.workers or snapshot.leases:
        print("recover with 'scenarios heal' (or fold results in with 'scenarios merge')")


def _build_telemetry(args: argparse.Namespace, campaign_dir: Path, owner: str):
    """Honour ``--log-level`` and construct the ``--telemetry`` emitter.

    Returns ``None`` when telemetry is off — ``repro.obs.activate(None)``
    then installs the shared no-op sink, so the call sites need no
    branching.
    """
    from repro.obs import TELEMETRY_DIR_NAME, Telemetry, configure_logging

    if getattr(args, "log_level", None):
        configure_logging(args.log_level)
    mode = getattr(args, "telemetry", "off")
    if mode == "off":
        return None
    return Telemetry(Path(campaign_dir) / TELEMETRY_DIR_NAME, owner=owner, mode=mode)


def _serve_main(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """``scenarios serve``: the stdlib HTTP query service (no store dir)."""
    from repro.api import QueryService
    from repro.api.server import run_server
    from repro.obs import activate

    if args.window < 0:
        parser.error(f"--window must be >= 0 seconds, got {args.window}")
    if args.max_batch < 1:
        parser.error(f"--max-batch must be at least 1, got {args.max_batch}")
    if args.cache_size < 1:
        parser.error(f"--cache-size must be at least 1, got {args.cache_size}")
    if args.telemetry != "off" and args.cache_dir is None:
        parser.error("--telemetry needs --cache-dir (the sidecar lives under it)")
    service = QueryService(
        cache_size=args.cache_size,
        cache_dir=args.cache_dir,
        window=args.window,
        max_batch=args.max_batch,
    )
    telemetry = _build_telemetry(args, Path(args.cache_dir or "."), owner="serve")
    with activate(telemetry):
        return run_server(args.host, args.port, service=service)


def _scenarios_main(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from repro.scenarios.runner import DEFAULT_CHUNK_SIZE, aggregate_figure, run_campaign
    from repro.scenarios.spec import NAMED_SPACES, available_spaces, spec_hash
    from repro.scenarios.store import CampaignStore

    if args.scenarios_command == "list":
        for name in available_spaces():
            spec = NAMED_SPACES[name]
            print(
                f"{name:22s} {spec.workload.kind:7s} {spec.scenario_count:7d} scenarios  "
                f"[{spec_hash(spec)}]  {spec.description}"
            )
        return 0

    if args.scenarios_command == "serve":
        return _serve_main(args, parser)

    if args.scenarios_command in ("work", "status", "report"):
        campaign_dir = Path(args.store_dir)
        spec = None
        if args.space is not None:
            spec = _load_space(args.space)
            if args.count is not None:
                spec = spec.derive(count=args.count)
            if args.seed is not None:
                spec = spec.derive(seed=args.seed)
            campaign_dir = campaign_dir / spec_hash(spec)

        if args.scenarios_command == "report":
            import json as json_module

            from repro.obs import (
                analyze_campaign,
                compare_reports,
                render_comparison,
                report_to_json,
                write_chrome_trace,
            )
            from repro.obs import render_report as render_campaign_report

            forensics = analyze_campaign(campaign_dir)
            comparison = None
            if args.compare is not None:
                baseline_dir = Path(args.compare)
                if spec is not None:
                    baseline_dir = baseline_dir / spec_hash(spec)
                comparison = compare_reports(forensics, analyze_campaign(baseline_dir))
            if args.trace_export is not None:
                events = write_chrome_trace(campaign_dir, args.trace_export)
                # On stderr so --json keeps stdout as one parseable document.
                print(
                    f"wrote {args.trace_export}: {events} trace event(s)",
                    file=sys.stderr,
                )
            if args.json:
                payload = report_to_json(forensics)
                if comparison is not None:
                    payload["compare"] = comparison
                print(json_module.dumps(payload, indent=2, sort_keys=True))
            else:
                print(render_campaign_report(forensics))
                if comparison is not None:
                    print()
                    print(render_comparison(comparison))
            return 0

        if args.scenarios_command == "status":
            from repro.scenarios.status import collect_status, follow_status, render_status

            if args.follow:
                follow_status(campaign_dir, interval=args.interval)
            else:
                print(render_status(collect_status(campaign_dir)))
            return 0

        from repro.obs import activate as activate_telemetry
        from repro.scenarios.detached import DEFAULT_CLAIM_POLL, default_owner, work_loop

        owner = args.owner or default_owner()
        telemetry = _build_telemetry(args, campaign_dir, owner)
        with activate_telemetry(telemetry):
            report = work_loop(
                campaign_dir,
                owner=owner,
                faults=args.faults,
                poll=args.poll if args.poll is not None else DEFAULT_CLAIM_POLL,
                max_chunks=args.max_chunks,
                wait=args.wait,
                install_signal_handlers=True,
                spec=spec,
            )
        print(report.describe())
        return 0

    spec = _load_space(args.space)
    if getattr(args, "count", None) is not None:
        spec = spec.derive(count=args.count)
    if getattr(args, "seed", None) is not None:
        spec = spec.derive(seed=args.seed)
    store = CampaignStore(args.store)

    if args.scenarios_command == "show":
        print(spec.to_json())
        state = store.campaign(spec) if store.exists(spec) else None
        if state is None:
            print(f"\nno stored results under {store.root} (hash {spec_hash(spec)})")
            return 0
        from repro.obs.campaign import CampaignSnapshot

        snapshot = CampaignSnapshot.read(state.directory)
        print(f"\nstore: {state.directory}")
        print(f"completed chunks: {len(state.completed_chunks)}")
        if state.recovered_tail is not None:
            print(f"recovered on open: {state.recovered_tail.describe()}")
            print(
                f"telemetry sidecar: {snapshot.dropped_span_lines} torn line(s) dropped by "
                "the tolerant reader (telemetry is additive; the campaign is unaffected)"
            )
        _show_fabric_state(snapshot)
        count = state.row_count()
        print(f"persisted scenarios: {count} of {spec.scenario_count}")
        if count:
            print()
            print(aggregate_figure(spec, state.aggregate()).format_table())
        return 0

    if args.scenarios_command in ("merge", "heal"):
        from repro.exceptions import ExperimentError
        from repro.obs.campaign import CampaignSnapshot
        from repro.scenarios.fabric import (
            heal_campaign,
            merge_worker_stores,
            recorded_chunk_size,
        )
        from repro.scenarios.runner import plan_chunks

        if not store.exists(spec):
            parser.error(
                f"no campaign for {spec.name!r} (hash {spec_hash(spec)}) under "
                f"store {store.root}; start one with:\n"
                f"  repro-experiments scenarios run {args.space} --store {args.store}"
            )
        state = store.campaign(spec)
        try:
            chunk_size = recorded_chunk_size(
                CampaignSnapshot.read(state.directory), spec, args.chunk_size
            )
        except ExperimentError as error:
            parser.error(str(error))
        # One normalized shape for every store-path mention (plain str, no
        # repr) and a copy-pasteable recovery command, same as the run
        # verb's KeyboardInterrupt path: the spec derivations (a different
        # --count/--seed is a different spec hash) and the chunk plan.
        resume_hint = (
            f"  repro-experiments scenarios resume {args.space} --store {args.store}"
        )
        if args.chunk_size is not None or chunk_size != DEFAULT_CHUNK_SIZE:
            resume_hint += f" --chunk-size {chunk_size}"
        for flag in ("count", "seed"):
            if getattr(args, flag) is not None:
                resume_hint += f" --{flag} {getattr(args, flag)}"
        if args.scenarios_command == "merge":
            report = merge_worker_stores(state)
            print(f"store: {state.directory}")
            print(report.describe())
            if len(state.completed_chunks) < len(plan_chunks(spec.family.count, chunk_size)):
                print(f"campaign incomplete; finish with:\n{resume_hint}")
        else:
            report = heal_campaign(spec, store, chunk_size=chunk_size, skew_slack=args.skew_slack)
            print(f"store: {report.state.directory}")
            print(report.describe())
            if report.live_leases:
                print(
                    f"live lease(s) on chunk(s) {report.live_leases} were left to "
                    "their workers; re-run heal once they finish or expire"
                )
            if not report.complete:
                print(
                    f"campaign still incomplete; finish the remaining chunks "
                    f"with:\n{resume_hint}"
                )
        return 0

    if args.scenarios_command == "export":
        if not store.exists(spec):
            parser.error(
                f"no campaign for {spec.name!r} (hash {spec_hash(spec)}) under "
                f"{store.root}; run it first with 'scenarios run'"
            )
        state = store.campaign(spec)
        covered = state.covered_platforms()
        if covered < spec.family.count:
            parser.error(
                f"campaign {spec.name!r} is incomplete ({covered} of "
                f"{spec.family.count} platforms persisted); finish it with "
                "'scenarios resume' before exporting"
            )
        summary = state.export_npz(args.npz)
        print(
            f"wrote {summary['path']}: {summary['rows']} rows, "
            f"{len(summary['series'])} series columns"
        )
        return 0

    # run / resume
    if args.scenarios_command == "resume" and not store.exists(spec):
        parser.error(
            f"no campaign for {spec.name!r} (hash {spec_hash(spec)}) under {store.root}; "
            "start one with 'scenarios run'"
        )
    if args.jobs is not None and args.jobs < 0:
        parser.error(f"--jobs must be 0 (one per CPU) or a positive count, got {args.jobs}")
    if args.workers is not None and args.workers < 1:
        parser.error(f"--workers must be a positive count, got {args.workers}")
    if args.detached_workers and args.workers is not None:
        parser.error(
            "--detached-workers coordinates external 'scenarios work' processes; "
            "it cannot be combined with --workers (which spawns its own)"
        )
    if args.detached_workers and args.faults is not None:
        parser.error(
            "--faults on the detached tier belongs to the workers: pass it to "
            "'scenarios work', not to the coordinator"
        )
    if args.detached_workers and args.max_chunks is not None:
        parser.error("--max-chunks is not supported with --detached-workers")
    if args.faults is not None and args.workers is None:
        parser.error("--faults injects faults into local workers; it requires --workers")
    if args.skew_slack is not None and not args.detached_workers:
        parser.error("--skew-slack applies to --detached-workers only")
    if args.wait_timeout is not None and not (args.detached_workers or args.workers is not None):
        parser.error("--wait-timeout applies to --detached-workers or --workers only")
    kwargs: dict[str, object] = {}
    if args.chunk_size is not None:
        kwargs["chunk_size"] = args.chunk_size
    # The copy-pasteable resume command must reproduce every flag that
    # shapes the campaign: spec derivations (a different --count/--seed is
    # a different spec hash) and the chunk plan (a different --chunk-size
    # is rejected by the store).
    resume_hint = f"  repro-experiments scenarios resume {args.space} --store {args.store}"
    for flag in ("chunk_size", "count", "seed", "workers"):
        value = getattr(args, flag)
        if value is not None:
            resume_hint += f" --{flag.replace('_', '-')} {value}"
    from repro.obs import activate as activate_telemetry

    coordinated = args.detached_workers or args.workers is not None
    telemetry = _build_telemetry(args, store.root / spec_hash(spec), "main")
    try:
        with activate_telemetry(telemetry):
            if coordinated:
                from repro.scenarios.detached import run_detached_campaign
                from repro.scenarios.fabric import FaultPolicy

                policy_kwargs: dict[str, float] = {}
                if args.chunk_timeout is not None:
                    policy_kwargs["timeout"] = args.chunk_timeout
                if args.skew_slack is not None:
                    policy_kwargs["skew_slack"] = args.skew_slack
                progress = run_detached_campaign(
                    spec,
                    store,
                    policy=FaultPolicy(**policy_kwargs),
                    wait_timeout=args.wait_timeout,
                    progress=lambda done, total: print(f"  chunks {done}/{total}", flush=True),
                    workers=args.workers or 0,
                    faults=args.faults,
                    max_chunks=args.max_chunks,
                    **kwargs,
                )
                if progress.resumed_from_journal:
                    print("coordinator restarted: journal replayed")
            else:
                progress = run_campaign(
                    spec,
                    store,
                    jobs=None if args.jobs == 0 else (args.jobs if args.jobs is not None else 1),
                    max_chunks=args.max_chunks,
                    progress=lambda done, total: print(f"  chunks {done}/{total}", flush=True),
                    **kwargs,
                )
    except KeyboardInterrupt:
        state = store.campaign(spec)
        print(
            f"\ninterrupted: {len(state.completed_chunks)} chunk(s) persisted under "
            f"{state.directory}; finish with:\n{resume_hint}"
        )
        return 130
    state = progress.state
    print(f"store: {state.directory}")
    print(
        f"chunks: {progress.completed_after}/{progress.total_chunks} complete "
        f"({progress.completed_after - progress.completed_before} new)"
    )
    if coordinated and (progress.retries or progress.degraded_chunks):
        print(
            f"fabric: {progress.retries} retried attempt(s), "
            f"{len(progress.degraded_chunks)} chunk(s) degraded to in-parent evaluation"
        )
    if not progress.finished:
        print(f"campaign incomplete; finish with:\n{resume_hint}")
    if state.row_count():
        print()
        print(aggregate_figure(spec, progress.aggregate()).format_table())
    return 0


def exit_quietly_on_broken_pipe() -> int:
    """Shared ``BrokenPipeError`` epilogue for every CLI verb.

    Output piped to a consumer that exited early (``... | head``): the
    POSIX convention is a quiet exit.  Point stdout at devnull so
    interpreter shutdown does not raise a second time on flush.  Streams
    without a real file descriptor (test captures, embedded use) have
    nothing to silence and are left alone.
    """
    import os

    try:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except (OSError, ValueError, AttributeError):
        pass
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point of the ``repro-experiments`` console script.

    Every verb — including long-running ones like ``work``, ``status
    --follow`` and ``serve`` — dispatches through here, so the
    broken-pipe guard below is uniform across the whole surface.
    """
    try:
        return _main(argv)
    except BrokenPipeError:
        return exit_quietly_on_broken_pipe()


def _main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "list":
        for identifier in available_experiments():
            print(f"{identifier:8s} {EXPERIMENTS[identifier].description}")
        return 0

    if args.command == "scenarios":
        return _scenarios_main(args, parser)

    if args.command == "run":
        if args.jobs is not None and args.jobs < 0:
            parser.error(f"--jobs must be 0 (one per CPU) or a positive count, got {args.jobs}")
        if args.experiment == "all":
            identifiers = available_experiments()
        else:
            identifiers = [args.experiment]
        results = _run(identifiers, args.preset, jobs=args.jobs, seed=args.seed)
        for result in results:
            print(result.format_table())
            print()
        if args.csv:
            with open(args.csv, "w", encoding="utf-8") as handle:
                handle.write(to_csv(results))
            print(f"wrote {args.csv}")
        if args.markdown:
            with open(args.markdown, "w", encoding="utf-8") as handle:
                handle.write(render_report(results))
            print(f"wrote {args.markdown}")
        return 0

    parser.error(f"unknown command {args.command!r}")  # pragma: no cover - argparse exits
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
