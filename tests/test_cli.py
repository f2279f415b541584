"""Tests for the command-line interface (:mod:`repro.cli`)."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list_command_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command_defaults(self):
        args = build_parser().parse_args(["run", "fig08"])
        assert args.experiment == "fig08"
        assert args.preset == "paper"
        assert args.csv is None

    def test_run_command_options(self):
        args = build_parser().parse_args(
            ["run", "fig14", "--preset", "quick", "--csv", "out.csv", "--markdown", "out.md"]
        )
        assert args.preset == "quick"
        assert args.csv == "out.csv"
        assert args.markdown == "out.md"

    def test_invalid_preset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig08", "--preset", "gigantic"])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        assert "repro-experiments" in capsys.readouterr().out


class TestMain:
    def test_list_prints_every_experiment(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for identifier in ("fig08", "fig09", "fig10", "fig11", "fig12", "fig13", "fig14"):
            assert identifier in out

    def test_run_single_experiment_quick(self, capsys):
        assert main(["run", "fig08", "--preset", "quick"]) == 0
        out = capsys.readouterr().out
        assert "fig08" in out
        assert "worker 1" in out

    def test_run_writes_csv_and_markdown(self, tmp_path, capsys):
        csv_path = tmp_path / "series.csv"
        md_path = tmp_path / "report.md"
        code = main(
            [
                "run",
                "fig14",
                "--preset",
                "quick",
                "--csv",
                str(csv_path),
                "--markdown",
                str(md_path),
            ]
        )
        assert code == 0
        assert csv_path.exists() and md_path.exists()
        assert "figure,series,x,y" in csv_path.read_text()
        assert "fig14" in md_path.read_text()

    def test_run_unknown_experiment_raises(self):
        from repro.exceptions import ExperimentError

        with pytest.raises(ExperimentError):
            main(["run", "fig99", "--preset", "quick"])

    def test_run_threads_seed_to_every_experiment(self, capsys):
        """`run all --seed` is accepted uniformly (figs 08-14 + crossover)."""
        assert main(["run", "fig14", "--preset", "quick", "--seed", "5"]) == 0
        assert "fig14" in capsys.readouterr().out

    def test_seed_changes_random_campaigns(self, capsys):
        assert main(["run", "fig12", "--preset", "quick", "--seed", "12"]) == 0
        baseline = capsys.readouterr().out
        assert main(["run", "fig12", "--preset", "quick", "--seed", "99"]) == 0
        reseeded = capsys.readouterr().out
        assert baseline != reseeded


class TestScenariosCommands:
    @pytest.fixture()
    def tiny_space(self, tmp_path):
        from repro.scenarios.spec import named_space

        spec = named_space("fig12").derive(
            name="cli-tiny", count=4, matrix_sizes=(40, 120)
        )
        path = tmp_path / "space.json"
        path.write_text(spec.to_json(), encoding="utf-8")
        return spec, path, tmp_path / "store"

    def test_scenarios_list(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig10", "fig12", "bimodal", "power-law", "mega-uniform"):
            assert name in out

    def test_scenarios_run_and_show(self, capsys, tiny_space):
        spec, path, store = tiny_space
        code = main(
            ["scenarios", "run", str(path), "--store", str(store), "--chunk-size", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "chunks: 2/2 complete" in out
        assert "INC_C lp" in out

        assert main(["scenarios", "show", str(path), "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert '"name": "cli-tiny"' in out
        assert "persisted scenarios: 8 of 8" in out

    def test_scenarios_run_is_idempotent(self, capsys, tiny_space):
        spec, path, store = tiny_space
        assert main(["scenarios", "run", str(path), "--store", str(store)]) == 0
        capsys.readouterr()
        assert main(["scenarios", "run", str(path), "--store", str(store)]) == 0
        assert "(0 new)" in capsys.readouterr().out

    def test_scenarios_interrupt_then_resume(self, capsys, tiny_space):
        spec, path, store = tiny_space
        code = main(
            [
                "scenarios", "run", str(path),
                "--store", str(store), "--chunk-size", "1", "--max-chunks", "2",
            ]
        )
        assert code == 0
        assert "campaign incomplete" in capsys.readouterr().out
        code = main(
            ["scenarios", "resume", str(path), "--store", str(store), "--chunk-size", "1"]
        )
        assert code == 0
        assert "chunks: 4/4 complete" in capsys.readouterr().out

    def test_scenarios_resume_requires_prior_results(self, tiny_space):
        spec, path, store = tiny_space
        with pytest.raises(SystemExit):
            main(["scenarios", "resume", str(path), "--store", str(store)])

    def test_scenarios_run_named_space_with_overrides(self, capsys, tmp_path):
        code = main(
            [
                "scenarios", "run", "fig10",
                "--store", str(tmp_path), "--count", "3", "--seed", "10",
            ]
        )
        assert code == 0
        assert "chunks: 1/1 complete" in capsys.readouterr().out

    def test_scenarios_show_without_results(self, capsys, tiny_space):
        spec, path, store = tiny_space
        assert main(["scenarios", "show", str(path), "--store", str(store)]) == 0
        assert "no stored results" in capsys.readouterr().out

    def test_incomplete_hint_reproduces_flags(self, capsys, tmp_path):
        """The printed resume command must carry every flag that shapes the
        campaign (spec derivations and the chunk plan)."""
        code = main(
            [
                "scenarios", "run", "fig10",
                "--store", str(tmp_path), "--count", "4", "--seed", "10",
                "--chunk-size", "1", "--max-chunks", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "--chunk-size 1" in out
        assert "--count 4" in out
        assert "--seed 10" in out

    def test_missing_spec_file_reports_cleanly(self, tmp_path):
        from repro.exceptions import ExperimentError

        with pytest.raises(ExperimentError, match="cannot read scenario spec"):
            main(["scenarios", "show", str(tmp_path / "nope.json")])

    def test_invalid_spec_file_reports_cleanly(self, tmp_path):
        from repro.exceptions import ExperimentError

        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ExperimentError, match="invalid scenario spec"):
            main(["scenarios", "show", str(path)])

    def test_scenarios_show_on_partial_store(self, capsys, tiny_space):
        """`show` must render a partially persisted campaign: honest chunk
        and row counts plus the aggregate of what exists so far."""
        spec, path, store = tiny_space
        code = main(
            [
                "scenarios", "run", str(path),
                "--store", str(store), "--chunk-size", "1", "--max-chunks", "3",
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert main(["scenarios", "show", str(path), "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "completed chunks: 3" in out
        assert "persisted scenarios: 6 of 8" in out
        assert "INC_C lp" in out

    def test_scenarios_show_on_empty_partial_directory(self, capsys, tiny_space):
        """A store directory created but holding zero completed chunks
        (killed before the first append) still shows cleanly."""
        from repro.scenarios.store import CampaignStore

        spec, path, store = tiny_space
        CampaignStore(store).campaign(spec)  # creates spec.json, no chunks
        assert main(["scenarios", "show", str(path), "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "completed chunks: 0" in out
        assert "persisted scenarios: 0 of 8" in out

    def test_scenarios_export_npz(self, capsys, tiny_space, tmp_path):
        spec, path, store = tiny_space
        assert main(["scenarios", "run", str(path), "--store", str(store)]) == 0
        capsys.readouterr()
        out_path = tmp_path / "columns.npz"
        code = main(
            ["scenarios", "export", str(path), "--store", str(store),
             "--npz", str(out_path)]
        )
        assert code == 0
        assert "8 rows" in capsys.readouterr().out
        import numpy as np

        with np.load(out_path) as archive:
            assert archive["platform"].shape == (8,)
            assert "INC_C lp" in archive

    def test_scenarios_export_requires_results(self, tiny_space, tmp_path):
        spec, path, store = tiny_space
        with pytest.raises(SystemExit):
            main(
                ["scenarios", "export", str(path), "--store", str(store),
                 "--npz", str(tmp_path / "x.npz")]
            )

    def test_scenarios_export_rejects_partial_store(self, capsys, tiny_space, tmp_path):
        spec, path, store = tiny_space
        assert main(
            ["scenarios", "run", str(path), "--store", str(store),
             "--chunk-size", "1", "--max-chunks", "2"]
        ) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main(
                ["scenarios", "export", str(path), "--store", str(store),
                 "--npz", str(tmp_path / "x.npz")]
            )
        assert "incomplete" in capsys.readouterr().err

    def test_scenarios_list_includes_two_port_spaces(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        assert "fig12-twoport" in out
        assert "mega-uniform-twoport" in out

    def test_scenarios_list_names_the_workload_kind(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("bus-theorem2", "bus-hetero", "fig08-probe", "fig09-trace"):
            assert name in out
        assert "bus" in out and "probe" in out and "matrix" in out

    def test_scenarios_bus_space_interrupt_resume_export(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        assert main(
            ["scenarios", "run", "bus-hetero", "--count", "4", "--store", store,
             "--chunk-size", "2", "--max-chunks", "1"]
        ) == 0
        assert "campaign incomplete" in capsys.readouterr().out
        assert main(
            ["scenarios", "resume", "bus-hetero", "--count", "4", "--store", store,
             "--chunk-size", "2"]
        ) == 0
        assert "chunks: 2/2 complete" in capsys.readouterr().out
        npz = tmp_path / "bus.npz"
        assert main(
            ["scenarios", "export", "bus-hetero", "--count", "4", "--store", store,
             "--npz", str(npz)]
        ) == 0
        import numpy as np

        with np.load(npz) as archive:
            assert "bus closed-form" in archive
            assert archive["size"].dtype == np.float64

    def test_scenarios_probe_space_runs_and_shows(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        assert main(["scenarios", "run", "fig08-probe", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "chunks: 1/1 complete" in out
        assert "worker 1 transfer" in out
        assert main(["scenarios", "show", "fig08-probe", "--store", store]) == 0
        assert "persisted scenarios: 10 of 10" in capsys.readouterr().out

    def test_spec_file_with_bad_distribution_reports_cleanly(self, tmp_path):
        """The spec error path surfaces through the CLI with the kind named."""
        import json

        from repro.exceptions import ExperimentError
        from repro.scenarios.spec import named_space

        payload = named_space("fig12").as_dict()
        payload["family"]["comm"] = {"kind": "zipf", "params": {"s": 2.0}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ExperimentError, match="unknown distribution kind"):
            main(["scenarios", "show", str(path)])

    def test_local_file_cannot_shadow_named_space(self, tmp_path, monkeypatch, capsys):
        """A stray file named like a built-in space must not hijack it."""
        (tmp_path / "fig10").write_text("not a spec", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert main(["scenarios", "show", "fig10", "--store", str(tmp_path / "s")]) == 0
        assert '"name": "fig10"' in capsys.readouterr().out


class TestFabricCommands:
    """The fault-tolerant fabric through the CLI: --workers/--faults on
    run/resume, the heal and merge verbs, and the show diagnostics."""

    @pytest.fixture()
    def tiny_space(self, tmp_path):
        from repro.scenarios.spec import named_space

        spec = named_space("fig12").derive(
            name="cli-fabric", count=6, matrix_sizes=(40, 120), noise=None
        )
        path = tmp_path / "space.json"
        path.write_text(spec.to_json(), encoding="utf-8")
        return spec, path, tmp_path / "store"

    def test_run_with_workers_matches_single_writer_bytes(self, capsys, tiny_space, tmp_path):
        from repro.scenarios.spec import spec_hash

        spec, path, store = tiny_space
        single = tmp_path / "single"
        code = main(
            ["scenarios", "run", str(path), "--store", str(single), "--chunk-size", "2"]
        )
        assert code == 0
        capsys.readouterr()
        # --wait-timeout bounds local workers too.
        code = main(
            [
                "scenarios", "run", str(path),
                "--store", str(store), "--chunk-size", "2", "--workers", "2",
                "--wait-timeout", "120",
            ]
        )
        assert code == 0
        assert "chunks: 3/3 complete" in capsys.readouterr().out
        reference = (single / spec_hash(spec) / "chunks.jsonl").read_bytes()
        assert (store / spec_hash(spec) / "chunks.jsonl").read_bytes() == reference

    def test_faults_requires_workers(self, tiny_space):
        spec, path, store = tiny_space
        with pytest.raises(SystemExit):
            main(
                ["scenarios", "run", str(path), "--store", str(store),
                 "--faults", "crash-pre@0"]
            )

    def test_workers_must_be_positive(self, tiny_space):
        spec, path, store = tiny_space
        with pytest.raises(SystemExit):
            main(
                ["scenarios", "run", str(path), "--store", str(store), "--workers", "0"]
            )

    def test_chaos_run_completes_campaign(self, capsys, tiny_space, tmp_path):
        from repro.scenarios.spec import spec_hash

        spec, path, store = tiny_space
        single = tmp_path / "single"
        assert main(
            ["scenarios", "run", str(path), "--store", str(single), "--chunk-size", "2"]
        ) == 0
        capsys.readouterr()
        code = main(
            [
                "scenarios", "run", str(path),
                "--store", str(store), "--chunk-size", "2", "--workers", "2",
                "--faults", "crash-pre@0,poison@1", "--chunk-timeout", "5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "chunks: 3/3 complete" in out
        assert "fabric: " in out  # the crash-pre retry is reported
        assert "1 chunk(s) degraded" in out  # the poisoned chunk
        assert "campaign incomplete" not in out
        reference = (single / spec_hash(spec) / "chunks.jsonl").read_bytes()
        assert (store / spec_hash(spec) / "chunks.jsonl").read_bytes() == reference

    def test_budgeted_run_then_heal_completes_campaign(self, capsys, tiny_space):
        import time

        spec, path, store = tiny_space
        # One worker, three claims: chunks 0 and 1 done, chunk 2 claimed and
        # walked away from — its lease is left behind when the budget runs out.
        code = main(
            [
                "scenarios", "run", str(path),
                "--store", str(store), "--chunk-size", "2", "--workers", "1",
                "--max-chunks", "3", "--faults", "abandon@2", "--chunk-timeout", "0.2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "chunks: 2/3 complete" in out
        assert "campaign incomplete" in out

        # show surfaces the outstanding lease before healing.
        assert main(["scenarios", "show", str(path), "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "outstanding leases: 2 (owner w0, epoch 0)" in out
        assert "recover with 'scenarios heal'" in out

        time.sleep(0.3)  # let the abandoned 0.2 s lease run out
        code = main(
            ["scenarios", "heal", str(path), "--store", str(store), "--chunk-size", "2",
             "--skew-slack", "0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "healed 1 abandoned chunk(s)" in out
        assert "still incomplete" not in out

        assert main(["scenarios", "show", str(path), "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "persisted scenarios: 12 of 12" in out
        assert "outstanding leases" not in out

    def test_merge_verb_on_clean_campaign_is_a_no_op(self, capsys, tiny_space):
        spec, path, store = tiny_space
        assert main(["scenarios", "run", str(path), "--store", str(store)]) == 0
        capsys.readouterr()
        assert main(["scenarios", "merge", str(path), "--store", str(store)]) == 0
        assert "merged 0 new chunk(s)" in capsys.readouterr().out

    def test_heal_requires_prior_campaign(self, tiny_space):
        spec, path, store = tiny_space
        with pytest.raises(SystemExit):
            main(["scenarios", "heal", str(path), "--store", str(store)])

    def test_show_reports_torn_tail_recovery(self, capsys, tiny_space):
        from repro.scenarios.spec import spec_hash

        spec, path, store = tiny_space
        assert main(
            ["scenarios", "run", str(path), "--store", str(store), "--chunk-size", "2"]
        ) == 0
        capsys.readouterr()
        chunks_path = store / spec_hash(spec) / "chunks.jsonl"
        with open(chunks_path, "a", encoding="utf-8") as handle:
            handle.write('{"chunk": 3, "start": 6, "rows": [{"pla')
        assert main(["scenarios", "show", str(path), "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "recovered on open: dropped torn tail of chunk 3" in out


class TestDetachedCommands:
    """The multi-machine tier through the CLI: the 'work' verb and the
    '--detached-workers' coordinator mode over one shared store."""

    @pytest.fixture()
    def tiny_space(self, tmp_path):
        from repro.scenarios.spec import named_space

        spec = named_space("fig12").derive(
            name="cli-detached", count=6, matrix_sizes=(40, 120), noise=None
        )
        path = tmp_path / "space.json"
        path.write_text(spec.to_json(), encoding="utf-8")
        return spec, path, tmp_path / "store"

    @pytest.fixture(autouse=True)
    def restore_signal_handlers(self):
        import signal

        term = signal.getsignal(signal.SIGTERM)
        intr = signal.getsignal(signal.SIGINT)
        yield
        signal.signal(signal.SIGTERM, term)
        signal.signal(signal.SIGINT, intr)

    def test_work_gives_up_without_a_coordinator(self, capsys, tmp_path):
        code = main(
            ["scenarios", "work", str(tmp_path / "empty"), "--owner", "w0",
             "--wait", "0.1"]
        )
        assert code == 0
        assert "worker w0: 0 chunk(s) completed" in capsys.readouterr().out

    def test_work_and_detached_coordinator_converge(self, capsys, tiny_space, tmp_path):
        import multiprocessing

        from repro.scenarios.spec import spec_hash

        spec, path, store = tiny_space
        single = tmp_path / "single"
        assert main(
            ["scenarios", "run", str(path), "--store", str(single), "--chunk-size", "2"]
        ) == 0
        capsys.readouterr()

        ctx = multiprocessing.get_context("fork")
        workers = [
            ctx.Process(
                target=main,
                args=(
                    ["scenarios", "work", str(store), "--space", str(path),
                     "--owner", f"cli-w{index}", "--poll", "0.05", "--wait", "20"],
                ),
            )
            for index in range(2)
        ]
        for process in workers:
            process.start()
        try:
            code = main(
                [
                    "scenarios", "run", str(path), "--store", str(store),
                    "--chunk-size", "2", "--detached-workers",
                    "--chunk-timeout", "5", "--wait-timeout", "60",
                ]
            )
        finally:
            for process in workers:
                process.join(timeout=30)
                if process.is_alive():
                    process.kill()
                    process.join()
        assert code == 0
        assert "chunks: 3/3 complete" in capsys.readouterr().out
        reference = (single / spec_hash(spec) / "chunks.jsonl").read_bytes()
        assert (store / spec_hash(spec) / "chunks.jsonl").read_bytes() == reference

    def test_detached_workers_rejects_spawning_flags(self, tiny_space):
        spec, path, store = tiny_space
        for extra in (
            ["--workers", "2"],
            ["--faults", "crash-pre@0"],
            ["--max-chunks", "1"],
        ):
            with pytest.raises(SystemExit):
                main(
                    ["scenarios", "run", str(path), "--store", str(store),
                     "--detached-workers", *extra]
                )

    def test_skew_slack_requires_detached_workers(self, tiny_space):
        spec, path, store = tiny_space
        with pytest.raises(SystemExit):
            main(
                ["scenarios", "run", str(path), "--store", str(store),
                 "--skew-slack", "5"]
            )
        with pytest.raises(SystemExit):
            main(
                ["scenarios", "run", str(path), "--store", str(store),
                 "--wait-timeout", "5"]
            )


class TestServeCommand:
    """``scenarios serve`` wiring: parser surface, validation, dispatch."""

    def test_parser_defaults(self):
        args = build_parser().parse_args(["scenarios", "serve"])
        assert args.scenarios_command == "serve"
        assert args.host == "127.0.0.1"
        assert args.port == 8765
        assert args.cache_size == 1024
        assert args.cache_dir is None
        assert args.window == 0.002
        assert args.max_batch == 64
        assert args.telemetry == "off"

    def test_parser_options(self, tmp_path):
        args = build_parser().parse_args(
            ["scenarios", "serve", "--host", "0.0.0.0", "--port", "0",
             "--cache-size", "9", "--cache-dir", str(tmp_path),
             "--window", "0", "--max-batch", "1", "--telemetry", "on"]
        )
        assert args.port == 0
        assert args.cache_size == 9
        assert args.window == 0.0
        assert args.max_batch == 1

    @pytest.mark.parametrize(
        "flags",
        [
            ["--window", "-0.1"],
            ["--max-batch", "0"],
            ["--cache-size", "0"],
            ["--telemetry", "on"],  # needs --cache-dir for the sidecar
        ],
    )
    def test_validation_rejects(self, flags):
        with pytest.raises(SystemExit):
            main(["scenarios", "serve", *flags])

    def test_dispatches_to_run_server(self, monkeypatch, tmp_path):
        calls = {}

        def fake_run_server(host, port, *, service=None, stop=None):
            calls["host"], calls["port"] = host, port
            calls["service"] = service
            return 0

        import repro.api.server

        monkeypatch.setattr(repro.api.server, "run_server", fake_run_server)
        code = main(
            ["scenarios", "serve", "--port", "0", "--cache-dir", str(tmp_path),
             "--cache-size", "7", "--window", "0.01", "--max-batch", "3"]
        )
        assert code == 0
        assert calls["host"] == "127.0.0.1" and calls["port"] == 0
        service = calls["service"]
        assert service.cache.max_entries == 7
        assert service.cache.directory == tmp_path
        assert service.funnel.window == 0.01
        assert service.funnel.max_batch == 3


class TestBrokenPipeGuard:
    """Satellite 3: every verb exits quietly when the consumer hangs up."""

    def test_main_routes_broken_pipe_to_the_shared_helper(self, monkeypatch):
        from repro import cli

        def boom(argv=None):
            raise BrokenPipeError

        # Stub the helper: its dup2 onto fd 1 would clobber pytest's own
        # capture; the real fd surgery is covered by the subprocess tests.
        monkeypatch.setattr(cli, "_main", boom)
        monkeypatch.setattr(cli, "exit_quietly_on_broken_pipe", lambda: 0)
        assert cli.main(["list"]) == 0

    def test_helper_tolerates_fd_less_stdout(self):
        """A stream with no real file descriptor (embedded use) must not
        trip the helper — exercised in a subprocess so the fd surgery
        cannot disturb pytest's own capture."""
        import os
        import subprocess
        import sys

        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        result = subprocess.run(
            [sys.executable, "-c",
             "import io, sys\n"
             "from repro.cli import exit_quietly_on_broken_pipe\n"
             "sys.stdout = io.StringIO()\n"
             "assert exit_quietly_on_broken_pipe() == 0\n"
             "assert exit_quietly_on_broken_pipe() == 0\n"],
            capture_output=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert result.returncode == 0, result.stderr

    def test_list_piped_to_early_exit_consumer(self):
        """End-to-end: `repro-experiments scenarios list | head -0` exits 0."""
        import os
        import subprocess
        import sys

        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        script = (
            "import sys; from repro.cli import main; "
            "sys.exit(main(['scenarios', 'list']))"
        )
        consumer = subprocess.run(
            f"{sys.executable} -c \"{script}\" | head -c 8",
            shell=True,
            capture_output=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert consumer.returncode == 0
