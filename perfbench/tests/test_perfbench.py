"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests

Tiny runs of every workload (about two minutes in all), the seed contract,
and the correctness gate catching a one-ulp corruption.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
from campaign_worker import campaign_spec, chunk_size, summarise  # noqa: E402
from query_load import QueryStream, Record  # noqa: E402
from run import check_answers  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]

#: The layers each workload runs: a traced run must report them non-zero.
#: A wrapper whose name the program no longer looks up would read 0.
KERNEL = ["core.batch_scenario.build_us", "core.batch_scenario.simplex_us",
          "core.batch_scenario.lps", "core.batch_scenario.pivots"]
CAMPAIGN = KERNEL + [
    "workloads.sampling.us", "experiments.campaign_engine.prepare_self_us",
    "core.rounding.us", "scenarios.runner.encode_self_us",
    "scenarios.runner.campaign_self_us", "scenarios.store.append_us",
    "scenarios.store.bytes_appended", "scenarios.store.fsyncs",
]
EXERCISED = {
    "campaign-lp": CAMPAIGN + [
        "simulation.executor.layout_us", "simulation.executor.layouts_built",
    ],
    "campaign-measured": CAMPAIGN + [
        "simulation.executor.layout_us", "simulation.executor.layouts_built",
        "simulation.executor.layouts_replayed_ratio", "simulation.noise.us",
        "simulation.noise.draws", "experiments.campaign_engine.replay_us",
        "experiments.campaign_engine.replay_runs",
    ],
    "campaign-twoport": CAMPAIGN + [
        "simulation.fast_twoport.us", "simulation.fast_twoport.calls",
        "experiments.campaign_engine.replay_us",
    ],
    "query-http": KERNEL + [
        "api.server.transport_ms", "api.server.json_us", "api.schemas.parse_us",
        "api.schemas.encode_us", "api.cache.key_us", "api.cache.lookup_us",
        "api.cache.hit_ratio", "api.funnel.wait_us", "api.funnel.batch_size_mean",
        "api.service.solve_us", "api.service.answer_self_us",
    ],
}


def tiny_run(workload: str, seed: int, trace: int, monkeypatch, capsys) -> dict:
    """A one-second run in this process, with two timed start-ups."""
    monkeypatch.setattr(run, "SETUP_RUNS", 2)
    code = run.main(
        ["--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    )
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out.splitlines()[-1])


def units(result: dict) -> dict[str, str]:
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace, monkeypatch, capsys):
    result = tiny_run(workload, 1, trace, monkeypatch, capsys)
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert units(result) == {metric["name"]: metric["unit"] for metric in expected}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 100
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    if trace:
        assert values["setup.import_repro_cli_s"] > values["setup.import_scipy_s"] > 0
        silent = [name for name in EXERCISED[workload] + ["other_us"] if not values[name] > 0]
        assert not silent, f"{workload}: layers read 0: {silent}"
        if workload == "campaign-lp":
            assert values["simulation.executor.layouts_replayed_ratio"] == 0
    else:
        assert all(value > 0 for value in values.values())


def test_other_seed_changes_inputs_not_metric_names(monkeypatch, capsys):
    assert [QueryStream(1).next().payload for _ in range(5)] != [
        QueryStream(2).next().payload for _ in range(5)
    ]
    first, again = QueryStream(1), QueryStream(1)
    assert [first.next() for _ in range(50)] == [again.next() for _ in range(50)]
    assert campaign_spec("campaign-lp", 1, 0).family != campaign_spec("campaign-lp", 2, 0).family

    names = [units(tiny_run("campaign-lp", seed, 0, monkeypatch, capsys)) for seed in (1, 2)]
    assert names[0] == names[1]


def test_corrupted_row_is_counted_as_failed(tmp_path):
    from repro.scenarios import CampaignStore, run_campaign

    spec_name = "campaign-measured"
    spec = campaign_spec(spec_name, 3, 0, chunks=2)
    progress = run_campaign(spec, CampaignStore(tmp_path), chunk_size=chunk_size(spec_name))
    campaign = {"spec": spec, "state": progress.state}
    assert summarise([campaign], None, seed=3)["failed"] == 0

    # One ulp off in every measured ratio of the first chunk's record.
    path = progress.state.chunks_path
    lines = path.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[0])
    for row in record["rows"]:
        for series, value in row["values"].items():
            if series.endswith(" real"):
                row["values"][series] = math.nextafter(value, math.inf)
    lines[0] = json.dumps(record, sort_keys=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    campaign["state"] = CampaignStore(tmp_path).campaign(spec)

    summary = summarise([campaign], None, seed=3)
    assert (summary["attempted"], summary["failed"]) == (2, 1)


def test_corrupted_answer_is_counted_as_failed():
    from repro.api import QueryService
    from repro.api.schemas import Query

    service = QueryService()
    stream = QueryStream(5)
    records = []
    for _ in range(4):
        request = stream.fresh()
        answer = service.query(Query.from_dict(request.payload)).as_dict()
        records.append(Record(request, 0.0, 1.0, 200, json.dumps(answer).encode()))
    assert check_answers(records)[:2] == (4, 0)

    answer = json.loads(records[2].body)
    best = answer["results"][answer["best"]]
    best["throughput"] = math.nextafter(best["throughput"], 0.0)
    records[2] = Record(records[2].request, 0.0, 1.0, 200, json.dumps(answer).encode())
    records[3] = Record(records[3].request, 0.0, 1.0, 500, b'{"error": "internal error"}')
    attempted, failed, errors = check_answers(records)
    assert (attempted, failed) == (4, 2)
    assert "differs from the reference" in errors[0]


def test_chunk_time_is_the_fastest_scaled_pass():
    from quiet import REFERENCE_PROBE, chunk_times

    quiet_pass = [[0.010, REFERENCE_PROBE]] * 3
    busy_pass = [[0.030, 2 * REFERENCE_PROBE]] * 3  # 3x slower, the probe 2x
    assert chunk_times([busy_pass, quiet_pass]) == pytest.approx([0.010] * 3)
    assert chunk_times([busy_pass]) == pytest.approx([0.015] * 3)
    with pytest.raises(ValueError):
        chunk_times([quiet_pass, quiet_pass[:2]])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign-lp", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert done.stdout == ""
