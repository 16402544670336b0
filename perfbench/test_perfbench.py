"""The benchmark's own tests: smoke runs on tiny grids, parity and the traced replay."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import measure
from spans import Tracer, self_time_ns

if str(measure.SRC) not in sys.path:
    sys.path.insert(0, str(measure.SRC))

from spideradapt.grid import GridConfig, results_to_csv, run_grid  # noqa: E402
from spideradapt.subjects import generate_population  # noqa: E402

import checks  # noqa: E402

ROOT = measure.ROOT
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench_argv(workload: str, trace: int) -> list[str]:
    return [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3", "--seconds", "0",
            "--trace", str(trace), "--population", "1", "--figures-population", "1"]


@pytest.fixture(scope="module")
def smoke_runs() -> dict:
    """One tiny run of each workload, traced and untraced, all started at once."""
    procs = {
        (w, t): subprocess.Popen(_bench_argv(w, t), cwd=ROOT, stdout=subprocess.PIPE,
                                 stderr=subprocess.PIPE, text=True)
        for w in WORKLOADS
        for t in (0, 1)
    }
    return {key: (p.communicate(timeout=170), p.returncode) for key, p in procs.items()}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(smoke_runs, workload, trace):
    (stdout, stderr), code = smoke_runs[workload, trace]
    assert code == 0, stderr
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(_bench_argv("grid_serial", 0), cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.fixture(scope="module")
def small_grid():
    return GridConfig(population=generate_population(2, 11), master_seed=5, repeats=2)


def test_worker_count_leaves_results_bytes_alone(small_grid):
    serial = results_to_csv(run_grid(small_grid))
    parallel = results_to_csv(run_grid(dataclasses.replace(small_grid, workers=2)))
    assert serial == parallel


def test_traced_replay_equals_run_grid(small_grid):
    tracer = Tracer("test")
    records, durations = measure.replay(small_grid, measure.run_configs(small_grid), tracer)
    assert results_to_csv(records) == results_to_csv(run_grid(small_grid))
    assert len(durations) == len(records)
    assert [s["name"] for s in tracer.spans] == ["run"] * len(records)
    assert [(s["counts"]["method"], s["counts"]["presented"]) for s in tracer.spans] == [
        (r.method, r.spiders_presented) for r in records
    ]


def test_self_time_subtracts_children():
    tracer = Tracer("test")
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        tracer.leaf("run", 0, 0, {})
    outer, inner, _ = tracer.spans
    own = self_time_ns(tracer.spans)
    assert inner["parent"] == outer["id"]
    assert own[outer["id"]] == (outer["end_ns"] - outer["start_ns"]) - (inner["end_ns"] - inner["start_ns"])


def test_checks_count_broken_records(small_grid):
    records = run_grid(small_grid)
    assert checks.check_grid(records, small_grid) == 0
    broken = dataclasses.replace(records[0], spiders_presented=0)
    assert checks.check_grid([broken] + records[1:], small_grid) == 1
    assert checks.check_complete(records[1:], small_grid) == 1
    assert checks.check_complete(records + records[:1], small_grid) == 1
    # a success that needed more than the initial spider is at BFS distance >= 1
    win = next(r for r in records if r.success and r.method == "random" and r.spiders_presented > 1)
    assert checks.check_records([dataclasses.replace(win, spiders_presented=1)], small_grid) == 1


def test_summary_check_catches_a_wrong_count(small_grid):
    from spideradapt.grid import mark_significance, summarize, summary_to_csv

    records = run_grid(small_grid)
    cells = checks.expected_cells(records)
    summaries = summarize(records)
    text = summary_to_csv(summaries, mark_significance(records, summaries))
    assert checks.check_summary(text, cells) == 0
    assert checks.summary_quality(text, cells).keys() == checks.quality(records).keys()
    key = next(iter(cells))
    cells[key][1] += 1
    assert checks.check_summary(text, cells) == 1
