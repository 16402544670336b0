"""The benchmark recorder, run on this tree for one workload at its shortest length."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RECORD = [sys.executable, str(ROOT / "bench" / "record.py"), "--tree", str(ROOT)]


def test_record_writes_each_workloads_info_and_result_lines(tmp_path):
    out = tmp_path / "bench.json"
    subprocess.run([*RECORD, "--out", str(out), "--seconds", "0", "--workload", "grid_parallel"],
                   check=True, capture_output=True, timeout=300)
    data = json.loads(out.read_text())
    assert (data["seed"], data["seconds"], list(data["workloads"])) == (1, 0.0, ["grid_parallel"])
    run = data["workloads"]["grid_parallel"]
    assert run["command"] == ["python3", "perfbench/run.py", "--workload", "grid_parallel", "--seed", "1",
                              "--seconds", "0.0", "--trace", "0"]
    info, result = run["info"], run["result"]
    environment = info["environment"]
    assert {"nproc", "python", "numpy", "scipy", "commit"} <= environment.keys()
    assert (environment["workload"], environment["seed"]) == ("grid_parallel", 1)
    assert environment["src_lines"] == sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    assert len(info["results_sha256"]) == 64
    assert info["samples"].keys() == {"setup_s", "runs_per_s", "report_s", "total_s"}
    assert all(len(samples) == info["passes"] >= 3 for samples in info["samples"].values())
    assert (result["correct"], result["failed"]) == (True, 0)
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert result["metrics"].keys() == {metric["name"] for metric in end_to_end}


def test_record_refuses_a_workload_the_benchmark_does_not_list(tmp_path):
    out = tmp_path / "bench.json"
    run = subprocess.run([*RECORD, "--out", str(out), "--workload", "grid_serial", "--workload", "grid_huge"],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 1
    assert "grid_huge" in run.stderr
    assert not out.exists()
