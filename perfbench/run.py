"""Benchmark of spideradapt: the paper's grid, run serially and in parallel, and its report ingest.

Usage:
  python3 perfbench/run.py --workload grid_serial --seed 1 --seconds 20 --trace 0

Run from the root of a source tree: the package is imported from ``src/``.
Each pass runs in a fresh interpreter (``measure.py``), so set-up is cold
every time and its median is reported. The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; with ``--trace 0`` the metrics are the end-to-end ones, with
``--trace 1`` the per-layer ones. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"

WORKLOADS = ("grid_serial", "grid_parallel", "report_ingest")
# Subjects in the population of each timed grid pass (1,350 runs per
# subject): small, so that a run holds many passes.
POPULATION = 4
# Subjects in the untimed grid behind the figures, the checks and the
# report_ingest CSV: large, so that the figures vary little between seeds.
FIGURES_POPULATION = 20
# Passes behind each median, even when --seconds runs out first.
MIN_PASSES = 3
CHILD_TIMEOUT_S = 170

METHODS = ("random", "greedy", "ga", "rl_random", "rl_zero")
UNITS = {
    "setup_s": "s",
    "runs_per_s": "1/s",
    "report_s": "s",
    "total_s": "s",
    "peak_rss_mb": "MB",
    **{f"success_rate.{m}": "ratio" for m in METHODS},
    **{f"spiders_presented.{m}": "count" for m in METHODS},
}
SESSION_UNITS = {
    "us_per_run_p50": "us",
    "us_per_run_p99": "us",
    "us_per_iter": "us",
    "iters_per_run": "count",
    "presented_per_iter": "count",
    "cap_hit_share": "ratio",
    "busy_s": "s",
}
LAYER_UNITS = {
    "domain.state_space_build_s": "s",
    "subjects.generate_population_s": "s",
    "session.seed_us": "us",
    # greedy never exhausts its budget (success_rate.greedy is 1), so its
    # cap_hit_share would read 0 on every seed
    **{
        f"session.{m}.{k}": u
        for m in METHODS
        for k, u in SESSION_UNITS.items()
        if (m, k) != ("greedy", "cap_hit_share")
    },
    "subjects.stress_table_us": "us",
    "reward_model.response_table_us": "us",
    "grid.pool_start_s": "s",
    "grid.block_cost_ratio": "ratio",
    "grid.parallel_efficiency": "ratio",
    "grid.summarize_s": "s",
    "grid.mark_significance_s": "s",
    "grid.results_to_csv_s": "s",
    "grid.results_from_csv_s": "s",
    "grid.summary_to_csv_s": "s",
    "grid.results_csv_bytes": "bytes",
    "cli.import_s": "s",
    "cli.summarize_s": "s",
    "cli.compare_s": "s",
    "trace.overhead_share": "ratio",
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


class PassFailed(RuntimeError):
    """A measurement pass exited nonzero or printed no result."""


def run_pass(spec: dict) -> dict:
    """Run one measure.py pass in a fresh interpreter and return its JSON result."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "measure.py"), json.dumps(spec)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise PassFailed(f"{spec['mode']} pass exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def passes_for(seconds: float, make_spec) -> list[dict]:
    """Passes until ``seconds`` have gone by and at least MIN_PASSES are done."""
    results: list[dict] = []
    start = time.perf_counter()
    while len(results) < MIN_PASSES or time.perf_counter() - start < seconds:
        results.append(run_pass(make_spec(first=not results)))
    return results


def base_spec(args, population: int) -> dict:
    return {"workload": args.workload, "seed": args.seed, "population": population, "out_dir": str(args.work_dir),
            "ingest": args.workload == "report_ingest"}


def workers_for(workload: str) -> int:
    return nproc() if workload == "grid_parallel" else 1


def figures_pass(args) -> dict:
    """The untimed grid behind the figures and checks; on report_ingest it writes the ingest CSV.

    It runs at workers=nproc on every workload to save time: worker count
    never changes results.
    """
    return run_pass({**base_spec(args, args.figures_population), "mode": "grid", "workers": nproc(),
                     "check": True, "write_ingest": args.workload == "report_ingest"})


def measured(args) -> tuple[dict, int, int, dict]:
    """End-to-end metrics with tracing off."""
    figures = figures_pass(args)
    attempted, failed = figures["runs"], figures["failed"]
    info: dict = {"figures_results_sha256": figures["results_sha256"], "figures_runs": figures["runs"]}
    spec = {**base_spec(args, args.population), "mode": "grid", "workers": workers_for(args.workload)}
    if args.workload == "report_ingest":
        spec["mode"] = "ingest"
    passes = passes_for(args.seconds, lambda first: {**spec, "check": first})
    failed += sum(p["failed"] for p in passes)
    if args.workload == "report_ingest":
        attempted += sum(p["calls"] for p in passes)
        rates = [p["runs"] / p["report_s"] for p in passes]
        quality = passes[0]["quality"]
        failed += sum(p["quality"] != quality for p in passes)
    else:
        attempted += sum(p["runs"] for p in passes)
        rates = [p["runs"] / p["grid_s"] for p in passes]
        quality = figures["quality"]
        # every pass must give the bytes of the first; a pass that does not counts as failed
        failed += sum(p["runs"] for p in passes if p["results_sha256"] != passes[0]["results_sha256"])
        info["results_sha256"] = passes[0]["results_sha256"]
    samples = {
        "setup_s": [p["setup_s"] for p in passes],
        "runs_per_s": rates,
        "report_s": [p["report_s"] for p in passes],
        "total_s": [p["total_s"] for p in passes],
    }
    # On a shared host a pass runs at the host's loaded speed or, when other
    # tenants pause, faster; how many fast passes a run catches varies from
    # run to run. The loaded speed is the steady floor, so the rate and the
    # times are those of the run's slowest pass. Set-up time is the median.
    metrics = {
        "setup_s": statistics.median(samples["setup_s"]),
        "runs_per_s": min(rates),
        "report_s": max(samples["report_s"]),
        "total_s": max(samples["total_s"]),
        "peak_rss_mb": max(
            [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0] + [p["peak_rss_mb"] for p in passes]
        ),
        **{k: quality.get(k, float("nan")) for k in UNITS if "." in k},
    }
    info.update(workers=spec["workers"], passes=len(passes), runs_per_pass=passes[0]["runs"], samples=samples,
                versions=figures["versions"])
    return metrics, attempted, failed, info


def traced(args) -> tuple[dict, int, int, dict]:
    """Per-layer metrics from one traced pass; on report_ingest the ingest CSV is written first."""
    attempted = failed = 0
    if args.workload == "report_ingest":
        figures = figures_pass(args)
        attempted, failed = figures["runs"], figures["failed"]
    trace = run_pass({
        **base_spec(args, args.population),
        "mode": "trace",
        "nproc": nproc(),
        "workers": workers_for(args.workload),
    })
    trace_file = OUT_DIR / f"trace-{args.workload}-{args.seed}.jsonl"
    os.replace(args.work_dir / "trace.jsonl", trace_file)
    info = {"trace_file": str(trace_file.relative_to(ROOT)), "spans": trace["spans"],
            "results_sha256": trace["results_sha256"], "versions": trace["versions"]}
    return trace["metrics"], attempted + trace["runs"], failed + trace["failed"], info


def environment(args, versions: dict) -> dict:
    commit = "unknown"
    try:
        # a checkout that is not itself a git repository may sit inside another one
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.split()
        if len(out) == 2 and Path(out[0]).resolve() == ROOT:
            commit = out[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        **versions,
        "commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "population": args.population,
        "figures_population": args.figures_population,
        "src_lines": src_lines,
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True, help="seeds the population and the grid")
    parser.add_argument("--seconds", type=float, required=True, help="measure for at least this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # smaller grids for the benchmark's own tests
    parser.add_argument("--population", type=int, default=POPULATION, help=argparse.SUPPRESS)
    parser.add_argument("--figures-population", type=int, default=FIGURES_POPULATION, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or min(args.population, args.figures_population) < 1:
        parser.error("--seed must be >= 0 and the populations >= 1")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "spideradapt").is_dir():
        print(f"error: no spideradapt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    # each run's scratch files live apart, so runs never read each other's
    args.work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        metrics, attempted, failed, info = (traced if args.trace else measured)(args)
    except (PassFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(args.work_dir, ignore_errors=True)
    env = environment(args, info.pop("versions"))
    units = LAYER_UNITS if args.trace else UNITS
    print(json.dumps({"environment": env, **info, "failed_share": failed / attempted}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
