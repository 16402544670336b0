"""One pass of a benchmark workload, run in a fresh interpreter.

Usage: python3 perfbench/measure.py '<json spec>'

The spec's ``mode`` is ``grid`` (set up, run the grid, report),
``ingest`` (set up, run the CLI summarize and compare commands on a results
CSV) or ``trace`` (the per-layer measurements, with spans). The pass prints
one JSON object as the last line of its standard output.

Only the standard library is imported before the timed set-up, so set-up
time covers the package import and everything it pulls in.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from itertools import product
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

REPORT_REPS = 3
LAYER_REPS = 3
TABLE_SAMPLES = 200


def peak_rss_mb() -> float:
    """Peak RSS of this process or of any child it has waited for."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def setup(population: int, seed: int):
    """The user's set-up: import the package and the CLI, sample subjects, build the graph."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import spideradapt

    t1 = time.perf_counter()
    if Path(spideradapt.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"spideradapt was imported from {spideradapt.__file__}, not from {SRC}")
    import spideradapt.cli  # noqa: F401
    from spideradapt import domain, subjects

    t2 = time.perf_counter()
    pop = subjects.generate_population(population, seed)
    t3 = time.perf_counter()
    domain.state_space()
    t4 = time.perf_counter()
    return pop, {
        "setup_s": t4 - t0,
        "import_s": t1 - t0,
        "cli.import_s": t2 - t1,
        "subjects.generate_population_s": t3 - t2,
        "domain.state_space_build_s": t4 - t3,
    }


def grid_config(pop, seed: int, workers: int):
    """The paper's grid: every method, initial state and target, 10 repeats, cap 100."""
    from spideradapt.grid import GridConfig

    return GridConfig(population=pop, master_seed=seed, workers=workers)


def report(records):
    """The report path a user runs after the grid; returns its outputs."""
    from spideradapt import grid

    summaries = grid.summarize(records)
    comparisons = grid.mark_significance(records, summaries)
    text = grid.results_to_csv(records)
    back = grid.results_from_csv(text)
    return text, back, grid.summary_to_csv(summaries, comparisons)


def grid_pass(spec: dict) -> dict:
    pop, times = setup(spec["population"], spec["seed"])
    import checks
    from spideradapt.grid import run_grid

    cfg = grid_config(pop, spec["seed"], spec["workers"])
    t0 = time.perf_counter()
    records = run_grid(cfg)
    grid_s = time.perf_counter() - t0

    report_s = []
    for _ in range(REPORT_REPS):
        t0 = time.perf_counter()
        text, back, _ = report(records)
        report_s.append(time.perf_counter() - t0)
    report_med = statistics.median(report_s)

    failed = 0
    if spec["check"]:
        failed += checks.check_grid(records, cfg)
        failed += sum(a != b for a, b in zip(records, back)) + abs(len(records) - len(back))
    out = {
        **times,
        "grid_s": grid_s,
        "report_s": report_med,
        "total_s": times["setup_s"] + grid_s + report_med,
        "runs": len(records),
        "failed": failed,
        "results_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "quality": checks.quality(records),
    }
    if spec.get("write_ingest"):
        csv_path, cells_path = ingest_files(spec)
        csv_path.write_text(text)
        cells_path.write_text(json.dumps(checks.expected_cells(records)))
    out["peak_rss_mb"] = peak_rss_mb()
    return out


def ingest_files(spec: dict) -> tuple[Path, Path]:
    """The report_ingest CSV and the per-cell counts taken from its records."""
    out_dir = Path(spec["out_dir"])
    return out_dir / "ingest-results.csv", out_dir / "ingest-cells.json"


def cli_call(argv: list[str]) -> tuple[int, float]:
    """Exit code and wall time of one in-process CLI command."""
    from spideradapt import cli

    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    return code, time.perf_counter() - t0


def ingest_pass(spec: dict) -> dict:
    _, times = setup(spec["population"], spec["seed"])
    import checks

    csv_path, cells_path = ingest_files(spec)
    csv_path, out_dir = str(csv_path), Path(spec["out_dir"])
    outputs = {name: out_dir / f"ingest-{name}" for name in ("summary.csv", "summary.md", "compare.csv")}
    calls = [
        ["summarize", "--results", csv_path, "--format", "csv", "--out", str(outputs["summary.csv"])],
        ["summarize", "--results", csv_path, "--format", "markdown", "--out", str(outputs["summary.md"])],
        ["compare", "--results", csv_path, "--out", str(outputs["compare.csv"])],
    ]
    codes, report_s = [], 0.0
    for argv in calls:
        code, elapsed = cli_call(argv)
        codes.append(code)
        report_s += elapsed

    cells = json.loads(cells_path.read_text())
    records = sum(cell[0] for cell in cells.values())
    failed = sum(code != 0 for code in codes)
    summary = outputs["summary.csv"].read_text() if codes[0] == 0 else ""
    if spec["check"] and failed == 0:
        failed += checks.check_summary(summary, cells) > 0
        failed += checks.check_markdown(outputs["summary.md"].read_text(), cells) > 0
        failed += checks.check_compare(outputs["compare.csv"].read_text(), cells) > 0
    return {
        **times,
        "report_s": report_s,
        "total_s": times["setup_s"] + report_s,
        "runs": records,
        "calls": len(calls),
        "failed": failed,
        "quality": checks.summary_quality(summary, cells) if summary else {},
        "peak_rss_mb": peak_rss_mb(),
    }


def _pct(sorted_values: list[float], q: float) -> float:
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def _median_time(fn) -> float:
    return statistics.median(_timed(fn)[1] for _ in range(LAYER_REPS))


def run_configs(cfg) -> list:
    """Every run of a grid, in run_grid's serial order: method, subject, initial state, target, repeat."""
    from spideradapt.session import RunConfig

    return [
        RunConfig(
            method=method, subject_id=subject.id, target=target, initial_kind=kind,
            repeat_index=repeat, iteration_cap=cfg.iteration_cap, master_seed=cfg.master_seed,
            rl=cfg.rl, ga=cfg.ga, rounded_reward=cfg.rounded_reward,
        )
        for method in cfg.methods
        for subject in cfg.population.subjects
        for kind in cfg.initial_kinds
        for target in cfg.targets
        for repeat in range(cfg.repeats)
    ]


def replay(cfg, configs, tracer) -> tuple[list, list[int]]:
    """Run each config through ``session.run_session``, with a ``run`` span each.

    Returns the grid records, in ``configs`` order, and each run's duration
    in nanoseconds.
    """
    from spideradapt.grid import RunRecord
    from spideradapt.session import run_session

    subject_of = {s.id: s for s in cfg.population.subjects}
    records, durations = [], []
    for rc in configs:
        t0 = time.perf_counter_ns()
        result = run_session(rc, subject_of[rc.subject_id], record_sequence=False)
        t1 = time.perf_counter_ns()
        tracer.leaf("run", t0, t1, {
            "method": rc.method, "subject": rc.subject_id, "target": rc.target,
            "initial": rc.initial_kind, "repeat": rc.repeat_index, "success": result.success,
            "iterations": result.iterations_used, "presented": result.spiders_presented,
        })
        durations.append(t1 - t0)
        records.append(RunRecord(
            method=rc.method, initial_kind=rc.initial_kind, target=rc.target,
            subject_id=rc.subject_id, repeat=rc.repeat_index, success=result.success,
            spiders_presented=result.spiders_presented, iterations_used=result.iterations_used,
        ))
    return records, durations


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def trace_pass(spec: dict) -> dict:
    """Per-layer measurements on the workload's grid, with spans around each layer call."""
    from spans import Tracer

    tracer = Tracer(f"{spec['workload']}-{spec['seed']}")
    metrics: dict[str, float] = {}
    with tracer.span("workload", workload=spec["workload"], seed=spec["seed"]):
        with tracer.span("setup"):
            pop, times = setup(spec["population"], spec["seed"])
        for key in ("cli.import_s", "subjects.generate_population_s", "domain.state_space_build_s"):
            metrics[key] = times[key]

        import numpy as np
        import checks
        from spideradapt import grid, reward_model, session, subjects

        cfg = grid_config(pop, spec["seed"], 1)

        with tracer.span("tables", samples=TABLE_SAMPLES):
            fresh = subjects.generate_population(TABLE_SAMPLES, spec["seed"] + 1_000_003).subjects
            stress_ns, response_ns = [], []
            for i, subject in enumerate(fresh):
                t0 = time.perf_counter_ns()
                stresses = subjects.stress_table(subject)
                t1 = time.perf_counter_ns()
                target = 1 + i % 9
                rspec = reward_model.RewardSpec(target)
                rewards = [reward_model.reward(x, rspec) for x in stresses]
                wins = [reward_model.is_success(x, target) for x in stresses]
                t2 = time.perf_counter_ns()
                stress_ns.append(t1 - t0)
                response_ns.append(t2 - t1)
            del rewards, wins
        metrics["subjects.stress_table_us"] = statistics.median(stress_ns) / 1e3
        metrics["reward_model.response_table_us"] = statistics.median(response_ns) / 1e3

        configs = run_configs(cfg)
        with tracer.span("seeding", runs=len(configs)):
            t0 = time.perf_counter_ns()
            for rc in configs:
                np.random.default_rng(session.run_seed_sequence(rc))
            metrics["session.seed_us"] = (time.perf_counter_ns() - t0) / 1e3 / len(configs)

        # The untraced grid and the traced replay alternate block by block,
        # each going first in every other block, so that drift in the
        # machine's speed and warm caches fall on both alike.
        grid_records, records, durations = [], [], []
        serial_s = replay_s = 0.0
        with tracer.span("replay", runs=len(configs)):
            for i, (method, subject) in enumerate(product(cfg.methods, pop.subjects)):
                block = dataclasses.replace(
                    cfg, methods=(method,), population=subjects.SubjectPopulation(pop.seed, (subject,))
                )
                block_configs = [rc for rc in configs if rc.method == method and rc.subject_id == subject.id]

                def untraced():
                    with tracer.span("run_grid", method=method, subject=subject.id):
                        return grid.run_grid(block)

                def traced():
                    with tracer.span("block", method=method, subject=subject.id) as counts:
                        more, took = replay(block, block_configs, tracer)
                        counts.update(
                            runs=len(more),
                            iterations=sum(r.iterations_used for r in more),
                            presented=sum(r.spiders_presented for r in more),
                            successes=sum(r.success for r in more),
                        )
                    return more, took

                if i % 2:
                    (more, took), t_traced = _timed(traced)
                    plain, t_plain = _timed(untraced)
                else:
                    plain, t_plain = _timed(untraced)
                    (more, took), t_traced = _timed(traced)
                grid_records += plain
                records += more
                durations += took
                serial_s += t_plain
                replay_s += t_traced
        grid_s = serial_s
        if spec["workers"] > 1:
            with tracer.span("run_grid", workers=spec["workers"]):
                parallel_records, grid_s = _timed(
                    lambda: grid.run_grid(dataclasses.replace(cfg, workers=spec["workers"]))
                )
        else:
            parallel_records = grid_records

        busy_total = 0.0
        blocks: dict[tuple[str, int], int] = {}
        for r, ns in zip(records, durations):
            blocks[r.method, r.subject_id] = blocks.get((r.method, r.subject_id), 0) + ns
        for method in cfg.methods:
            ns = sorted(d for r, d in zip(records, durations) if r.method == method)
            mine = [r for r in records if r.method == method]
            iters = sum(r.iterations_used for r in mine)
            busy = sum(ns) / 1e9
            busy_total += busy
            prefix = f"session.{method}."
            metrics[prefix + "us_per_run_p50"] = _pct(ns, 0.50) / 1e3
            metrics[prefix + "us_per_run_p99"] = _pct(ns, 0.99) / 1e3
            metrics[prefix + "us_per_iter"] = busy * 1e6 / max(iters, 1)
            metrics[prefix + "iters_per_run"] = iters / len(mine)
            metrics[prefix + "presented_per_iter"] = sum(r.spiders_presented for r in mine) / max(iters, 1)
            metrics[prefix + "cap_hit_share"] = sum(
                not r.success and r.iterations_used == cfg.iteration_cap for r in mine
            ) / len(mine)
            metrics[prefix + "busy_s"] = busy
        block_means = [
            statistics.fmean(cost for (m, _), cost in blocks.items() if m == method) for method in cfg.methods
        ]
        metrics["grid.block_cost_ratio"] = max(block_means) / min(block_means)

        replay_csv = grid.results_to_csv(records)
        failed = checks.check_grid(records, cfg)
        failed += replay_csv != grid.results_to_csv(grid_records)
        failed += replay_csv != grid.results_to_csv(parallel_records)

        with tracer.span("pool_start", workers=spec["nproc"]):
            one = grid.GridConfig(
                population=subjects.SubjectPopulation(pop.seed, pop.subjects[:1]),
                master_seed=cfg.master_seed, methods=("greedy",), initial_kinds=("min",),
                targets=(1,), repeats=1, workers=spec["nproc"],
            )
            metrics["grid.pool_start_s"] = _median_time(lambda: grid.run_grid(one))

        if spec["ingest"]:
            results_path = ingest_files(spec)[0]
            records = grid.results_from_csv(results_path.read_text())
        else:
            results_path = Path(spec["out_dir"]) / "trace-results.csv"
            results_path.write_text(replay_csv)
        with tracer.span("report", records=len(records)):
            summaries = grid.summarize(records)
            comparisons = grid.mark_significance(records, summaries)
            text = grid.results_to_csv(records)
            steps = {
                "summarize": lambda: grid.summarize(records),
                "mark_significance": lambda: grid.mark_significance(records, summaries),
                "results_to_csv": lambda: grid.results_to_csv(records),
                "results_from_csv": lambda: grid.results_from_csv(text),
                "summary_to_csv": lambda: grid.summary_to_csv(summaries, comparisons),
            }
            for name, fn in steps.items():
                with tracer.span(f"grid.{name}"):
                    metrics[f"grid.{name}_s"] = _median_time(fn)
            metrics["grid.results_csv_bytes"] = float(len(text.encode()))

        with tracer.span("cli"):
            out = str(Path(spec["out_dir"]) / "trace-cli-out")
            for name, argv in (
                ("summarize", ["summarize", "--results", str(results_path), "--format", "csv", "--out", out]),
                ("compare", ["compare", "--results", str(results_path), "--out", out]),
            ):
                with tracer.span(f"cli.{name}"):
                    walls = []
                    for _ in range(LAYER_REPS):
                        code, elapsed = cli_call(argv)
                        failed += code != 0
                        walls.append(elapsed)
                    metrics[f"cli.{name}_s"] = statistics.median(walls)

    metrics["grid.parallel_efficiency"] = busy_total / (spec["workers"] * grid_s)
    metrics["trace.overhead_share"] = replay_s / serial_s - 1.0
    tracer.write(Path(spec["out_dir"]) / "trace.jsonl")
    return {
        "metrics": metrics,
        # the untraced grid, the replay and, with workers > 1, the parallel grid
        "runs": len(configs) * (3 if spec["workers"] > 1 else 2),
        "failed": failed,
        "results_sha256": hashlib.sha256(replay_csv.encode()).hexdigest(),
        "spans": len(tracer.spans),
        "peak_rss_mb": peak_rss_mb(),
    }


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    mode = {"grid": grid_pass, "ingest": ingest_pass, "trace": trace_pass}[spec["mode"]]
    result = mode(spec)
    result["versions"] = {name: sys.modules[name].__version__ for name in ("numpy", "scipy")}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
