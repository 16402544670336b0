"""Output checks and result-quality figures for the benchmark.

Every check returns the number of items that broke it, so callers can add
the counts into ``failed``. The checks use the package only for its data
definitions and its BFS oracle; the counting itself is independent of the
aggregation code under test.
"""

from __future__ import annotations

import csv
import io
from itertools import product

from spideradapt.grid import RunRecord, category_of
from spideradapt.session import INITIAL_STATES
from spideradapt.subjects import bfs_distance

# Methods whose every iteration presents at most one new spider.
SINGLE_STEP_METHODS = ("random", "rl_random", "rl_zero")


def grid_coordinates(cfg) -> list[tuple]:
    """Every (method, initial, target, subject, repeat) of a grid config."""
    return list(
        product(
            cfg.methods,
            cfg.initial_kinds,
            cfg.targets,
            [s.id for s in cfg.population.subjects],
            range(cfg.repeats),
        )
    )


def _coords(r: RunRecord) -> tuple:
    return (r.method, r.initial_kind, r.target, r.subject_id, r.repeat)


def check_complete(records, cfg) -> int:
    """Records missing from, extra to or duplicated in the grid."""
    expected = set(grid_coordinates(cfg))
    seen: set[tuple] = set()
    bad = 0
    for r in records:
        c = _coords(r)
        if c not in expected or c in seen:
            bad += 1
        seen.add(c)
    return bad + len(expected - seen)


def record_ok(r: RunRecord, cap: int) -> bool:
    """Invariants every grid record satisfies whatever the method does."""
    if not 0 <= r.iterations_used <= cap or not 1 <= r.spiders_presented <= 486:
        return False
    if not r.success and r.iterations_used != cap:
        return False
    if r.method in SINGLE_STEP_METHODS and r.spiders_presented > r.iterations_used + 1:
        return False
    return True


def check_records(records, cfg) -> int:
    """Records that break an invariant or present fewer spiders than BFS allows."""
    subjects = {s.id: s for s in cfg.population.subjects}
    lower: dict[tuple, int | None] = {}
    bad = 0
    for r in records:
        if not record_ok(r, cfg.iteration_cap):
            bad += 1
            continue
        if not r.success:
            continue
        key = (r.subject_id, r.initial_kind, r.target)
        if key not in lower:
            lower[key] = bfs_distance(subjects[r.subject_id], INITIAL_STATES[r.initial_kind], r.target)
        if lower[key] is None or r.spiders_presented < lower[key] + 1:
            bad += 1
    return bad


def check_grid(records, cfg) -> int:
    return check_complete(records, cfg) + check_records(records, cfg)


def quality(records) -> dict[str, float]:
    """The paper's figures per method: success rate and mean Spiders Presented."""
    runs: dict[str, int] = {}
    wins: dict[str, int] = {}
    shown: dict[str, int] = {}
    for r in records:
        runs[r.method] = runs.get(r.method, 0) + 1
        if r.success:
            wins[r.method] = wins.get(r.method, 0) + 1
            shown[r.method] = shown.get(r.method, 0) + r.spiders_presented
    out = {}
    for m in runs:
        out[f"success_rate.{m}"] = wins.get(m, 0) / runs[m]
        out[f"spiders_presented.{m}"] = shown[m] / wins[m] if wins.get(m) else float("nan")
    return out


def expected_cells(records) -> dict[str, list[int]]:
    """Per (initial, category, method) cell: [runs, successes, presented sum]."""
    cells: dict[str, list[int]] = {}
    for r in records:
        key = f"{r.initial_kind}|{category_of(r.target)}|{r.method}"
        cell = cells.setdefault(key, [0, 0, 0])
        cell[0] += 1
        if r.success:
            cell[1] += 1
            cell[2] += r.spiders_presented
    return cells


def summary_rows(text: str) -> dict[str, dict[str, str]]:
    return {
        f"{row['initial_kind']}|{row['stress_category']}|{row['method']}": row
        for row in csv.DictReader(io.StringIO(text))
    }


def check_summary(text: str, cells: dict[str, list[int]]) -> int:
    """Summary rows whose counts or accuracy differ from the records' own."""
    rows = summary_rows(text)
    bad = len(rows.keys() ^ cells.keys())
    for key in rows.keys() & cells.keys():
        runs, wins, _ = cells[key]
        row = rows[key]
        if int(row["n_success"]) != wins or abs(float(row["accuracy_percent"]) - 100.0 * wins / runs) > 1e-6:
            bad += 1
    return bad


def summary_quality(text: str, cells: dict[str, list[int]]) -> dict[str, float]:
    """Per-method figures recovered from a summary CSV and the cell sizes."""
    runs: dict[str, int] = {}
    wins: dict[str, int] = {}
    shown: dict[str, float] = {}
    for key, row in summary_rows(text).items():
        m = row["method"]
        n_success = int(row["n_success"])
        runs[m] = runs.get(m, 0) + cells[key][0]
        wins[m] = wins.get(m, 0) + n_success
        if n_success:
            shown[m] = shown.get(m, 0.0) + float(row["mean_presented"]) * n_success
    out = {}
    for m in runs:
        out[f"success_rate.{m}"] = wins[m] / runs[m]
        out[f"spiders_presented.{m}"] = shown[m] / wins[m] if wins[m] else float("nan")
    return out


def check_markdown(text: str, cells: dict[str, list[int]]) -> int:
    """The markdown table has two lines per (initial, category) block."""
    blocks = {key.rsplit("|", 1)[0] for key in cells}
    lines = [line for line in text.splitlines() if line.startswith("| ")]
    return 0 if len(lines) == 1 + 2 * len(blocks) else 1


def check_compare(text: str, cells: dict[str, list[int]]) -> int:
    """Every compared cell is a known cell and names a known best method."""
    methods = {key.rsplit("|", 1)[1] for key in cells}
    blocks = {key.rsplit("|", 1)[0] for key in cells}
    bad = 0
    for row in csv.DictReader(io.StringIO(text)):
        if f"{row['initial_kind']}|{row['stress_category']}" not in blocks or row["best_method"] not in methods:
            bad += 1
    return bad
