"""The golden results are the spec's output: the pinned grids rebuilt through ``tests/reference.py``.

Usage, from any directory::

    python tests/spec_grid.py [--workers N]

The default grid, which ``RESULTS_SHA256`` pins, and the small grid off the
defaults, which ``SMALL_RESULTS_SHA256`` pins, are rebuilt subject by
subject through ``reference_grid`` and written by a ``csv`` writer of this
file's own; each digest must match. ``reference_report`` on the default
grid's records must also give what ``summarize`` and ``mark_significance``
give: the summaries exactly, the best methods and markers exactly, and the
p-values to a relative 1e-9. One line is printed per check, and the exit
status is 1 if any fails. ``--workers`` processes share the subjects: 1 by
default, and never more than the processors this process may run on. The
default grid takes about four minutes at one worker on a two-core host.
Pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from spideradapt.domain import INITIAL_KINDS  # noqa: E402
from spideradapt.grid import GridConfig, mark_significance, summarize  # noqa: E402
from spideradapt.policies import POLICY_NAMES  # noqa: E402
from spideradapt.subjects import SubjectPopulation, generate_population  # noqa: E402
from tests.reference import reference_grid, reference_report  # noqa: E402
from tests.test_acceptance import (  # noqa: E402
    MASTER_SEED, POPULATION_SEED, RESULTS_SHA256, SMALL_RESULTS_SHA256, small_grid,
)

HEADER = ("method", "initial_kind", "target", "subject_id", "repeat", "success", "spiders_presented",
          "iterations_used")


def rebuild(cfg: GridConfig, workers: int) -> list:
    """``reference_grid(cfg)``, one subject per task, in canonical order."""
    units = [replace(cfg, population=SubjectPopulation(cfg.population.seed, (s,))) for s in cfg.population.subjects]
    if workers == 1:
        parts = list(map(reference_grid, units))
    else:
        with ProcessPoolExecutor(workers) as pool:
            parts = list(pool.map(reference_grid, units))
    return sorted((r for part in parts for r in part), key=lambda r: (
        POLICY_NAMES.index(r.method), INITIAL_KINDS.index(r.initial_kind), r.target, r.subject_id, r.repeat))


def results_csv(records) -> bytes:
    """The results file's bytes, as README describes the format."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(HEADER)
    writer.writerows((r.method, r.initial_kind, r.target, r.subject_id, r.repeat, "true" if r.success else "false",
                      r.spiders_presented, r.iterations_used) for r in records)
    return out.getvalue().encode()


def _same_p(got: float | None, want: float | None) -> bool:
    return got == want or None not in (got, want) and math.isclose(got, want, rel_tol=1e-9)


def report_matches(records) -> bool:
    """Whether ``summarize`` and ``mark_significance`` give what ``reference_report`` gives."""
    want_summaries, want_comparisons = reference_report(records)
    summaries = summarize(records)
    comparisons = mark_significance(records, summaries)
    return summaries == want_summaries and len(comparisons) == len(want_comparisons) and all(
        (c.initial_kind, c.stress_category, c.best_method, c.markers, c.p_values.keys())
        == (w.initial_kind, w.stress_category, w.best_method, w.markers, w.p_values.keys())
        and all(_same_p(c.p_values[m], w.p_values[m]) for m in c.p_values)
        for c, w in zip(comparisons, want_comparisons))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=1, help="processes that share the subjects (default 1)")
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error(f"--workers must be >= 1, got {args.workers}")
    workers = min(args.workers, len(os.sched_getaffinity(0)))
    default = GridConfig(population=generate_population(100, POPULATION_SEED), master_seed=MASTER_SEED)
    verdicts = []
    for name, cfg, digest, check_report in (("small grid", small_grid(), SMALL_RESULTS_SHA256, False),
                                            ("default grid", default, RESULTS_SHA256, True)):
        start = time.perf_counter()
        records = rebuild(cfg, workers)
        verdicts.append(hashlib.sha256(results_csv(records)).hexdigest() == digest)
        print(f"{name}: {len(records)} runs, results digest {'matches' if verdicts[-1] else 'DIFFERS'}, "
              f"{time.perf_counter() - start:.1f} s at {workers} worker(s)", flush=True)
        if check_report:
            verdicts.append(report_matches(records))
            print(f"{name}: reference_report {'matches' if verdicts[-1] else 'DIFFERS from'} "
                  "summarize and mark_significance", flush=True)
    return 0 if all(verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
