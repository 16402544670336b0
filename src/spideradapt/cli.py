"""Command-line surface: subjects, grid runs, summaries, oracles, traces.

All randomness flows from explicit seeds; there is no wall-clock or OS
entropy anywhere, so every subcommand produces identical bytes when re-run
with the same inputs. The clock only times ``run``'s progress lines on
stderr. Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import asdict, fields, is_dataclass, replace
from pathlib import Path

from .domain import INITIAL_KINDS, INITIAL_STATES, enumerate_states
from .grid import (
    CellSummary,
    GridConfig,
    RESULT_COLUMNS,
    ResultsFileError,
    comparisons_to_csv,
    file_column_blocks,
    mark_significance,
    results_to_csv,
    run_grid,
    summarize_columns,
    summary_to_csv,
    summary_to_markdown,
)
from .policies import POLICY_NAMES
from .session import run_session
from .subjects import (
    SubjectFileError,
    SubjectPopulation,
    VirtualSubject,
    bfs_distance,
    generate_population,
    load_population,
    of_type,
    save_population,
    success_states,
    stress,
)

class _Parser(argparse.ArgumentParser):
    """argparse, but usage errors exit with status 1 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part)


def _str_list(text: str) -> tuple[str, ...]:
    return tuple(part for part in text.split(",") if part)


def build_parser() -> _Parser:
    parser = _Parser(prog="spideradapt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-subjects", help="sample a virtual subject population")
    p.add_argument("--n", type=int, default=100, help="population size (default 100)")
    p.add_argument("--seed", type=int, required=True, help="population seed (required)")
    p.add_argument("--out", required=True, help="output subjects JSON path")

    p = sub.add_parser("run", help="execute the evaluation grid")
    p.add_argument("--subjects", required=True, help="subjects JSON from gen-subjects")
    p.add_argument("--out", required=True, help="results CSV path")
    p.add_argument("--seed", type=int, default=None, help="master seed (required unless in --config)")
    p.add_argument("--methods", type=_str_list, default=None,
                   help="comma-separated subset of: " + ",".join(POLICY_NAMES))
    p.add_argument("--initials", type=_str_list, default=None,
                   help="comma-separated subset of: " + ",".join(INITIAL_KINDS))
    p.add_argument("--targets", type=_int_list, default=None, help="comma-separated targets (1..9)")
    p.add_argument("--repeats", type=int, default=None, help="repeats of each run (default 10)")
    p.add_argument("--iteration-cap", type=int, default=None, help="iteration cap per run (default 100)")
    p.add_argument("--workers", type=int, default=None, help="parallel workers (default 1)")
    p.add_argument("--config", default=None, help="JSON config mirroring the grid/rl/ga fields")

    p = sub.add_parser("summarize", help="aggregate a results CSV into the category table")
    p.add_argument("--results", required=True)
    p.add_argument("--format", choices=("csv", "markdown"), default="markdown")
    p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("compare", help="best-method significance tests per cell")
    p.add_argument("--results", required=True)
    p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("oracle", help="brute-force feasibility report for one subject/target")
    p.add_argument("--subjects", required=True)
    p.add_argument("--subject-id", type=int, required=True)
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--initial", choices=INITIAL_KINDS, default="min")

    p = sub.add_parser("trace", help="run one session and emit its presentation trace")
    p.add_argument("--subjects", required=True)
    p.add_argument("--subject-id", type=int, required=True)
    p.add_argument("--method", choices=POLICY_NAMES, required=True)
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--initial", choices=INITIAL_KINDS, required=True)
    p.add_argument("--seed", type=int, default=None, help="master seed (required unless in --config)")
    p.add_argument("--repeat", type=int, default=0)
    p.add_argument("--iteration-cap", type=int, default=None, help="iteration cap (default 100)")
    p.add_argument("--config", default=None, help="the same JSON config as run; flags override it")
    p.add_argument("--out", required=True, help="JSON-lines trace path")

    return parser


class ConfigError(ValueError):
    """Raised when a --config file is unreadable or holds a malformed value (exit 2)."""


def _typed(name: str, value, default):
    """``value`` if its JSON type is that of ``default``; a float also takes an integer."""
    return of_type(value, (int, float) if type(default) is float else (type(default),), name)


def _overlay(name: str, template, data):
    """The dataclass ``template`` with the JSON object ``data`` laid over it.

    Each value must have the JSON type of the template's value: a tuple takes
    a list whose elements match the template's first element, and a nested
    dataclass takes an object. Unknown keys are rejected at every level; a
    grid's population never comes from a config.
    """
    defaults = {f.name: getattr(template, f.name) for f in fields(template) if f.name != "population"}
    unknown = set(of_type(data, (dict,), name or "top level")) - set(defaults)
    if unknown:
        raise ValueError(f"unknown {name or 'top-level'} keys: {sorted(unknown)}")
    values = {}
    for key, value in data.items():
        path, default = f"{name}.{key}" if name else key, defaults[key]
        if is_dataclass(default):
            values[key] = _overlay(path, default, value)
        elif isinstance(default, tuple):
            values[key] = tuple(_typed(path, v, default[0]) for v in of_type(value, (list,), path))
        else:
            values[key] = _typed(path, value, default)
    return replace(template, **values)


def _grid_config(path: str | None, population: SubjectPopulation, **flags) -> GridConfig:
    """The grid of the ``--config`` file at ``path`` with the non-None ``flags`` on top.

    The file's values are validated before the flags are applied, so a bad
    value from the file is a data error (ConfigError, exit 2) while the same
    value given as a flag stays a usage error (ValueError, exit 1).
    """
    try:
        data = {} if path is None else json.loads(Path(path).read_text(encoding="utf-8-sig"))  # a BOM is not data
        cfg = _overlay("", GridConfig(population, master_seed=0), data)
        cfg.validate()
    except (OSError, RecursionError, TypeError, ValueError) as exc:  # ValueError: undecodable text or JSON too
        raise ConfigError(f"config {path}: {exc}") from exc
    if flags.get("master_seed") is None and "master_seed" not in data:
        raise ValueError("--seed is required (or master_seed in --config); no implicit entropy")
    cfg = replace(cfg, **{key: value for key, value in flags.items() if value is not None})
    cfg.validate()
    return cfg


def _subject(population: SubjectPopulation, subject_id: int) -> VirtualSubject:
    if subject_id < 0:  # a usage error whatever the file holds
        raise ValueError(f"subject_id must be non-negative, got {subject_id}")
    if subject_id >= len(population.subjects):
        raise SubjectFileError(
            f"subject id {subject_id} not in file (population size {len(population.subjects)})"
        )
    return population.subjects[subject_id]


def _cmd_gen_subjects(args) -> int:
    if args.n < 1:
        raise ValueError("--n must be >= 1")
    population = generate_population(args.n, args.seed)
    data = save_population(population, args.out)
    digest = hashlib.sha256(data).hexdigest()
    print(f"wrote {args.n} subjects to {args.out}")
    print(f"sha256={digest}")
    return 0


def _cmd_run(args) -> int:
    population = load_population(args.subjects)
    cfg = _grid_config(
        args.config, population, master_seed=args.seed, methods=args.methods,
        initial_kinds=args.initials, targets=args.targets, repeats=args.repeats,
        iteration_cap=args.iteration_cap, workers=args.workers,
    )
    last_decile = -1

    def progress(done: int, total: int) -> None:
        nonlocal last_decile
        decile = (10 * done) // total
        if decile > last_decile:
            last_decile = decile
            elapsed = max(time.perf_counter() - start, 1e-9)
            print(f"progress: {done}/{total} runs ({10 * decile}%), "
                  f"{done / elapsed:.0f} runs/s, eta {elapsed * (total - done) / done:.0f}s",
                  file=sys.stderr)

    # the results go to a file beside --out that replaces it once complete, so a stopped run leaves
    # the old file as it was; an unwritable --out fails here, before any session. What exists and is
    # not a regular file, such as a FIFO, is written in place instead, since a rename would replace it
    regular = os.path.isfile(args.out) or not os.path.exists(args.out)  # both follow a symlink
    out = Path(args.out).resolve()  # a symlinked --out keeps its link and gets the new file behind it
    if regular and out.exists():
        open(out, "a").close()  # writable, and not truncated
    part = out.with_name(out.name + ".part") if regular else Path(args.out)
    try:
        with open(part, "w", encoding="utf-8") as handle:
            axes = (len(cfg.methods), len(population.subjects), len(cfg.initial_kinds), len(cfg.targets), cfg.repeats)
            print(f"running {math.prod(axes)} sessions "
                  "({} methods x {} subjects x {} initials x {} targets x {} repeats)".format(*axes),
                  file=sys.stderr)
            start = time.perf_counter()
            records = run_grid(cfg, progress=progress)
            handle.write(results_to_csv(records))
        if regular:
            os.replace(part, out)
    except BaseException:
        if regular:
            part.unlink(missing_ok=True)
        raise
    print(f"wrote {len(records)} runs to {args.out}")
    return 0


def _summaries(path: str) -> list[CellSummary]:
    """The cell summaries of the results CSV at ``path``; warns on stderr when its grid is incomplete."""
    # the first five columns are a run's coordinates, and they never repeat, so a
    # complete grid has a run for every combination of the values on those axes
    runs, axes = 0, [set() for _ in RESULT_COLUMNS[:5]]

    def tally(block: tuple[list, ...]) -> tuple[list, ...]:
        nonlocal runs
        runs += len(block[0])
        for values, column in zip(axes, block):
            values.update(column)
        return block

    summaries = summarize_columns(map(tally, file_column_blocks(path)))
    if runs < (expected := math.prod(map(len, axes))):
        print(f"warning: {path} is an incomplete grid: {runs} of {expected} runs", file=sys.stderr)
    return summaries


def _emit(text: str, out: str | None, what: str) -> int:
    """Write ``text`` as UTF-8 to the ``--out`` path, or to stdout when there is none."""
    if out is None:
        stdout = getattr(sys.stdout, "buffer", None)  # a stream of text alone, such as a StringIO, has none
        if stdout is None:
            sys.stdout.write(text)
        else:  # the bytes an --out file gets, whatever the stream's encoding
            sys.stdout.flush()
            stdout.write(text.encode("utf-8"))
            stdout.flush()
    else:
        Path(out).write_text(text, encoding="utf-8")
        print(f"wrote {what} to {out}")
    return 0


def _cmd_summarize(args) -> int:
    summaries = _summaries(args.results)
    comparisons = mark_significance((), summaries)
    render = summary_to_csv if args.format == "csv" else summary_to_markdown
    return _emit(render(summaries, comparisons), args.out, "summary")


def _cmd_compare(args) -> int:
    return _emit(comparisons_to_csv(mark_significance((), _summaries(args.results))), args.out, "comparisons")


def _cmd_oracle(args) -> int:
    subject = _subject(load_population(args.subjects), args.subject_id)
    wins = success_states(subject, args.target)
    initial = INITIAL_STATES[args.initial]
    print(f"subject {subject.id}, target {args.target}, initial {args.initial} {list(initial)}")
    print(f"success states: {len(wins)} of {len(enumerate_states())}")
    for state in sorted(wins)[:5]:
        print(f"  example: {list(state)} stress={stress(subject, state):.4f}")
    distance = bfs_distance(subject, initial, args.target)
    if distance is None:
        print("bfs distance: unreachable (empty success set)")
    else:
        print(f"bfs distance from initial: {distance}")
    return 0


def _cmd_trace(args) -> int:
    population = load_population(args.subjects)
    subject = _subject(population, args.subject_id)
    # the flags pick one method, initial state and target, so trace reads the config exactly as run does
    grid = _grid_config(
        args.config, population, master_seed=args.seed, methods=(args.method,),
        initial_kinds=(args.initial,), targets=(args.target,), iteration_cap=args.iteration_cap,
    )
    cfg = grid.run_config(args.method, args.initial, args.target, subject.id, args.repeat)
    result = run_session(cfg, subject)
    with open(args.out, "w", encoding="utf-8") as handle:
        for shown in result.presented_sequence:
            handle.write(json.dumps(asdict(shown)) + "\n")
    print(
        f"success={'true' if result.success else 'false'} "
        f"spiders_presented={result.spiders_presented} iterations={result.iterations_used}"
    )
    return 0


_COMMANDS = {
    "gen-subjects": _cmd_gen_subjects,
    "run": _cmd_run,
    "summarize": _cmd_summarize,
    "compare": _cmd_compare,
    "oracle": _cmd_oracle,
    "trace": _cmd_trace,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, SubjectFileError, ResultsFileError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
