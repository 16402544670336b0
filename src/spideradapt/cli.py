"""Command-line surface: subjects, grid runs, summaries, oracles, traces.

All randomness flows from explicit seeds; there is no wall-clock or OS
entropy anywhere, so every subcommand produces identical bytes when re-run
with the same inputs. Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import fields
from pathlib import Path

from .domain import enumerate_states
from .grid import (
    DEFAULT_TARGETS,
    GridConfig,
    ResultsFileError,
    comparisons_to_csv,
    mark_significance,
    results_from_csv,
    results_to_csv,
    run_grid,
    summarize,
    summary_to_csv,
    summary_to_markdown,
)
from .policies import GAConfig, POLICY_NAMES, RLConfig
from .session import INITIAL_KINDS, RunConfig, initial_state_for, run_session
from .subjects import (
    SubjectFileError,
    bfs_distance,
    generate_population,
    load_population,
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

    p = sub.add_parser("gen-subjects", parents=[], help="sample a virtual subject population")
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
    p.add_argument("--repeats", type=int, default=None, help="repeats per cell (default 10)")
    p.add_argument("--iteration-cap", type=int, default=None, help="iteration cap per run (default 100)")
    p.add_argument("--workers", type=int, default=None, help="parallel workers (default 1)")
    p.add_argument("--config", default=None, help="JSON config mirroring the grid/rl/ga fields")

    p = sub.add_parser("summarize", help="aggregate a results CSV into the category table")
    p.add_argument("--results", required=True)
    p.add_argument("--format", choices=("csv", "markdown"), default="markdown")
    p.add_argument("--aggregation", choices=("pooled", "per_target"), default="pooled")
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
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--repeat", type=int, default=0)
    p.add_argument("--iteration-cap", type=int, default=100)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True, help="JSON-lines trace path")

    return parser


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        config = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SubjectFileError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise SubjectFileError(f"config {path} must be a JSON object")
    return config


def _typed(name: str, value, default):
    """``value`` if its JSON type is that of ``default``; a float also takes an integer.

    ``bool`` subclasses ``int``, so booleans and numbers are told apart explicitly.
    """
    kinds = (int, float) if type(default) is float else type(default)
    if isinstance(value, bool) != isinstance(default, bool) or not isinstance(value, kinds):
        raise SubjectFileError(f"config {name} must be {type(default).__name__}, got {json.dumps(value)}")
    return value


def _sub_config(cls, data: dict):
    if not isinstance(data, dict):
        raise SubjectFileError(f"config {cls.__name__} must be a JSON object, got {json.dumps(data)}")
    defaults = {f.name: f.default for f in fields(cls)}
    unknown = set(data) - set(defaults)
    if unknown:
        raise SubjectFileError(f"unknown {cls.__name__} keys: {sorted(unknown)}")
    return cls(**{
        key: _typed(f"{cls.__name__}.{key}", value, defaults[key]) for key, value in data.items()
    })


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
    config = _load_config(args.config)
    population = load_population(args.subjects)

    def pick(flag, key, default):
        if flag is not None:
            return flag
        return config.get(key, default)

    master_seed = args.seed if args.seed is not None else config.get("master_seed")
    if master_seed is None:
        raise ValueError("--seed is required (or master_seed in --config); no implicit entropy")
    methods = tuple(pick(args.methods, "methods", POLICY_NAMES))
    initial_kinds = tuple(pick(args.initials, "initial_kinds", INITIAL_KINDS))
    targets = tuple(pick(args.targets, "targets", DEFAULT_TARGETS))
    for t in targets:
        if not 1 <= t <= 9:
            raise ValueError(f"targets must be in 1..9, got {t}")
    for kind in initial_kinds:
        if kind not in INITIAL_KINDS:
            raise ValueError(f"unknown initial kind {kind!r}")
    cfg = GridConfig(
        population=population,
        master_seed=int(master_seed),
        methods=methods,
        initial_kinds=initial_kinds,
        targets=targets,
        repeats=int(pick(args.repeats, "repeats", 10)),
        iteration_cap=int(pick(args.iteration_cap, "iteration_cap", 100)),
        rl=_sub_config(RLConfig, config.get("rl", {})),
        ga=_sub_config(GAConfig, config.get("ga", {})),
        rounded_reward=_typed("rounded_reward", config.get("rounded_reward", False), False),
        workers=int(pick(args.workers, "workers", 1)),
    )

    total_runs = len(cfg.methods) * len(population.subjects) * len(initial_kinds) * len(targets) * cfg.repeats
    print(f"running {total_runs} sessions "
          f"({len(cfg.methods)} methods x {len(population.subjects)} subjects x "
          f"{len(initial_kinds)} initials x {len(targets)} targets x {cfg.repeats} repeats)",
          file=sys.stderr)

    last_decile = -1

    def progress(done: int, total: int) -> None:
        nonlocal last_decile
        decile = (10 * done) // total
        if decile > last_decile:
            last_decile = decile
            print(f"progress: {done}/{total} cells ({10 * decile}%)", file=sys.stderr)

    records = run_grid(cfg, progress=progress)
    Path(args.out).write_text(results_to_csv(records))
    print(f"wrote {len(records)} runs to {args.out}")
    return 0


def _cmd_summarize(args) -> int:
    records = results_from_csv(Path(args.results).read_text())
    summaries = summarize(records, aggregation=args.aggregation)
    comparisons = mark_significance(records, summaries)
    text = (
        summary_to_csv(summaries, comparisons)
        if args.format == "csv"
        else summary_to_markdown(summaries, comparisons)
    )
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)
        print(f"wrote summary to {args.out}")
    return 0


def _cmd_compare(args) -> int:
    records = results_from_csv(Path(args.results).read_text())
    comparisons = mark_significance(records)
    text = comparisons_to_csv(comparisons)
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)
        print(f"wrote comparisons to {args.out}")
    return 0


def _cmd_oracle(args) -> int:
    if not 1 <= args.target <= 9:
        raise ValueError(f"--target must be in 1..9, got {args.target}")
    population = load_population(args.subjects)
    if not 0 <= args.subject_id < len(population.subjects):
        raise SubjectFileError(
            f"subject id {args.subject_id} not in file (population size {len(population.subjects)})"
        )
    subject = population.subjects[args.subject_id]
    wins = success_states(subject, args.target)
    initial = initial_state_for(args.initial)
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
    if not 1 <= args.target <= 9:
        raise ValueError(f"--target must be in 1..9, got {args.target}")
    config = _load_config(args.config)
    population = load_population(args.subjects)
    if not 0 <= args.subject_id < len(population.subjects):
        raise SubjectFileError(
            f"subject id {args.subject_id} not in file (population size {len(population.subjects)})"
        )
    subject = population.subjects[args.subject_id]
    cfg = RunConfig(
        method=args.method,
        subject_id=args.subject_id,
        target=args.target,
        initial_kind=args.initial,
        repeat_index=args.repeat,
        iteration_cap=args.iteration_cap,
        master_seed=args.seed,
        rl=_sub_config(RLConfig, config.get("rl", {})),
        ga=_sub_config(GAConfig, config.get("ga", {})),
        rounded_reward=_typed("rounded_reward", config.get("rounded_reward", False), False),
    )
    result = run_session(cfg, subject)
    with open(args.out, "w") as handle:
        for shown in result.presented_sequence:
            handle.write(
                json.dumps(
                    {
                        "state": list(shown.state),
                        "stress": shown.stress,
                        "reward": shown.reward,
                        "iteration": shown.iteration,
                    }
                )
                + "\n"
            )
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
    except (SubjectFileError, ResultsFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
