"""Mutation runner: each mutant breaks one snippet of the tree, and named tests must catch it.

Usage, from any directory::

    python tests/mutants.py [NAME...]

Each mutant, or each one named, is applied on its own to a copy of the tree
in a temporary directory, and its test nodes run there with ``pytest -x``.
A mutant is killed when they fail and survives when they pass. The runner
prints one line per mutant and exits 1 if any survived. Pytest does not
collect this file; ``test_mutants.py`` checks that every snippet occurs
exactly once, so code that moves must take its mutants along.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
# a mutant whose tests hang is reported as killed after this long
TIMEOUT_S = 900


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the root of the tree
    snippet: str  # occurs exactly once in the file
    replacement: str
    nodes: tuple[str, ...]  # pytest node ids, one of which must fail


_SEQUENTIAL = "tests/test_session.py::test_sequential_runs_equal_the_reference"
_GA = "tests/test_session.py::test_ga_runs_equal_the_reference"
_SMALL_GRID = "tests/test_acceptance.py::test_golden_digest_of_a_small_grid_off_the_defaults"
_GRID_RECORDS = ("tests/test_grid.py::test_run_grid_runs_greedy_once_per_initial_state",)
_PARSE = "tests/test_grid.py::test_block_parse_agrees_with_the_row_by_row_rules[{}]"
_STDEV = ("tests/test_grid.py::test_exact_stdev_is_statistics_stdev_bit_for_bit",)
_RECORD_PICKLE = "tests/test_grid.py::test_record_has_slots_and_pickles_as_its_values"
_LINES = "tests/test_grid.py::test_line_source_yields_the_lines_of_one_stringio"
_ORDER = "tests/test_grid.py::test_a_file_out_of_canonical_order_parses_as_the_reference[1-{}]"
_REFERENCE_GRID = "tests/test_grid.py::test_run_grid_equals_the_reference_grid"
_ROUNDED_TABLE = "tests/test_subjects.py::test_rounded_table_rewards_the_stress_rounded_half_up"
_SESSION, _GRID, _CLI = "src/spideradapt/session.py", "src/spideradapt/grid.py", "src/spideradapt/cli.py"
_SUBJECTS = "src/spideradapt/subjects.py"

MUTANTS = (
    # the move graph, built from the strides
    Mutant("stride-graph-masks-each-maximum", "src/spideradapt/domain.py", "s[i] + d <= MAX_VALUES[i]",
           "s[i] + d < MAX_VALUES[i]", ("tests/test_domain.py::test_state_space_tables_agree_with_tuple_ops",)),
    # the one response table, rounded or not
    Mutant("rounded-table-ignores-its-switch", _SUBJECTS, "if rounded else x", "if False else x",
           (_ROUNDED_TABLE, "tests/test_session.py::test_rounded_reward_flag_changes_rewards")),
    Mutant("rounded-table-rounds-half-down", _SUBJECTS, "math.floor(x + 0.5)", "math.ceil(x - 0.5)",
           (_ROUNDED_TABLE,)),
    # the grid's work units: only a method that draws nothing runs once for every repeat
    Mutant("grid-runs-random-once-for-every-repeat", _GRID,
           "from .policies import GAConfig, POLICY_NAMES, RLConfig, SLOTS_PER_ITERATION\n",
           "from .policies import GAConfig, POLICY_NAMES, RLConfig, SLOTS_PER_ITERATION\n"
           "SLOTS_PER_ITERATION = {**SLOTS_PER_ITERATION, \"random\": 0}\n", (_REFERENCE_GRID,)),
    Mutant("grid-writes-greedy-repeats-as-zero", _GRID, "RunRecord(rc.method, rc.initial_kind, target, subject.id, repeat,",
           "RunRecord(rc.method, rc.initial_kind, target, subject.id, repeat if SLOTS_PER_ITERATION[rc.method] else 0,",
           (_REFERENCE_GRID,)),
    # the sequential session loop
    Mutant("greedy-shows-every-neighbour", _SESSION,
           "present(space.neighbor_ids[s], it, True)", "present(space.neighbor_ids[s], it, False)", (_SEQUENTIAL,)),
    Mutant("greedy-ignores-a-hit", _SESSION,
           "present(space.neighbor_ids[s], it, True)\n            if hit is not None:",
           "present(space.neighbor_ids[s], it, True)\n            if False:", (_SEQUENTIAL,)),
    Mutant("no-slots-yield-once", _SESSION, "yield from repeat(())", "yield ()", (_SEQUENTIAL,)),
    Mutant("inline-shows-at-the-previous-iteration", _SESSION, "shown[t] = it", "shown[t] = it - 1", (_SEQUENTIAL,)),
    Mutant("a-reshown-spider-takes-a-later-iteration", _SESSION, "if t not in shown:", "if True:", (_SEQUENTIAL,)),
    Mutant("rl-reads-the-default-epsilon", _SESSION, "epsilon = cfg.rl.epsilon", "epsilon = 0.05",
           (_SEQUENTIAL, _SMALL_GRID)),
    # the GA's generations
    Mutant("ga-seed-population-stops-at-its-first-success", _SESSION, "present(population, 0, False)",
           "present(population, 0, True)", ("tests/test_session.py::test_ga_corner_first_batch_is_seven", _GA)),
    Mutant("ga-failed-run-ends-on-its-last-member", _SESSION, "max(population, key=rewards.__getitem__))",
           "population[-1])", (_GA,)),
    Mutant("ga-selects-from-offspring-first", _SESSION, "ga_select(population + offspring,",
           "ga_select(offspring + population,", (_GA, _SMALL_GRID)),
    Mutant("ga-select-ties-toward-later-positions", "src/spideradapt/policies.py",
           "sorted(range(len(pool)),", "sorted(reversed(range(len(pool))),",
           ("tests/test_policies.py::test_ga_select_rules", _GA)),
    Mutant("ga-parents-swap-their-slots", "src/spideradapt/policies.py", "picks = (u[0], u[1], u[8], u[9])",
           "picks = (u[1], u[0], u[8], u[9])", (_GA, _SMALL_GRID)),
    # one-pass seeding of a grid unit
    Mutant("seed-hash-multiplier-off-by-two", _SESSION, "_MULT_B = 0x8B51F9DD, 0x58F38DED",
           "_MULT_B = 0x8B51F9DD, 0x58F38DEF",
           ("tests/test_session.py::test_pcg64_states_match_the_seed_sequence", *_GRID_RECORDS)),
    Mutant("unit-states-in-reverse", _SESSION, "zip(cfgs, pcg64_states(cfgs))",
           "zip(cfgs, reversed(pcg64_states(cfgs)))",
           ("tests/test_session.py::test_run_sessions_equal_one_run_session_each", *_GRID_RECORDS)),
    # README's slot table
    Mutant("readme-random-takes-two-slots", "README.md", "| `random` | 1 |", "| `random` | 2 |",
           ("tests/test_cli.py::test_readme_pins_the_slot_table_and_the_results_header",)),
    # the results parser's rules and their order
    Mutant("parser-drops-the-target-rule", _GRID, "if not set(target).issubset(TARGETS):", "if False:",
           (_PARSE.format("out of range"),)),
    Mutant("parser-swaps-the-name-rules", _GRID,
           '            method = _names(_METHODS, method, "unknown method {!r}")\n'
           '            initial_kind = _names(_INITIAL_KINDS, initial_kind, "unknown initial kind {!r}")\n',
           '            initial_kind = _names(_INITIAL_KINDS, initial_kind, "unknown initial kind {!r}")\n'
           '            method = _names(_METHODS, method, "unknown method {!r}")\n',
           (_PARSE.format("unknown name"),)),
    Mutant("parser-table-misreads-a-numeral", _GRID, "_NUMERALS = {str(i): i for i in range(N_STATES + 1)}",
           '_NUMERALS = {str(i): i for i in range(N_STATES + 1)} | {"7": 8}', (_PARSE.format("None"),)),
    Mutant("parser-lets-one-repeat-per-block-through", _GRID, "if len(seen) - runs < len(block):",
           "if len(seen) - runs < len(block) - 1:", (_PARSE.format("duplicate"),)),
    # the results line source
    Mutant("line-window-cut-before-its-newline", _GRID, "file.read(_WINDOW_BYTES) + file.readline()",
           "file.read(_WINDOW_BYTES) + file.readline()[:-1]", (_LINES,)),
    Mutant("lines-split-by-splitlines", _GRID, "yield from io.StringIO(text, newline=None)",
           "yield from text.splitlines(keepends=True)",
           (_LINES, "tests/test_grid.py::test_extra_column_keeps_the_characters_splitlines_breaks_at[1]")),
    Mutant("one-window-over-the-text", _GRID, "_WINDOW_BYTES = 1 << 14", "_WINDOW_BYTES = 1 << 30",
           ("tests/test_grid.py::test_line_source_holds_a_window_not_the_text",)),
    Mutant("file-window-cut-mid-line", _GRID, "file.read(_WINDOW_BYTES) + file.readline()",
           "file.read(_WINDOW_BYTES)", ("tests/test_grid.py::test_file_lines_are_the_lines_of_its_text",)),
    Mutant("undecodable-byte-named-a-line-early", _GRID, "reader.line_num + isinstance(exc, UnicodeDecodeError)",
           "reader.line_num", ("tests/test_cli.py::test_an_undecodable_byte_is_refused_at_its_line",)),
    # rule 8 as an order check, with a set of runs only from the first block out of order
    Mutant("order-check-lets-an-equal-key-through", _GRID, "all(map(lt, chain((last,), keys), keys))",
           "all(map(lambda a, b: a <= b, chain((last,), keys), keys))", (_ORDER.format("last-row-repeated"),)),
    Mutant("prefix-rebuild-one-block-short", _GRID, "islice(_parse(open_file, block_rows), blocks)",
           "islice(_parse(open_file, block_rows), max(blocks - 1, 0))", (_ORDER.format("last-row-repeated"),)),
    # the collector, paused only while results_from_csv builds its records
    Mutant("reader-pauses-the-collector-across-its-blocks", _GRID,
           "    lines = _file_lines(open_file)  # a generator",
           "    gc.disable()\n    lines = _file_lines(open_file)  # a generator",
           ("tests/test_grid.py::test_a_held_block_reader_leaves_the_collector_as_the_caller_set_it",)),
    Mutant("results-from-csv-leaves-the-collector-off", _GRID, "            gc.enable()", "            pass",
           (_PARSE.format("None"),)),
    # the csv module's strict quoting
    Mutant("reader-reads-quotes-loosely", _GRID, "csv.reader(lines, strict=True)", "csv.reader(lines)",
           ("tests/test_grid.py::test_results_from_csv_rejects_bad_input", _PARSE.format("bad quote"))),
    # run --out on what is not a regular file
    Mutant("run-renames-over-a-fifo", _CLI, "regular = os.path.isfile(args.out) or not os.path.exists(args.out)",
           "regular = True",
           ("tests/test_cli.py::test_run_writes_into_a_fifo_in_place",)),
    # block-wise aggregation
    Mutant("aggregation-keeps-the-last-blocks-successes-only", _GRID,
           "in blocks:\n        cells = ",
           "in blocks:\n        by_cell = defaultdict(lambda: defaultdict(list))\n        cells = ",
           ("tests/test_grid.py::test_report_matches_reference",)),
    Mutant("warning-axes-from-the-last-block", _CLI, "            values.update(column)",
           "            values.clear()\n            values.update(column)",
           ("tests/test_cli.py::test_incomplete_grid_warning_counts_runs_across_blocks",)),
    # records pickle as their values through the constructor
    Mutant("record-pickles-its-state", _GRID,
           "    def __reduce__(self):\n"
           "        # through the constructor: no field names, and none of the slots' state methods\n"
           "        return RunRecord, _record_values(self)\n",
           "", (_RECORD_PICKLE,)),
    Mutant("record-pickles-fields-rotated", _GRID, "return RunRecord, _record_values(self)",
           "return RunRecord, _record_values(self)[1:] + _record_values(self)[:1]",
           (_RECORD_PICKLE, "tests/test_grid.py::test_run_grid_units_do_not_carry_the_population")),
    # the exact stdev
    Mutant("stdev-divides-by-n-squared", _GRID, "n * (n - 1)", "n * n", _STDEV),
    Mutant("stdev-drops-the-odd-bit", _GRID, "root | (root * root * den != num)", "root", _STDEV),
    Mutant("stdev-keeps-105-bits", _GRID, "den.bit_length() - 109", "den.bit_length() - 105", _STDEV),
)


def run(mutant: Mutant) -> str:
    """Apply ``mutant`` to a fresh copy of the tree and run its nodes there; return the outcome."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench", "*.egg-info"))
        target = tree / mutant.path
        text = target.read_text()
        if text.count(mutant.snippet) != 1:
            raise SystemExit(f"{mutant.name}: the snippet does not occur exactly once in {mutant.path}")
        target.write_text(text.replace(mutant.snippet, mutant.replacement))
        env = {**os.environ, "PYTHONPATH": str(tree / "src")}
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.nodes]
        try:
            code = subprocess.run(command, cwd=tree, env=env, capture_output=True, timeout=TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            return "killed (timed out)"
    # 1: a test failed; 2: a test module failed to import
    return {0: "survived", 1: "killed", 2: "killed"}.get(code, f"error (pytest exit {code})")


def main(names: list[str]) -> int:
    known = {m.name: m for m in MUTANTS}
    if unknown := [n for n in names if n not in known]:
        raise SystemExit(f"unknown mutants {unknown}; known: {', '.join(known)}")
    outcomes = []
    for mutant in [known[n] for n in names] or MUTANTS:
        outcomes.append(run(mutant))
        print(f"{mutant.name}: {outcomes[-1]}", flush=True)
    return 0 if all(o.startswith("killed") for o in outcomes) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
