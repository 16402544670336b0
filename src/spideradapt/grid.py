"""Full evaluation grid: execution, aggregation, and significance testing.

The default grid runs every method for 100 subjects x 3 initial states x
9 targets x 10 repeats (27,000 runs per method). Results aggregate into
(initial state, stress category) cells; a cell's mean and standard deviation
of the presentation counts cover successful runs only, and cells below 75%
accuracy are excluded from the best-method comparison. Paired t-tests over
per-subject means decide the significance markers.
"""

from __future__ import annotations

import codecs
import csv
import gc
import io
import math
import os
import pathlib
import stat
import statistics
from collections import Counter, defaultdict
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, field, fields, replace
from itertools import chain, compress, islice, product
from operator import attrgetter, itemgetter, lt
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence

from scipy.special import betainc

from .domain import INITIAL_KINDS, N_STATES
from .policies import GAConfig, POLICY_NAMES, RLConfig, SLOTS_PER_ITERATION
from .reward_model import TARGETS
from .session import RunConfig, run_sessions
from .subjects import SubjectPopulation, VirtualSubject

DEFAULT_TARGETS = tuple(TARGETS)
STRESS_CATEGORIES: dict[str, tuple[int, ...]] = {
    "low": (1, 2, 3),
    "moderate": (4, 5, 6),
    "high": (7, 8, 9),
}
CATEGORY_ORDER = tuple(STRESS_CATEGORIES)
_CATEGORY_OF = {target: name for name, targets in STRESS_CATEGORIES.items() for target in targets}
ACCURACY_THRESHOLD = 75.0
SIGNIFICANCE_LEVEL = 0.05

METHOD_LABELS = {
    "random": "Random",
    "greedy": "Greedy",
    "ga": "GA",
    "rl_random": "RL_Random",
    "rl_zero": "RL_Zero",
}

def category_of(target: int) -> str:
    try:
        return _CATEGORY_OF[target]
    except KeyError:
        raise ValueError(f"target {target} has no stress category") from None


@dataclass
class GridConfig:
    """The evaluation grid: who runs, against whom, and how often."""

    population: SubjectPopulation
    master_seed: int
    methods: tuple[str, ...] = POLICY_NAMES
    initial_kinds: tuple[str, ...] = INITIAL_KINDS
    targets: tuple[int, ...] = DEFAULT_TARGETS
    repeats: int = 10
    iteration_cap: int = 100
    rl: RLConfig = field(default_factory=RLConfig)
    ga: GAConfig = field(default_factory=GAConfig)
    rounded_reward: bool = False
    workers: int = 1

    def run_config(self, method: str, initial_kind: str, target: int, subject_id: int, repeat: int) -> RunConfig:
        """The configuration of one run of this grid."""
        return RunConfig(
            method=method, subject_id=subject_id, target=target, initial_kind=initial_kind,
            repeat_index=repeat, iteration_cap=self.iteration_cap, master_seed=self.master_seed,
            rl=self.rl, ga=self.ga, rounded_reward=self.rounded_reward,
        )

    def validate(self) -> None:
        """Check the axes, subjects and counts, then one run configuration per method, initial state and target."""
        for axis in (self.methods, self.initial_kinds, self.targets):
            if not axis or len(set(axis)) != len(axis):
                raise ValueError(f"grid axes must be non-empty without repeats, got {axis}")
        if not self.population.subjects:
            raise ValueError("grid population must be non-empty, got no subjects")
        # a run's coordinates, and so its stream and its record, hold the subject id
        ids = Counter(s.id for s in self.population.subjects)
        if bad := sorted(i for i, n in ids.items() if i < 0 or n > 1):
            raise ValueError(f"subject ids must be non-negative and distinct, got {bad}")
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {self.repeats}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        for method, initial_kind, target in product(self.methods, self.initial_kinds, self.targets):
            self.run_config(method, initial_kind, target, 0, 0).validate()


@dataclass(frozen=True, slots=True)
class RunRecord:
    """One grid run's coordinates and outcome."""

    method: str
    initial_kind: str
    target: int
    subject_id: int
    repeat: int
    success: bool
    spiders_presented: int
    iterations_used: int

    def __reduce__(self):
        # through the constructor: no field names, and none of the slots' state methods
        return RunRecord, _record_values(self)


RESULT_COLUMNS = tuple(f.name for f in fields(RunRecord))
_record_values = attrgetter(*RESULT_COLUMNS)


@dataclass
class CellSummary:
    """Aggregate for one (initial state, stress category, method) cell."""

    initial_kind: str
    stress_category: str
    method: str
    mean_presented: float | None
    std_presented: float | None
    accuracy_percent: float
    n_success: int
    considered: bool
    # each subject's mean over its successful runs: the t-tests' pairing unit
    subject_means: dict[int, float] = field(default_factory=dict, repr=False)


@dataclass
class ComparisonResult:
    """Best method of a cell and how the others compare to it."""

    initial_kind: str
    stress_category: str
    best_method: str
    p_values: dict[str, float | None]
    markers: dict[str, str]


# canonical order: the rank of each method and initial state, by which runs and results files sort
_METHOD_RANK = {name: rank for rank, name in enumerate(POLICY_NAMES)}
_KIND_RANK = {kind: rank for rank, kind in enumerate(INITIAL_KINDS)}


def _record_key(r: RunRecord) -> tuple:
    return (_METHOD_RANK[r.method], _KIND_RANK[r.initial_kind], r.target, r.subject_id, r.repeat)


def _run_unit(unit: tuple[GridConfig, VirtualSubject, int]) -> list[RunRecord]:
    """All runs of one subject at one target: the grid's work unit.

    The unit covers every method, initial state and repeat, so all its runs
    read one response table. A method that draws nothing never reads its
    repeat index, so it runs once per initial state and that outcome is
    every repeat's record.
    """
    cfg, subject, target = unit
    runs = [
        cfg.run_config(method, initial_kind, target, subject.id, repeat)
        for method, initial_kind in product(cfg.methods, cfg.initial_kinds)
        for repeat in (range(cfg.repeats) if SLOTS_PER_ITERATION[method] else (0,))
    ]
    return [
        RunRecord(rc.method, rc.initial_kind, target, subject.id, repeat,
                  result.success, result.spiders_presented, result.iterations_used)
        for rc, result in zip(runs, run_sessions(runs, subject))
        for repeat in ((rc.repeat_index,) if SLOTS_PER_ITERATION[rc.method] else range(cfg.repeats))
    ]


def run_grid(
    cfg: GridConfig,
    progress: Callable[[int, int], None] | None = None,
) -> list[RunRecord]:
    """Run the whole grid and return records in canonical coordinate order.

    Worker count never changes the records: every run derives its rng from
    its own coordinates, and the output is sorted before returning.
    ``progress`` gets (runs done, runs) after each unit. The whole
    configuration is validated before any run.
    """
    cfg.validate()
    # a unit carries its subject and not the population, so pickling stays linear in subjects
    bare = replace(cfg, population=SubjectPopulation(cfg.population.seed, ()))
    # a subject's units run back to back, so its stress table is built once
    units = [(bare, s, t) for s in cfg.population.subjects for t in cfg.targets]
    runs = len(units) * len(cfg.methods) * len(cfg.initial_kinds) * cfg.repeats
    records: list[RunRecord] = []
    with ExitStack() as stack:
        if cfg.workers == 1:
            results = map(_run_unit, units)
        else:
            # a fork pool starts every worker at once, so never ask for more than there is work
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=min(cfg.workers, len(units))))
            results = pool.map(_run_unit, units)
        for unit_records in results:
            records.extend(unit_records)
            if progress is not None:
                progress(len(records), runs)
    records.sort(key=_record_key)
    return records


# ---------------------------------------------------------------------------
# Aggregation


def summarize(records: Sequence[RunRecord]) -> list[CellSummary]:
    """``summarize_columns`` over the records' fields, ``_BLOCK_ROWS`` records at a time."""
    rows = map(_record_values, records)
    return summarize_columns(zip(*block) for block in iter(lambda: list(islice(rows, _BLOCK_ROWS)), []))


def summarize_columns(blocks: Iterable[Sequence[Sequence]]) -> list[CellSummary]:
    """Aggregate blocks of results columns, each in ``RESULT_COLUMNS`` order, into (initial, category, method) cells.

    A cell's mean and std pool every successful run in it, whatever its
    target; ``subject_means`` keeps the mean of each subject's successes.
    """
    runs: Counter[tuple[str, str, str]] = Counter()
    by_cell = defaultdict(lambda: defaultdict(list))  # each subject's successful counts in each cell
    for method, initial, target, subject_id, _, success, presented, _ in blocks:
        cells = list(zip(initial, map(_CATEGORY_OF.__getitem__, target), method))
        runs.update(cells)
        for cell, sid, count in compress(zip(cells, subject_id, presented), success):
            by_cell[cell][sid].append(count)

    summaries = []
    for cell in sorted(runs, key=lambda c: (INITIAL_KINDS.index(c[0]), CATEGORY_ORDER.index(c[1]),
                                            POLICY_NAMES.index(c[2]))):
        by_subject = by_cell[cell]
        # fmean sums with fsum and _stdev is exact, so grouping by subject changes no bit
        pooled = list(chain.from_iterable(by_subject.values()))
        accuracy = 100.0 * len(pooled) / runs[cell]
        summaries.append(
            CellSummary(
                *cell,
                mean_presented=statistics.fmean(pooled) if pooled else None,
                std_presented=_stdev(pooled) if len(pooled) >= 2 else None,
                accuracy_percent=accuracy,
                n_success=len(pooled),
                considered=accuracy >= ACCURACY_THRESHOLD,
                subject_means={sid: statistics.fmean(counts) for sid, counts in by_subject.items()},
            )
        )
    return summaries


def _stdev(counts: Sequence[int]) -> float:
    """``statistics.stdev`` of two or more integers, bit for bit: the exact sample variance's root, correctly rounded.

    The variance is (nΣx² − (Σx)²)/(n(n−1)). Scaled by a power of four to 109
    bits, its integer root keeps 55, the last rounded to odd, so the one
    rounding to float is correct: the scheme of CPython 3.11's ``statistics``.
    """
    n, total = len(counts), sum(counts)
    num, den = n * sum(x * x for x in counts) - total * total, n * (n - 1)
    shift = (num.bit_length() - den.bit_length() - 109) // 2
    num, den = num << max(0, -2 * shift), den << max(0, 2 * shift)
    root = math.isqrt(num // den)
    return math.ldexp(root | (root * root * den != num), shift)  # a set last bit marks an inexact root


# ---------------------------------------------------------------------------
# Statistics


def _student_t_sf(t: float, df: int) -> float:
    """Upper-tail probability of Student's t via the regularized incomplete beta."""
    if df < 1:
        raise ValueError("degrees of freedom must be >= 1")
    if t < 0:
        return 1.0 - _student_t_sf(-t, df)
    if t == 0:
        return 0.5
    return 0.5 * float(betainc(df / 2.0, 0.5, df / (df + t * t)))


def paired_ttest(a: Sequence[float], b: Sequence[float]) -> tuple[float, float]:
    """Paired-samples t-test: statistic and two-tailed p-value.

    Identical samples return (0, 1). A nonzero but constant difference has no
    defined statistic and raises.
    """
    if len(a) != len(b):
        raise ValueError("paired samples must have equal length")
    n = len(a)
    if n < 2:
        raise ValueError("paired t-test needs at least two pairs")
    diffs = [float(x) - float(y) for x, y in zip(a, b)]
    if all(d == 0.0 for d in diffs):
        return 0.0, 1.0
    sd = statistics.stdev(diffs)
    if sd == 0.0:
        raise ValueError("differences have zero variance")
    t = statistics.fmean(diffs) / (sd / math.sqrt(n))
    p = 2.0 * _student_t_sf(abs(t), n - 1)
    return t, p


def _paired_p(a_means: dict[int, float], b_means: dict[int, float]) -> float | None:
    """p of the paired t-test over the subjects both sides cover; None where it is undefined."""
    shared = sorted(a_means.keys() & b_means.keys())
    try:
        return paired_ttest([a_means[sid] for sid in shared], [b_means[sid] for sid in shared])[1]
    except ValueError:  # fewer than two shared subjects, or a constant nonzero difference
        return None


def mark_significance(
    records: Sequence[RunRecord],
    summaries: Sequence[CellSummary] | None = None,
) -> list[ComparisonResult]:
    """Find each cell's best considered method and test the others against it.

    The pairing unit is each summary's ``subject_means``; subjects without a
    success under either method drop out pairwise. ``records`` is read only
    when no summaries are given. The best method earns ``**`` when
    significantly better than every other considered method, otherwise ``*``
    marks it and every considered method that is not significantly
    different. Cells with no considered method are skipped.
    """
    if summaries is None:
        summaries = summarize(records)
    cells: dict[tuple[str, str], list[CellSummary]] = {}
    for s in summaries:
        if s.considered:
            cells.setdefault((s.initial_kind, s.stress_category), []).append(s)

    comparisons = []
    for (initial_kind, category), considered in cells.items():
        best = min(considered, key=lambda s: (s.mean_presented, POLICY_NAMES.index(s.method)))
        p_values = {s.method: _paired_p(best.subject_means, s.subject_means) for s in considered if s is not best}
        weak = [m for m, p in p_values.items() if p is None or p >= SIGNIFICANCE_LEVEL]
        if weak:
            markers = dict.fromkeys([best.method, *weak], "*")
        else:
            markers = {best.method: "**"} if p_values else {}
        comparisons.append(ComparisonResult(initial_kind, category, best.method, p_values, markers))
    return comparisons


# ---------------------------------------------------------------------------
# Emission


def _csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def results_to_csv(records: Sequence[RunRecord]) -> str:
    """Results CSV, canonically ordered so identical grids give identical bytes."""
    return _csv(RESULT_COLUMNS, (
        (r.method, r.initial_kind, r.target, r.subject_id, r.repeat,
         "true" if r.success else "false", r.spiders_presented, r.iterations_used)
        for r in sorted(records, key=_record_key)
    ))


class ResultsFileError(ValueError):
    """Raised when a results CSV is missing columns or malformed."""


# Rows the block parse reads and checks at a time: enough that the column
# passes outweigh the per-block work, few enough that a block's columns add
# nothing measurable to peak memory next to the records.
_BLOCK_ROWS = 256
# Bytes of a results file the parse decodes and reads through one StringIO
# at a time: at four bytes a character, a window costs at most 64 KB.
_WINDOW_BYTES = 1 << 14
# each name maps to the one string every record shares
_METHODS = {name: name for name in POLICY_NAMES}
_INITIAL_KINDS = {kind: kind for kind in INITIAL_KINDS}
_SUCCESS = {"true": True, "false": False}
# the canonical numeral of each count a paper grid writes, and its value
_NUMERALS = {str(i): i for i in range(N_STATES + 1)}


def results_from_csv(text: str) -> list[RunRecord]:
    """Parse a results CSV, rejecting any row the report could not label.

    Every row must be well-formed CSV, have a field for each column, name a
    known method and initial state, and hold a target in 1..9, non-negative
    numbers, between 1 and ``N_STATES`` spiders presented, ``success`` of
    true or false and coordinates that no other row repeats. An error names
    the line of the first row that breaks a rule. The text is read as a file
    of its UTF-8 bytes is, so a lone surrogate is refused at its line as an
    undecodable byte is. The cyclic garbage collector is paused while the
    records are built, a block at a time, and then set back as it was.
    """
    data = text.encode(errors="surrogatepass")
    collecting = gc.isenabled()
    gc.disable()  # records hold only str, int and bool: building them makes no cycles for a collection to free
    try:
        blocks = _parse(lambda: io.BytesIO(data), _BLOCK_ROWS)
        return list(chain.from_iterable(map(RunRecord, *block) for block in blocks))
    finally:
        if collecting:
            gc.enable()


def file_column_blocks(path: str | os.PathLike) -> Iterator[tuple[list, ...]]:
    """The columns of each block of the results file's rows, in ``RESULT_COLUMNS`` order.

    The rows are checked as ``results_from_csv`` checks them, but no record
    is built, no column spans the file, and the file is read a window at a
    time. A byte that is not UTF-8 is refused at its line, like a row that
    breaks a rule; a missing or unreadable file raises its ``OSError``. A
    rejected file, or one out of ``run``'s order, is read again, so the bytes
    of what is not a regular file, such as a pipe, are read whole first.
    """
    if stat.S_ISREG(os.stat(path).st_mode):
        return _parse(lambda: open(path, "rb"), _BLOCK_ROWS)
    data = pathlib.Path(path).read_bytes()
    return _parse(lambda: io.BytesIO(data), _BLOCK_ROWS)


def _file_lines(open_file: Callable[[], BinaryIO]) -> Iterator[str]:
    """The lines of the binary stream ``open_file()`` opens, as ``Path.read_text(encoding="utf-8-sig")`` reads them.

    The stream is read in windows of about ``_WINDOW_BYTES`` bytes, each cut
    just after a newline byte, so no window splits a character or a CRLF.
    As in ``read_text``, a leading byte order mark is dropped, and a CRLF
    and a lone CR each end a line, read as a newline; nothing else does
    (``str.splitlines`` also breaks at characters such as a vertical tab or
    U+2028, which csv keeps inside a field). An undecodable byte raises its
    ``UnicodeDecodeError``, with its position in its line, once every line
    before that one has been yielded.
    """
    with open_file() as file:
        windows = iter(lambda: file.read(_WINDOW_BYTES) + file.readline(), b"")
        for window in chain([next(windows, b"").removeprefix(codecs.BOM_UTF8)], windows):
            try:
                text = window.decode()
            except UnicodeDecodeError as exc:
                head = window[:exc.start]
                start = max(head.rfind(b"\n"), head.rfind(b"\r")) + 1  # where the bad byte's line begins
                yield from io.StringIO(head[:start].decode(), newline=None)
                raise UnicodeDecodeError(exc.encoding, window[start:], exc.start - start, exc.end - start,
                                         exc.reason) from None
            yield from io.StringIO(text, newline=None)


def _names(table: dict, column: Iterable[str], rule: str) -> list:
    """``column`` mapped through ``table``; a name it lacks breaks ``rule``, which is worded with that name."""
    try:
        return list(map(table.__getitem__, column))
    except KeyError as exc:
        raise ValueError(rule.format(exc.args[0])) from None


def _ints(column: Sequence[str]) -> list[int]:
    """``column``'s cells as ``int()`` reads them, through ``_NUMERALS`` when it holds every one."""
    try:
        return list(map(_NUMERALS.__getitem__, column))
    except KeyError:
        return list(map(int, column))


def _parse(open_file: Callable[[], BinaryIO], block_rows: int) -> Iterator[tuple[list, ...]]:
    """The columns of each ``block_rows`` rows of a results CSV in ``RESULT_COLUMNS`` order, checked column-wise.

    ``open_file`` opens a new binary stream of the file each call. The
    rules are checked over a block's columns in their documented order,
    and the first one broken raises its message for a row of the block at
    the line the reader has reached: with one row per block, that is the
    first bad row's line and the first rule it breaks, so a rejected file is
    read again one row per block. While each run's ``_record_key`` exceeds
    the one before, as in a file ``run`` wrote, no run can repeat and none
    is kept; from the first block out of that order, the runs before it are
    read again into a set that finds repeats.
    """
    lines = _file_lines(open_file)  # a generator: a file is opened at its first line, inside the try
    reader = csv.reader(lines, strict=True)  # a quote that never closes, or text after a closing one, is an error
    last: tuple = ()  # the greatest key so far while the keys increase
    seen: set[tuple] | None = None  # the runs so far, once the keys have stopped increasing
    blocks = 0
    try:
        header = next(reader, RESULT_COLUMNS)  # a file without a line has no runs, and says so below
        if missing := set(RESULT_COLUMNS) - set(header):
            raise ValueError(f"missing columns {sorted(missing)}")
        picks = [header.index(name) for name in RESULT_COLUMNS]
        columns_of = itemgetter(*picks)
        rows = filter(None, reader)  # blank lines are skipped
        while block := list(islice(rows, block_rows)):
            if (fewest := min(map(len, block))) <= max(picks):
                raise ValueError(f"row has {fewest} fields, the header has {len(header)}")
            method, initial_kind, target, subject_id, repeat, success, presented, iterations = columns_of(
                list(zip(*block))
            )
            target, subject_id, repeat, presented, iterations = map(
                _ints, (target, subject_id, repeat, presented, iterations)
            )
            method = _names(_METHODS, method, "unknown method {!r}")
            initial_kind = _names(_INITIAL_KINDS, initial_kind, "unknown initial kind {!r}")
            if not set(target).issubset(TARGETS):
                raise ValueError(f"target {next(t for t in target if t not in TARGETS)} not in 1..9")
            if min(map(min, (subject_id, repeat, presented, iterations))) < 0:
                raise ValueError("subject_id, repeat, spiders_presented and iterations_used must be non-negative")
            if min(presented) < 1 or max(presented) > N_STATES:  # a run shows its start, and never a spider twice
                bad = next(p for p in presented if not 1 <= p <= N_STATES)
                raise ValueError(f"spiders_presented {bad} not in 1..{N_STATES}")
            if seen is None:
                keys = list(zip(map(_METHOD_RANK.__getitem__, method), map(_KIND_RANK.__getitem__, initial_kind),
                                target, subject_id, repeat))
                if all(map(lt, chain((last,), keys), keys)):  # a strictly increasing sequence cannot repeat
                    last = keys[-1]
                else:  # the first block out of order: the runs before it, which cannot repeat, start the set
                    seen = set()
                    for earlier in islice(_parse(open_file, block_rows), blocks):
                        seen |= set(zip(*earlier[:5]))
            if seen is not None:
                runs = len(seen)
                # merging a whole set sizes seen to fit, where adding runs one by one grows it fourfold
                seen |= set(zip(method, initial_kind, target, subject_id, repeat))
                if len(seen) - runs < len(block):  # a repeat; with one row per block, the block's first run is it
                    raise ValueError(f"duplicate run {next(zip(method, initial_kind, target, subject_id, repeat))}")
            success = _names(_SUCCESS, success, "success must be true or false, got {!r}")
            blocks += 1
            yield method, initial_kind, target, subject_id, repeat, success, presented, iterations
    except (ValueError, csv.Error) as exc:
        if block_rows > 1:
            for _ in _parse(open_file, 1):  # raises at the first bad row
                pass
        # an undecodable line raised before the reader counted it
        line = reader.line_num + isinstance(exc, UnicodeDecodeError)
        raise ResultsFileError(f"malformed results CSV at line {line}: {exc}") from exc
    finally:
        lines.close()
    if not blocks:
        raise ResultsFileError("results CSV contains no runs")


def _fmt(value: float | None, spec: str = ".6f") -> str:
    return "" if value is None else format(value, spec)


def summary_to_csv(
    summaries: Sequence[CellSummary],
    comparisons: Sequence[ComparisonResult],
) -> str:
    markers = _marker_lookup(comparisons)
    return _csv(
        ("initial_kind", "stress_category", "method", "mean_presented", "std_presented",
         "accuracy_percent", "n_success", "considered", "marker"),
        (
            (s.initial_kind, s.stress_category, s.method, _fmt(s.mean_presented), _fmt(s.std_presented),
             _fmt(s.accuracy_percent), s.n_success, "true" if s.considered else "false",
             markers.get((s.initial_kind, s.stress_category, s.method), ""))
            for s in summaries
        ),
    )


def _marker_lookup(
    comparisons: Sequence[ComparisonResult],
) -> dict[tuple[str, str, str], str]:
    return {
        (c.initial_kind, c.stress_category, method): marker
        for c in comparisons
        for method, marker in c.markers.items()
    }


def summary_to_markdown(
    summaries: Sequence[CellSummary],
    comparisons: Sequence[ComparisonResult],
) -> str:
    """Markdown table: one block per (initial, category), methods as columns.

    The best considered method of each row is bold; cells excluded by the
    accuracy filter show their spread in parentheses instead of a +/-.
    """
    markers = _marker_lookup(comparisons)
    best_of = {(c.initial_kind, c.stress_category): c.best_method for c in comparisons}
    methods = sorted({s.method for s in summaries}, key=POLICY_NAMES.index)
    cells: dict[tuple[str, str], dict[str, CellSummary]] = {}
    for s in summaries:
        cells.setdefault((s.initial_kind, s.stress_category), {})[s.method] = s

    lines = [
        "| Initial | Stress | Metric | " + " | ".join(METHOD_LABELS[m] for m in methods) + " |",
        "|" + "---|" * (3 + len(methods)),
    ]
    for (initial_kind, category), by_method in cells.items():
        presented_row = []
        accuracy_row = []
        for m in methods:
            s = by_method.get(m)
            if s is None or s.mean_presented is None:
                presented_row.append("n/a")
                accuracy_row.append("n/a" if s is None else f"{s.accuracy_percent:.2f}")
                continue
            std = f"{s.std_presented:.2f}" if s.std_presented is not None else "0.00"
            text = (
                f"{s.mean_presented:.2f}±{std}"
                if s.considered
                else f"{s.mean_presented:.2f} ({std})"
            )
            if best_of.get((initial_kind, category)) == m:
                text = f"**{text}**"
            # escape the significance stars so they render literally
            text += markers.get((initial_kind, category, m), "").replace("*", "\\*")
            presented_row.append(text)
            accuracy_row.append(f"{s.accuracy_percent:.2f}")
        lines.append(
            f"| {initial_kind.capitalize()} | {category.capitalize()} | Spiders Presented | "
            + " | ".join(presented_row)
            + " |"
        )
        lines.append("| | | Accuracy | " + " | ".join(accuracy_row) + " |")
    lines.append("")
    lines.append(
        "Bold marks the best considered method per row; `**` significantly better than "
        "all others, `*` not significantly different from the best; `m (s)` cells fall "
        f"below the {ACCURACY_THRESHOLD:.0f}% accuracy threshold and are excluded."
    )
    return "\n".join(lines) + "\n"


def comparisons_to_csv(comparisons: Sequence[ComparisonResult]) -> str:
    return _csv(
        ("initial_kind", "stress_category", "best_method", "method", "p_value", "marker"),
        (
            (c.initial_kind, c.stress_category, c.best_method, m,
             _fmt(c.p_values.get(m), ".6g"), c.markers.get(m, ""))
            for c in comparisons
            # a best method with no rival still gets a row, with the other columns empty
            for m in sorted(c.p_values.keys() | c.markers.keys(), key=POLICY_NAMES.index) or [""]
        ),
    )
