"""The specs the program is checked against: the move graph, a session, a grid, the report and the results rules.

A move changes one attribute of a spider state by one step. It is masked,
never clamped, when the attribute would leave its range; ``domain.StateSpace``'s
index tables are checked against these functions. ``reference_session``
rebuilds a run of any method from them and README's protocol, and
``reference_grid`` a whole grid from such runs. ``reference_report`` and
``reference_results_from_csv`` rebuild the summaries, comparisons and parsed
records by the documented rules. Pytest does not collect this file; the
tests import it as ``tests.reference``.
"""

from __future__ import annotations

import csv
import io
import operator
import statistics
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, product
from typing import Sequence

import numpy as np
import scipy.stats

from spideradapt.domain import (
    INITIAL_STATES,
    MAX_VALUES,
    MIN_VALUES,
    N_ATTRIBUTES,
    SpiderState,
    is_valid_state,
    state_index,
)
from spideradapt.grid import (
    CATEGORY_ORDER,
    CellSummary,
    ComparisonResult,
    GridConfig,
    RESULT_COLUMNS,
    ResultsFileError,
    RunRecord,
    category_of,
)
from spideradapt.policies import POLICY_NAMES
from spideradapt.reward_model import RewardSpec, is_success, reward
from spideradapt.session import INITIAL_KINDS, PresentedSpider, RunConfig, RunResult, run_seed_sequence
from spideradapt.subjects import VirtualSubject, stress


@dataclass(frozen=True)
class Action:
    """Change one attribute by one step in either direction."""

    attribute_index: int
    direction: int  # +1 or -1

    @property
    def index(self) -> int:
        """Nominal action id in [0, 12): attribute-major, -1 before +1."""
        return self.attribute_index * 2 + (1 if self.direction > 0 else 0)


# All 12 nominal actions in canonical order (attribute ascending, -1 first).
ACTIONS: tuple[Action, ...] = tuple(
    Action(i, d) for i in range(N_ATTRIBUTES) for d in (-1, +1)
)


def _check_state(state: SpiderState) -> None:
    if not is_valid_state(state):
        raise ValueError(f"invalid spider state: {state!r}")


def is_valid_action(state: SpiderState, action: Action) -> bool:
    """True iff applying the action keeps the attribute in range."""
    if action.attribute_index not in range(N_ATTRIBUTES):
        return False
    if action.direction not in (-1, +1):
        return False
    value = state[action.attribute_index] + action.direction
    return MIN_VALUES[action.attribute_index] <= value <= MAX_VALUES[action.attribute_index]


def valid_actions(state: SpiderState) -> list[Action]:
    """Legal moves from ``state`` in canonical order.

    Boundary moves are masked entirely rather than clamped, so the result
    has between 6 and 11 entries.
    """
    _check_state(state)
    return [a for a in ACTIONS if is_valid_action(state, a)]


def apply_action(state: SpiderState, action: Action) -> SpiderState:
    """Apply one legal move; raises on out-of-range moves, never clamps."""
    _check_state(state)
    if not is_valid_action(state, action):
        raise ValueError(f"action {action!r} is not valid in state {state!r}")
    values = list(state)
    values[action.attribute_index] += action.direction
    return tuple(values)


def neighbors(state: SpiderState) -> list[SpiderState]:
    """All states one legal move away, in canonical action order."""
    return [apply_action(state, a) for a in valid_actions(state)]


def reference_session(cfg: RunConfig, subject: VirtualSubject) -> RunResult:
    """The ``RunResult`` of ``cfg``'s run, rebuilt from README's "How it works" section alone.

    Iteration ``i >= 1`` shows a batch: a sequential move is a batch of one,
    greedy's is every neighbour, and a GA generation's is its offspring.
    The batch's unseen members are shown in order; a sequential batch stops
    at its first success, and a GA batch is shown whole and succeeds at its
    first unseen success. The uniforms are read from the run's stream by
    README's slot table, one iteration at a time.
    """
    spec = RewardSpec(cfg.target)
    rng = np.random.default_rng(run_seed_sequence(cfg))
    shown: dict[SpiderState, PresentedSpider] = {}  # in the order shown

    def fitness(state):
        return reward(stress(subject, state), spec)

    def show(batch, i):
        """Show ``batch``'s unseen members at iteration ``i``; return the first success, or None."""
        hit = None
        for state in batch:
            if state not in shown:
                shown[state] = PresentedSpider(state, stress(subject, state), fitness(state), i)
                if hit is None and is_success(shown[state].stress, cfg.target):
                    hit = state
                    if cfg.method != "ga":
                        break
        return hit

    def best_first(pool):
        """The ``population_size`` best of ``pool`` by reward, ties to the earlier, kept in pool order."""
        ranked = sorted(range(len(pool)), key=lambda j: -fitness(pool[j]))
        return [pool[j] for j in sorted(ranked[:cfg.ga.population_size])]

    def parent(population, u):
        cum = list(accumulate(fitness(p) + 1.0 for p in population))
        n = len(population)
        return population[min(bisect_right(cum, u * cum[-1]), n - 1) if cum[-1] > 0.0 else int(u * n)]

    def mutate(child, test, attribute, value):
        if test >= cfg.ga.mutation_prob:
            return child
        i = int(attribute * N_ATTRIBUTES)
        return child[:i] + (MIN_VALUES[i] + int(value * (MAX_VALUES[i] - MIN_VALUES[i] + 1)),) + child[i + 1:]

    if cfg.method in ("rl_random", "rl_zero"):
        q = rng.random((486, 12)).tolist() if cfg.method == "rl_random" else [[0.0] * 12 for _ in range(486)]

    def step(state):
        """One iteration from ``state`` (a GA's population): the batch it shows and where it moves."""
        if cfg.method == "greedy":  # no slots
            return neighbors(state), max(neighbors(state), key=fitness)
        if cfg.method == "ga":  # per pair: parent 1, parent 2, then each child's mutate test, attribute and value
            offspring = []
            for u in (rng.random(8).tolist(), rng.random(8).tolist()):
                p1, p2 = parent(state, u[0]), parent(state, u[1])
                offspring += [mutate(p1[:3] + p2[3:], *u[2:5]), mutate(p2[:3] + p1[3:], *u[5:8])]
            return offspring, best_first(state + offspring)
        if cfg.method == "random":  # the move
            nxt = neighbors(state)[int(rng.random() * len(neighbors(state)))]
            return [nxt], nxt
        explore, choice = rng.random(2).tolist()  # rl_*: the explore test, then the choice
        s, actions = state_index(state), valid_actions(state)
        if explore >= cfg.rl.epsilon:  # exploit: the pick among tied best actions
            best = max(q[s][a.index] for a in actions)
            actions = [a for a in actions if q[s][a.index] == best]
        action = actions[int(choice * len(actions))]
        nxt = apply_action(state, action)
        best_next = max(q[state_index(nxt)][a.index] for a in valid_actions(nxt))
        q[s][action.index] += cfg.rl.learning_rate * (fitness(nxt) + cfg.rl.discount * best_next - q[s][action.index])
        return [nxt], nxt

    start = INITIAL_STATES[cfg.initial_kind]
    state = best_first([start] + neighbors(start)) if cfg.method == "ga" else start
    i, hit = 0, show(state if cfg.method == "ga" else [start], 0)
    while hit is None and i < cfg.iteration_cap:
        i += 1
        batch, state = step(state)
        hit = show(batch, i)
    if hit is not None:
        return RunResult(True, len(shown), i, hit, list(shown.values()))
    final = max(state, key=fitness) if cfg.method == "ga" else state  # a GA ends on its first best member
    return RunResult(False, len(shown), i, final, list(shown.values()))


def reference_grid(cfg: GridConfig) -> list[RunRecord]:
    """Every run of ``cfg`` in canonical order, each rebuilt by ``reference_session``, every repeat run.

    Canonical order is method, initial state, target, subject id and repeat,
    methods and initial states ranked as the package lists them.
    """
    if cfg.rounded_reward:
        raise ValueError("the reference session does not round rewards")
    records = []
    for method, initial_kind, target, subject, repeat in product(
        sorted(cfg.methods, key=POLICY_NAMES.index),
        sorted(cfg.initial_kinds, key=INITIAL_KINDS.index),
        sorted(cfg.targets),
        sorted(cfg.population.subjects, key=lambda s: s.id),
        range(cfg.repeats),
    ):
        run = RunConfig(method, subject.id, target, initial_kind, repeat, cfg.iteration_cap, cfg.master_seed,
                        cfg.rl, cfg.ga)
        result = reference_session(run, subject)
        records.append(RunRecord(method, initial_kind, target, subject.id, repeat,
                                 result.success, result.spiders_presented, result.iterations_used))
    return records


def _reference_p(a, b):
    """Two-tailed p of scipy's paired t-test; ``statistics`` decides the cases where it is undefined."""
    if len(a) < 2:
        return None
    diffs = [x - y for x, y in zip(a, b)]
    if not any(diffs):
        return 1.0
    if statistics.stdev(diffs) == 0.0:  # a constant nonzero difference
        return None
    return float(scipy.stats.ttest_rel(a, b).pvalue)


def reference_report(records: Sequence[RunRecord]) -> tuple[list[CellSummary], list[ComparisonResult]]:
    """Summaries and comparisons rebuilt from the records alone, by the documented rules."""
    cells = {}
    for r in records:
        cells.setdefault((r.initial_kind, category_of(r.target), r.method), []).append(r)
    summaries = {}
    for cell, runs in cells.items():
        counts = [r.spiders_presented for r in runs if r.success]
        by_subject = {}
        for r in runs:
            if r.success:
                by_subject.setdefault(r.subject_id, []).append(r.spiders_presented)
        accuracy = 100.0 * len(counts) / len(runs)
        summaries[cell] = CellSummary(
            *cell,
            mean_presented=statistics.fmean(counts) if counts else None,
            std_presented=statistics.stdev(counts) if len(counts) >= 2 else None,
            accuracy_percent=accuracy,
            n_success=len(counts),
            considered=accuracy >= 75.0,
            subject_means={sid: statistics.fmean(v) for sid, v in by_subject.items()},
        )
    order = sorted(summaries, key=lambda c: (INITIAL_KINDS.index(c[0]), CATEGORY_ORDER.index(c[1]),
                                             POLICY_NAMES.index(c[2])))
    comparisons = []
    for initial_kind, category in dict.fromkeys(c[:2] for c in order):
        considered = [summaries[c] for c in order if c[:2] == (initial_kind, category) and summaries[c].considered]
        if not considered:
            continue
        best = min(considered, key=lambda s: (s.mean_presented, POLICY_NAMES.index(s.method)))
        p_values = {}
        for s in considered:
            if s.method == best.method:
                continue
            shared = sorted(set(best.subject_means) & set(s.subject_means))
            p_values[s.method] = _reference_p([best.subject_means[i] for i in shared],
                                              [s.subject_means[i] for i in shared])
        tied = [m for m, p in p_values.items() if not (p is not None and p < 0.05)]
        markers = {}
        if p_values and not tied:
            markers[best.method] = "**"
        elif tied:
            markers = {best.method: "*", **{m: "*" for m in tied}}
        comparisons.append(ComparisonResult(initial_kind, category, best.method, p_values, markers))
    return [summaries[c] for c in order], comparisons


def reference_results_from_csv(text: str) -> list[RunRecord]:
    """The reference for the results rules and their order: each row is checked against each rule in turn."""
    reader = csv.reader(io.StringIO(text), strict=True)
    records = []
    seen = set()
    try:
        header = next(reader, RESULT_COLUMNS)  # an empty file holds no runs
        if missing := set(RESULT_COLUMNS) - set(header):
            raise ValueError(f"missing columns {sorted(missing)}")
        picks = [header.index(name) for name in RESULT_COLUMNS]
        fields_of = operator.itemgetter(*picks)
        for row in reader:
            if not row:
                continue
            if len(row) <= max(picks):
                raise ValueError(f"row has {len(row)} fields, the header has {len(header)}")
            method, initial_kind, target, subject_id, repeat, success, presented, iterations = fields_of(row)
            target, subject_id, repeat = int(target), int(subject_id), int(repeat)
            presented, iterations = int(presented), int(iterations)
            if method not in POLICY_NAMES:
                raise ValueError(f"unknown method {method!r}")
            if initial_kind not in INITIAL_KINDS:
                raise ValueError(f"unknown initial kind {initial_kind!r}")
            if target not in range(1, 10):
                raise ValueError(f"target {target} not in 1..9")
            if subject_id < 0 or repeat < 0 or presented < 0 or iterations < 0:
                raise ValueError("subject_id, repeat, spiders_presented and iterations_used must be non-negative")
            if not 1 <= presented <= 486:
                raise ValueError(f"spiders_presented {presented} not in 1..486")
            coords = (method, initial_kind, target, subject_id, repeat)
            if coords in seen:
                raise ValueError(f"duplicate run {coords}")
            seen.add(coords)
            if success not in ("true", "false"):
                raise ValueError(f"success must be true or false, got {success!r}")
            records.append(RunRecord(*coords, success == "true", presented, iterations))
    except (ValueError, csv.Error) as exc:
        raise ResultsFileError(f"malformed results CSV at line {reader.line_num}: {exc}") from exc
    if not records:
        raise ResultsFileError("results CSV contains no runs")
    return records
