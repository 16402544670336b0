"""The specs the engine is checked against: the tuple-level move graph and one whole session.

A move changes one attribute of a spider state by one step. It is masked,
never clamped, when the attribute would leave its range; ``domain.StateSpace``'s
index tables are checked against these functions. ``reference_session``
rebuilds a run of any method from them and README's protocol. Pytest does
not collect this file; the tests import it as ``tests.reference``.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from spideradapt.domain import (
    INITIAL_STATES,
    MAX_VALUES,
    MIN_VALUES,
    N_ATTRIBUTES,
    SpiderState,
    is_valid_state,
    state_index,
)
from spideradapt.reward_model import RewardSpec, is_success, reward
from spideradapt.session import PresentedSpider, RunConfig, RunResult, run_seed_sequence
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
