"""Adaptation policies: tabular Q-learning and the three search baselines.

All four methods optimise the same fitness (the reward of a state's stress)
and move through the same boundary-masked attribute graph. The Q-learning
agent learns online within a single session; the genetic algorithm evolves a
small population with midpoint crossover; greedy always moves to the best
neighbour; random search walks uniformly.

Every operation works on ``domain.state_space()`` indices. Fitness comes
from a per-state rewards table (``rewards[i]`` is the reward of state ``i``
for one subject and target), so a policy step is only table lookups and
index arithmetic. This module is the only implementation of each policy;
the session runner calls these functions directly.

Policies draw nothing: each step takes the uniforms in [0, 1) that the
fixed draw protocol hands it (``SLOTS_PER_ITERATION`` per iteration), so a
step is a pure function of its inputs. A choice among ``n`` options is
``int(u * n)``. The Q-learning functions take a flat table of
``N_STATES * N_ACTIONS`` floats, entry (s, a) at ``s * N_ACTIONS + a``,
which the session builds and, for ``rl_random``, draws.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from operator import itemgetter
from typing import Sequence

from .domain import (
    MAX_VALUES,
    MIN_VALUES,
    N_ACTIONS,
    N_ATTRIBUTES,
    STRIDES,
    state_space,
)

POLICY_NAMES = ("random", "greedy", "ga", "rl_random", "rl_zero")
RL_METHODS = ("rl_random", "rl_zero")

# Uniforms each method reads per iteration: random its move; rl_* the
# explore test, then the choice; ga, per parent pair, parent 1, parent 2,
# then the mutate test, attribute and value of each of the two children.
SLOTS_PER_ITERATION = {"random": 1, "greedy": 0, "ga": 16, "rl_random": 2, "rl_zero": 2}

# Midpoint crossover swaps the last N_ATTRIBUTES // 2 attributes, which are
# the low digits of the mixed-radix index: the index modulo this stride.
_CROSSOVER_SPLIT = STRIDES[N_ATTRIBUTES // 2 - 1]

# The state graph's per-state lists, bound once at import: every policy step reads them.
_VALID_ACTION_IDS = state_space().valid_action_ids
_NEXT_STATE = state_space().next_state
_NEIGHBOR_IDS = state_space().neighbor_ids
# per state, a getter of its valid actions' entries, in order, from a flat Q-table
_VALID_ENTRIES = [
    itemgetter(*[s * N_ACTIONS + aid for aid in ids]) for s, ids in enumerate(_VALID_ACTION_IDS)
]


@dataclass
class RLConfig:
    """Q-learning hyperparameters.

    epsilon is the exploration rate of the action-selection policy. The
    learning rate and discount are conventional defaults; they are exposed
    here because sweeps over them are expected. The table initialisation
    follows the method name (rl_zero / rl_random).
    """

    epsilon: float = 0.05
    learning_rate: float = 0.1
    discount: float = 0.9

    def validate(self) -> None:
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {self.epsilon}")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError(f"learning_rate must be in (0, 1], got {self.learning_rate}")
        if not 0.0 <= self.discount <= 1.0:
            raise ValueError(f"discount must be in [0, 1], got {self.discount}")


@dataclass
class GAConfig:
    """Genetic algorithm parameters; ``ga_generation`` breeds two pairs per generation."""

    population_size: int = 10
    mutation_prob: float = 0.1

    def validate(self) -> None:
        if self.population_size < 2:
            raise ValueError(f"population_size must be >= 2, got {self.population_size}")
        if not 0.0 <= self.mutation_prob <= 1.0:
            raise ValueError(f"mutation_prob must be in [0, 1], got {self.mutation_prob}")


# ---------------------------------------------------------------------------
# Q-learning


def rl_select_action(
    q: Sequence[float],
    s: int,
    epsilon: float,
    u_explore: float,
    u_choice: float,
) -> int:
    """Epsilon-greedy valid action id for state ``s`` of the flat table ``q``.

    It explores when ``u_explore < epsilon`` and then picks the valid action
    ``u_choice`` selects; otherwise ``u_choice`` breaks argmax ties.
    """
    valid_ids = _VALID_ACTION_IDS[s]
    if u_explore < epsilon:
        return valid_ids[int(u_choice * len(valid_ids))]
    values = _VALID_ENTRIES[s](q)
    best = max(values)
    n_best = values.count(best)
    if n_best == 1:
        return valid_ids[values.index(best)]
    ties = valid_ids if n_best == len(values) else [aid for aid, v in zip(valid_ids, values) if v == best]
    return ties[int(u_choice * len(ties))]


def rl_update(
    q: Sequence[float],
    s: int,
    aid: int,
    r: float,
    s_next: int,
    cfg: RLConfig,
) -> None:
    """One-step Q-learning update of the flat table ``q``; touches exactly one entry."""
    if _NEXT_STATE[s][aid] < 0:
        raise ValueError(f"action {aid} is not valid in state {s}")
    best_next = max(_VALID_ENTRIES[s_next](q))
    i = s * N_ACTIONS + aid
    q[i] += cfg.learning_rate * (r + cfg.discount * best_next - q[i])


# ---------------------------------------------------------------------------
# Genetic algorithm


def ga_initial_population(initial: int, rewards: Sequence[float], population_size: int) -> list[int]:
    """Seed population: the initial state plus its neighbours.

    Corner states yield fewer candidates than the population size and the
    population is simply smaller; the two 11-neighbour states yield one
    candidate too many, and ``ga_select`` drops the weakest by reward.
    """
    return ga_select([initial] + _NEIGHBOR_IDS[initial], rewards, population_size)


def _mutate(child: int, u_attribute: float, u_value: float) -> int:
    i = int(u_attribute * N_ATTRIBUTES)
    size = MAX_VALUES[i] - MIN_VALUES[i] + 1
    return child + (int(u_value * size) - child // STRIDES[i] % size) * STRIDES[i]


def ga_generation(
    population: list[int],
    rewards: Sequence[float],
    cfg: GAConfig,
    u: Sequence[float],
) -> list[int]:
    """Produce one generation of offspring by crossover and mutation.

    Parents are drawn fitness-proportionally after shifting each member's
    reward by +1 (rewards lie in [-1, 1]). Two pairs are drawn, and each is
    crossed at the midpoint: one child takes the first half of the
    attributes from the first parent and the second half from the other,
    its sibling the converse; both children are kept. Mutation re-rolls one
    uniformly chosen attribute to a uniformly chosen valid value with
    probability ``mutation_prob``. ``u`` holds the generation's 16 uniforms,
    8 per pair in the order parent 1, parent 2, then the mutate test,
    attribute and value of the first child and of the second.
    """
    if not population:
        raise ValueError("population must be non-empty")
    if len(u) != SLOTS_PER_ITERATION["ga"]:
        raise ValueError(f"a generation takes {SLOTS_PER_ITERATION['ga']} uniforms, got {len(u)}")
    n = len(population)
    cum = list(accumulate([rewards[p] + 1.0 for p in population]))
    total = cum[-1]
    picks = (u[0], u[1], u[8], u[9])
    if total > 0.0:
        a, b, c, d = [population[min(bisect_right(cum, x * total), n - 1)] for x in picks]
    else:  # degenerate: every reward at the -1 floor
        a, b, c, d = [population[int(x * n)] for x in picks]
    la, lb, lc, ld = a % _CROSSOVER_SPLIT, b % _CROSSOVER_SPLIT, c % _CROSSOVER_SPLIT, d % _CROSSOVER_SPLIT
    children = (a - la + lb, b - lb + la, c - lc + ld, d - ld + lc)
    prob = cfg.mutation_prob
    return [
        _mutate(child, u[m + 1], u[m + 2]) if u[m] < prob else child
        for child, m in zip(children, (2, 5, 10, 13))
    ]


def ga_select(pool: list[int], rewards: Sequence[float], population_size: int) -> list[int]:
    """Keep the ``population_size`` best chromosomes by reward, in pool order.

    Ties break toward earlier pool positions (stable sort); duplicates may
    survive together.
    """
    if not pool:
        raise ValueError("selection pool must be non-empty")
    ranked = sorted(range(len(pool)), key=list(map(rewards.__getitem__, pool)).__getitem__, reverse=True)
    return [pool[i] for i in sorted(ranked[:population_size])]


# ---------------------------------------------------------------------------
# Greedy and random search


def greedy_step(s: int, rewards: Sequence[float]) -> int:
    """Move to the best-reward neighbour, even when that is downhill.

    Ties break toward the lower-indexed action (the first maximum in
    canonical neighbour order). Pure function: ranking never consults any
    randomness.
    """
    return max(_NEIGHBOR_IDS[s], key=rewards.__getitem__)


def random_step(s: int, u: float) -> int:
    """Apply the valid action that the uniform ``u`` selects."""
    nbrs = _NEIGHBOR_IDS[s]
    return nbrs[int(u * len(nbrs))]
