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
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

import numpy as np

from .domain import (
    MAX_VALUES,
    MIN_VALUES,
    N_ACTIONS,
    N_ATTRIBUTES,
    N_STATES,
    STRIDES,
    state_space,
)

POLICY_NAMES = ("random", "greedy", "ga", "rl_random", "rl_zero")
RL_METHODS = ("rl_random", "rl_zero")

# Midpoint crossover swaps the last N_ATTRIBUTES // 2 attributes, which are
# the low digits of the mixed-radix index: the index modulo this stride.
_CROSSOVER_SPLIT = STRIDES[N_ATTRIBUTES // 2 - 1]


@dataclass
class RLConfig:
    """Q-learning hyperparameters.

    epsilon is the exploration rate of the action-selection policy. The
    learning rate and discount are conventional defaults; they are exposed
    here because sweeps over them are expected. The table initialisation
    follows the method name (rl_zero / rl_random). ``persist_across_runs``
    keeps one table alive across the runs of a grid cell instead of starting
    fresh.
    """

    epsilon: float = 0.05
    learning_rate: float = 0.1
    discount: float = 0.9
    persist_across_runs: bool = False

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


class QTable:
    """Dense (state, nominal action) value table.

    Entries for boundary-masked actions exist but are never read or written;
    selection and updates only ever touch valid action ids.
    """

    def __init__(self, values: np.ndarray) -> None:
        if values.shape != (N_STATES, N_ACTIONS):
            raise ValueError(f"Q-table must be {N_STATES}x{N_ACTIONS}, got {values.shape}")
        self.values = values

    @classmethod
    def zeros(cls) -> "QTable":
        return cls(np.zeros((N_STATES, N_ACTIONS)))

    @classmethod
    def random(cls, rng: np.random.Generator) -> "QTable":
        return cls(rng.random((N_STATES, N_ACTIONS)))

    @classmethod
    def create(cls, method: str, rng: np.random.Generator) -> "QTable":
        """A fresh table for an RL method: zeros for rl_zero, uniform for rl_random."""
        if method == "rl_zero":
            return cls.zeros()
        if method == "rl_random":
            return cls.random(rng)
        raise ValueError(f"no Q-table for method {method!r}; expected one of {RL_METHODS}")


# ---------------------------------------------------------------------------
# Q-learning


def rl_select_action(
    q: np.ndarray,
    s: int,
    epsilon: float,
    rng: np.random.Generator,
) -> int:
    """Epsilon-greedy valid action id for state ``s``; argmax ties break uniformly."""
    valid_ids = state_space().valid_action_ids[s]
    if epsilon > 0.0 and rng.random() < epsilon:
        return valid_ids[int(rng.integers(len(valid_ids)))]
    row = q[s]
    best = None
    ties: list[int] = []
    for aid in valid_ids:
        v = row[aid]
        if best is None or v > best:
            best = v
            ties = [aid]
        elif v == best:
            ties.append(aid)
    if len(ties) == 1:
        return ties[0]
    return ties[int(rng.integers(len(ties)))]


def rl_update(
    q: np.ndarray,
    s: int,
    aid: int,
    r: float,
    s_next: int,
    cfg: RLConfig,
) -> None:
    """One-step Q-learning update; touches exactly one table entry."""
    space = state_space()
    if space.next_state[s][aid] < 0:
        raise ValueError(f"action {aid} is not valid in state {s}")
    best_next = max(q[s_next, aid2] for aid2 in space.valid_action_ids[s_next])
    q[s, aid] += cfg.learning_rate * (r + cfg.discount * best_next - q[s, aid])


# ---------------------------------------------------------------------------
# Genetic algorithm


def ga_initial_population(
    initial: int,
    rewards: Sequence[float],
    population_size: int = 10,
) -> list[int]:
    """Seed population: the initial state plus its neighbours.

    Corner states yield fewer candidates than the population size and the
    population is simply smaller; the two 11-neighbour states yield one
    candidate too many, and the weakest by reward is dropped.
    """
    candidates = [initial] + state_space().neighbor_ids[initial]
    if len(candidates) <= population_size:
        return candidates
    ranked = sorted(range(len(candidates)), key=lambda i: rewards[candidates[i]], reverse=True)
    keep = set(ranked[:population_size])
    return [c for i, c in enumerate(candidates) if i in keep]


def _pick_weighted(cum: list[float], total: float, n: int, rng: np.random.Generator) -> int:
    if total > 0.0:
        return min(bisect_right(cum, rng.random() * total), n - 1)
    return int(rng.integers(n))  # degenerate: every fitness at the -1 floor


def _mutate(child: int, prob: float, rng: np.random.Generator) -> int:
    if prob > 0.0 and rng.random() < prob:
        i = int(rng.integers(N_ATTRIBUTES))
        value = int(rng.integers(MIN_VALUES[i], MAX_VALUES[i] + 1))
        old = child // STRIDES[i] % (MAX_VALUES[i] - MIN_VALUES[i] + 1) + MIN_VALUES[i]
        child += (value - old) * STRIDES[i]
    return child


def ga_generation(
    population: list[int],
    fitnesses: list[float],
    cfg: GAConfig,
    rng: np.random.Generator,
) -> list[int]:
    """Produce one generation of offspring by crossover and mutation.

    Parents are drawn fitness-proportionally after shifting fitness by +1
    (raw fitness lies in [-1, 1]). Two pairs are drawn, and each is crossed
    at the midpoint: one child takes the first half of the attributes from
    the first parent and the second half from the other, its sibling the
    converse; both children are kept. Mutation re-rolls one uniformly
    chosen attribute to a uniformly chosen valid value with probability
    ``mutation_prob``.
    """
    if not population:
        raise ValueError("population must be non-empty")
    if len(fitnesses) != len(population):
        raise ValueError("fitnesses must align with the population")
    n = len(population)
    cum = list(accumulate(f + 1.0 for f in fitnesses))
    total = cum[-1]
    offspring: list[int] = []
    for _ in range(2):
        p1 = population[_pick_weighted(cum, total, n, rng)]
        p2 = population[_pick_weighted(cum, total, n, rng)]
        low1, low2 = p1 % _CROSSOVER_SPLIT, p2 % _CROSSOVER_SPLIT
        for child in (p1 - low1 + low2, p2 - low2 + low1):
            offspring.append(_mutate(child, cfg.mutation_prob, rng))
    return offspring


def ga_select(
    pool: list[int],
    fitnesses: list[float],
    cfg: GAConfig,
) -> list[int]:
    """Keep the best chromosomes as the next population.

    Ties break toward earlier pool positions (stable sort); duplicates may
    survive together.
    """
    if not pool:
        raise ValueError("selection pool must be non-empty")
    if len(fitnesses) != len(pool):
        raise ValueError("fitnesses must align with the pool")
    ranked = sorted(range(len(pool)), key=lambda i: -fitnesses[i])
    keep = sorted(ranked[: cfg.population_size])
    return [pool[i] for i in keep]


# ---------------------------------------------------------------------------
# Greedy and random search


def greedy_step(s: int, rewards: Sequence[float]) -> int:
    """Move to the best-reward neighbour, even when that is downhill.

    Ties break toward the lower-indexed action (the first maximum in
    canonical neighbour order). Pure function: ranking never consults any
    randomness.
    """
    return max(state_space().neighbor_ids[s], key=rewards.__getitem__)


def random_step(s: int, rng: np.random.Generator) -> int:
    """Apply a uniformly random valid action."""
    nbrs = state_space().neighbor_ids[s]
    return nbrs[int(rng.integers(len(nbrs)))]
