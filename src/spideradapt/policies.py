"""Adaptation policies: tabular Q-learning and the three search baselines.

All four methods optimise the same fitness (the reward of a state's stress)
and move through the same boundary-masked attribute graph. The Q-learning
agent learns online within a single session; the genetic algorithm evolves a
small population with midpoint crossover; greedy always moves to the best
neighbour; random search walks uniformly.

Every operation works on ``domain.state_space()`` indices. Random, greedy
and RL step one run at a time, and read fitness from a per-state rewards
table (``rewards[i]`` is the reward of state ``i`` for one subject and
target), so a step is only table lookups and index arithmetic. The GA steps
a block of runs at once: its functions take numpy arrays with one row per
run, each population padded with ``PAD`` after its members, and each
member's reward beside it, so a generation of every run is one set of
array operations. This module is the only implementation of each policy;
the session runner calls these functions directly.

Policies draw nothing: each step takes the uniforms in [0, 1) that the
fixed draw protocol hands it (``SLOTS_PER_ITERATION`` per iteration), so a
step is a pure function of its inputs. A choice among ``n`` options is
``int(u * n)``; a GA block's ``(u * n).astype(int64)`` is the same number.
The Q-learning functions take a flat table of
``N_STATES * N_ACTIONS`` floats, entry (s, a) at ``s * N_ACTIONS + a``,
which the session builds and, for ``rl_random``, draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
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

# Uniforms each method reads per iteration: random its move; rl_* the
# explore test, then the choice; ga, per parent pair, parent 1, parent 2,
# then the mutate test, attribute and value of each of the two children.
SLOTS_PER_ITERATION = {"random": 1, "greedy": 0, "ga": 16, "rl_random": 2, "rl_zero": 2}

# Midpoint crossover swaps the last N_ATTRIBUTES // 2 attributes, which are
# the low digits of the mixed-radix index: the index modulo this stride.
_CROSSOVER_SPLIT = STRIDES[N_ATTRIBUTES // 2 - 1]
# a GA generation's slots in four groups of four: the parent picks, then each
# child's mutate test, attribute and value; a child's crossover partner is
# its sibling's parent
_GA_SLOTS = np.array([0, 1, 8, 9, 2, 5, 10, 13, 3, 6, 11, 14, 4, 7, 12, 15])
_PARTNER = np.array([1, 0, 3, 2])
# per attribute, the number of values it takes and its stride
_SIZES = np.array([hi - lo + 1 for lo, hi in zip(MIN_VALUES, MAX_VALUES)])
_STRIDES = np.array(STRIDES)
# the state index that fills a population's empty slots
PAD = N_STATES

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
#
# The GA works on a block of runs at once: row ``r`` of a population array
# holds run ``r``'s members, real members first, then ``PAD`` in the slots a
# population too small for the row leaves empty. Each member's reward sits
# at the same position of a rewards array of the same shape.


def ga_seed_pools(initials: Sequence[int]) -> np.ndarray:
    """One row per initial state: the state, then its neighbours in action-id order, then pads."""
    rows = [[s] + _NEIGHBOR_IDS[s] for s in initials]
    width = max(map(len, rows))
    return np.array([row + [PAD] * (width - len(row)) for row in rows], dtype=np.int64)


def ga_generation(population: np.ndarray, rewards: np.ndarray, cfg: GAConfig, u: np.ndarray) -> np.ndarray:
    """Each run's offspring of one generation, by crossover and mutation: ``(runs, 4)`` state indices.

    Parents are drawn fitness-proportionally, each member weighted by its
    reward shifted by +1 (rewards lie in [-1, 1]) and each pad by 0, by a
    roulette pick ``min(bisect_right(cum, u * total), n - 1)`` over the
    cumulative weights of a run's ``n`` members, or ``int(u * n)`` when
    every weight is 0. Two pairs are drawn, and each is crossed at the
    midpoint: one child takes the first half of the attributes from the
    first parent and the second half from the other, its sibling the
    converse; both children are kept. Mutation re-rolls one uniformly
    chosen attribute to a uniformly chosen valid value with probability
    ``mutation_prob``. Row ``r`` of ``u`` holds run ``r``'s 16 uniforms, 8
    per pair in the order parent 1, parent 2, then the mutate test,
    attribute and value of the first child and of the second.
    """
    real = population != PAD
    n = real.sum(axis=1, keepdims=True)
    if (n == 0).any():
        raise ValueError("every population must have a member")
    if u.shape != (len(population), SLOTS_PER_ITERATION["ga"]):
        raise ValueError(f"a generation takes {SLOTS_PER_ITERATION['ga']} uniforms a run, got shape {u.shape}")
    # a row-wise cumsum adds left to right, and a pad adds 0 after the members
    cum = np.where(real, rewards + 1.0, 0.0).cumsum(axis=1)
    total = cum[:, -1:]
    picks, tests, attributes, values = u[:, _GA_SLOTS].reshape(-1, 4, 4).transpose(1, 0, 2)
    # the count of cum <= v is bisect_right(cum, v); a run whose every reward
    # sits at the -1 floor picks int(u * n) instead
    roulette = np.minimum((cum[:, None, :] <= (picks * total)[:, :, None]).sum(axis=2), n - 1)
    rows = np.arange(len(population))[:, None]
    parents = population[rows, np.where(total > 0.0, roulette, (picks * n).astype(np.int64))]
    low = parents % _CROSSOVER_SPLIT
    children = parents - low + low[:, _PARTNER]
    attribute = (attributes * N_ATTRIBUTES).astype(np.int64)
    size, stride = _SIZES[attribute], _STRIDES[attribute]
    digit = children % (stride * size) - children % stride  # the attribute's value, times its stride
    mutants = children - digit + (values * size).astype(np.int64) * stride
    return np.where(tests < cfg.mutation_prob, mutants, children)


def ga_select(pool: np.ndarray, rewards: np.ndarray, population_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Keep each row's ``population_size`` best members by reward, in pool order, and their rewards.

    Ties break toward earlier pool positions (a stable sort); duplicates may
    survive together. Pads may sit anywhere in the pool: they rank after
    every member, and in the kept rows they follow the members.
    """
    if not pool.shape[1]:
        raise ValueError("selection pool must be non-empty")
    pad, rows = pool == PAD, np.arange(len(pool))[:, None]
    ranked = np.argsort(np.where(pad, np.inf, -rewards), axis=1, kind="stable")[:, :population_size]
    # pool order, pads last (ranked holds them in pool order); a float key reuses the first sort's kernel
    kept = ranked[rows, np.argsort(np.where(pad[rows, ranked], np.inf, ranked), axis=1, kind="stable")]
    return pool[rows, kept], rewards[rows, kept]


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
