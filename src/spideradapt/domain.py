"""Ordinal spider attribute space and the move graph over it.

A spider configuration is a vector of six ordinal attributes. Moves change
one attribute by +/-1 and are masked at the range boundaries, so every
configuration has between 6 and 11 legal moves. The 486 configurations are
enumerable and indexable, which the adaptation policies and oracles rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

SpiderState = tuple[int, ...]

N_ATTRIBUTES = 6
N_STATES = 486
N_ACTIONS = 12  # 6 attributes x 2 directions, before boundary masking

ATTRIBUTE_NAMES = (
    "locomotion",
    "amount_of_movement",
    "closeness",
    "largeness",
    "hairiness",
    "color",
)
MIN_VALUES = (0, 0, 0, 0, 0, 0)
MAX_VALUES = (2, 2, 2, 2, 1, 2)
IMPACT_MEANS = (0.9, 0.9, 0.4, 0.7, 0.6, 0.5)
IMPACT_STDS = (0.15, 0.15, 0.17, 0.16, 0.21, 0.20)

INITIAL_STATES: dict[str, SpiderState] = {
    "min": MIN_VALUES,
    # midpoint of every range; the binary hairiness attribute uses the lower one
    "avg": (1, 1, 1, 1, 0, 1),
    "max": MAX_VALUES,
}
INITIAL_KINDS = tuple(INITIAL_STATES)


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


def is_valid_state(state: SpiderState) -> bool:
    return (
        len(state) == N_ATTRIBUTES
        and all(isinstance(v, int) for v in state)
        and all(MIN_VALUES[i] <= state[i] <= MAX_VALUES[i] for i in range(N_ATTRIBUTES))
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


@lru_cache(maxsize=1)
def enumerate_states() -> tuple[SpiderState, ...]:
    """All 486 states in lexicographic order."""
    states: list[SpiderState] = [()]
    for i in range(N_ATTRIBUTES):
        states = [s + (v,) for s in states for v in range(MIN_VALUES[i], MAX_VALUES[i] + 1)]
    return tuple(states)


# Mixed-radix strides for state_index, derived from the attribute range sizes.
STRIDES = tuple(
    math.prod(MAX_VALUES[j] - MIN_VALUES[j] + 1 for j in range(i + 1, N_ATTRIBUTES))
    for i in range(N_ATTRIBUTES)
)


def state_index(state: SpiderState) -> int:
    """Position of ``state`` in ``enumerate_states()`` (lexicographic rank)."""
    _check_state(state)
    return sum((state[i] - MIN_VALUES[i]) * STRIDES[i] for i in range(N_ATTRIBUTES))


class StateSpace:
    """Precomputed index-based view of the full state graph.

    The session runner and policies work on integer state indices for speed;
    everything here is derived from the tuple-level operations above.
    """

    def __init__(self) -> None:
        self.states: tuple[SpiderState, ...] = enumerate_states()
        self.n_states = len(self.states)
        self.index_of: dict[SpiderState, int] = {s: i for i, s in enumerate(self.states)}
        # next_state[s][a] is the successor index, or -1 when the move is masked;
        # ACTIONS[a].index == a, so a row is indexed by action id
        self.next_state: list[list[int]] = [
            [self.index_of[apply_action(s, a)] if is_valid_action(s, a) else -1 for a in ACTIONS]
            for s in self.states
        ]
        # views of next_state, in canonical action order
        self.valid_action_ids: list[list[int]] = [
            [a for a, t in enumerate(row) if t >= 0] for row in self.next_state
        ]
        self.neighbor_ids: list[list[int]] = [[t for t in row if t >= 0] for row in self.next_state]


@lru_cache(maxsize=1)
def state_space() -> StateSpace:
    return StateSpace()
