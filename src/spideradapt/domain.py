"""Ordinal spider attribute space and the move graph over it.

A spider configuration is a vector of six ordinal attributes. Moves change
one attribute by +/-1 and are masked at the range boundaries, so every
configuration has between 6 and 11 legal moves. The 486 configurations are
enumerable and indexable, which the adaptation policies and oracles rely on.
"""

from __future__ import annotations

import math
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


def is_valid_state(state: SpiderState) -> bool:
    return (
        len(state) == N_ATTRIBUTES
        and all(isinstance(v, int) for v in state)
        and all(MIN_VALUES[i] <= state[i] <= MAX_VALUES[i] for i in range(N_ATTRIBUTES))
    )


@lru_cache(maxsize=1)
def enumerate_states() -> tuple[SpiderState, ...]:
    """All 486 states in lexicographic order."""
    states: list[SpiderState] = [()]
    for i in range(N_ATTRIBUTES):
        states = [s + (v,) for s in states for v in range(MIN_VALUES[i], MAX_VALUES[i] + 1)]
    return tuple(states)


# Mixed-radix strides of state_index and of the move graph, derived from the attribute range sizes.
STRIDES = tuple(
    math.prod(MAX_VALUES[j] - MIN_VALUES[j] + 1 for j in range(i + 1, N_ATTRIBUTES))
    for i in range(N_ATTRIBUTES)
)


def state_index(state: SpiderState) -> int:
    """Position of ``state`` in ``enumerate_states()`` (lexicographic rank); raises on an invalid state."""
    if not is_valid_state(state):
        raise ValueError(f"invalid spider state: {state!r}")
    return sum((state[i] - MIN_VALUES[i]) * STRIDES[i] for i in range(N_ATTRIBUTES))


class StateSpace:
    """Precomputed index-based view of the full state graph.

    The session runner and policies work on integer state indices and action
    ids. Action id ``2 * i + (d > 0)`` moves attribute ``i`` by ``d``, -1 or
    +1: from the state at index ``idx`` it leads to ``idx + d * STRIDES[i]``
    while the attribute stays in range, and is masked otherwise.
    """

    def __init__(self) -> None:
        self.states: tuple[SpiderState, ...] = enumerate_states()
        self.n_states = len(self.states)
        self.index_of: dict[SpiderState, int] = {s: i for i, s in enumerate(self.states)}
        # next_state[s][a] is the successor index, or -1 when the move is masked
        self.next_state: list[list[int]] = [
            [
                idx + d * STRIDES[i] if MIN_VALUES[i] <= s[i] + d <= MAX_VALUES[i] else -1
                for i in range(N_ATTRIBUTES)
                for d in (-1, +1)
            ]
            for idx, s in enumerate(self.states)
        ]
        # views of next_state, in canonical action order
        self.valid_action_ids: list[list[int]] = [
            [a for a, t in enumerate(row) if t >= 0] for row in self.next_state
        ]
        self.neighbor_ids: list[list[int]] = [[t for t in row if t >= 0] for row in self.next_state]


@lru_cache(maxsize=1)
def state_space() -> StateSpace:
    return StateSpace()
