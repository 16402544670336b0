"""The tuple-level move graph: the spec that ``domain.StateSpace``'s index tables are checked against.

A move changes one attribute of a spider state by one step. It is masked,
never clamped, when the attribute would leave its range. Pytest does not
collect this file; the tests import it as ``tests.reference``.
"""

from __future__ import annotations

from dataclasses import dataclass

from spideradapt.domain import MAX_VALUES, MIN_VALUES, N_ATTRIBUTES, SpiderState, is_valid_state


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
