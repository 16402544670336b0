import pytest
from hypothesis import given
from hypothesis import strategies as st

from spideradapt.domain import (
    ATTRIBUTE_NAMES,
    IMPACT_MEANS,
    IMPACT_STDS,
    MAX_VALUES,
    MIN_VALUES,
    enumerate_states,
    is_valid_state,
    state_index,
    state_space,
)
from tests.reference import ACTIONS, Action, apply_action, is_valid_action, neighbors, valid_actions

ALL_MIN = (0, 0, 0, 0, 0, 0)
ALL_MAX = (2, 2, 2, 2, 1, 2)

states_strategy = st.tuples(
    *[st.integers(MIN_VALUES[i], MAX_VALUES[i]) for i in range(6)]
)


def test_attribute_table_values():
    assert ATTRIBUTE_NAMES == (
        "locomotion",
        "amount_of_movement",
        "closeness",
        "largeness",
        "hairiness",
        "color",
    )
    assert list(zip(IMPACT_MEANS, IMPACT_STDS)) == [
        (0.9, 0.15),
        (0.9, 0.15),
        (0.4, 0.17),
        (0.7, 0.16),
        (0.6, 0.21),
        (0.5, 0.20),
    ]
    assert MIN_VALUES == (0,) * 6
    assert MAX_VALUES == (2, 2, 2, 2, 1, 2)
    closeness = ATTRIBUTE_NAMES.index("closeness")
    assert IMPACT_MEANS[closeness] == 0.4 and IMPACT_STDS[closeness] == 0.17
    assert MAX_VALUES[ATTRIBUTE_NAMES.index("hairiness")] == 1  # hairiness is binary


def test_enumerate_states_count_and_order():
    states = enumerate_states()
    assert len(states) == 486
    assert states[0] == ALL_MIN
    assert states[-1] == ALL_MAX
    assert len(set(states)) == 486
    assert all(is_valid_state(s) for s in states)
    assert list(states) == sorted(states)  # lexicographic


def test_state_index_bijection():
    for k, state in enumerate(enumerate_states()):
        assert state_index(state) == k
    # out of range on either side, the binary attribute past 1, and too few or too many attributes
    for bad in [(3, 0, 0, 0, 0, 0), (-1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 2, 0), (0,) * 5, (0,) * 7, ()]:
        with pytest.raises(ValueError):
            state_index(bad)


def test_valid_actions_boundaries():
    assert len(valid_actions(ALL_MIN)) == 6
    assert all(a.direction == +1 for a in valid_actions(ALL_MIN))
    assert len(valid_actions(ALL_MAX)) == 6
    assert all(a.direction == -1 for a in valid_actions(ALL_MAX))
    assert len(valid_actions((1, 1, 1, 1, 0, 1))) == 11


def test_valid_actions_canonical_order():
    actions = valid_actions((1, 1, 1, 1, 0, 1))
    keys = [(a.attribute_index, a.direction) for a in actions]
    assert keys == sorted(keys)  # attribute ascending, -1 before +1


def test_valid_actions_rejects_invalid_state():
    with pytest.raises(ValueError):
        valid_actions((3, 0, 0, 0, 0, 0))
    with pytest.raises(ValueError):
        valid_actions((0, 0, 0, 0, 2, 0))


def test_apply_action_examples():
    assert apply_action(ALL_MIN, Action(3, +1)) == (0, 0, 0, 1, 0, 0)
    assert apply_action((1, 1, 1, 1, 0, 1), Action(4, +1)) == (1, 1, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        apply_action(ALL_MAX, Action(5, +1))  # out of range, never clamp


def test_apply_then_inverse_round_trips():
    for state in enumerate_states():
        for action in valid_actions(state):
            there = apply_action(state, action)
            back = apply_action(there, Action(action.attribute_index, -action.direction))
            assert back == state


def test_neighbor_counts():
    counts = [len(neighbors(s)) for s in enumerate_states()]
    assert min(counts) == 6 and max(counts) == 11
    assert counts.count(11) == 2
    assert len(neighbors(ALL_MIN)) == 6
    assert len(neighbors((1, 1, 1, 1, 0, 1))) == 11


def test_neighbor_symmetry_exhaustive():
    table = {s: set(neighbors(s)) for s in enumerate_states()}
    for s, nbrs in table.items():
        assert s not in nbrs
        assert len(nbrs) == len(neighbors(s))  # no duplicates
        for t in nbrs:
            assert s in table[t]


def test_nominal_action_indexing():
    assert len(ACTIONS) == 12
    assert [a.index for a in ACTIONS] == list(range(12))
    assert ACTIONS[0] == Action(0, -1)
    assert ACTIONS[1] == Action(0, +1)


@given(states_strategy)
def test_neighbors_differ_in_exactly_one_attribute(state):
    for t in neighbors(state):
        diffs = [abs(a - b) for a, b in zip(state, t)]
        assert sum(diffs) == 1 and max(diffs) == 1


def test_state_space_tables_agree_with_tuple_ops():
    space = state_space()
    assert space.n_states == 486
    for idx, state in enumerate(space.states):
        # every action id, a masked move (-1) included, against the tuple-level spec
        assert [None if t == -1 else space.states[t] for t in space.next_state[idx]] == [
            apply_action(state, a) if is_valid_action(state, a) else None for a in ACTIONS
        ]
        assert space.valid_action_ids[idx] == [a.index for a in valid_actions(state)]
        assert [space.states[t] for t in space.neighbor_ids[idx]] == neighbors(state)
