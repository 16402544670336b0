from collections import Counter
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spideradapt.domain import (
    N_ACTIONS,
    N_STATES,
    enumerate_states,
    is_valid_state,
    state_index,
)
from spideradapt.policies import (
    GAConfig,
    RLConfig,
    ga_generation,
    ga_initial_population,
    ga_select,
    greedy_step,
    random_step,
    rl_select_action,
    rl_update,
)
from spideradapt.reward_model import RewardSpec, reward
from spideradapt.subjects import stress
from tests.reference import ACTIONS, Action, neighbors, valid_actions

STATES = enumerate_states()
ALL_MIN = (0, 0, 0, 0, 0, 0)
ALL_MAX = (2, 2, 2, 2, 1, 2)
ELEVEN = (1, 1, 1, 1, 0, 1)
MIN_I, MAX_I, ELEVEN_I = (state_index(s) for s in (ALL_MIN, ALL_MAX, ELEVEN))


def _rewards(subject, spec):
    """Per-state rewards table, indexed like enumerate_states()."""
    return [reward(stress(subject, s), spec) for s in STATES]


def _ids(states):
    return [state_index(s) for s in states]


def _table(entries, default=0.0):
    """A rewards table holding ``default`` except at the given {state index: reward} entries."""
    table = [default] * N_STATES
    for i, r in entries.items():
        table[i] = r
    return table


def _qtable(rng=None):
    """A Q-table of zeros, or of ``rng``'s uniforms, and its flat view as the session passes it."""
    values = np.zeros((N_STATES, N_ACTIONS)) if rng is None else rng.random((N_STATES, N_ACTIONS))
    return values, memoryview(values.reshape(-1))


def test_config_validation():
    with pytest.raises(ValueError):
        RLConfig(epsilon=1.5).validate()
    with pytest.raises(ValueError):
        RLConfig(learning_rate=0.0).validate()
    with pytest.raises(ValueError, match=r"^discount must be in \[0, 1\], got 1\.5$"):
        RLConfig(discount=1.5).validate()
    with pytest.raises(ValueError):
        GAConfig(population_size=1).validate()
    with pytest.raises(ValueError):
        GAConfig(mutation_prob=2.0).validate()
    RLConfig().validate()
    GAConfig().validate()


def _grid(n):
    """``n`` uniforms, one in the middle of each of n equal bins of [0, 1)."""
    return [(k + 0.5) / n for k in range(n)]


def test_rl_select_epsilon_one_is_uniform():
    values, q = _qtable()
    values[0, 1] = 5.0  # a dominant entry that must not matter
    legal = [a.index for a in valid_actions(ALL_MIN)]
    # epsilon 1 explores whatever the explore test reads; each equal-width
    # choice bin selects one valid action, so every action is picked exactly once
    for u_explore in (0.0, 0.5, np.nextafter(1.0, 0.0)):
        picks = [rl_select_action(q, MIN_I, 1.0, u_explore, u) for u in _grid(len(legal))]
        assert picks == legal


def test_rl_select_explores_below_epsilon_only():
    values, q = _qtable()
    best = valid_actions(ALL_MIN)[3].index
    values[0, best] = 1.0
    first = valid_actions(ALL_MIN)[0].index
    assert rl_select_action(q, MIN_I, 0.3, 0.29, 0.0) == first
    assert rl_select_action(q, MIN_I, 0.3, 0.3, 0.0) == best


def test_rl_select_greedy_unique_argmax():
    values, q = _qtable()
    best = valid_actions(ALL_MIN)[3]
    values[0, best.index] = 1.0
    for u_explore, u_choice in product((0.0, 0.5), _grid(50)):
        assert rl_select_action(q, MIN_I, 0.0, u_explore, u_choice) == best.index


def test_rl_select_all_zero_ties_are_uniform():
    _, q = _qtable()
    legal = [a.index for a in valid_actions(ALL_MIN)]
    # every valid action ties at zero; the choice uniform breaks the tie, so
    # each equal-width bin picks one action and every action wins exactly once
    picks = [rl_select_action(q, MIN_I, 0.0, 0.5, u) for u in _grid(len(legal))]
    assert picks == legal


def test_rl_select_argmax_ties_break_by_the_choice_uniform():
    values, q = _qtable()
    legal = [a.index for a in valid_actions(ELEVEN)]
    tied = (legal[2], legal[7])
    for aid in tied:
        values[ELEVEN_I, aid] = 0.5
    values[ELEVEN_I, legal[4]] = 0.25
    assert rl_select_action(q, ELEVEN_I, 0.0, 0.5, 0.0) == tied[0]
    assert rl_select_action(q, ELEVEN_I, 0.0, 0.5, np.nextafter(0.5, 0.0)) == tied[0]
    assert rl_select_action(q, ELEVEN_I, 0.0, 0.5, 0.5) == tied[1]
    assert rl_select_action(q, ELEVEN_I, 0.0, 0.5, np.nextafter(1.0, 0.0)) == tied[1]


def test_rl_select_only_valid_actions():
    values, q = _qtable()
    # make every masked action look attractive
    values[:, :] = 0.0
    for aid in range(12):
        values[0, aid] = 100.0 if Action(aid // 2, -1 if aid % 2 == 0 else 1).direction < 0 else 0.0
    for u_choice in _grid(20):
        action = ACTIONS[rl_select_action(q, MIN_I, 0.0, 0.5, u_choice)]
        assert action.direction == +1  # decrements are masked at the minimum


def test_rl_update_hand_computed():
    values, q = _qtable()
    cfg = RLConfig(learning_rate=0.1, discount=0.9)
    a = valid_actions(ALL_MIN)[0]
    s_next = (1, 0, 0, 0, 0, 0)
    rl_update(q, MIN_I, a.index, 1.0, state_index(s_next), cfg)
    assert values[0, a.index] == pytest.approx(0.1)


def test_rl_update_zero_learning_rate_is_a_no_op():
    # sessions reject a zero rate via validate(), but the raw update with
    # lr = 0 must leave the table untouched
    with pytest.raises(ValueError):
        RLConfig(learning_rate=0.0).validate()
    values, q = _qtable(np.random.default_rng(1))
    before = values.copy()
    cfg = RLConfig(learning_rate=0.0, discount=0.9)
    a = valid_actions(ALL_MIN)[0]
    rl_update(q, MIN_I, a.index, 1.0, state_index((1, 0, 0, 0, 0, 0)), cfg)
    assert (values == before).all()


def test_rl_update_gamma_zero_reduces_to_reward():
    values, q = _qtable()
    cfg = RLConfig(learning_rate=1.0, discount=0.0)
    a = valid_actions(ALL_MIN)[2]
    rl_update(q, MIN_I, a.index, 0.5, state_index((0, 1, 0, 0, 0, 0)), cfg)
    assert values[0, a.index] == pytest.approx(0.5)


def test_rl_update_touches_single_entry():
    rng = np.random.default_rng(9)
    values, q = _qtable(rng)
    before = values.copy()
    cfg = RLConfig()
    a = valid_actions(ELEVEN)[4]
    rl_update(q, ELEVEN_I, a.index, 0.3, state_index((1, 1, 0, 1, 0, 1)), cfg)
    diff = values != before
    assert diff.sum() == 1


def test_rl_update_rejects_invalid_action():
    _, q = _qtable()
    with pytest.raises(ValueError):
        rl_update(q, MIN_I, Action(0, -1).index, 0.0, MIN_I, RLConfig())


def test_ga_initial_population_sizes(example_subject):
    rewards = _rewards(example_subject, RewardSpec(1))
    corner = ga_initial_population(MIN_I, rewards, 10)
    assert len(corner) == 7
    assert corner[0] == MIN_I
    assert set(corner) == {MIN_I, *_ids(neighbors(ALL_MIN))}

    eleven = ga_initial_population(ELEVEN_I, rewards, 10)
    assert len(eleven) == 10  # 12 candidates trimmed to the best ten
    candidates = {ELEVEN_I, *_ids(neighbors(ELEVEN))}
    assert set(eleven) <= candidates
    dropped = candidates - set(eleven)
    kept_worst = min(rewards[s] for s in eleven)
    assert all(rewards[s] <= kept_worst for s in dropped)


def test_ga_initial_population_ties_keep_candidate_order():
    # 12 candidates, the initial state first and then its neighbours in
    # canonical order; tied candidates survive by position
    nbrs = _ids(neighbors(ELEVEN))
    assert len(nbrs) == 11
    assert ga_initial_population(ELEVEN_I, _table({}), 10) == [ELEVEN_I] + nbrs[:9]
    assert ga_initial_population(ELEVEN_I, _table({ELEVEN_I: -1.0}), 10) == nbrs[:10]
    assert ga_initial_population(ELEVEN_I, _table({nbrs[0]: -0.5, nbrs[5]: -0.5}), 10) == (
        [ELEVEN_I] + nbrs[1:5] + nbrs[6:]
    )


def _u(picks, mutations=((0.99, 0.0, 0.0),) * 4):
    """A generation's 16 uniforms from four parent picks and four (test, attribute, value) triples."""
    (a, b, c, d), (m1, m2, m3, m4) = picks, mutations
    return [a, b, *m1, *m2, c, d, *m3, *m4]


def test_ga_crossover_midpoint():
    cfg = GAConfig(mutation_prob=0.0)
    population = [MIN_I, MAX_I]
    rewards = _table({MIN_I: 0.5, MAX_I: 0.5})
    # shifted rewards 1.5 and 1.5: a pick below 0.5 takes the first parent,
    # one from 0.5 up the second, so pick uniforms 0.25 and 0.75 fix the order
    children = ga_generation(population, rewards, cfg, _u((0.25, 0.75, 0.75, 0.25)))
    assert [STATES[c] for c in children] == [
        (0, 0, 0, 2, 1, 2), (2, 2, 2, 0, 0, 0), (2, 2, 2, 0, 0, 0), (0, 0, 0, 2, 1, 2),
    ]
    seen = set()
    for picks in product(_grid(4), repeat=4):
        children = ga_generation(population, rewards, cfg, _u(picks))
        assert len(children) == 4
        seen.update(STATES[c] for c in children)
    assert (0, 0, 0, 2, 2, 1) not in seen  # malformed mixtures never appear
    assert seen == {ALL_MIN, ALL_MAX, (0, 0, 0, 2, 1, 2), (2, 2, 2, 0, 0, 0)}


def test_ga_identical_parents_reproduce_without_mutation():
    cfg = GAConfig(mutation_prob=0.0)
    for picks in product((0.0, 0.5, np.nextafter(1.0, 0.0)), repeat=4):
        mutations = ((0.0, 0.5, 0.5),) * 4  # a zero test uniform still never mutates at prob 0
        assert ga_generation([ELEVEN_I], _table({ELEVEN_I: 1.0}), cfg, _u(picks, mutations)) == [ELEVEN_I] * 4


def test_ga_generation_output_size_and_validity(small_population):
    rewards = _rewards(small_population.subjects[0], RewardSpec(5))
    population = ga_initial_population(state_index((1, 1, 2, 0, 1, 2)), rewards, 10)
    rng = np.random.default_rng(13)
    for cfg in (GAConfig(), GAConfig(mutation_prob=1.0)):
        for _ in range(200):
            children = ga_generation(population, rewards, cfg, rng.random(16).tolist())
            assert len(children) == 4  # two pairs, both crossover children of each
            assert all(0 <= c < len(STATES) and is_valid_state(STATES[c]) for c in children)


def test_ga_generation_alignment_errors():
    rewards = _table({MIN_I: 0.1})
    with pytest.raises(ValueError):
        ga_generation([], rewards, GAConfig(), [0.5] * 16)
    for wrong in ([0.5] * 15, [0.5] * 17):
        with pytest.raises(ValueError):
            ga_generation([MIN_I], rewards, GAConfig(), wrong)


def test_ga_fitness_proportional_sampling_frequencies():
    # Shifted rewards (r+1) of 0.25, 0.5, 1.25 make the cumulative weights
    # 0.25, 0.75, 2.0: the pick shares are 1/8, 2/8, 5/8, and a pick uniform on a
    # cumulative boundary (u * 2.0 equal to 0.25 or 0.75) selects the next parent.
    cfg = GAConfig(mutation_prob=0.0)
    parents = [ALL_MIN, (1, 0, 0, 0, 0, 0), ALL_MAX]  # distinct halves identify each parent
    population = _ids(parents)
    rewards = _table(dict(zip(population, (-0.75, -0.5, 0.25))))

    def first_parent(u):
        children = ga_generation(population, rewards, cfg, _u((u, 0.0, 0.0, 0.0)))
        # the first pair's first child is first-half parent 1 + second-half parent 2
        return next(p for p in parents if p[:3] == STATES[children[0]][:3])

    assert first_parent(0.0) == parents[0]
    assert first_parent(np.nextafter(1 / 8, 0.0)) == parents[0]
    assert first_parent(1 / 8) == parents[1]
    assert first_parent(np.nextafter(3 / 8, 0.0)) == parents[1]
    assert first_parent(3 / 8) == parents[2]
    assert first_parent(np.nextafter(1.0, 0.0)) == parents[2]
    counts = Counter(first_parent(u) for u in _grid(800))
    assert counts == {parents[0]: 100, parents[1]: 200, parents[2]: 500}
    # every pick slot follows the same rule: the second parent's halves show in the children
    children = ga_generation(population, rewards, cfg, _u((0.0, 1 / 8, 3 / 8, 0.0)))
    assert [STATES[c] for c in children] == [
        ALL_MIN, (1, 0, 0, 0, 0, 0), (2, 2, 2, 0, 0, 0), (0, 0, 0, 2, 1, 2),
    ]


def test_ga_degenerate_fitness_falls_back_to_uniform():
    cfg = GAConfig(mutation_prob=0.0)
    population = [MIN_I, MAX_I]
    # every reward at the -1 floor: the picks are int(u * n), so the two
    # equal halves of [0, 1) take one parent each
    floor = _table({}, default=-1.0)
    children = ga_generation(population, floor, cfg, _u((0.25, 0.75, np.nextafter(0.5, 0.0), 0.5)))
    assert len(children) == 4
    assert all(0 <= c < len(STATES) and is_valid_state(STATES[c]) for c in children)
    assert [STATES[c] for c in children] == [
        (0, 0, 0, 2, 1, 2), (2, 2, 2, 0, 0, 0), (0, 0, 0, 2, 1, 2), (2, 2, 2, 0, 0, 0),
    ]


def test_ga_mutation_slots():
    # Each child reads (test, attribute, value): it mutates when the test is
    # below mutation_prob; the attribute is int(u * 6) and its new value
    # int(u * range size) above the minimum.
    cfg = GAConfig(mutation_prob=0.5)
    mutations = (
        (0.0, 3.5 / 6, 0.9),  # largeness 1 -> 2
        (0.5, 0.0, 0.0),  # the test equals mutation_prob: no mutation
        (np.nextafter(0.5, 0.0), 4.5 / 6, 0.75),  # binary hairiness 0 -> 1
        (0.25, 0.0, 0.0),  # locomotion 1 -> 0
    )
    children = ga_generation([ELEVEN_I], _table({}), cfg, _u((0.5,) * 4, mutations))
    assert [STATES[c] for c in children] == [
        (1, 1, 1, 2, 0, 1), ELEVEN, (1, 1, 1, 1, 1, 1), (0, 1, 1, 1, 0, 1),
    ]
    # a re-roll may land on the attribute's current value
    same = ga_generation([ELEVEN_I], _table({}), cfg, _u((0.5,) * 4, ((0.0, 0.0, 0.5),) * 4))
    assert same == [ELEVEN_I] * 4


def test_ga_select_rules():
    rising = [i / N_STATES for i in range(N_STATES)]
    pool7 = _ids(STATES[:7])
    assert ga_select(pool7, rising, 10) == pool7
    pool14 = _ids(STATES[:14])
    best10 = ga_select(pool14, rising, 10)
    assert best10 == pool14[4:]
    # all-equal rewards keep the first ten in pool order
    tied = ga_select(pool14, _table({}), 10)
    assert tied == pool14[:10]
    assert ga_select(pool14, rising, 3) == pool14[-3:]
    # survivors come back in pool order, not rank order
    assert ga_select([11, 0, 13, 12], rising, 3) == [11, 13, 12]
    with pytest.raises(ValueError):
        ga_select([], rising, 10)


def test_ga_select_permits_duplicates():
    pool = [MIN_I] * 12
    kept = ga_select(pool, _table({}), 10)
    assert kept == [MIN_I] * 10


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(-10, 10).map(lambda k: k / 10), min_size=24, max_size=24),
    st.lists(st.integers(0, 23), min_size=1, max_size=30),
    st.integers(1, 16),
)
def test_ga_select_matches_brute_force(rewards, pool, population_size):
    # Rewards rounded to 0.1 over 24 states make ties and duplicate pool
    # members common. Reference: rank by (-reward, position), keep the first
    # population_size, return them in pool order.
    ranked = sorted(range(len(pool)), key=lambda i: (-rewards[pool[i]], i))
    expected = [pool[i] for i in sorted(ranked[:population_size])]
    assert ga_select(pool, rewards, population_size) == expected


def test_greedy_step_monotone_toward_target(example_subject):
    step = STATES[greedy_step(MIN_I, _rewards(example_subject, RewardSpec(9)))]
    assert stress(example_subject, step) > 0.0
    assert sum(step) == 1  # one increment


def test_greedy_step_is_pure(example_subject):
    rewards = _rewards(example_subject, RewardSpec(4))
    a = greedy_step(state_index((1, 0, 2, 1, 0, 1)), rewards)
    b = greedy_step(state_index((1, 0, 2, 1, 0, 1)), rewards)
    assert a == b


def test_greedy_step_tie_breaks_on_action_order():
    # Equal weights make the two movement attributes exactly symmetric, so
    # their +1 neighbours tie; the lower-indexed action must win.
    from spideradapt.subjects import VirtualSubject, scale_coefficient

    weights = (0.5, 0.5, 0.5, 0.5, 0.5, 0.5)
    subject = VirtualSubject(id=0, weights=weights, coefficient=scale_coefficient(weights))
    rewards = _rewards(subject, RewardSpec(9))
    assert STATES[greedy_step(MIN_I, rewards)] == (1, 0, 0, 0, 0, 0)


def test_greedy_step_can_move_downhill(example_subject):
    # From the all-max state with a tiny target every neighbour is bad, but
    # greedy still moves to the least bad one.
    step = STATES[greedy_step(MAX_I, _rewards(example_subject, RewardSpec(1)))]
    assert step != ALL_MAX
    assert step in neighbors(ALL_MAX)


def test_random_step_uniform_over_neighbors():
    # each equal-width bin of [0, 1) selects one neighbour, in canonical order
    assert [STATES[random_step(MIN_I, u)] for u in _grid(6)] == neighbors(ALL_MIN)
    assert STATES[random_step(MIN_I, 0.0)] == neighbors(ALL_MIN)[0]
    assert STATES[random_step(MIN_I, np.nextafter(1.0, 0.0))] == neighbors(ALL_MIN)[-1]


def test_random_step_eleven_neighbor_state():
    assert [STATES[random_step(ELEVEN_I, u)] for u in _grid(11)] == neighbors(ELEVEN)


def test_random_step_reproducible():
    us = np.random.default_rng(23).random(20).tolist()
    assert [random_step(MIN_I, u) for u in us] == [random_step(MIN_I, u) for u in us]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(STATES), st.sampled_from(STATES), st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=16, max_size=16))
def test_ga_index_crossover_and_mutation_match_tuple_splices(p1, p2, rest):
    splices = [p1[:3] + p2[3:], p2[:3] + p1[3:]]
    parents = _ids([p1, p2])
    # pick uniforms 0.25 and 0.75 take the first, then the second parent;
    # the other 14 slots are arbitrary
    u = [0.25, 0.75] + rest[2:]
    cfg = GAConfig(mutation_prob=0.0)
    children = ga_generation(parents, _table({}), cfg, u)
    assert children[:2] == _ids(splices)

    cfg = GAConfig(mutation_prob=1.0)
    children = ga_generation(parents, _table({}), cfg, u)
    for child, splice, m in zip(children[:2], splices, (2, 5)):
        assert 0 <= child < len(STATES)
        assert sum(a != b for a, b in zip(STATES[child], splice)) <= 1
        i = int(u[m + 1] * 6)
        expected = list(splice)
        expected[i] = int(u[m + 2] * (ALL_MAX[i] + 1))
        assert STATES[child] == tuple(expected)
