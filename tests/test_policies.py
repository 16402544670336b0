import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spideradapt.domain import (
    ACTIONS,
    Action,
    enumerate_states,
    is_valid_state,
    neighbors,
    state_index,
    valid_actions,
)
from spideradapt.policies import (
    GAConfig,
    QTable,
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


def test_qtable_shapes_and_modes():
    zero = QTable.zeros()
    assert zero.values.shape == (486, 12)
    assert not zero.values.any()
    rand = QTable.random(np.random.default_rng(3))
    assert ((0.0 <= rand.values) & (rand.values < 1.0)).all()
    assert rand.values.std() > 0
    with pytest.raises(ValueError):
        QTable(np.zeros((10, 12)))
    with pytest.raises(ValueError):
        QTable.create("sideways", np.random.default_rng(0))


def test_config_validation():
    with pytest.raises(ValueError):
        RLConfig(epsilon=1.5).validate()
    with pytest.raises(ValueError):
        RLConfig(learning_rate=0.0).validate()
    with pytest.raises(ValueError):
        GAConfig(population_size=1).validate()
    with pytest.raises(ValueError):
        GAConfig(mutation_prob=2.0).validate()
    RLConfig().validate()
    GAConfig().validate()


def test_rl_select_epsilon_one_is_uniform():
    table = QTable.zeros()
    table.values[0, 1] = 5.0  # a dominant entry that must not matter
    rng = np.random.default_rng(7)
    counts = Counter(
        rl_select_action(table.values, MIN_I, 1.0, rng) for _ in range(6000)
    )
    legal = {a.index for a in valid_actions(ALL_MIN)}
    assert set(counts) == legal
    for aid in legal:
        assert counts[aid] == pytest.approx(1000, abs=150)


def test_rl_select_greedy_unique_argmax():
    table = QTable.zeros()
    best = valid_actions(ALL_MIN)[3]
    table.values[0, best.index] = 1.0
    rng = np.random.default_rng(0)
    for _ in range(50):
        assert rl_select_action(table.values, MIN_I, 0.0, rng) == best.index


def test_rl_select_all_zero_ties_are_uniform():
    table = QTable.zeros()
    rng = np.random.default_rng(11)
    counts = Counter(
        rl_select_action(table.values, MIN_I, 0.0, rng) for _ in range(6000)
    )
    legal = {a.index for a in valid_actions(ALL_MIN)}
    assert set(counts) == legal
    for aid in legal:
        assert counts[aid] == pytest.approx(1000, abs=150)


def test_rl_select_only_valid_actions():
    table = QTable.zeros()
    # make every masked action look attractive
    table.values[:, :] = 0.0
    for aid in range(12):
        table.values[0, aid] = 100.0 if Action(aid // 2, -1 if aid % 2 == 0 else 1).direction < 0 else 0.0
    rng = np.random.default_rng(5)
    for _ in range(20):
        action = ACTIONS[rl_select_action(table.values, MIN_I, 0.0, rng)]
        assert action.direction == +1  # decrements are masked at the minimum


def test_rl_update_hand_computed():
    table = QTable.zeros()
    cfg = RLConfig(learning_rate=0.1, discount=0.9)
    a = valid_actions(ALL_MIN)[0]
    s_next = (1, 0, 0, 0, 0, 0)
    rl_update(table.values, MIN_I, a.index, 1.0, state_index(s_next), cfg)
    assert table.values[0, a.index] == pytest.approx(0.1)


def test_rl_update_zero_learning_rate_is_a_no_op():
    # sessions reject a zero rate via validate(), but the raw update with
    # lr = 0 must leave the table untouched
    with pytest.raises(ValueError):
        RLConfig(learning_rate=0.0).validate()
    table = QTable.random(np.random.default_rng(1))
    before = table.values.copy()
    cfg = RLConfig(learning_rate=0.0, discount=0.9)
    a = valid_actions(ALL_MIN)[0]
    rl_update(table.values, MIN_I, a.index, 1.0, state_index((1, 0, 0, 0, 0, 0)), cfg)
    assert (table.values == before).all()


def test_rl_update_gamma_zero_reduces_to_reward():
    table = QTable.zeros()
    cfg = RLConfig(learning_rate=1.0, discount=0.0)
    a = valid_actions(ALL_MIN)[2]
    rl_update(table.values, MIN_I, a.index, 0.5, state_index((0, 1, 0, 0, 0, 0)), cfg)
    assert table.values[0, a.index] == pytest.approx(0.5)


def test_rl_update_touches_single_entry():
    rng = np.random.default_rng(9)
    table = QTable.random(rng)
    before = table.values.copy()
    cfg = RLConfig()
    a = valid_actions(ELEVEN)[4]
    rl_update(table.values, ELEVEN_I, a.index, 0.3, state_index((1, 1, 0, 1, 0, 1)), cfg)
    diff = table.values != before
    assert diff.sum() == 1


def test_rl_update_rejects_invalid_action():
    table = QTable.zeros()
    with pytest.raises(ValueError):
        rl_update(table.values, MIN_I, Action(0, -1).index, 0.0, MIN_I, RLConfig())


def test_ga_initial_population_sizes(example_subject):
    rewards = _rewards(example_subject, RewardSpec(1))
    corner = ga_initial_population(MIN_I, rewards)
    assert len(corner) == 7
    assert corner[0] == MIN_I
    assert set(corner) == {MIN_I, *_ids(neighbors(ALL_MIN))}

    eleven = ga_initial_population(ELEVEN_I, rewards)
    assert len(eleven) == 10  # 12 candidates trimmed to the best ten
    candidates = {ELEVEN_I, *_ids(neighbors(ELEVEN))}
    assert set(eleven) <= candidates
    dropped = candidates - set(eleven)
    kept_worst = min(rewards[s] for s in eleven)
    assert all(rewards[s] <= kept_worst for s in dropped)


def test_ga_crossover_midpoint():
    cfg = GAConfig(mutation_prob=0.0)
    population = [MIN_I, MAX_I]
    # fitnesses force one parent each way often enough; scan until both orders seen
    rng = np.random.default_rng(2)
    seen = set()
    for _ in range(200):
        children = ga_generation(population, [0.5, 0.5], cfg, rng)
        assert len(children) == 4
        seen.update(STATES[c] for c in children)
    assert (0, 0, 0, 2, 2, 1) not in seen  # malformed mixtures never appear
    assert {(0, 0, 0, 2, 1, 2), (2, 2, 2, 0, 0, 0)} <= seen


def test_ga_identical_parents_reproduce_without_mutation():
    cfg = GAConfig(mutation_prob=0.0)
    rng = np.random.default_rng(4)
    children = ga_generation([ELEVEN_I], [1.0], cfg, rng)
    assert children == [ELEVEN_I] * 4


def test_ga_generation_output_size_and_validity(small_population):
    rewards = _rewards(small_population.subjects[0], RewardSpec(5))
    population = ga_initial_population(state_index((1, 1, 2, 0, 1, 2)), rewards)
    fits = [rewards[s] for s in population]
    rng = np.random.default_rng(13)
    for cfg in (GAConfig(), GAConfig(mutation_prob=1.0)):
        children = ga_generation(population, fits, cfg, rng)
        assert len(children) == 4  # two pairs, both crossover children of each
        assert all(0 <= c < len(STATES) and is_valid_state(STATES[c]) for c in children)


def test_ga_generation_alignment_errors():
    with pytest.raises(ValueError):
        ga_generation([], [], GAConfig(), np.random.default_rng(0))
    with pytest.raises(ValueError):
        ga_generation([MIN_I], [0.1, 0.2], GAConfig(), np.random.default_rng(0))


def test_ga_fitness_proportional_sampling_frequencies():
    # With shifted fitnesses (f+1) of 0.5, 1.0, 2.5 the pick shares are
    # 1/8, 2/8, 5/8; check empirical frequencies at a loose 3-sigma level.
    cfg = GAConfig(mutation_prob=0.0)
    population = _ids([ALL_MIN, (0, 0, 0, 0, 0, 1), ALL_MAX])
    fits = [-0.5, 0.0, 1.5]
    rng = np.random.default_rng(21)
    counts = Counter()
    draws = 4000
    for _ in range(draws):
        children = ga_generation(population, fits, cfg, rng)
        # the first pair's child A is first-half parent1 + second-half parent2: recover parent1
        counts[STATES[children[0]][:3]] += 1
    shares = {ALL_MIN[:3]: 1 / 8}
    total = sum(counts.values())
    assert total == draws
    observed_min = counts[(0, 0, 0)] / draws  # parents 1 and 2 share this prefix
    expected_min = 3 / 8  # shares of the two low-fitness parents combined
    sigma = math.sqrt(expected_min * (1 - expected_min) / draws)
    assert abs(observed_min - expected_min) < 4 * sigma
    observed_max = counts[(2, 2, 2)] / draws
    expected_max = 5 / 8
    sigma = math.sqrt(expected_max * (1 - expected_max) / draws)
    assert abs(observed_max - expected_max) < 4 * sigma


def test_ga_degenerate_fitness_falls_back_to_uniform():
    cfg = GAConfig(mutation_prob=0.0)
    population = [MIN_I, MAX_I]
    rng = np.random.default_rng(8)
    children = ga_generation(population, [-1.0, -1.0], cfg, rng)
    assert len(children) == 4
    assert all(0 <= c < len(STATES) and is_valid_state(STATES[c]) for c in children)


def test_ga_select_rules():
    pool7 = _ids(STATES[:7])
    assert ga_select(pool7, [0.1 * i for i in range(7)], GAConfig()) == pool7
    pool14 = _ids(STATES[:14])
    fits = [float(i) for i in range(14)]
    best10 = ga_select(pool14, fits, GAConfig())
    assert best10 == pool14[4:]
    # all-equal fitness keeps the first ten in pool order
    tied = ga_select(pool14, [1.0] * 14, GAConfig())
    assert tied == pool14[:10]
    assert ga_select(pool14, fits, GAConfig(population_size=3)) == pool14[-3:]
    with pytest.raises(ValueError):
        ga_select([], [], GAConfig())


def test_ga_select_permits_duplicates():
    pool = [MIN_I] * 12
    kept = ga_select(pool, [0.0] * 12, GAConfig())
    assert kept == [MIN_I] * 10


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
    rng = np.random.default_rng(17)
    counts = Counter(STATES[random_step(MIN_I, rng)] for _ in range(6000))
    assert set(counts) == set(neighbors(ALL_MIN))
    for state in counts:
        assert counts[state] == pytest.approx(1000, abs=150)


def test_random_step_eleven_neighbor_state():
    rng = np.random.default_rng(19)
    counts = Counter(STATES[random_step(ELEVEN_I, rng)] for _ in range(11000))
    assert set(counts) == set(neighbors(ELEVEN))


def test_random_step_reproducible():
    a = [random_step(MIN_I, np.random.default_rng(23)) for _ in range(20)]
    b = [random_step(MIN_I, np.random.default_rng(23)) for _ in range(20)]
    assert a == b


class _ParentsInOrder:
    """An rng whose first two uniform draws pick population[0], then population[1].

    With equal fitnesses the cumulative weights of a two-member population
    are (1, 2), so draws of 0.25 and 0.75 land on the first and the second
    parent. Later draws, including every mutation draw, come from a real
    generator.
    """

    def __init__(self, seed: int) -> None:
        self._picks = [0.25, 0.75]
        self._rng = np.random.default_rng(seed)

    def random(self) -> float:
        return self._picks.pop(0) if self._picks else self._rng.random()

    def integers(self, *args):
        return self._rng.integers(*args)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(STATES), st.sampled_from(STATES), st.integers(0, 2**32 - 1))
def test_ga_index_crossover_and_mutation_match_tuple_splices(p1, p2, seed):
    splices = [p1[:3] + p2[3:], p2[:3] + p1[3:]]
    parents = _ids([p1, p2])
    # the first pair's two children; the second pair's parents come from the real generator
    cfg = GAConfig(mutation_prob=0.0)
    children = ga_generation(parents, [0.0, 0.0], cfg, _ParentsInOrder(seed))
    assert children[:2] == _ids(splices)

    cfg = GAConfig(mutation_prob=1.0)
    children = ga_generation(parents, [0.0, 0.0], cfg, _ParentsInOrder(seed))
    for child, splice in zip(children[:2], splices):
        assert 0 <= child < len(STATES)
        assert sum(a != b for a, b in zip(STATES[child], splice)) <= 1
