import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spideradapt.domain import enumerate_states, state_index, state_space
from spideradapt.reward_model import RewardSpec, is_success, reward
from spideradapt.subjects import (
    SubjectFileError,
    VirtualSubject,
    bfs_distance,
    generate_population,
    load_population,
    response_tables,
    sample_subject,
    save_population,
    scale_coefficient,
    stress,
    stress_table,
    success_states,
)
from tests.conftest import EXAMPLE_WEIGHTS
from tests.reference import neighbors, valid_actions

ALL_MIN = (0, 0, 0, 0, 0, 0)
ALL_MAX = (2, 2, 2, 2, 1, 2)

weights_strategy = st.tuples(*[st.floats(0.01, 2.0) for _ in range(6)])


def _subject(weights) -> VirtualSubject:
    return VirtualSubject(id=0, weights=weights, coefficient=scale_coefficient(weights))


def test_example_coefficient():
    # Sum of weighted maxima is 7.29, so the coefficient is 10/7.29.
    c = scale_coefficient(EXAMPLE_WEIGHTS)
    assert c == pytest.approx(10 / 7.29, rel=1e-12)
    assert c == pytest.approx(1.3717, abs=5e-4)


def test_mean_weights_coefficient():
    # 2*(0.9+0.9+0.4+0.7+0.5) + 1*0.6 = 7.4 (hairiness is the binary one)
    c = scale_coefficient((0.9, 0.9, 0.4, 0.7, 0.6, 0.5))
    assert c == pytest.approx(10 / 7.4, rel=1e-12)
    assert c == pytest.approx(1.35135, abs=1e-5)


def test_stress_examples(rounded_example_subject):
    assert stress(rounded_example_subject, ALL_MAX) == pytest.approx(9.9873, abs=1e-9)
    assert stress(rounded_example_subject, (1, 0, 0, 0, 0, 0)) == pytest.approx(1.3289, abs=1e-9)
    assert stress(rounded_example_subject, ALL_MIN) == 0.0


def test_stress_zero_at_minimum_for_any_subject(small_population):
    for subject in small_population.subjects:
        assert stress(subject, ALL_MIN) == 0.0


def test_stress_scaled_to_ten(small_population):
    for subject in small_population.subjects:
        table = stress_table(subject)
        assert max(table) == pytest.approx(10.0, abs=1e-9)
        assert max(table) <= 10.0
        assert min(table) == 0.0


def test_stress_table_equals_stress_bit_for_bit(small_population, example_subject):
    for subject in (*small_population.subjects, example_subject):
        table = stress_table.__wrapped__(subject)  # built afresh, not from the cache
        assert [x.hex() for x in table] == [stress(subject, s).hex() for s in enumerate_states()]


def test_stress_rejects_invalid_state(example_subject):
    with pytest.raises(ValueError):
        stress(example_subject, (0, 0, 0, 0, 0, 3))


def test_sampled_weights_are_non_negative():
    # closeness (mu 0.4, std 0.17) would go negative without truncation
    rng = np.random.default_rng(1)
    for i in range(500):
        subject = sample_subject(i, rng)
        assert all(w >= 0.0 for w in subject.weights)


def test_generate_population_deterministic():
    a = generate_population(20, 777)
    b = generate_population(20, 777)
    assert a == b
    c = generate_population(20, 778)
    assert a.subjects[0].weights != c.subjects[0].weights


def test_generate_population_prefix_stable():
    # subject i only depends on (seed, i), not on the population size
    a = generate_population(5, 31)
    b = generate_population(50, 31)
    assert a.subjects == b.subjects[:5]


def test_generate_population_size_validation():
    with pytest.raises(ValueError):
        generate_population(0, 1)
    one = generate_population(1, 1)
    assert len(one.subjects) == 1 and one.subjects[0].id == 0


@settings(max_examples=25)
@given(weights_strategy)
def test_stress_monotone_under_increments(weights):
    subject = _subject(weights)
    for state in [(0, 0, 0, 0, 0, 0), (1, 1, 0, 2, 0, 1), (1, 1, 1, 1, 0, 1)]:
        base = stress(subject, state)
        for action in valid_actions(state):
            stepped = list(state)
            stepped[action.attribute_index] += action.direction
            moved = stress(subject, tuple(stepped))
            if action.direction > 0:
                assert moved >= base
            else:
                assert moved <= base


def test_success_states_example(example_subject):
    wins = success_states(example_subject, 1)
    assert (1, 0, 0, 0, 0, 0) in wins
    assert ALL_MIN not in wins  # stress 0 never rounds to a 1..9 target


def test_success_states_disjoint(small_population):
    for subject in small_population.subjects[:3]:
        seen: set = set()
        for target in range(1, 10):
            wins = success_states(subject, target)
            assert not (wins & seen)
            seen |= wins


def test_success_states_with_edge_bands_cover_everything(example_subject):
    covered = set()
    for target in range(1, 10):
        covered |= success_states(example_subject, target)
    for state in enumerate_states():
        x = stress(example_subject, state)
        if x < 0.5 or x >= 9.5:
            covered.add(state)  # the implicit 0 and 10 bands
    assert len(covered) == 486


def test_bfs_distance_cases(example_subject):
    assert bfs_distance(example_subject, (1, 0, 0, 0, 0, 0), 1) == 0
    assert bfs_distance(example_subject, ALL_MIN, 1) == 1
    with pytest.raises(ValueError, match=r"^invalid spider state: \(9, 0, 0, 0, 0, 0\)$"):
        bfs_distance(example_subject, (9, 0, 0, 0, 0, 0), 1)
    # the oracles read the sessions' success table, so they refuse what RewardSpec refuses
    for bad in (0, 10, 2.5):
        with pytest.raises(ValueError, match=r"^target must be an integer in 1\.\.9"):
            bfs_distance(example_subject, ALL_MIN, bad)


def test_rounded_table_rewards_the_stress_rounded_half_up():
    # stresses 0, 1.25 and 2.5 along the first attribute
    subject = VirtualSubject(0, (1.25, 0, 0, 0, 0, 0), 1.0)
    spec = RewardSpec(3)
    first = [state_index((v, 0, 0, 0, 0, 0)) for v in range(3)]
    stresses, rewards, successes = response_tables(subject, 3, True)
    raw = response_tables(subject, 3, False)
    assert [stresses[i] for i in first] == [0.0, 1.25, 2.5]
    # 1.25 rounds down and 2.5, a half, up
    assert [rewards[i] for i in first] == [reward(0.0, spec), reward(1.0, spec), reward(3.0, spec)]
    assert [reward(x, spec) for x in stresses] == list(raw[1]) != list(rewards)
    # the stress and success tables read the raw stress
    assert (stresses, successes) == (raw[0], raw[2])
    assert (stresses, successes) == (stress_table(subject), tuple(is_success(x, 3) for x in stresses))
    assert [successes[i] for i in first] == [False, False, True]


def test_bfs_distance_none_when_unreachable():
    # A subject dominated by one attribute leaves narrow bands empty: with a
    # single huge weight, most stress levels between steps are unreachable.
    weights = (2.0, 1e-6, 1e-6, 1e-6, 1e-6, 1e-6)
    subject = _subject(weights)
    reachable = {t for t in range(1, 10) if success_states(subject, t)}
    assert reachable != set(range(1, 10))
    missing = min(set(range(1, 10)) - reachable)
    assert bfs_distance(subject, ALL_MIN, missing) is None


def test_bfs_triangle_property(example_subject):
    space = state_space()
    dist = {s: bfs_distance(example_subject, s, 3) for s in enumerate_states()}
    for state in enumerate_states():
        for nb in neighbors(state):
            assert dist[state] <= dist[nb] + 1


def test_population_round_trip(tmp_path, small_population):
    path = tmp_path / "subjects.json"
    data = save_population(small_population, path)
    assert path.read_bytes() == data
    loaded = load_population(path)
    assert loaded == small_population  # bit-exact floats


def test_population_file_schema(tmp_path, small_population):
    path = tmp_path / "subjects.json"
    save_population(small_population, path)
    payload = json.loads(path.read_text())
    assert payload["seed"] == small_population.seed
    assert len(payload["subjects"]) == 10
    entry = payload["subjects"][0]
    assert set(entry) == {"id", "weights", "coefficient"}
    assert len(entry["weights"]) == 6


def test_load_population_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    for text in (b"not json", b"[" * 100_000 + b"]" * 100_000, b"\xff\xfe{"):  # garbage; too deep; not UTF-8
        path.write_bytes(text)
        with pytest.raises(SubjectFileError):
            load_population(path)
    path.write_text(json.dumps({"seed": 1, "subjects": [{"id": 0, "weights": [1, 1, 1, 1, 1, 1]}]}))
    with pytest.raises(SubjectFileError):
        load_population(path)
    # inconsistent coefficient
    path.write_text(
        json.dumps(
            {
                "seed": 1,
                "subjects": [
                    {"id": 0, "weights": [1, 1, 1, 1, 1, 1], "coefficient": 2.5},
                ],
            }
        )
    )
    with pytest.raises(SubjectFileError):
        load_population(path)
    # non-finite values pass the range checks unless rejected explicitly
    for text in (
        '{"seed": 1, "subjects": [{"id": 0, "weights": [NaN, 1, 1, 1, 1, 1], "coefficient": NaN}]}',
        '{"seed": 1, "subjects": [{"id": 0, "weights": [Infinity, 1, 1, 1, 1, 1], "coefficient": 0}]}',
        '{"seed": 1, "subjects": [{"id": 0, "weights": [1, 1, 1, 1, 1, 1], "coefficient": NaN}]}',
    ):
        path.write_text(text)
        with pytest.raises(SubjectFileError):
            load_population(path)
    # JSON types are checked, never coerced
    weights = [0.7, 0.1, 0.2, 0.3, 0.4, 0.5]
    good = {"id": 0, "weights": weights, "coefficient": scale_coefficient(tuple(weights))}
    for payload in (
        {"seed": 1.9, "subjects": [good]},
        {"seed": True, "subjects": [good]},
        {"seed": 1, "subjects": {"0": good}},
        *({"seed": 1, "subjects": [{**good, "id": bad}]} for bad in (0.7, True, "0")),
        {"seed": 1, "subjects": [{**good, "weights": ["0.7", *weights[1:]]}]},
        {"seed": 1, "subjects": [{**good, "weights": [True, *weights[1:]]}]},
        {"seed": 1, "subjects": [{**good, "weights": [10**400, *weights[1:]]}]},  # no float holds it
        {"seed": 1, "subjects": [{**good, "weights": weights[:5]}]},
        {"seed": 1, "subjects": [{**good, "coefficient": True}]},
        {"seed": 1, "subjects": [{**good, "coefficient": str(good["coefficient"])}]},
    ):
        path.write_text(json.dumps(payload))
        with pytest.raises(SubjectFileError):
            load_population(path)
    # ids are the positions, so a gap is refused where it occurs
    path.write_text(json.dumps({"seed": 1, "subjects": [good, {**good, "id": 2}]}))
    with pytest.raises(SubjectFileError, match=r": subject ids must be 0\.\.n-1, found 2 at position 1$"):
        load_population(path)
    # a list where an object belongs is named as such, not indexed by a key
    for payload, name in (([], "top level"), ({"seed": 1, "subjects": [[1, 2]]}, "subject")):
        path.write_text(json.dumps(payload))
        with pytest.raises(SubjectFileError, match=f": {name} must be dict, got "):
            load_population(path)
    # a weights object would iterate as its keys 0..5; this coefficient fits those keys
    keys = {str(i): w for i, w in enumerate(weights)}
    path.write_text(json.dumps({"seed": 1, "subjects": [
        {"id": 0, "weights": keys, "coefficient": scale_coefficient(tuple(float(k) for k in keys))}
    ]}))
    with pytest.raises(SubjectFileError, match="weights must be list"):
        load_population(path)
    # integer weights and coefficients are JSON numbers too
    path.write_text(json.dumps({"seed": 1, "subjects": [
        {"id": 0, "weights": [1, 1, 1, 1, 1, 1], "coefficient": scale_coefficient((1.0,) * 6)}
    ]}))
    assert load_population(path).subjects[0].weights == (1.0,) * 6


def test_success_band_membership_matches_predicate(example_subject):
    wins = success_states(example_subject, 4)
    for state in enumerate_states():
        assert (state in wins) == is_success(stress(example_subject, state), 4)
