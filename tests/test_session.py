from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spideradapt.domain import state_space
from spideradapt.policies import GAConfig, POLICY_NAMES, RLConfig
from spideradapt.reward_model import RewardSpec, is_success
from spideradapt.session import (
    INITIAL_KINDS, INITIAL_STATES, RunConfig, _run_ga, pcg64_states, run_seed_sequence, run_session, run_sessions,
)
from spideradapt.subjects import (
    VirtualSubject,
    bfs_distance,
    generate_population,
    sample_subject,
    scale_coefficient,
    stress,
)
from tests.reference import neighbors, reference_session

ALL_MIN = (0, 0, 0, 0, 0, 0)


def _cfg(**overrides) -> RunConfig:
    base = dict(method="random", subject_id=0, target=1, initial_kind="min",
                repeat_index=0, iteration_cap=100, master_seed=42)
    base.update(overrides)
    return RunConfig(**base)


def test_initial_success_counts_one_presentation(example_subject):
    # the average spider's stress (about 4.54) already rounds to 5
    assert is_success(stress(example_subject, INITIAL_STATES["avg"]), 5)
    result = run_session(_cfg(method="greedy", target=5, initial_kind="avg"), example_subject)
    assert result.success
    assert result.spiders_presented == 1
    assert result.iterations_used == 0
    assert len(result.presented_sequence) == 1
    assert result.presented_sequence[0].state == INITIAL_STATES["avg"]
    assert result.presented_sequence[0].iteration == 0


def test_unknown_method_and_mismatched_subject(example_subject):
    with pytest.raises(ValueError):
        run_session(_cfg(method="simulated_annealing"), example_subject)
    with pytest.raises(ValueError):
        run_session(_cfg(subject_id=3), example_subject)
    with pytest.raises(ValueError):
        run_session(_cfg(initial_kind="median"), example_subject)
    with pytest.raises(ValueError):
        run_session(_cfg(target=0), example_subject)
    with pytest.raises(ValueError):
        run_session(_cfg(iteration_cap=-1), example_subject)
    with pytest.raises(ValueError):
        run_session(_cfg(master_seed=-1), example_subject)
    # greedy opens no stream, so the check cannot be left to the seeding
    for method in ("greedy", "random"):
        with pytest.raises(ValueError, match="repeat_index"):
            run_session(_cfg(method=method, repeat_index=-1), example_subject)
    with pytest.raises(ValueError, match="subject_id"):
        run_session(_cfg(subject_id=-1), replace(example_subject, id=-1))


def test_runs_are_bit_reproducible(small_population):
    subject = small_population.subjects[3]
    for method in ("random", "greedy", "ga", "rl_random", "rl_zero"):
        cfg = _cfg(method=method, subject_id=3, target=7, initial_kind="avg")
        a = run_session(cfg, subject)
        b = run_session(cfg, subject)
        assert a == b


def test_seed_streams_differ_per_coordinate():
    base = _cfg()
    entropies = {
        tuple(run_seed_sequence(c).entropy)
        for c in (
            base,
            _cfg(method="greedy"),
            _cfg(subject_id=1),
            _cfg(target=2),
            _cfg(initial_kind="max"),
            _cfg(repeat_index=1),
            _cfg(master_seed=43),
        )
    }
    assert len(entropies) == 7


@settings(max_examples=60, deadline=None)
@given(
    # one word, then the multi-word paths from 2**32 and from 2**64
    master_seed=st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1), st.integers(2**64, 2**96)),
    subject_id=st.integers(0, 2**40),
    target=st.integers(1, 9),
    runs=st.lists(
        st.tuples(st.sampled_from(("random", "greedy", "ga", "rl_random", "rl_zero")),
                  st.sampled_from(INITIAL_KINDS), st.integers(0, 2**32 - 1)),
        min_size=1, max_size=12,
    ),
)
def test_pcg64_states_match_the_seed_sequence(master_seed, subject_id, target, runs):
    # the batched derivation is one pass over many runs that share the
    # master seed, subject and target, as a grid unit's runs do
    cfgs = [_cfg(method=m, subject_id=subject_id, target=target, initial_kind=i, repeat_index=r,
                 master_seed=master_seed) for m, i, r in runs]
    states = pcg64_states(cfgs)
    reused = np.random.default_rng(0)
    for cfg, state in zip(cfgs, states, strict=True):
        assert state == np.random.PCG64(run_seed_sequence(cfg)).state
        reused.bit_generator.state = state
        assert reused.random(8).tolist() == np.random.default_rng(run_seed_sequence(cfg)).random(8).tolist()


def test_pcg64_states_reject_rows_of_different_word_counts():
    assert pcg64_states([]) == []
    with pytest.raises(ValueError, match="32-bit words"):
        pcg64_states([_cfg(repeat_index=0), _cfg(repeat_index=2**32)])


@pytest.mark.parametrize("field", ["master_seed", "subject_id", "target", "repeat_index"])
@pytest.mark.parametrize("value", [-1, -(2**40)])
def test_pcg64_states_refuse_a_negative_coordinate_as_the_seed_sequence_does(field, value):
    cfg = _cfg(**{field: value})
    with pytest.raises(ValueError, match="^expected non-negative integer$"):
        run_seed_sequence(cfg)
    with pytest.raises(ValueError, match="^expected non-negative integer$"):
        pcg64_states([_cfg(), cfg])


def test_run_sessions_equal_one_run_session_each(small_population):
    # one seeding pass over mixed methods, initial states, targets and repeats,
    # at a master seed past 2**32 so that it splits into two words
    subject = small_population.subjects[3]
    cfgs = [_cfg(method=m, subject_id=3, target=t, initial_kind=i, repeat_index=r, master_seed=2**40 + 7,
                 iteration_cap=60) for m in POLICY_NAMES for t in (2, 8) for i in ("min", "max") for r in (0, 5)]
    # GA runs of other caps and settings, interleaved, run as blocks of their own
    cfgs += [replace(cfgs[i], iteration_cap=cap, ga=ga) for i in range(len(cfgs)) if cfgs[i].method == "ga"
             for cap, ga in ((60, GAConfig(population_size=4)), (9, GAConfig())) if i % 3]
    cfgs.sort(key=lambda c: c.target)
    assert list(run_sessions(cfgs, subject)) == [run_session(c, subject, False) for c in cfgs]
    # every config is checked before the first run
    with pytest.raises(ValueError, match="target"):
        next(run_sessions([cfgs[0], replace(cfgs[1], target=0)], subject))


def test_run_sessions_check_every_subject_before_the_first_run():
    # a config of another subject is refused before any run, whichever engine would run it
    subject = generate_population(2, 7).subjects[0]
    for method in ("random", "ga"):
        runs = run_sessions([_cfg(subject_id=0), _cfg(method=method, subject_id=1)], subject)
        with pytest.raises(ValueError, match="^subject id 0 does not match config subject_id 1$"):
            next(runs)


def test_a_traced_ga_block_records_each_run_as_a_lone_run(small_population):
    # the corner's seed pool is narrower than the average spider's, so its rows carry pads, which are never shown
    subject = small_population.subjects[3]
    cfgs = [_cfg(method="ga", subject_id=3, target=t, initial_kind=i) for t in (2, 8) for i in INITIAL_KINDS]
    assert _run_ga(cfgs, subject, True, pcg64_states(cfgs)) == [run_session(c, subject) for c in cfgs]


def test_presented_states_are_unique(small_population):
    subject = small_population.subjects[1]
    for method in POLICY_NAMES:
        result = run_session(_cfg(method=method, subject_id=1, target=8), subject)
        states = [p.state for p in result.presented_sequence]
        assert len(states) == len(set(states))
        assert result.spiders_presented == len(states)
        assert result.spiders_presented <= 486


def test_sequence_tuples_carry_responses(example_subject):
    result = run_session(_cfg(method="random", target=3), example_subject)
    spec = RewardSpec(3)
    for shown in result.presented_sequence:
        assert shown.stress == stress(example_subject, shown.state)
        assert -1.0 <= shown.reward <= 1.0
        assert 0 <= shown.iteration <= result.iterations_used


def test_success_ends_on_a_success_state(small_population):
    for subject in small_population.subjects[:5]:
        for method in ("random", "greedy", "rl_zero", "rl_random", "ga"):
            cfg = _cfg(method=method, subject_id=subject.id, target=4)
            result = run_session(cfg, subject)
            if result.success:
                last = [p.state for p in result.presented_sequence if p.iteration == result.iterations_used]
                assert any(is_success(stress(subject, state), 4) for state in last)
                if method != "ga":
                    # sequential methods stop on the state they just presented
                    assert is_success(stress(subject, result.presented_sequence[-1].state), 4)


def _subject_with_an_empty_band():
    """A subject with one dominant weight, so some target band holds no state, and that target."""
    weights = (2.0, 1e-6, 1e-6, 1e-6, 1e-6, 1e-6)
    subject = VirtualSubject(id=0, weights=weights, coefficient=scale_coefficient(weights))
    missing = next(t for t in range(1, 10)
                   if not any(is_success(stress(subject, s), t) for s in state_space().states))
    return subject, missing


def test_failure_hits_the_cap():
    subject, missing = _subject_with_an_empty_band()  # no method can win
    for method in ("random", "greedy", "ga", "rl_zero"):
        result = run_session(_cfg(method=method, target=missing, iteration_cap=40), subject)
        assert not result.success
        assert result.iterations_used == 40
        assert result.spiders_presented >= 1


def test_ga_corner_first_batch_is_seven(example_subject):
    result = run_session(_cfg(method="ga", target=1), example_subject)
    assert result.success
    assert result.iterations_used == 0
    assert result.spiders_presented == 7


def test_sequential_presentations_stay_adjacent_to_visited(small_population):
    subject = small_population.subjects[2]
    for method in ("random", "greedy", "rl_zero"):
        result = run_session(_cfg(method=method, subject_id=2, target=6), subject)
        visited = {result.presented_sequence[0].state}
        for shown in result.presented_sequence[1:]:
            assert any(shown.state in neighbors(v) for v in visited)
            visited.add(shown.state)


def test_presented_lower_bounded_by_bfs(small_population):
    checked = 0
    for subject in small_population.subjects[:4]:
        for method in ("random", "greedy", "rl_zero", "rl_random"):
            for target in (1, 4, 8):
                cfg = _cfg(method=method, subject_id=subject.id, target=target)
                result = run_session(cfg, subject)
                if not result.success:
                    continue
                lower = bfs_distance(subject, ALL_MIN, target)
                assert lower is not None
                assert result.spiders_presented >= lower + 1
                checked += 1
    assert checked > 20


def test_record_sequence_off_keeps_counts(example_subject):
    for method in POLICY_NAMES:
        cfg = _cfg(method=method, target=6)
        full = run_session(cfg, example_subject)
        lean = run_session(cfg, example_subject, record_sequence=False)
        assert lean.presented_sequence == []
        assert (lean.success, lean.spiders_presented, lean.iterations_used) == (
            full.success,
            full.spiders_presented,
            full.iterations_used,
        ), method


def test_epsilon_zero_is_deterministic(example_subject):
    cfg_kwargs = dict(method="rl_zero", target=5,
                      rl=RLConfig(epsilon=0.0))
    a = run_session(_cfg(**cfg_kwargs), example_subject)
    b = run_session(_cfg(**cfg_kwargs), example_subject)
    assert a == b


def test_iteration_cap_zero_only_presents_initial(example_subject):
    result = run_session(_cfg(method="random", target=9, iteration_cap=0), example_subject)
    assert not result.success
    assert result.spiders_presented == 1
    assert result.iterations_used == 0


def test_rounded_reward_flag_changes_rewards(example_subject):
    plain = run_session(_cfg(method="greedy", target=3), example_subject)
    rounded = run_session(_cfg(method="greedy", target=3, rounded_reward=True), example_subject)
    # rounding quantizes rewards: every reward equals one of the 11 grid values
    spec = RewardSpec(3)
    from spideradapt.reward_model import reward as reward_fn

    grid = {reward_fn(float(v), spec) for v in range(0, 11)}
    assert all(p.reward in grid for p in rounded.presented_sequence)
    assert plain.success and rounded.success


@st.composite
def _subjects(draw):
    subject_id = draw(st.integers(0, 2**40))
    if draw(st.booleans()):  # from the paper's impact-factor normals
        return sample_subject(subject_id, np.random.default_rng(draw(st.integers(0, 2**32))))
    weights = draw(st.tuples(*[st.floats(1e-6, 2.0)] * 6))  # anything, empty target bands included
    return VirtualSubject(id=subject_id, weights=weights, coefficient=scale_coefficient(weights))


_EMPTY_BAND = _subject_with_an_empty_band()
_SUBJECTS = generate_population(10, 4242).subjects  # the small_population fixture's
_SESSIONS = dict(
    subject=_subjects(),
    target=st.integers(1, 9),
    initial_kind=st.sampled_from(INITIAL_KINDS),
    repeat=st.integers(0, 2**32 - 1),
    master_seed=st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**70)),
    cap=st.integers(0, 150),
)


def _session_cfg(method, subject, target, initial_kind, repeat, master_seed, cap, **policy):
    return _cfg(method=method, subject_id=subject.id, target=target, initial_kind=initial_kind,
                repeat_index=repeat, iteration_cap=cap, master_seed=master_seed, **policy)


def _stream(cfg, n):
    return np.random.default_rng(run_seed_sequence(cfg)).random(n).tolist()


# an empty band forces every method through a full failing run
@example(subject=_EMPTY_BAND[0], target=_EMPTY_BAND[1], initial_kind="min", repeat=0, master_seed=42, cap=5,
         rl=RLConfig(epsilon=0.1))
@settings(max_examples=300, deadline=None)
@given(**_SESSIONS, rl=st.builds(RLConfig, epsilon=st.floats(0.0, 1.0),
                                 learning_rate=st.floats(0.0, 1.0, exclude_min=True), discount=st.floats(0.0, 1.0)))
def test_sequential_runs_equal_the_reference(rl, **session):
    for method in ("random", "greedy", "rl_zero", "rl_random"):
        cfg = _session_cfg(method, **session, rl=rl)
        assert run_session(cfg, session["subject"]) == reference_session(cfg, session["subject"])


@example(subject=_EMPTY_BAND[0], target=_EMPTY_BAND[1], initial_kind="min", repeat=0, master_seed=42, cap=5,
         ga=GAConfig())
# a GA that mutates every child, from a corner at cap 0
@example(subject=_SUBJECTS[0], target=6, initial_kind="max", repeat=0, master_seed=42, cap=0,
         ga=GAConfig(mutation_prob=1.0))
@settings(max_examples=300, deadline=None)
# a corner seeds 7 members and each generation adds 4, so population sizes
# above 11 keep its pads past the first generation
@given(**_SESSIONS, ga=st.builds(GAConfig, population_size=st.integers(2, 20), mutation_prob=st.floats(0.0, 1.0)))
def test_ga_runs_equal_the_reference(ga, **session):
    cfg = _session_cfg("ga", **session, ga=ga)
    assert run_session(cfg, session["subject"]) == reference_session(cfg, session["subject"])


# every stress is 0, so for a target of 5 or more every reward sits at the -1
# floor: every pick is degenerate, and no run can succeed
_FLOOR = VirtualSubject(id=0, weights=(0.0,) * 6, coefficient=1.0)


@example(subject=_FLOOR, runs=[(9, "min", 0, False), (5, "avg", 1, True), (7, "max", 2, False)], master_seed=42,
         cap=12, ga=GAConfig(population_size=20))
@settings(max_examples=100, deadline=None)
@given(
    subject=_subjects(),
    # target, initial state, repeat and rounded_reward of each run
    runs=st.lists(st.tuples(st.integers(1, 9), st.sampled_from(INITIAL_KINDS), st.integers(0, 2**32 - 1),
                            st.booleans()), min_size=1, max_size=40),
    master_seed=_SESSIONS["master_seed"],
    cap=_SESSIONS["cap"],
    ga=st.builds(GAConfig, population_size=st.integers(2, 20),
                 mutation_prob=st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0))),
)
def test_a_ga_block_equals_the_reference_run_by_run(subject, runs, master_seed, cap, ga):
    # one block: the runs share the cap and GA settings, and each leaves it when it ends
    cfgs = [_session_cfg("ga", subject, target, initial_kind, repeat, master_seed, cap, ga=ga, rounded_reward=rounded)
            for target, initial_kind, repeat, rounded in runs]
    assert list(run_sessions(cfgs, subject)) == [replace(reference_session(cfg, subject), presented_sequence=[])
                                                 for cfg in cfgs]


def test_random_run_follows_the_draw_protocol(small_population):
    subject = small_population.subjects[4]
    cfg = _cfg(method="random", subject_id=4, target=9)
    expected = reference_session(cfg, subject)
    assert len(expected.presented_sequence) > 5
    assert run_session(cfg, subject) == expected


@pytest.mark.parametrize("method, epsilon", [("rl_zero", 0.05), ("rl_zero", 0.5), ("rl_random", 0.05)])
def test_rl_run_follows_the_draw_protocol(small_population, method, epsilon):
    subject = small_population.subjects[5]
    cfg = _cfg(method=method, subject_id=5, target=8, rl=RLConfig(epsilon=epsilon))
    expected = reference_session(cfg, subject)
    table = 486 * 12 if method == "rl_random" else 0
    explore_tests = _stream(cfg, table + 2 * expected.iterations_used)[table::2]
    assert len(expected.presented_sequence) > 5 and min(explore_tests) < epsilon  # some iteration explored
    assert run_session(cfg, subject) == expected


@pytest.mark.parametrize("mutation_prob", [0.1, 1.0])
def test_ga_first_generation_follows_the_draw_protocol(small_population, mutation_prob):
    population = [ALL_MIN] + neighbors(ALL_MIN)  # a corner: 7 candidates, no trimming
    new_children, mutated = 0, False
    for subject in small_population.subjects:
        cfg = _cfg(method="ga", subject_id=subject.id, target=6, ga=GAConfig(mutation_prob=mutation_prob))
        if any(is_success(stress(subject, p), cfg.target) for p in population):
            continue
        expected = reference_session(cfg, subject)
        new_children += sum(p.iteration == 1 for p in expected.presented_sequence)
        u = _stream(cfg, 16)  # per pair: parent 1, parent 2, then (test, attribute, value) per child
        mutated |= any(u[b] < mutation_prob for b in (2, 5, 10, 13))
        assert run_session(cfg, subject) == expected
    assert new_children >= 5 and mutated


def test_slot_positions_do_not_depend_on_the_cap(small_population):
    # The stream is drawn in bounded chunks, so an enormous cap costs no
    # memory and a run that succeeds early reads the same uniforms.
    checked = set()
    for subject in small_population.subjects:
        for method in ("random", "greedy", "ga", "rl_random", "rl_zero"):
            for target in (1, 5, 9):
                cfg = _cfg(method=method, subject_id=subject.id, target=target, initial_kind="avg")
                result = run_session(cfg, subject)
                if not result.success or (method, result.iterations_used > 32) in checked:
                    continue
                checked.add((method, result.iterations_used > 32))
                huge = _cfg(method=method, subject_id=subject.id, target=target, initial_kind="avg",
                            iteration_cap=10**12)
                assert run_session(huge, subject) == result
    # every method, and every drawing method past its first chunk of 32 iterations
    assert {m for m, _ in checked} == {"random", "greedy", "ga", "rl_random", "rl_zero"}
    assert {m for m, long in checked if long} >= {"random", "rl_random", "rl_zero"}
