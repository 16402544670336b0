import pytest
from hypothesis import given
from hypothesis import strategies as st

from spideradapt.reward_model import RewardSpec, is_success, reward

# Frozen oracle: the reward expression evaluated independently at high
# precision for target 2 (alpha = 10) and stress 0.
REWARD_T2_AT_ZERO = 0.7870148868864666


def test_spec_derived_fields():
    for target in range(1, 10):
        spec = RewardSpec(target)
        assert spec.sigma == 5.0
        assert spec.alpha == (10.0 if target < 5 else 0.0)


def test_spec_rejects_bad_targets():
    for bad in (0, 10, -3):
        with pytest.raises(ValueError):
            RewardSpec(bad)


def test_reward_identities_all_targets():
    for target in range(1, 10):
        spec = RewardSpec(target)
        assert reward(float(target), spec) == pytest.approx(1.0, abs=1e-12)
        assert reward(spec.alpha, spec) == pytest.approx(-1.0, abs=1e-12)


def test_reward_frozen_value():
    assert reward(0.0, RewardSpec(2)) == pytest.approx(REWARD_T2_AT_ZERO, abs=1e-12)


def test_reward_boundary_example():
    assert reward(10.0, RewardSpec(1)) == pytest.approx(-1.0, abs=1e-12)


def test_reward_decreases_away_from_target():
    spec = RewardSpec(4)
    offsets = [0.1 * k for k in range(1, 41)]
    values = [reward(4.0 + d, spec) for d in offsets]
    assert all(a > b for a, b in zip(values, values[1:]))
    values = [reward(4.0 - d, spec) for d in offsets]
    assert all(a > b for a, b in zip(values, values[1:]))


@given(st.integers(1, 9), st.floats(0.0, 5.0))
def test_reward_symmetric_about_target(target, d):
    spec = RewardSpec(target)
    lo, hi = target - d, target + d
    if lo < 0.0 or hi > 10.0:
        return
    assert reward(hi, spec) == pytest.approx(reward(lo, spec), abs=1e-12)


def test_reward_bounds_checked():
    spec = RewardSpec(5)
    with pytest.raises(ValueError):
        reward(-0.001, spec)
    with pytest.raises(ValueError):
        reward(10.001, spec)


@given(st.integers(1, 9), st.floats(0.0, 10.0))
def test_reward_range_and_extreme(target, x):
    spec = RewardSpec(target)
    r = reward(x, spec)
    assert -1.0 - 1e-12 <= r <= 1.0 + 1e-12


def test_reward_minimum_sits_at_an_extreme():
    # The farther stress extreme scores exactly -1; target 5 is equidistant
    # from both extremes, so there both do.
    for target in range(1, 10):
        spec = RewardSpec(target)
        at_extremes = [reward(0.0, spec), reward(10.0, spec)]
        assert min(at_extremes) == pytest.approx(-1.0, abs=1e-12)
        expected_hits = 2 if target == 5 else 1
        assert sum(1 for v in at_extremes if abs(v + 1.0) < 1e-9) == expected_hits


def test_is_success_band():
    assert is_success(1.3289, 1)
    assert not is_success(4.5, 4)
    assert is_success(4.5, 5)  # half-open band
    assert not is_success(10.0, 9)
    assert is_success(8.5, 9)
    assert not is_success(9.5, 9)


@given(st.floats(0.0, 10.0))
def test_success_bands_partition(x):
    hits = [t for t in range(0, 11) if t - 0.5 <= x < t + 0.5]
    assert len(hits) == 1
    hits_1_9 = [t for t in range(1, 10) if is_success(x, t)]
    assert len(hits_1_9) <= 1


def test_success_band_contains_reward_maximum():
    spec = RewardSpec(6)
    inside = reward(6.4, spec)
    outside = reward(6.6, spec)
    assert inside > outside
    assert is_success(6.4, 6) and not is_success(6.6, 6)

