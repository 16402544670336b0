"""Scaled-Gaussian reward over stress, and the success predicate.

The reward is a Gaussian bump centred on the target stress, rescaled so the
target scores exactly 1 and the worst reachable stress extreme scores exactly
-1. Success is defined by rounding: a stress level succeeds when it rounds to
the integer target, i.e. lies in [target - 0.5, target + 0.5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

MIN_STRESS = 0.0
MAX_STRESS = 10.0
# the integer stress levels a session can aim for
TARGETS = range(1, 10)


@dataclass(frozen=True)
class RewardSpec:
    """Target stress plus the derived shape parameters of the reward curve.

    ``sigma`` is half the stress range; ``alpha`` is whichever stress extreme
    lies farther from the target (the reward there is exactly -1).
    """

    target: int
    sigma: float = field(init=False)
    alpha: float = field(init=False)

    def __post_init__(self) -> None:
        if self.target not in TARGETS:
            raise ValueError(f"target must be an integer in 1..9, got {self.target!r}")
        sigma = (MAX_STRESS - MIN_STRESS) / 2
        alpha = MAX_STRESS if self.target < sigma else MIN_STRESS
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "alpha", alpha)


def reward(x: float, spec: RewardSpec) -> float:
    """Reward in [-1, 1] for stress ``x``: 1 at the target, -1 at ``alpha``."""
    if not MIN_STRESS <= x <= MAX_STRESS:
        raise ValueError(f"stress {x!r} outside [{MIN_STRESS}, {MAX_STRESS}]")
    mu, sigma = float(spec.target), spec.sigma
    edge = math.exp(-0.5 * ((spec.alpha - mu) / sigma) ** 2)
    return (2 * math.exp(-0.5 * ((x - mu) / sigma) ** 2) - edge - 1) / (1 - edge)


def is_success(x: float, target: int) -> bool:
    """True iff stress ``x`` rounds to the integer ``target`` (half-open band)."""
    return target - 0.5 <= x < target + 0.5
