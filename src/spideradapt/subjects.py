"""Virtual subjects: synthetic, deterministic stress functions over spiders.

Each subject is a weight vector sampled from the per-attribute impact-factor
distributions, truncated at zero, plus a scale coefficient chosen so the
subject's stress spans exactly [0, 10] over the state space. Subjects stand
in for human participants: stress is a pure linear function of the attribute
values, with no noise and no drift over time.

This module also builds each subject's per-state response to a target, which
sessions and the brute-force oracles (success-set enumeration and BFS
shortest distance) all read; the tests and the CLI use the oracles to
sanity-check the adaptation methods.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from pathlib import Path

import numpy as np

from .domain import (
    MAX_VALUES,
    IMPACT_MEANS,
    IMPACT_STDS,
    N_ATTRIBUTES,
    SpiderState,
    enumerate_states,
    is_valid_state,
    state_space,
)
from .reward_model import MAX_STRESS, RewardSpec, is_success, reward


@dataclass(frozen=True)
class VirtualSubject:
    """A sampled weight vector plus the scale factor for its stress function."""

    id: int
    weights: tuple[float, ...]
    coefficient: float


@dataclass(frozen=True)
class SubjectPopulation:
    seed: int
    subjects: tuple[VirtualSubject, ...]


def _weighted(weights: tuple[float, ...], values: SpiderState) -> float:
    """Sum of ``weights[i] * values[i]`` in attribute order.

    Every stress value and the all-max sum behind the scale coefficient use
    this one summation, so they agree bit for bit.
    """
    total = 0.0
    for w, v in zip(weights, values):
        total += w * v
    return total


def scale_coefficient(weights: tuple[float, ...]) -> float:
    """Scale factor mapping the all-max state to stress 10.

    Nudged down by at most a couple of ulps so that the rounded product
    never exceeds 10; stress values must stay inside the reward bounds.
    """
    total = _weighted(weights, MAX_VALUES)
    c = MAX_STRESS / total
    while c * total > MAX_STRESS:
        c = math.nextafter(c, 0.0)
    return c


def sample_subject(subject_id: int, rng: np.random.Generator) -> VirtualSubject:
    """Draw one subject's weights from the impact-factor normals.

    Negative draws are rejected and redrawn, so weights are non-negative
    (the stress function must be monotone in every attribute).
    """
    weights = []
    for mean, std in zip(IMPACT_MEANS, IMPACT_STDS):
        w = rng.normal(mean, std)
        while w < 0.0:
            w = rng.normal(mean, std)
        weights.append(float(w))
    weights = tuple(weights)
    return VirtualSubject(id=subject_id, weights=weights, coefficient=scale_coefficient(weights))


def generate_population(n: int, seed: int) -> SubjectPopulation:
    """Sample ``n`` subjects deterministically from ``seed``.

    Subject ``i`` draws from its own stream derived from (seed, i), so the
    population is identical no matter how or in what order it is consumed.
    """
    if n < 1:
        raise ValueError(f"population size must be >= 1, got {n}")
    if seed < 0:
        raise ValueError(f"population seed must be non-negative, got {seed}")
    subjects = tuple(
        sample_subject(i, np.random.default_rng(np.random.SeedSequence([seed, i])))
        for i in range(n)
    )
    return SubjectPopulation(seed=seed, subjects=subjects)


def stress(subject: VirtualSubject, state: SpiderState) -> float:
    """Deterministic stress in [0, 10]: coefficient times the weighted sum."""
    if not is_valid_state(state):
        raise ValueError(f"invalid spider state: {state!r}")
    return subject.coefficient * _weighted(subject.weights, state)


@lru_cache(maxsize=4096)
def stress_table(subject: VirtualSubject) -> tuple[float, ...]:
    """Stress of every state, indexed like ``enumerate_states()``.

    The enumerated states are valid by construction, so ``stress()``'s
    per-state check is skipped.
    """
    c, weights = subject.coefficient, subject.weights
    return tuple(c * _weighted(weights, s) for s in enumerate_states())


@lru_cache(maxsize=4096)
def response_tables(
    subject: VirtualSubject, target: int, rounded: bool
) -> tuple[tuple[float, ...], tuple[float, ...], tuple[bool, ...]]:
    """Per-state (stress, reward, success) lookups for one subject and target.

    The one place a subject's response is built, from the scalar reward and
    success functions, so sessions and the oracles see identical values. A
    ``rounded`` table rewards each stress rounded half up; its stress and
    success stay raw. ``rounded`` has no default, so a table has one cache
    key whoever asks for it.
    """
    spec = RewardSpec(target)
    stresses = stress_table(subject)
    rewards = tuple(reward(float(math.floor(x + 0.5)) if rounded else x, spec) for x in stresses)
    successes = tuple(is_success(x, target) for x in stresses)
    return stresses, rewards, successes


def success_states(subject: VirtualSubject, target: int) -> set[SpiderState]:
    """All states whose stress rounds to ``target`` (brute-force enumeration)."""
    return set(compress(enumerate_states(), response_tables(subject, target, False)[2]))


def bfs_distance(subject: VirtualSubject, initial: SpiderState, target: int) -> int | None:
    """Length of the shortest one-step path from ``initial`` to a success state.

    Returns None when the subject has no success state for this target. Used
    as a lower-bound oracle: no adaptation method can present fewer than
    distance + 1 distinct spiders.
    """
    if not is_valid_state(initial):
        raise ValueError(f"invalid spider state: {initial!r}")
    space = state_space()
    ok = response_tables(subject, target, False)[2]
    if not any(ok):
        return None
    start = space.index_of[initial]
    if ok[start]:
        return 0
    seen = bytearray(space.n_states)
    seen[start] = 1
    queue = deque([(start, 0)])
    while queue:
        idx, dist = queue.popleft()
        for nb in space.neighbor_ids[idx]:
            if seen[nb]:
                continue
            if ok[nb]:
                return dist + 1
            seen[nb] = 1
            queue.append((nb, dist + 1))
    return None  # unreachable: the move graph is connected


def save_population(population: SubjectPopulation, path: str | Path) -> bytes:
    """Write the subjects file and return its bytes (for digest printing)."""
    payload = {
        "seed": population.seed,
        "subjects": [
            {"id": s.id, "weights": list(s.weights), "coefficient": s.coefficient}
            for s in population.subjects
        ],
    }
    data = json.dumps(payload, indent=2).encode() + b"\n"
    Path(path).write_bytes(data)
    return data


class SubjectFileError(ValueError):
    """Raised when a subjects file is malformed or internally inconsistent."""


def of_type(value, kinds: tuple[type, ...], name: str):
    """``value`` if its JSON type is one of ``kinds``; a JSON boolean passes only where ``bool`` is one of them.

    ``bool`` subclasses ``int``, so booleans and numbers are told apart explicitly.
    """
    if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
        raise TypeError(f"{name} must be {' or '.join(k.__name__ for k in kinds)}, got {json.dumps(value)}")
    return value


def load_population(path: str | Path) -> SubjectPopulation:
    """Read a subjects file back; validates JSON types, ids and coefficient consistency.

    The seed and ids are JSON integers, the coefficient a JSON number and the
    weights a JSON list of numbers; nothing is coerced.
    """
    try:
        text = Path(path).read_text(encoding="utf-8-sig")  # a leading BOM is not data
        payload = of_type(json.loads(text), (dict,), "top level")
        seed = of_type(payload["seed"], (int,), "seed")
        entries = [of_type(e, (dict,), "subject") for e in of_type(payload["subjects"], (list,), "subjects")]
        subjects = tuple(
            VirtualSubject(
                id=of_type(e["id"], (int,), "id"),
                weights=tuple(
                    float(of_type(w, (int, float), "weight")) for w in of_type(e["weights"], (list,), "weights")
                ),
                coefficient=float(of_type(e["coefficient"], (int, float), "coefficient")),
            )
            for e in entries
        )
        if not subjects:
            raise ValueError("subjects is an empty list")
        for i, s in enumerate(subjects):
            if s.id != i:
                raise ValueError(f"subject ids must be 0..n-1, found {s.id} at position {i}")
            # NaN makes every comparison false, so finiteness is checked explicitly
            if len(s.weights) != N_ATTRIBUTES or not all(math.isfinite(w) and w >= 0 for w in s.weights):
                raise ValueError(f"subject {s.id} has invalid weights")
            # the all-max state's stress, bit for bit, is the subject's largest; rewards
            # reject any stress above 10, and a NaN fails the comparison
            top = s.coefficient * _weighted(s.weights, MAX_VALUES)
            if not MAX_STRESS - 1e-6 <= top <= MAX_STRESS:
                raise ValueError(f"subject {s.id} coefficient scales the largest stress to {top!r}, not 10")
    # ValueError: undecodable text or JSON, or a bad value; KeyError: a missing key;
    # OverflowError: an integer too big for a float
    except (OSError, RecursionError, KeyError, TypeError, ValueError, OverflowError) as exc:
        cause = f"missing key {exc}" if isinstance(exc, KeyError) else exc  # a KeyError's text is only the key
        raise SubjectFileError(f"subjects file {path}: {cause}") from exc
    return SubjectPopulation(seed=seed, subjects=subjects)
