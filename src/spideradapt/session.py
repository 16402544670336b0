"""One adaptation session: a policy searches for a subject's target stress.

A session presents spiders to a subject until one lands in the target stress
band or an iteration cap is hit. Presentations are counted uniquely: showing
a configuration the subject has already seen is free, because its response is
already known. A run keeps one ordered record of the spiders it showed, each
with the iteration it was first shown at: Spiders Presented is that record's
length, and the trace is that record. The engine works on state indices and
``subjects.response_tables`` and leaves every decision to the functions in
``policies``. Each iteration presents one batch: a sequential move is a batch
of one, greedy's ranking is the batch of every neighbour, and a GA generation
is its offspring. Sequential batches stop at the first success; a GA batch is
presented whole and checked for success at its end. The GA has its own
iteration loop; random, greedy and RL share the other.

Every run owns an rng stream, ``run_seed_sequence`` of its full coordinates,
and an RL run builds its own fresh Q-table, so a run depends on nothing but
its coordinates and results are bit-reproducible regardless of scheduling.
The session draws every uniform and the policies draw none. The stream is
read by a fixed draw protocol: an ``rl_random`` table takes the first
5,832 uniforms, row-major over (state, action), and after that iteration
``i >= 1`` owns the next ``k`` uniforms, ``[k(i-1), k*i)``, with
``k = SLOTS_PER_ITERATION[method]``, whether the policy reads them or not.
Greedy's ``k`` is 0: ``_slots`` then yields empty tuples without touching
the generator, so greedy draws nothing and opens no stream. ``run_session``
seeds one run; ``run_sessions`` seeds many in one ``pcg64_states`` pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterator, Sequence

import numpy as np

from .domain import INITIAL_KINDS, INITIAL_STATES, N_ACTIONS, N_STATES, SpiderState, state_space
from .policies import (
    GAConfig,
    POLICY_NAMES,
    RL_METHODS,
    RLConfig,
    SLOTS_PER_ITERATION,
    ga_generation,
    ga_initial_population,
    ga_select,
    greedy_step,
    random_step,
    rl_select_action,
    rl_update,
)
from .reward_model import TARGETS
from .subjects import VirtualSubject, response_tables

@dataclass
class RunConfig:
    """Coordinates and parameters of a single adaptation run."""

    method: str
    subject_id: int
    target: int
    initial_kind: str
    repeat_index: int = 0
    iteration_cap: int = 100
    master_seed: int = 0
    rl: RLConfig = field(default_factory=RLConfig)
    ga: GAConfig = field(default_factory=GAConfig)
    rounded_reward: bool = False

    def validate(self) -> None:
        """Check every per-run range; the one place these checks live."""
        if self.method not in POLICY_NAMES:
            raise ValueError(f"unknown method {self.method!r}; expected one of {POLICY_NAMES}")
        if self.initial_kind not in INITIAL_STATES:
            raise ValueError(f"unknown initial kind {self.initial_kind!r}; expected one of {INITIAL_KINDS}")
        if self.target not in TARGETS:
            raise ValueError(f"target must be in 1..9, got {self.target}")
        if self.subject_id < 0:
            raise ValueError(f"subject_id must be non-negative, got {self.subject_id}")
        if self.repeat_index < 0:
            raise ValueError(f"repeat_index must be non-negative, got {self.repeat_index}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be non-negative, got {self.master_seed}")
        if self.iteration_cap < 0:
            raise ValueError(f"iteration_cap must be non-negative, got {self.iteration_cap}")
        self.rl.validate()
        self.ga.validate()


@dataclass(frozen=True)
class PresentedSpider:
    """One spider shown to the subject, with the measured response."""

    state: SpiderState
    stress: float
    reward: float
    iteration: int


@dataclass
class RunResult:
    success: bool
    spiders_presented: int
    iterations_used: int
    final_state: SpiderState
    presented_sequence: list[PresentedSpider]


def _coordinates(cfg: RunConfig) -> tuple[int, ...]:
    return (
        cfg.master_seed,
        POLICY_NAMES.index(cfg.method),
        cfg.subject_id,
        cfg.target,
        INITIAL_KINDS.index(cfg.initial_kind),
        cfg.repeat_index,
    )


def run_seed_sequence(cfg: RunConfig) -> np.random.SeedSequence:
    """Derive the per-run rng stream from exactly the run coordinates."""
    return np.random.SeedSequence(list(_coordinates(cfg)))


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx) and
# the PCG64 multiplier (numpy/random/src/pcg64/pcg64.h)
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _uint32_words(n: int) -> list[int]:
    """The little-endian 32-bit words SeedSequence splits an entropy integer into."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def pcg64_states(cfgs: Sequence[RunConfig]) -> list[dict]:
    """``np.random.PCG64(run_seed_sequence(cfg)).state`` for every config, in one pass.

    SeedSequence's hash runs over uint32 arrays with one element per run,
    and its 128-bit PCG64 seeding in Python ints; assigning a state to a
    generator that runs reuse is far cheaper than building one per run. The
    hash mixes rows by position, so every config must split into the same
    number of entropy words; configs that differ there raise ValueError.
    """
    rows = [[w for n in _coordinates(c) for w in _uint32_words(n)] for c in cfgs]
    if not rows:
        return []
    n_words = len(rows[0])
    if any(len(row) != n_words for row in rows):
        raise ValueError("configs whose coordinates split into different numbers of 32-bit words")
    entropy = np.array(rows, dtype=np.uint32).T
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ (value >> 16)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        return result ^ (result >> 16)

    # six coordinates give at least six words, so the pool never needs padding
    pool = [hashmix(entropy[i]) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, n_words):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[src]))
    # generate_state(4, np.uint64): eight words, paired little-endian
    hash_const = _INIT_B
    words = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        words.append((value ^ (value >> 16)).astype(np.uint64))
    seed_hi, seed_lo, inc_hi, inc_lo = [(words[j] | words[j + 1] << np.uint64(32)).tolist() for j in (0, 2, 4, 6)]
    states = []
    for a, b, c, d in zip(seed_hi, seed_lo, inc_hi, inc_lo):
        # pcg64_set_seed: the increment is 2 * inc + 1, and the state steps
        # once from 0, takes the seed added, and steps again
        inc = ((c << 64 | d) << 1 | 1) & _MASK128
        state = ((inc + (a << 64 | b)) * _PCG64_MULT + inc) & _MASK128
        states.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states


# Iterations whose uniforms one draw covers: bounded, so memory does not grow
# with the cap, and big enough that most runs draw once or twice.
_CHUNK_ITERATIONS = 32


def _slots(rng: np.random.Generator | None, k: int) -> Iterator[tuple[float, ...]]:
    """Each iteration's ``k`` uniforms, in order, from what ``rng`` has left.

    PCG64 doubles concatenate, so drawing in chunks yields the same values
    as one up-front draw. With ``k`` 0 every iteration gets an empty tuple
    and ``rng`` is never touched, so it may be None.
    """
    if not k:
        yield from repeat(())
    while True:
        yield from zip(*[iter(rng.random(k * _CHUNK_ITERATIONS).tolist())] * k)


def run_session(cfg: RunConfig, subject: VirtualSubject, record_sequence: bool = True) -> RunResult:
    """Execute one adaptation run and report what the subject was shown.

    Setting ``record_sequence`` to False skips building the presentation
    trace, which large grids use to save memory; the counts are unaffected.
    """
    cfg.validate()
    rng = np.random.default_rng(run_seed_sequence(cfg)) if SLOTS_PER_ITERATION[cfg.method] else None
    return _run(cfg, subject, record_sequence, rng)


def run_sessions(cfgs: Sequence[RunConfig], subject: VirtualSubject) -> Iterator[RunResult]:
    """``run_session(cfg, subject, False)`` for each config, all validated before the first run.

    One ``pcg64_states`` pass derives the streams, and each is assigned in
    turn to one reused generator, which a run that draws nothing ignores.
    """
    for cfg in cfgs:
        cfg.validate()
    rng = np.random.default_rng(0)  # every run sets its own state first
    for cfg, state in zip(cfgs, pcg64_states(cfgs)):
        rng.bit_generator.state = state
        yield _run(cfg, subject, False, rng)


def _run(cfg: RunConfig, subject: VirtualSubject, record_sequence: bool, rng: np.random.Generator | None) -> RunResult:
    """The session engine; ``rng`` sits at the start of the run's own stream, or is None if it draws nothing."""
    if subject.id != cfg.subject_id:
        raise ValueError(f"subject id {subject.id} does not match config subject_id {cfg.subject_id}")
    space = state_space()
    states = space.states
    stresses, rewards, successes = response_tables(subject, cfg.target, cfg.rounded_reward)
    method = cfg.method
    k = SLOTS_PER_ITERATION[method]
    # every state shown, in the order shown, mapped to the iteration it was first shown at
    shown: dict[int, int] = {}

    def present(batch: Sequence[int], iteration: int, stop_early: bool) -> int | None:
        """Show the unseen members of ``batch``; return the first success, or None."""
        hit = None
        for idx in batch:
            if idx in shown:
                continue
            shown[idx] = iteration
            if hit is None and successes[idx]:
                hit = idx
                if stop_early:
                    break
        return hit

    def result(success: bool, iterations: int, final_idx: int) -> RunResult:
        sequence = [PresentedSpider(states[i], stresses[i], rewards[i], it)
                    for i, it in shown.items()] if record_sequence else []
        return RunResult(success, len(shown), iterations, states[final_idx], sequence)

    start = space.index_of[INITIAL_STATES[cfg.initial_kind]]
    iterations = range(1, cfg.iteration_cap + 1)
    # the subject sees the initial spider, or the GA's seed population, first
    population = ga_initial_population(start, rewards, cfg.ga.population_size) if method == "ga" else (start,)
    hit = present(population, 0, False)
    if hit is not None:
        return result(True, 0, hit)

    if method == "ga":
        for gen, u in zip(iterations, _slots(rng, k)):
            offspring = ga_generation(population, rewards, cfg.ga, u)
            hit = present(offspring, gen, False)
            if hit is not None:
                return result(True, gen, hit)
            population = ga_select(population + offspring, rewards, cfg.ga.population_size)
        return result(False, cfg.iteration_cap, max(population, key=rewards.__getitem__))

    s = start
    greedy, learning = method == "greedy", method in RL_METHODS
    if learning:
        # a flat table, entry (s, a) at s * N_ACTIONS + a; an rl_random one
        # takes its uniforms before the first iteration's
        size = N_STATES * N_ACTIONS
        q = memoryview(rng.random(size) if method == "rl_random" else np.zeros(size))
        epsilon = cfg.rl.epsilon
        next_state = space.next_state
    for it, u in zip(iterations, _slots(rng, k)):
        if greedy:
            # every unseen neighbour is shown, and then greedy moves to the best
            hit = present(space.neighbor_ids[s], it, True)
            if hit is not None:
                return result(True, it, hit)
            t = greedy_step(s, rewards)
        elif learning:
            aid = rl_select_action(q, s, epsilon, u[0], u[1])
            t = next_state[s][aid]
        else:
            t = random_step(s, u[0])
        # random and RL show their one spider here, inline; greedy has shown t already
        if t not in shown:
            shown[t] = it
            if successes[t]:
                return result(True, it, t)
        if learning:
            rl_update(q, s, aid, rewards[t], t, cfg.rl)
        s = t
    return result(False, cfg.iteration_cap, s)
