"""One adaptation session: a policy searches for a subject's target stress.

A session presents spiders to a subject until one lands in the target stress
band or an iteration cap is hit. Presentations are counted uniquely: showing a
configuration the subject has already seen is free, because its response is
already known. Both engines below keep a traced run's record the same way: a
map from each spider shown, in the order shown, to the iteration it was first
shown at. The trace is that record, and Spiders Presented is its size. Each
engine works on state indices and ``subjects.response_tables`` and leaves
every decision to the functions in ``policies``. Each iteration presents one
batch: a sequential move is a batch of one, greedy's ranking is the batch of
every neighbour, and a GA generation is its offspring. Sequential batches stop
at the first success; a GA batch is presented whole and checked for success at
its end. Random, greedy and RL runs go one at a time through one iteration
loop. GA runs that share an iteration cap and GA settings advance together as
a block: each generation is one set of array operations over every active run,
a run leaves the block when it ends, and a single GA run is a block of one.

Every run owns an rng stream, ``run_seed_sequence`` of its full coordinates,
and an RL run builds its own fresh Q-table, so a run depends on nothing but
its coordinates and results are bit-reproducible regardless of scheduling.
The session draws every uniform and the policies draw none. The stream is
read by a fixed draw protocol: an ``rl_random`` table takes the first
5,832 uniforms, row-major over (state, action), and after that iteration
``i >= 1`` owns the next ``k`` uniforms, ``[k(i-1), k*i)``, with
``k = SLOTS_PER_ITERATION[method]``, whether the policy reads them or not.
Greedy's ``k`` is 0: ``_slots`` then yields empty tuples without touching
the generator, so greedy draws nothing and opens no stream. A GA block reads
each run's slots from that run's own stream, a bounded number of
generations at a time. ``run_session`` seeds one run from its sequence and
``run_sessions`` many in one ``pcg64_states`` pass; both check each config
and its subject before the first run, so the engines only run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterator, Sequence

import numpy as np

from .domain import INITIAL_KINDS, INITIAL_STATES, N_ACTIONS, N_STATES, SpiderState, state_space
from .policies import (
    GAConfig,
    PAD,
    POLICY_NAMES,
    RL_METHODS,
    RLConfig,
    SLOTS_PER_ITERATION,
    ga_generation,
    ga_seed_pools,
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
    A GA run is a block of one.
    """
    _check(cfg, subject)
    if cfg.method == "ga":
        return _run_ga([cfg], subject, record_sequence, [np.random.PCG64(run_seed_sequence(cfg)).state])[0]
    rng = np.random.default_rng(run_seed_sequence(cfg)) if SLOTS_PER_ITERATION[cfg.method] else None
    return _run(cfg, subject, record_sequence, rng)


def run_sessions(cfgs: Sequence[RunConfig], subject: VirtualSubject) -> Iterator[RunResult]:
    """``run_session(cfg, subject, False)`` for each config, all validated, subject included, before the first run.

    One ``pcg64_states`` pass derives the streams. The GA configs that share
    an iteration cap and GA settings run first, as one block each; every
    other config then runs in turn on one reused generator, assigned its
    stream, which a run that draws nothing ignores.
    """
    for cfg in cfgs:
        _check(cfg, subject)
    states = pcg64_states(cfgs)
    blocks: dict[tuple, list[int]] = {}
    for i, cfg in enumerate(cfgs):
        if cfg.method == "ga":
            blocks.setdefault((cfg.iteration_cap, cfg.ga.population_size, cfg.ga.mutation_prob), []).append(i)
    done = {}
    for block in blocks.values():
        done.update(zip(block, _run_ga([cfgs[i] for i in block], subject, False, [states[i] for i in block])))
    rng = np.random.default_rng(0)  # every run sets its own state first
    for i, (cfg, state) in enumerate(zip(cfgs, states)):
        if i in done:
            yield done.pop(i)
        else:
            rng.bit_generator.state = state
            yield _run(cfg, subject, False, rng)


def _check(cfg: RunConfig, subject: VirtualSubject) -> None:
    cfg.validate()
    if subject.id != cfg.subject_id:
        raise ValueError(f"subject id {subject.id} does not match config subject_id {cfg.subject_id}")


def _presented(states, stresses, rewards, shown: dict[int, int]) -> list[PresentedSpider]:
    return [PresentedSpider(states[i], stresses[i], rewards[i], it) for i, it in shown.items()]


def _run(cfg: RunConfig, subject: VirtualSubject, record_sequence: bool, rng: np.random.Generator | None) -> RunResult:
    """The engine of random, greedy and RL runs; ``rng`` sits at the start of the run's stream, or is None for greedy."""
    space = state_space()
    states = space.states
    stresses, rewards, successes = response_tables(subject, cfg.target, cfg.rounded_reward)
    method = cfg.method
    # every state shown, in the order shown, mapped to the iteration it was first shown at
    shown: dict[int, int] = {}

    def present(batch: Sequence[int], iteration: int) -> bool:
        """Show the unseen members of ``batch`` in order until the first success; return whether one was shown."""
        for idx in batch:
            if idx not in shown:
                shown[idx] = iteration
                if successes[idx]:
                    return True
        return False

    def result(success: bool, iterations: int) -> RunResult:
        sequence = _presented(states, stresses, rewards, shown) if record_sequence else []
        return RunResult(success, len(shown), iterations, sequence)

    # the subject sees the initial spider first
    s = space.index_of[INITIAL_STATES[cfg.initial_kind]]
    if present((s,), 0):
        return result(True, 0)
    greedy, learning = method == "greedy", method in RL_METHODS
    if learning:
        # a flat table, entry (s, a) at s * N_ACTIONS + a; an rl_random one
        # takes its uniforms before the first iteration's
        size = N_STATES * N_ACTIONS
        q = memoryview(rng.random(size) if method == "rl_random" else np.zeros(size))
        epsilon = cfg.rl.epsilon
        next_state = space.next_state
    for it, u in zip(range(1, cfg.iteration_cap + 1), _slots(rng, SLOTS_PER_ITERATION[method])):
        if greedy:
            # every unseen neighbour is shown until the first success, and then greedy moves to the best
            if present(space.neighbor_ids[s], it):
                return result(True, it)
            t = greedy_step(s, rewards)
        elif learning:
            aid = rl_select_action(q, s, epsilon, u[0], u[1])
            t = next_state[s][aid]
        else:
            t = random_step(s, u[0])
        # random and RL show their one spider here; greedy has shown t already
        if t not in shown:
            shown[t] = it
            if successes[t]:
                return result(True, it)
        if learning:
            rl_update(q, s, aid, rewards[t], t, cfg.rl)
        s = t
    return result(False, cfg.iteration_cap)


# Generations whose uniforms a GA block draws for each run at a time, into
# one buffer: bounded, so memory does not grow with the cap.
_GA_REFILL_GENERATIONS = 8


def _run_ga(cfgs: Sequence[RunConfig], subject: VirtualSubject, record_sequence: bool,
            streams: Sequence[dict]) -> list[RunResult]:
    """The GA engine: runs sharing an iteration cap and GA settings, as one block; ``streams`` are their PCG64 states.

    Each generation is one set of array operations over every active run:
    its offspring, their presentation, the success test and the survivors.
    A run that succeeds, or reaches the cap, leaves the arrays. A run's
    slots are drawn from its own stream ``_GA_REFILL_GENERATIONS``
    generations at a time: the stream resumes from its state advanced past
    the slots of every earlier generation, and PCG64 doubles concatenate,
    so each run reads exactly the uniforms it would read alone.
    """
    space = state_space()
    states = space.states
    ga, cap, k = cfgs[0].ga, cfgs[0].iteration_cap, SLOTS_PER_ITERATION["ga"]
    # one row per response table the block reads, each with an entry for PAD
    keys: dict[tuple[int, bool], int] = {}
    table_of = [keys.setdefault((cfg.target, cfg.rounded_reward), len(keys)) for cfg in cfgs]
    tables = [response_tables(subject, target, rounded) for target, rounded in keys]
    reward_of = np.array([table[1] + (0.0,) for table in tables]).ravel()
    success_of = np.array([table[2] + (False,) for table in tables]).ravel()
    base = np.array(table_of, dtype=np.int64)[:, None] * (N_STATES + 1)
    runs = np.arange(len(cfgs))  # the block position of each active run
    shown = np.zeros((len(cfgs), N_STATES + 1), dtype=bool)
    # as in ``_run``: each state a traced run shows, mapped to the iteration it was first shown at
    traces: list[dict[int, int]] = [{} for _ in cfgs]
    results: list[RunResult | None] = [None] * len(cfgs)

    def present(batch: np.ndarray, iteration: int) -> np.ndarray:
        """Show each active run its batch; return which members succeed."""
        if record_sequence:
            for r, row in zip(runs.tolist(), batch.tolist()):
                for idx in filter(PAD.__ne__, row):
                    traces[r].setdefault(idx, iteration)
        shown[runs[:, None], batch] = True
        return success_of[base + batch]

    def finish(done: np.ndarray, success: bool, iteration: int) -> None:
        """Record the result of each active run that ``done`` marks."""
        counts = shown[runs[done], :N_STATES].sum(axis=1).tolist()
        for r, count in zip(runs[done].tolist(), counts):
            stresses, table_rewards, _ = tables[table_of[r]]
            sequence = _presented(states, stresses, table_rewards, traces[r]) if record_sequence else []
            results[r] = RunResult(success, count, iteration, sequence)

    # the subject sees each run's seed population first
    seeds = ga_seed_pools([space.index_of[INITIAL_STATES[cfg.initial_kind]] for cfg in cfgs])
    population, rewards = ga_select(seeds, reward_of[base + seeds], ga.population_size)
    batch, gen = population, 0
    buffer = np.empty((len(cfgs), _GA_REFILL_GENERATIONS, k))
    rng = np.random.default_rng(0)  # every run sets its own state first
    while True:
        # a batch is shown whole and succeeds if a member is a success: no
        # member shown before is one, or its run would have ended
        hit = present(batch, gen).any(axis=1)
        if hit.any():
            finish(hit, True, gen)
            runs, base, population, rewards = runs[~hit], base[~hit], population[~hit], rewards[~hit]
        if gen == cap or not len(runs):
            break
        gen += 1
        slot = (gen - 1) % _GA_REFILL_GENERATIONS
        if not slot:
            for r in runs.tolist():
                rng.bit_generator.state = streams[r]
                rng.bit_generator.advance(k * (gen - 1))
                rng.random(out=buffer[r])
        batch = ga_generation(population, rewards, ga, buffer[runs, slot])
        population, rewards = ga_select(np.concatenate([population, batch], axis=1),
                                        np.concatenate([rewards, reward_of[base + batch]], axis=1),
                                        ga.population_size)
    finish(np.ones(len(runs), dtype=bool), False, cap)
    return results
