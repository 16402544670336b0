import ast
import codecs
import copy
import csv
import dataclasses
import functools
import gc
import io
import itertools
import math
import pathlib
import pickle
import random
import re
import statistics
import sys
import tracemalloc

import pytest
import scipy.stats
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import spideradapt.grid
import spideradapt.session
import spideradapt.subjects
from spideradapt.grid import (
    GridConfig,
    RESULT_COLUMNS,
    ResultsFileError,
    RunRecord,
    _file_lines,
    _record_key,
    _stdev,
    _student_t_sf,
    category_of,
    comparisons_to_csv,
    file_column_blocks,
    mark_significance,
    paired_ttest,
    results_from_csv,
    results_to_csv,
    run_grid,
    summarize,
    summarize_columns,
    summary_to_csv,
    summary_to_markdown,
)
from spideradapt.policies import GAConfig, POLICY_NAMES, RLConfig
from spideradapt.session import INITIAL_KINDS, run_session, run_sessions
from spideradapt.subjects import SubjectPopulation
from tests.reference import reference_grid, reference_report, reference_results_from_csv

# Frozen oracle for differences (1, 2, 3, 4, 5), computed independently.
TTEST_T = 4.242640687119285
TTEST_P = 0.013235599563682695


def _rec(method, spiders, subject_id, target=1, success=True, initial="min", repeat=0):
    return RunRecord(
        method=method,
        initial_kind=initial,
        target=target,
        subject_id=subject_id,
        repeat=repeat,
        success=success,
        spiders_presented=spiders,
        iterations_used=0,
    )


def test_category_mapping():
    assert [category_of(t) for t in range(1, 10)] == (
        ["low"] * 3 + ["moderate"] * 3 + ["high"] * 3
    )
    with pytest.raises(ValueError):
        category_of(0)


def test_run_grid_counts(small_population):
    one = SubjectPopulation(small_population.seed, small_population.subjects[:1])
    cfg = GridConfig(population=one, master_seed=1, methods=("random",),
                     initial_kinds=("min",), repeats=1)
    records = run_grid(cfg)
    assert len(records) == 9  # one per target
    cfg = GridConfig(population=one, master_seed=1, methods=("random", "greedy"), repeats=2)
    records = run_grid(cfg)
    assert len(records) == 2 * 3 * 9 * 2


def test_run_grid_is_deterministic(small_population):
    cfg = GridConfig(population=small_population, master_seed=5,
                     methods=("random", "rl_zero"), repeats=1)
    a = run_grid(cfg)
    b = run_grid(cfg)
    assert a == b


def test_run_grid_worker_parity(small_population):
    base = dict(population=small_population, master_seed=5,
                methods=("random", "ga"), repeats=1)
    serial = run_grid(GridConfig(**base, workers=1))
    parallel = run_grid(GridConfig(**base, workers=2))
    assert results_to_csv(serial) == results_to_csv(parallel)


def test_run_grid_validation(small_population):
    # every bad setting raises before any cell runs, so progress never fires
    seen = []
    bad = [
        {"methods": ("mcts",)},
        {"repeats": 0},
        {"targets": (0,)},
        {"initial_kinds": ("median",)},
        {"workers": 0},
        {"methods": ()},
        {"targets": (1, 1)},
    ]
    for overrides in bad:
        cfg = GridConfig(population=small_population, master_seed=1, **overrides)
        with pytest.raises(ValueError):
            run_grid(cfg, progress=lambda done, total: seen.append(done))
    # a negative id has no stream, and a repeated one gives two runs the same coordinates
    first = small_population.subjects[0]
    for ids, bad_ids in (((0, -1), [-1]), ((0, 1, 1), [1])):
        subjects = tuple(dataclasses.replace(first, id=i) for i in ids)
        cfg = GridConfig(population=SubjectPopulation(small_population.seed, subjects), master_seed=1,
                         methods=("random",), initial_kinds=("min",), targets=(1,), repeats=1)
        message = f"subject ids must be non-negative and distinct, got {bad_ids}"
        with pytest.raises(ValueError, match=re.escape(message)):
            run_grid(cfg, progress=lambda done, total: seen.append(done))
    # no subjects means no runs, and so no pool to size, at every worker count
    for workers in (1, 2):
        cfg = GridConfig(population=SubjectPopulation(small_population.seed, ()), master_seed=1, workers=workers)
        with pytest.raises(ValueError, match="grid population must be non-empty, got no subjects"):
            run_grid(cfg, progress=lambda done, total: seen.append(done))
    assert seen == []


def test_run_grid_progress_callback(small_population):
    # progress counts runs after each unit, one subject: here 2 methods x
    # 1 initial state x 2 targets x 3 repeats
    two = SubjectPopulation(small_population.seed, small_population.subjects[:2])
    seen = []
    cfg = GridConfig(population=two, master_seed=1, methods=("random", "greedy"),
                     initial_kinds=("min",), targets=(1, 2), repeats=3)
    run_grid(cfg, progress=lambda done, total: seen.append((done, total)))
    assert seen == [(12, 24), (24, 24)]


def test_run_grid_builds_each_table_once_at_any_cache_size(small_population, monkeypatch):
    # a unit is one subject, and its runs other than the GA's go target by
    # target, so one-entry caches still build every table only once
    responses = functools.lru_cache(maxsize=1)(spideradapt.subjects.response_tables.__wrapped__)
    stresses = functools.lru_cache(maxsize=1)(spideradapt.subjects.stress_table.__wrapped__)
    monkeypatch.setattr(spideradapt.session, "response_tables", responses)
    monkeypatch.setattr(spideradapt.subjects, "stress_table", stresses)
    three = SubjectPopulation(small_population.seed, small_population.subjects[:3])
    run_grid(GridConfig(population=three, master_seed=1, methods=("greedy",),
                        initial_kinds=("min", "max"), repeats=1))
    assert (responses.cache_info().misses, responses.cache_info().hits) == (27, 27)
    assert stresses.cache_info().misses == 3


def test_run_grid_with_ga_builds_each_table_once_with_a_cache_per_target(small_population, monkeypatch):
    # a unit's GA block reads every target's table at once, so the caches
    # need an entry per target, and no more
    targets = (1, 4, 9)
    responses = functools.lru_cache(maxsize=len(targets))(spideradapt.subjects.response_tables.__wrapped__)
    stresses = functools.lru_cache(maxsize=1)(spideradapt.subjects.stress_table.__wrapped__)
    monkeypatch.setattr(spideradapt.session, "response_tables", responses)
    monkeypatch.setattr(spideradapt.subjects, "stress_table", stresses)
    three = SubjectPopulation(small_population.seed, small_population.subjects[:3])
    run_grid(GridConfig(population=three, master_seed=1, methods=("ga", "greedy", "random"),
                        initial_kinds=("min", "max"), targets=targets, repeats=2, iteration_cap=20))
    assert responses.cache_info().misses == 3 * len(targets)
    assert stresses.cache_info().misses == 3


def test_run_grid_runs_greedy_once_per_initial_state(small_population, monkeypatch):
    # greedy draws nothing and never reads its repeat index, so the grid runs
    # it once per (subject, target, initial state) and copies the outcome
    calls = []

    def counting(cfgs, subject):
        calls.extend(cfg.method for cfg in cfgs)
        return run_sessions(cfgs, subject)

    monkeypatch.setattr(spideradapt.grid, "run_sessions", counting)
    two = SubjectPopulation(small_population.seed, small_population.subjects[:2])
    # a master seed above 2**32 takes the multi-word seeding path
    cfg = GridConfig(population=two, master_seed=2**40 + 5, targets=(2, 6),
                     initial_kinds=("min", "avg"), repeats=3, iteration_cap=40)
    records = run_grid(cfg)
    assert calls.count("greedy") == 2 * 2 * 2
    assert calls.count("random") == 2 * 2 * 2 * 3
    assert len(records) == 5 * 2 * 2 * 2 * 3
    # every record, greedy's copies included, is what a direct run of its coordinates gives
    for r in records:
        result = run_session(cfg.run_config(r.method, r.initial_kind, r.target, r.subject_id, r.repeat),
                             two.subjects[r.subject_id], record_sequence=False)
        assert (r.success, r.spiders_presented, r.iterations_used) == (
            result.success, result.spiders_presented, result.iterations_used)


def _subset(values, n):
    """A non-empty subset of ``values`` with at most ``n`` members, in drawn order."""
    return st.lists(st.sampled_from(values), min_size=1, max_size=n, unique=True).map(tuple)


@st.composite
def _small_grids(draw, population):
    """A grid of one or two subjects, with its axes drawn as subsets in any order and its settings drawn."""
    return GridConfig(
        population=SubjectPopulation(population.seed, draw(_subset(population.subjects, 2))),
        master_seed=draw(st.integers(0, 2**40)),
        methods=draw(_subset(POLICY_NAMES, 5)),
        initial_kinds=draw(_subset(INITIAL_KINDS, 3)),
        targets=draw(_subset(range(1, 10), 3)),
        repeats=draw(st.integers(1, 3)),
        iteration_cap=draw(st.integers(0, 40)),
        rl=draw(st.builds(RLConfig, epsilon=st.floats(0.0, 1.0),
                          learning_rate=st.floats(0.0, 1.0, exclude_min=True), discount=st.floats(0.0, 1.0))),
        ga=draw(st.builds(GAConfig, population_size=st.integers(2, 12), mutation_prob=st.floats(0.0, 1.0))),
        # a pool only now and then: each one costs a fork per worker
        workers=draw(st.sampled_from((1,) * 7 + (2,))),
    )


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_run_grid_equals_the_reference_grid(small_population, data):
    # every run of every repeat, greedy's included, rebuilt by reference_session, in canonical order
    cfg = data.draw(_small_grids(small_population))
    assert run_grid(cfg) == reference_grid(cfg)


def test_grid_leaves_every_runs_stream_to_the_session_module():
    # session derives and assigns the streams; grid only hands it a unit's configs
    tree = ast.parse(pathlib.Path(spideradapt.grid.__file__).read_text(encoding="utf-8"))
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add(node.module or "")
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    assert not [m for m in modules if m.split(".")[0] == "numpy"]
    assert not names & {"pcg64_states", "default_rng", "bit_generator"}


def test_run_grid_asks_for_no_more_workers_than_units(small_population, monkeypatch):
    asked = []

    class SerialPool:
        """Records the worker count it is asked for and maps in this process."""

        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(spideradapt.grid, "ProcessPoolExecutor", SerialPool)
    two = SubjectPopulation(small_population.seed, small_population.subjects[:2])
    cfg = GridConfig(population=two, master_seed=1, methods=("random",),
                     initial_kinds=("min",), targets=(1, 2), repeats=1)
    records = run_grid(dataclasses.replace(cfg, workers=64))
    assert asked == [2]
    assert records == run_grid(cfg)  # the serial branch asks for no pool at all
    assert asked == [2]


def test_a_grid_of_one_subject_runs_in_process(small_population, monkeypatch):
    # one subject is one unit: a pool would only fork a worker for it
    def no_pool(max_workers):
        raise AssertionError(f"asked for a pool of {max_workers}")

    one = SubjectPopulation(small_population.seed, small_population.subjects[:1])
    cfg = GridConfig(population=one, master_seed=1, targets=(1, 2), repeats=2, iteration_cap=30)
    serial = run_grid(cfg)
    monkeypatch.setattr(spideradapt.grid, "ProcessPoolExecutor", no_pool)
    assert run_grid(dataclasses.replace(cfg, workers=4)) == serial


def test_run_grid_units_do_not_carry_the_population(small_population, monkeypatch):
    # every unit is pickled for the pool; with the whole population in it, the
    # pickling would grow with subjects squared
    sizes = []

    class PicklingPool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            units = [pickle.loads(pickle.dumps(unit)) for unit in items]
            sizes.append(max(len(pickle.dumps(unit)) for unit in units))
            # and each unit's records are pickled back, as a worker's are
            return (pickle.loads(pickle.dumps(fn(unit))) for unit in units)

    monkeypatch.setattr(spideradapt.grid, "ProcessPoolExecutor", PicklingPool)
    for n in (2, 10):  # a grid of one subject asks for no pool
        population = SubjectPopulation(small_population.seed, small_population.subjects[:n])
        cfg = GridConfig(population=population, master_seed=1, methods=("greedy",),
                         initial_kinds=("min",), targets=(1,), repeats=1)
        assert run_grid(dataclasses.replace(cfg, workers=2)) == run_grid(cfg)
    assert sizes[0] == sizes[1]


def test_record_has_slots_and_pickles_as_its_values():
    r = _rec("rl_zero", 7, 3, target=9, success=False, initial="max", repeat=4)
    values = tuple(getattr(r, name) for name in RESULT_COLUMNS)
    assert not hasattr(r, "__dict__")
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        # through the constructor, not the slots' generated state methods
        assert r.__reduce_ex__(protocol) == (RunRecord, values)
        back = pickle.loads(pickle.dumps(r, protocol))
        assert type(back) is RunRecord and back == r and hash(back) == hash(r)
    assert dataclasses.replace(r, repeat=5) == RunRecord(*values[:4], 5, *values[5:])
    assert copy.copy(r) == r
    assert not any(name.encode() in pickle.dumps(r) for name in RESULT_COLUMNS)


def test_summarize_basic_arithmetic():
    records = [_rec("random", 3, 0), _rec("random", 5, 1)]
    (cell,) = summarize(records)
    assert cell.mean_presented == pytest.approx(4.0)
    assert cell.std_presented == pytest.approx(math.sqrt(2.0), abs=1e-9)
    assert cell.accuracy_percent == 100.0
    assert cell.n_success == 2
    assert cell.considered


def test_summarize_accuracy_filter():
    records = [_rec("random", 3, i, success=(i < 7)) for i in range(10)]
    (cell,) = summarize(records)
    assert cell.accuracy_percent == pytest.approx(70.0)
    assert not cell.considered
    records = [_rec("random", 3, i, success=(i < 8)) for i in range(10)]
    (cell,) = summarize(records)
    assert cell.accuracy_percent == pytest.approx(80.0)
    assert cell.considered


def test_summarize_empty_cell():
    records = [_rec("random", 7, 0, success=False), _rec("random", 9, 1, success=False)]
    (cell,) = summarize(records)
    assert cell.accuracy_percent == 0.0
    assert cell.mean_presented is None
    assert cell.std_presented is None
    assert cell.n_success == 0
    assert not cell.considered


def test_summarize_pools_across_category_targets():
    records = [
        _rec("random", 2, 0, target=1),
        _rec("random", 4, 0, target=2),
        _rec("random", 9, 0, target=3),
    ]
    (cell,) = summarize(records)
    assert cell.stress_category == "low"
    assert cell.mean_presented == pytest.approx(5.0)
    # every run weighs the same, not every target: target 1's two runs count twice
    records = [
        _rec("random", 2, 0, target=1),
        _rec("random", 4, 1, target=1),
        _rec("random", 9, 0, target=2),
    ]
    (cell,) = summarize(records)
    assert cell.mean_presented == pytest.approx(5.0)
    assert cell.std_presented == pytest.approx(math.sqrt(13.0), abs=1e-9)


def test_summarize_invariant_to_record_order(small_population):
    import random as pyrandom

    cfg = GridConfig(population=small_population, master_seed=8,
                     methods=("random", "greedy"), repeats=1)
    records = run_grid(cfg)
    shuffled = records[:]
    pyrandom.Random(0).shuffle(shuffled)
    assert summarize(shuffled) == summarize(records)


@pytest.mark.skipif(sys.version_info < (3, 11), reason="statistics.stdev rounds correctly from Python 3.11 on")
@settings(max_examples=500, deadline=None)
@given(st.one_of(
    st.lists(st.integers(1, 486), min_size=2, max_size=400),  # a cell's spider counts
    st.lists(st.integers(1, 10**15), min_size=2, max_size=400),
    st.lists(st.sampled_from([1, 2, 10**15]), min_size=2, max_size=400),  # few distinct values, zero variance too
))
def test_exact_stdev_is_statistics_stdev_bit_for_bit(counts):
    assert _stdev(counts).hex() == statistics.stdev(counts).hex()


def test_paired_ttest_frozen_oracle():
    a = [2.0, 4.0, 6.0, 8.0, 10.0]
    b = [1.0, 2.0, 3.0, 4.0, 5.0]  # differences 1..5
    t, p = paired_ttest(a, b)
    assert t == pytest.approx(TTEST_T, abs=1e-3)
    assert p == pytest.approx(TTEST_P, abs=1e-3)


def test_paired_ttest_identical_samples():
    assert paired_ttest([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == (0.0, 1.0)


def test_paired_ttest_errors():
    with pytest.raises(ValueError):
        paired_ttest([1.0], [2.0])
    with pytest.raises(ValueError):
        paired_ttest([2.0, 3.0, 4.0], [1.0, 2.0, 3.0])  # constant nonzero diffs
    with pytest.raises(ValueError):
        paired_ttest([1.0, 2.0], [1.0])


def test_paired_ttest_antisymmetric():
    a = [5.0, 7.0, 9.0, 4.0]
    b = [1.0, 2.0, 3.0, 8.0]
    t_ab, p_ab = paired_ttest(a, b)
    t_ba, p_ba = paired_ttest(b, a)
    assert t_ab == pytest.approx(-t_ba, abs=1e-12)
    assert p_ab == pytest.approx(p_ba, abs=1e-12)


def test_t_sf_matches_reference_to_1e9():
    for t in (0.0, 0.5, 1.0, 2.0, 4.242640687119285, 7.5, -1.3):
        for df in (1, 2, 4, 9, 30, 99):
            mine = _student_t_sf(t, df)
            ref = float(scipy.stats.t.sf(t, df))
            assert mine == pytest.approx(ref, abs=1e-9)


def test_ttest_agrees_with_scipy_reference():
    a = [2.0, 4.0, 6.0, 8.0, 10.0]
    b = [1.0, 2.0, 3.0, 4.0, 5.0]
    t, p = paired_ttest(a, b)
    ref = scipy.stats.ttest_rel(a, b)
    assert t == pytest.approx(float(ref.statistic), abs=1e-9)
    assert p == pytest.approx(float(ref.pvalue), abs=1e-9)


def _significance_fixture():
    """One min/low cell: rl_zero best, random statistically tied, ga worse."""
    records = []
    rl = [3, 4, 3, 4, 3, 4, 3, 4, 3, 3]  # mean 3.4
    rnd = [4, 3, 4, 3, 4, 3, 4, 3, 4, 3]  # mean 3.5, alternating differences
    ga = [8, 10, 9, 11, 12, 9, 10, 13, 9, 11]
    for sid in range(10):
        records.append(_rec("rl_zero", rl[sid], sid))
        records.append(_rec("random", rnd[sid], sid))
        records.append(_rec("ga", ga[sid], sid))
    return records


def test_mark_significance_star_case():
    records = _significance_fixture()
    (comparison,) = mark_significance(records)
    assert comparison.best_method == "rl_zero"
    assert comparison.markers["rl_zero"] == "*"
    assert comparison.markers["random"] == "*"
    assert "ga" not in comparison.markers
    assert comparison.p_values["ga"] < 0.05
    assert comparison.p_values["random"] > 0.05


def test_mark_significance_double_star_case():
    records = [r for r in _significance_fixture() if r.method != "random"]
    (comparison,) = mark_significance(records)
    assert comparison.best_method == "rl_zero"
    assert comparison.markers == {"rl_zero": "**"}


def test_mark_significance_ignores_low_accuracy_methods():
    records = _significance_fixture()
    # greedy has the lowest mean but only 50% accuracy, so it cannot be best
    for sid in range(10):
        records.append(_rec("greedy", 1, sid, success=(sid < 5)))
    (comparison,) = mark_significance(records)
    assert comparison.best_method == "rl_zero"
    assert "greedy" not in comparison.markers


def test_mark_significance_single_method_no_markers():
    records = [_rec("rl_zero", 3, sid) for sid in range(5)]
    (comparison,) = mark_significance(records)
    assert comparison.best_method == "rl_zero"
    assert comparison.markers == {}
    assert comparison.p_values == {}


def test_mark_significance_skips_unconsidered_cells():
    records = [_rec("rl_zero", 3, sid, success=False) for sid in range(5)]
    assert mark_significance(records) == []


@st.composite
def _report_records(draw):
    """A shuffled, possibly incomplete grid with few subjects and small counts.

    Each method adds its own offset to counts of 1 or 2, so some pairs
    differ consistently and some tie; up to five subjects give constant
    nonzero differences and cells with fewer than two shared subjects; a
    failure in five runs puts some cells below the accuracy threshold.
    """
    methods = draw(st.lists(st.sampled_from(POLICY_NAMES), min_size=1, max_size=4, unique=True))
    offset = {m: draw(st.integers(0, 2)) for m in methods}
    axes = (
        methods,
        draw(st.lists(st.sampled_from(INITIAL_KINDS), min_size=1, max_size=2, unique=True)),
        draw(st.lists(st.integers(1, 9), min_size=1, max_size=3, unique=True)),
        range(draw(st.integers(1, 5))),
        range(draw(st.integers(1, 2))),
    )
    outcome = st.tuples(st.sampled_from(["win", "win", "win", "fail", "missing"]), st.integers(1, 2))
    records = []
    for coords in itertools.product(*axes):
        kind, count = draw(outcome)
        if kind != "missing":
            records.append(RunRecord(*coords, kind == "win", offset[coords[0]] + count, 0))
    return draw(st.permutations(records))


@settings(max_examples=300, deadline=None)
@given(_report_records(), st.sampled_from([1, 2, 3, 7, 256]))
def test_report_matches_reference(records, block_rows):
    # up to 240 runs are drawn, so small blocks split cells and subjects across blocks
    summaries, comparisons = reference_report(records)
    # best methods and markers exactly; p-values to the last bits the two t-tests differ in
    want = [(c.initial_kind, c.stress_category, c.best_method, c.markers) for c in comparisons]
    p_values = [pytest.approx(c.p_values, rel=1e-9) for c in comparisons]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spideradapt.grid, "_BLOCK_ROWS", block_rows)
        assert summarize(records) == summaries
        for got in (mark_significance(records), mark_significance(records, summarize(records))):
            assert [(c.initial_kind, c.stress_category, c.best_method, c.markers) for c in got] == want
            assert [c.p_values for c in got] == p_values
    assert all("subject_means" not in repr(s) for s in summaries)


@st.composite
def _cells_with_few_successes(draw):
    """A complete grid in canonical order whose cells may cap their successes at none or one.

    Each (initial, category, method) cell draws a cap of 0, 1 or none, and
    one subject never succeeds, so some cells pool no count or a single one
    and some subjects have no mean.
    """
    axes = (
        sorted(draw(st.lists(st.sampled_from(POLICY_NAMES), min_size=1, max_size=3, unique=True)),
               key=POLICY_NAMES.index),
        sorted(draw(st.lists(st.sampled_from(INITIAL_KINDS), min_size=1, max_size=2, unique=True)),
               key=INITIAL_KINDS.index),
        sorted(draw(st.lists(st.integers(1, 9), min_size=1, max_size=4, unique=True))),
        range(draw(st.integers(1, 4))),
        range(draw(st.integers(1, 3))),
    )
    loser = draw(st.sampled_from(axes[3]))
    caps = {}
    records = []
    for method, initial_kind, target, subject_id, repeat in itertools.product(*axes):
        cell = (initial_kind, category_of(target), method)
        if cell not in caps:
            caps[cell] = draw(st.sampled_from([0, 1, None]))
        cap = caps[cell]
        success = subject_id != loser and cap != 0 and draw(st.booleans())
        if success and cap is not None:
            caps[cell] = cap - 1
        records.append(RunRecord(method, initial_kind, target, subject_id, repeat, success,
                                 draw(st.integers(1, 486)), draw(st.integers(0, 150))))
    return loser, records


@settings(max_examples=300, deadline=None)
@given(_cells_with_few_successes(), st.randoms(use_true_random=False))
def test_summarize_is_the_same_in_any_record_order(drawn, random):
    loser, records = drawn
    assert records == sorted(records, key=_record_key)
    shuffled = records[:]
    random.shuffle(shuffled)
    summaries = summarize(records)
    assert summarize(shuffled) == summaries
    assert summaries == reference_report(records)[0]
    for s in summaries:
        assert (s.mean_presented is None) is (s.n_success == 0)
        assert (s.std_presented is None) is (s.n_success < 2)
        assert loser not in s.subject_means


def test_results_csv_round_trip(small_population):
    cfg = GridConfig(population=small_population, master_seed=2,
                     methods=("random",), repeats=1)
    records = run_grid(cfg)
    text = results_to_csv(records)
    assert results_from_csv(text) == records
    header = text.splitlines()[0]
    assert header == "method,initial_kind,target,subject_id,repeat,success,spiders_presented,iterations_used"


def test_results_from_csv_rejects_bad_input():
    with pytest.raises(ResultsFileError):
        results_from_csv("method,initial_kind\nrandom,min\n")
    with pytest.raises(ResultsFileError):
        results_from_csv(
            "method,initial_kind,target,subject_id,repeat,success,spiders_presented,iterations_used\n"
        )
    with pytest.raises(ResultsFileError):
        results_from_csv(
            "method,initial_kind,target,subject_id,repeat,success,spiders_presented,iterations_used\n"
            "random,min,1,0,0,maybe,3,1\n"
        )
    header = "method,initial_kind,target,subject_id,repeat,success,spiders_presented,iterations_used\n"
    good = "random,min,1,0,0,true,3,1\n"
    assert len(results_from_csv(header + good + "\n")) == 1  # blank lines are skipped
    for text in ("", "\ufeff"):  # no line at all, so no header either
        with pytest.raises(ResultsFileError, match="^results CSV contains no runs$"):
            results_from_csv(text)
    with pytest.raises(ResultsFileError, match="^results CSV contains no runs$"):
        reference_results_from_csv("")
    # a quote that never closes is refused at the last line, and text after a closing quote at its own
    note = header.rstrip("\n") + ",note\n"
    unclosed = note + 'random,min,1,0,0,true,3,1,"oops\nrandom,min,1,1,0,true,3,1,\nrandom,min,1,2,0,false,4,2,\n'
    after = header + good + 'random,min,1,"0"3,0,true,3,1\n'
    for text, error in ((unclosed, "at line 4: unexpected end of data$"),
                        (after, "at line 3: ',' expected after '\"'$")):
        for parse in (results_from_csv, reference_results_from_csv):
            with pytest.raises(ResultsFileError, match=error):
                parse(text)
    for rows in (
        "random,min\n",  # short row
        "random,min,1,0,0,true,3," + "1" * 200_000 + "\n",  # field over the csv module's limit
        "bogus,min,1,0,0,true,3,1\n",  # unknown method
        "random,median,1,0,0,true,3,1\n",  # unknown initial kind
        "random,min,0,0,0,true,3,1\n",  # target outside 1..9
        good + "random,min,1,0,0,false,4,2\n",  # duplicated coordinates
    ):
        with pytest.raises(ResultsFileError):
            results_from_csv(header + rows)
    # every run shows its initial spider and there are 486 states to show
    for row in ("random,min,2,0,0,true,0,1\n", "random,min,2,0,0,false,487,100\n"):
        with pytest.raises(ResultsFileError, match="at line 3: spiders_presented .* not in 1..486"):
            results_from_csv(header + good + row)
    # no run writes a negative number, so the row is refused by its line number
    for row in (
        "random,min,2,-1,0,true,3,1\n",  # negative subject_id
        "random,min,2,0,-1,true,3,1\n",  # negative repeat
        "random,min,2,0,0,true,-3,1\n",  # negative spiders_presented
        "random,min,2,0,0,true,3,-1\n",  # negative iterations_used
    ):
        with pytest.raises(ResultsFileError, match="at line 3: .* must be non-negative"):
            results_from_csv(header + good + row)
    # a bad success and a short row name the rule they break
    with pytest.raises(ResultsFileError, match="at line 2: success must be true or false, got 'maybe'$"):
        results_from_csv(header + "random,min,1,0,0,maybe,3,1\n")
    with pytest.raises(ResultsFileError, match="at line 2: row has 7 fields, the header has 8$"):
        results_from_csv(header + "random,min,1,0,0,true,3\n")
    # the first bad row is named though the csv module fails later in its block
    with pytest.raises(ResultsFileError, match="at line 3: unknown method 'bogus'$"):
        results_from_csv(header + good + "bogus,min,1,0,0,true,3,1\nrandom,min,2,0,0,true,3," + "1" * 200_000)
    # a run repeated in a later block is named by its own line
    runs = [f"random,min,1,{subject},0,true,3,1\n" for subject in range(300)]
    with pytest.raises(ResultsFileError, match=r"at line 302: duplicate run \('random', 'min', 1, 0, 0\)$"):
        results_from_csv(header + "".join(runs) + runs[0])
    # a lone surrogate, which UTF-8 cannot encode, is refused at its line as a file's undecodable byte is
    with pytest.raises(ResultsFileError, match="at line 3: 'utf-8' codec can't decode byte 0xed in position 26"):
        results_from_csv(header + good + "random,min,1,1,0,true,3,1,\ud800\n")


# cells that each break one rule, by rule; the other rules, a repeated run, a short
# row and fields the csv module refuses, too long or badly quoted, are made by _results_csv itself
_BAD_CELLS = {
    "bad int": [("target", "x"), ("target", "1.5"), ("subject_id", ""), ("repeat", "1e3"),
                ("spiders_presented", "x"), ("iterations_used", "2.0")],
    "unknown name": [("method", "bogus"), ("initial_kind", "median"), ("method", "Random"), ("initial_kind", " min"),
                     ("method", ""), ("initial_kind", "")],
    "out of range": [("target", "0"), ("target", "10"), ("spiders_presented", "0"), ("spiders_presented", "487")],
    "negative": [("subject_id", "-1"), ("repeat", "-2"), ("spiders_presented", "-3"), ("iterations_used", "-1")],
    "bad success": [("success", "maybe"), ("success", "True"), ("success", "")],
}
_FAULTS = (*_BAD_CELLS, "duplicate", "short row", "csv error", "bad quote")


@st.composite
def _results_csv(draw, fault):
    """A results CSV with shuffled rows and columns, blank lines, quoted fields and either line ending.

    Some files have an extra column, sometimes spanning two lines in quotes,
    and some write integers zero-padded or with a plus sign. A badly quoted
    field is written as it is, never in quotes of its own.
    Given a ``fault``, the file breaks that rule, and one or two more faults
    of any kind follow; a bad cell may come with a second of its kind, so
    that a method and an initial kind can both be unknown. Three faults in
    four land on one shared row, so which rule its error names depends on
    the order the rules are applied in; a repeated run copies an earlier
    row, so the shared row is the one in error.
    """
    coords = draw(st.lists(
        st.tuples(st.sampled_from(POLICY_NAMES), st.sampled_from(INITIAL_KINDS), st.integers(1, 9),
                  st.integers(0, 3), st.integers(0, 2)),
        min_size=0 if fault is None else 2, max_size=12, unique=True,
    ))
    # int() also reads a padded or signed numeral, which sends its column past the parser's numeral table
    padded = draw(st.booleans())

    def numeral(n):
        return draw(st.sampled_from(["{}", "0{}", "+{}"])).format(n) if padded else str(n)

    rows = [
        dict(zip(RESULT_COLUMNS, (c[0], c[1], *map(numeral, c[2:]), draw(st.sampled_from(["true", "false"])),
                                  numeral(draw(st.integers(1, 486))), numeral(draw(st.integers(0, 150))))),
             note=draw(st.sampled_from(["", "x", "two\nlines"])))
        for c in coords
    ]
    columns = draw(st.permutations(RESULT_COLUMNS + (("note",) if draw(st.booleans()) else ())))
    lengths = [len(columns)] * len(rows)
    faults = [] if fault is None else [fault, *draw(st.lists(st.sampled_from(_FAULTS), min_size=1, max_size=2))]
    shared = draw(st.integers(1, len(rows) - 1)) if faults else 0
    for kind in faults:
        first = 1 if kind == "duplicate" else 0  # a repeated run needs an earlier row to copy
        i = shared if draw(st.integers(0, 3)) < 3 else draw(st.integers(first, len(rows) - 1))
        if kind == "duplicate":
            j = draw(st.integers(0, i - 1))
            rows[i].update({name: rows[j][name] for name in RESULT_COLUMNS[:5]})
        elif kind == "short row":  # too short for the last result column
            lengths[i] = draw(st.integers(1, max(map(columns.index, RESULT_COLUMNS))))
        elif kind == "csv error":
            rows[i][draw(st.sampled_from(columns))] = "1" * (csv.field_size_limit() + 1)
        elif kind == "bad quote":  # written raw: a quote that never closes, or text after a closing quote
            rows[i][draw(st.sampled_from(columns))] = draw(st.sampled_from(['"x', '"x"y']))
        else:
            for column, value in draw(st.lists(st.sampled_from(_BAD_CELLS[kind]), min_size=1, max_size=2)):
                rows[i][column] = value

    def line(values):
        # a lone empty field unquoted would be a blank line, which the parse skips
        return ",".join(v if v.startswith('"') else f'"{v}"' if "\n" in v or draw(st.booleans()) else v
                        for v in values) or '""'

    lines = [line(columns)]
    for row, length in zip(rows, lengths):
        lines += [""] * draw(st.integers(0, 2))
        lines.append(line([row[name] for name in columns][:length]))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + (end if draw(st.booleans()) else "")


@pytest.mark.parametrize("fault", [None, *_FAULTS])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_block_parse_agrees_with_the_row_by_row_rules(fault, data):
    text = data.draw(_results_csv(fault))
    block_rows = data.draw(st.integers(1, 5))  # one row per block, and blocks with rows on their edges
    caller_collects = data.draw(st.booleans())

    def outcome(parse):
        try:
            return parse(text)
        except ResultsFileError as exc:
            return str(exc)

    expected = outcome(reference_results_from_csv)
    assert fault is None or isinstance(expected, str)  # every fault breaks a rule
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spideradapt.grid, "_BLOCK_ROWS", block_rows)
        if not caller_collects:
            gc.disable()
        try:
            assert outcome(results_from_csv) == expected
            assert gc.isenabled() is caller_collects  # the collector is left as the caller set it
        finally:
            gc.enable()


@pytest.mark.parametrize("block_rows", [1, 256])
def test_integer_cells_parse_as_int_reads_them(block_rows, tmp_path, monkeypatch):
    # each row but the last holds an integer cell that is not a canonical numeral up to 486, which int() reads
    header = ",".join(RESULT_COLUMNS) + "\n"
    rows = [
        "random,min,07,0,0,true,3,1",
        "random,min,+7,1,+0,true,03,1",
        "random,min, 7,2,0,true,3 ,1",
        "random,min,1,-0,0,true,3,01",
        "random,min,1,1_0,0,true,1_00,1",
        "random,min,\u0663,0,0,true,3,1",  # ARABIC-INDIC DIGIT THREE, which int() reads as 3
        "random,min,1,100000,0,true,3,1",
        "random,min,1,0,1,false,486,100000000000000000000",
        "random,min,1,0,2,false,486,100",
    ]
    text = header + "\n".join(rows) + "\n"
    expected = reference_results_from_csv(text)
    assert [r.target for r in expected[:6]] == [7, 7, 7, 1, 1, 3]
    monkeypatch.setattr(spideradapt.grid, "_BLOCK_ROWS", block_rows)
    assert results_from_csv(text) == expected
    path = tmp_path / "results.csv"
    path.write_bytes(text.encode())
    columns = [list(itertools.chain.from_iterable(column)) for column in zip(*file_column_blocks(path))]
    assert columns == [[getattr(r, name) for r in expected] for name in RESULT_COLUMNS]


# a newline and the characters other than it at which str.splitlines breaks a line, among csv's own
_LINE_CHARS = 'a,"\n\r\x0b\x0c\x1c\x85\u2028'


@settings(max_examples=300, deadline=None)
@given(text=st.text(_LINE_CHARS, max_size=40), end=st.sampled_from(["", "\n"]), window=st.integers(1, 8))
@example(text="", end="", window=1)
@example(text="aaaaaaaaaaaa\na", end="", window=3)  # a line longer than the window, and no final newline
def test_line_source_yields_the_lines_of_one_stringio(text, end, window):
    # a CRLF and a lone CR each end a line, as in a StringIO that translates newlines
    data = (text + end).encode()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spideradapt.grid, "_WINDOW_BYTES", window)
        assert list(_file_lines(lambda: io.BytesIO(data))) == list(io.StringIO(text + end, newline=None))


@pytest.mark.parametrize("window", [1, 5, 1 << 16])
def test_extra_column_keeps_the_characters_splitlines_breaks_at(window, monkeypatch):
    odd = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
    text = ",".join(RESULT_COLUMNS) + ",note\n" + "".join([
        f"random,min,1,0,0,true,3,1,a{odd}b\n",  # unquoted
        f'random,min,1,1,0,true,3,1,"{odd}\r\n{odd}"\n',  # quoted, over two lines
        f'random,min,1,2,0,false,4,2,"\r{odd}"\r\n',
    ])
    expected = reference_results_from_csv(text)
    assert len(expected) == 3
    monkeypatch.setattr(spideradapt.grid, "_WINDOW_BYTES", window)
    assert results_from_csv(text) == expected


def test_line_source_holds_a_window_not_the_text():
    line = "rl_random,max,9,19,9,false,486,100\n"
    text = line * (2_000_000 // len(line))
    stream = io.BytesIO(text.encode())
    tracemalloc.start()
    try:
        for _ in _file_lines(lambda: stream):
            pass
        lines_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        for _ in io.StringIO(text):
            pass
        whole_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one StringIO over the text keeps four bytes a character; the windows keep a quarter megabyte
    assert lines_peak < len(text) < 4 * len(text) <= whole_peak


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=st.text(_LINE_CHARS + "\ufeff", max_size=40), bom=st.booleans(), window=st.integers(1, 8))
@example(text="a\r\nb\rc\n", bom=True, window=2)
def test_file_lines_are_the_lines_of_its_text(tmp_path, text, bom, window):
    # the alphabet holds characters of two and three bytes, a CR that a window could cut from its LF, and a BOM
    path = tmp_path / "results.csv"
    path.write_bytes(codecs.BOM_UTF8 * bom + text.encode())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spideradapt.grid, "_WINDOW_BYTES", window)
        assert list(_file_lines(lambda: open(path, "rb"))) == list(io.StringIO(path.read_text(encoding="utf-8-sig")))


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("window", [1, 5, 1 << 14])
def test_a_file_parses_as_its_text(end, window, tmp_path, monkeypatch):
    rows = [",".join(RESULT_COLUMNS) + ",note", "random,min,1,0,0,true,3,1,plain"]
    rows += [f'random,min,1,{i},0,false,4,2,"a{odd}b"' for i, odd in enumerate(["\r\n", "\x0b", "\x85", "\u2028"], 1)]
    path = tmp_path / "results.csv"
    monkeypatch.setattr(spideradapt.grid, "_WINDOW_BYTES", window)
    for prefix in ("", "\ufeff"):
        text = prefix + end.join(rows) + end
        path.write_bytes(text.encode())
        assert len(reference_results_from_csv(path.read_text(encoding="utf-8-sig"))) == 5
        # a text is read as a file of its bytes is: a lone CR ends a line, and a leading BOM is dropped
        assert [RunRecord(*run) for block in file_column_blocks(path) for run in zip(*block)] == results_from_csv(text)


@pytest.mark.parametrize("caller_collects", [True, False])
def test_a_held_block_reader_leaves_the_collector_as_the_caller_set_it(caller_collects, tmp_path, monkeypatch):
    # the caller's own code runs between blocks, so the reader must not pause the collector across them
    path = tmp_path / "results.csv"
    path.write_text(results_to_csv(_canonical_records()))
    monkeypatch.setattr(spideradapt.grid, "_BLOCK_ROWS", 2)
    if not caller_collects:
        gc.disable()
    try:
        blocks = file_column_blocks(path)
        next(blocks)
        assert gc.isenabled() is caller_collects
        assert sum(len(block[0]) for block in blocks) == len(_canonical_records()) - 2
        assert gc.isenabled() is caller_collects
    finally:
        gc.enable()


def _canonical_records():
    """Runs on every method and initial state in ``_record_key`` order, of subjects whose numerals sort apart."""
    coords = itertools.product(POLICY_NAMES, INITIAL_KINDS, (1, 5, 9), (2, 10, 11, 30), range(3))
    return [RunRecord(*c, success=i % 5 > 0, spiders_presented=i % 40 + 1, iterations_used=i % 9)
            for i, c in enumerate(coords)]


@pytest.mark.parametrize("block_rows", [1, 2, 256])
def test_a_file_in_canonical_order_is_read_once(block_rows, monkeypatch):
    records = _canonical_records()
    assert records == sorted(records, key=_record_key)
    opened = []

    def lines(open_file):
        opened.append(open_file)
        return _file_lines(open_file)

    monkeypatch.setattr(spideradapt.grid, "_file_lines", lines)
    monkeypatch.setattr(spideradapt.grid, "_BLOCK_ROWS", block_rows)
    text = results_to_csv(random.Random(block_rows).sample(records, len(records)))
    assert results_from_csv(text) == records
    assert len(opened) == 1  # no block broke the order, so no set of runs was built
    header, *rows = text.splitlines(keepends=True)
    assert results_from_csv(header + "".join(reversed(rows))) == records[::-1]
    # the reversed file breaks the order at its second row, and only a block before that one is read again
    assert len(opened) == (3 if block_rows == 1 else 2)


def _out_of_order(case):
    """The text of ``_canonical_records``'s file, with its rows changed as ``case`` names."""
    header, *rows = results_to_csv(_canonical_records()).splitlines(keepends=True)
    if case == "shuffled":
        rows = random.Random(7).sample(rows, len(rows))
    elif case == "one-moved-to-end":
        rows = rows[:7] + rows[8:] + rows[7:8]
    elif case == "first-block-row-repeated":
        rows = rows[:300] + rows[1:2] + rows[300:]
    elif case == "last-row-repeated":
        rows = rows + rows[-1:]
    return header + "".join(rows)


@pytest.mark.parametrize("case", ["shuffled", "one-moved-to-end", "first-block-row-repeated", "last-row-repeated"])
@pytest.mark.parametrize("block_rows", [1, 2, 3, 256])
def test_a_file_out_of_canonical_order_parses_as_the_reference(case, block_rows, tmp_path, monkeypatch):
    text = _out_of_order(case)
    path = tmp_path / "results.csv"
    path.write_text(text)

    def outcome(parse):
        try:
            return parse()
        except ResultsFileError as exc:
            return str(exc)

    expected = outcome(lambda: summarize(reference_results_from_csv(text)))
    assert isinstance(expected, str) is case.endswith("repeated")
    monkeypatch.setattr(spideradapt.grid, "_BLOCK_ROWS", block_rows)
    assert outcome(lambda: summarize_columns(file_column_blocks(path))) == expected
    assert outcome(lambda: results_from_csv(text)) == outcome(lambda: reference_results_from_csv(text))


def test_summary_emission_formats():
    records = _significance_fixture()
    summaries = summarize(records)
    comparisons = mark_significance(records, summaries)
    csv_text = summary_to_csv(summaries, comparisons)
    assert csv_text.splitlines()[0].startswith("initial_kind,stress_category,method")
    assert "rl_zero" in csv_text

    md = summary_to_markdown(summaries, comparisons)
    assert "| Min | Low | Spiders Presented |" in md
    assert "**" in md  # the best cell is bold
    assert "Accuracy" in md

    cmp_csv = comparisons_to_csv(comparisons)
    assert "rl_zero" in cmp_csv and "best_method" in cmp_csv.splitlines()[0]


def test_summary_markdown_shows_n_a_where_a_cell_has_no_success_or_no_runs():
    # in min/high random fails every run, and greedy has no run at all
    records = [_rec("random", 3 + i % 2, i) for i in range(4)] + [_rec("greedy", 5, i) for i in range(4)]
    records += [_rec("random", 9, i, target=7, success=False) for i in range(4)]
    summaries = summarize(records)
    md = summary_to_markdown(summaries, mark_significance(records, summaries))
    assert md.splitlines()[4:6] == [
        "| Min | High | Spiders Presented | n/a | n/a |",
        "| | | Accuracy | 0.00 | n/a |",
    ]


def test_summary_markdown_marks_excluded_cells():
    records = [_rec("random", 3, i, success=(i < 7)) for i in range(10)]
    records += [_rec("greedy", 5, i) for i in range(10)]
    summaries = summarize(records)
    md = summary_to_markdown(summaries, mark_significance(records, summaries))
    assert "(" in md  # excluded cell rendered with parentheses
