"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; the grid-backed criteria share two full evaluation-grid executions
(workers=1 and workers=2) through module fixtures.
"""

import hashlib
import resource
import time

import numpy as np
import pytest
import scipy.stats

from spideradapt.cli import main
from spideradapt.domain import enumerate_states, state_index
from spideradapt.grid import (
    GridConfig,
    comparisons_to_csv,
    mark_significance,
    paired_ttest,
    results_to_csv,
    run_grid,
    summarize,
    summary_to_csv,
    summary_to_markdown,
)
from spideradapt.policies import GAConfig, RLConfig, ga_initial_population
from spideradapt.reward_model import RewardSpec, reward
from spideradapt.session import INITIAL_STATES
from spideradapt.subjects import (
    SubjectPopulation,
    bfs_distance,
    generate_population,
    scale_coefficient,
    stress_table,
)
from tests.conftest import EXAMPLE_WEIGHTS
from tests.reference import neighbors

POPULATION_SEED = 4242
MASTER_SEED = 99
# sha256 of the default grid's results CSV and of its summary CSV with the
# significance markers; a deliberate change to results updates both.
RESULTS_SHA256 = "6d34351c51b3212563406e6e343f3f56f792da1239a30e80a50dc4c6e1a9e904"
SUMMARY_SHA256 = "72b723b2fd9d0f5cbf20c29d650dd8906a32b9c3cc9743c3e50ad42714db73ba"
# sha256 of the default grid's markdown summary and `compare` CSV, and of the
# file `gen-subjects --n 100 --seed 4242` writes
MARKDOWN_SHA256 = "c16d14324815a0ba793caae34f3002632336607593ff3847bfe78a8434f6ca82"
COMPARE_SHA256 = "d58a7b75b49ecd784744616dbf9a38a970ae2327d2ae8c51cedfb1545de8ae64"
SUBJECTS_SHA256 = "5dddf4dbc5fa8d18fc3dfc7f2c962f5bdfd5576ba7f559f73ff77a9769c451bb"
# sha256 and line count of `trace --subject-id 3 --target 7 --initial min --seed 99`
# on that file, one per method
TRACE_SHA256 = {
    "random": ("ba8e3ddd0b9a71b4aca9630022b4e52f4a3df7a0590f388745b0538738034069", 33),
    "greedy": ("55d4552e8145ff5a83dc8232050184c88ae05e9a4855e002802de20c5e6cb680", 27),
    "ga": ("796e9d91159ab459805c30884edc587d35fdc0fa267eab6b329ce544eab473bc", 19),
    "rl_random": ("9c1534028c0d40bf945c6ff0e025549e518a9385f71eae27956c028f1260f932", 12),
    "rl_zero": ("0303492f7e5ca2840426986d5900930cd9076d782c5de18475e60580372720a6", 22),
}
# sha256 of the results of a small grid off every default: 6 subjects of
# population seed 4242, 2 repeats, cap 40, RL and GA settings of its own, and
# a master seed of two 32-bit words
SMALL_RESULTS_SHA256 = "8461aaa1b913a376ec58031b61c79c70718db51acd1ef2d23fc799e85b66b2d3"
ALL_MIN = (0, 0, 0, 0, 0, 0)


def _report(number: int, name: str, check) -> None:
    try:
        check()
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


def _peak_rss_mb(who: int) -> float:
    """The largest RSS so far of this process or of its waited-for children, in MB (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(who).ru_maxrss / 1024


@pytest.fixture(scope="module")
def population() -> SubjectPopulation:
    return generate_population(100, POPULATION_SEED)


@pytest.fixture(scope="module")
def grid_serial(population):
    cfg = GridConfig(population=population, master_seed=MASTER_SEED, workers=1)
    start = time.perf_counter()
    records = run_grid(cfg)
    elapsed = time.perf_counter() - start
    peak = _peak_rss_mb(resource.RUSAGE_SELF)
    print(f"full grid, workers=1: {len(records)} runs in {elapsed:.1f}s, "
          f"peak RSS of this test process so far, earlier tests included, {peak:.1f} MB")
    return records, elapsed


@pytest.fixture(scope="module")
def grid_parallel(population):
    cfg = GridConfig(population=population, master_seed=MASTER_SEED, workers=2)
    start = time.perf_counter()
    records = run_grid(cfg)
    elapsed = time.perf_counter() - start
    # the children's figure is the largest of every child waited for so far, a pool worker or not
    peak = _peak_rss_mb(resource.RUSAGE_CHILDREN)
    print(f"full grid, workers=2: {len(records)} runs in {elapsed:.1f}s, "
          f"peak RSS of any child of this test process so far {peak:.1f} MB")
    return records


def test_criterion_1_reward_identities():
    def check():
        start = time.perf_counter()
        for target in range(1, 10):
            spec = RewardSpec(target)
            assert abs(reward(float(target), spec) - 1.0) <= 1e-12
            assert abs(reward(spec.alpha, spec) + 1.0) <= 1e-12
            max_offset = min(target - 0.0, 10.0 - target)
            for k in range(1, 1001):
                d = max_offset * k / 1001.0
                assert abs(reward(target + d, spec) - reward(target - d, spec)) <= 1e-12
        assert time.perf_counter() - start < 1.0

    _report(1, "reward identities", check)


def test_criterion_2_state_space_structure():
    def check():
        start = time.perf_counter()
        states = enumerate_states()
        assert len(states) == 486
        counts = [len(neighbors(s)) for s in states]
        assert min(counts) >= 6 and max(counts) <= 11
        assert counts.count(11) == 2
        assert time.perf_counter() - start < 1.0

    _report(2, "state-space structure", check)


def test_criterion_3_subject_scaling():
    def check():
        start = time.perf_counter()
        big = generate_population(10_000, 2024)
        matrix = np.array(enumerate_states(), dtype=float)  # (486, 6)
        weights = np.array([s.weights for s in big.subjects])  # (n, 6)
        coeffs = np.array([s.coefficient for s in big.subjects])
        stresses = (matrix @ weights.T) * coeffs  # (486, n)
        max_stress = stresses.max(axis=0)
        min_stress = stresses.min(axis=0)
        assert np.abs(max_stress - 10.0).max() <= 1e-9
        assert (min_stress == 0.0).all()
        assert abs(scale_coefficient(EXAMPLE_WEIGHTS) - 1.3717) <= 0.005
        assert time.perf_counter() - start < 30.0

    _report(3, "subject scaling", check)


def test_criterion_4_oracle_lower_bound(population):
    def check():
        start = time.perf_counter()
        sample = SubjectPopulation(population.seed, population.subjects[:25])
        cfg = GridConfig(
            population=sample,
            master_seed=MASTER_SEED,
            methods=("random", "greedy", "rl_random", "rl_zero"),
            repeats=1,
        )
        records = [r for r in run_grid(cfg) if r.success]
        assert len(records) >= 1000
        violations = 0
        for r in records[:1000]:
            subject = sample.subjects[r.subject_id]
            lower = bfs_distance(subject, INITIAL_STATES[r.initial_kind], r.target)
            assert lower is not None
            if r.spiders_presented < lower + 1:
                violations += 1
        assert violations == 0
        assert time.perf_counter() - start < 60.0

    _report(4, "oracle lower bound", check)


def test_criterion_5_ga_corner_reproduction(population, grid_serial):
    def check():
        spec = RewardSpec(1)
        for subject in population.subjects:
            rewards = [reward(x, spec) for x in stress_table(subject)]
            batch = ga_initial_population(state_index(ALL_MIN), rewards, GAConfig().population_size)
            assert len(batch) == 7
        records, _ = grid_serial
        cell = [
            r.spiders_presented
            for r in records
            if r.method == "ga" and r.initial_kind == "min" and r.target == 1 and r.success
        ]
        assert cell
        assert sum(cell) / len(cell) <= 10.0

    _report(5, "GA corner reproduction", check)


def test_criterion_6_directional_reproduction(grid_serial):
    def check():
        records, elapsed = grid_serial
        assert len(records) == 5 * 27_000
        assert elapsed < 600.0
        summaries = summarize(records)
        cells = {(s.initial_kind, s.stress_category, s.method): s for s in summaries}

        min_low = {m: cells[("min", "low", m)] for m in ("rl_zero", "ga", "greedy")}
        assert min_low["rl_zero"].mean_presented < min_low["ga"].mean_presented
        assert min_low["rl_zero"].mean_presented < min_low["greedy"].mean_presented
        assert 2.0 <= min_low["rl_zero"].mean_presented <= 9.0

        max_high = {m: cells[("max", "high", m)] for m in ("rl_zero", "ga", "greedy")}
        assert max_high["rl_zero"].mean_presented < max_high["ga"].mean_presented
        assert max_high["rl_zero"].mean_presented < max_high["greedy"].mean_presented
        assert 2.0 <= max_high["rl_zero"].mean_presented <= 9.0

        for initial in ("min", "avg", "max"):
            for category in ("low", "moderate"):
                assert cells[(initial, category, "ga")].accuracy_percent >= 90.0

    _report(6, "directional reproduction", check)


def test_criterion_7_determinism_across_workers(grid_serial, grid_parallel):
    def check():
        serial_records, _ = grid_serial
        assert results_to_csv(serial_records) == results_to_csv(grid_parallel)

        s1 = summarize(serial_records)
        s2 = summarize(grid_parallel)
        c1 = mark_significance(serial_records, s1)
        c2 = mark_significance(grid_parallel, s2)
        assert summary_to_csv(s1, c1) == summary_to_csv(s2, c2)
        assert summary_to_markdown(s1, c1) == summary_to_markdown(s2, c2)

    _report(7, "determinism across workers", check)


def test_criterion_8_statistics_oracle():
    def check():
        a = [2.0, 4.0, 6.0, 8.0, 10.0]
        b = [1.0, 2.0, 3.0, 4.0, 5.0]  # differences 1..5
        t, p = paired_ttest(a, b)
        assert abs(t - 4.242640687119285) <= 1e-3
        assert abs(p - 0.013235599563682695) <= 1e-3
        ref = scipy.stats.ttest_rel(a, b)
        assert abs(t - float(ref.statistic)) <= 1e-3
        assert abs(p - float(ref.pvalue)) <= 1e-3
        assert paired_ttest([3.0, 1.0, 4.0], [3.0, 1.0, 4.0]) == (0.0, 1.0)

    _report(8, "statistics oracle", check)


def test_golden_digests(grid_serial):
    records, _ = grid_serial
    summaries = summarize(records)
    summary = summary_to_csv(summaries, mark_significance(records, summaries))
    assert hashlib.sha256(results_to_csv(records).encode()).hexdigest() == RESULTS_SHA256
    assert hashlib.sha256(summary.encode()).hexdigest() == SUMMARY_SHA256


def test_golden_digest_of_a_small_grid_off_the_defaults():
    cfg = GridConfig(population=generate_population(6, POPULATION_SEED), master_seed=2**40, repeats=2,
                     iteration_cap=40, rl=RLConfig(epsilon=0.3, learning_rate=0.5, discount=0.5),
                     ga=GAConfig(population_size=6, mutation_prob=0.6))
    assert hashlib.sha256(results_to_csv(run_grid(cfg)).encode()).hexdigest() == SMALL_RESULTS_SHA256


def test_golden_report_and_subjects_digests(grid_serial, tmp_path, capsys):
    records, _ = grid_serial
    summaries = summarize(records)
    markdown = summary_to_markdown(summaries, mark_significance(records, summaries))
    assert hashlib.sha256(markdown.encode()).hexdigest() == MARKDOWN_SHA256
    compare = comparisons_to_csv(mark_significance(records))  # as `compare` builds it
    assert hashlib.sha256(compare.encode()).hexdigest() == COMPARE_SHA256
    path = tmp_path / "subjects.json"
    assert main(["gen-subjects", "--n", "100", "--seed", str(POPULATION_SEED), "--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SUBJECTS_SHA256
    assert f"sha256={SUBJECTS_SHA256}" in capsys.readouterr().out


def test_golden_report_through_the_cli(grid_serial, tmp_path, capsys):
    # the report digests above come from records in memory; this path reads them back from the results CSV
    records, _ = grid_serial
    results = tmp_path / "results.csv"
    results.write_text(results_to_csv(records))
    for argv, digest in (
        (["summarize", "--format", "csv"], SUMMARY_SHA256),
        (["summarize", "--format", "markdown"], MARKDOWN_SHA256),
        (["compare"], COMPARE_SHA256),
    ):
        out = tmp_path / "out"
        assert main([*argv, "--results", str(results), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    assert capsys.readouterr().err == ""  # a complete grid draws no warning


@pytest.mark.parametrize("method", TRACE_SHA256)
def test_golden_trace_digests(method, tmp_path, capsys):
    subjects, trace = tmp_path / "subjects.json", tmp_path / "trace.jsonl"
    assert main(["gen-subjects", "--n", "100", "--seed", str(POPULATION_SEED), "--out", str(subjects)]) == 0
    assert main(["trace", "--subjects", str(subjects), "--subject-id", "3", "--target", "7", "--initial", "min",
                 "--seed", str(MASTER_SEED), "--method", method, "--out", str(trace)]) == 0
    data = trace.read_bytes()
    assert (hashlib.sha256(data).hexdigest(), data.count(b"\n")) == TRACE_SHA256[method]
