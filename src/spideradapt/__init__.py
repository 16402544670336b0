"""Adaptive virtual-spider content benchmark.

Tabular Q-learning and three search baselines adapt a six-attribute spider
configuration to hit a target stress level on deterministic virtual
subjects, with a reproducible evaluation grid and significance testing.
"""

from .domain import (
    INITIAL_KINDS,
    INITIAL_STATES,
    SpiderState,
    enumerate_states,
    state_index,
)
from .grid import (
    CellSummary,
    ComparisonResult,
    GridConfig,
    RunRecord,
    mark_significance,
    paired_ttest,
    run_grid,
    summarize,
)
from .policies import (
    GAConfig,
    RLConfig,
    ga_generation,
    ga_select,
    greedy_step,
    random_step,
    rl_select_action,
    rl_update,
)
from .reward_model import RewardSpec, is_success, reward
from .session import PresentedSpider, RunConfig, RunResult, run_session
from .subjects import (
    SubjectPopulation,
    VirtualSubject,
    bfs_distance,
    generate_population,
    load_population,
    sample_subject,
    save_population,
    stress,
    success_states,
)

__version__ = "0.1.0"
