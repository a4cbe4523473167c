"""Benchmark harness: every table/figure of the paper as an experiment.

See DESIGN.md's experiment index; the ``benchmarks/`` directory wires these
into pytest-benchmark targets and EXPERIMENTS.md records the outcomes.
"""

from .ablations import (
    epsilon_sweep,
    guess_policy_ablation,
    merge_strategy_ablation,
    overlap_ablation,
    shm_ablation,
)
from .experiments import (
    DASH_RPN,
    HSS_RPN,
    WEAK_RPN,
    bench_scale,
    fig2a_strong_scaling,
    fig2b_phase_breakdown,
    fig3a_weak_scaling,
    fig3b_phase_breakdown,
    iterations_experiment,
    table1_machine,
)
from .harness import (
    RepeatStats,
    TrialResult,
    median_ci,
    repeat_sort_trials,
    run_sort_trial,
)
from .results import Series, format_table
from .shared_memory import fig4_shared_memory, merge_strategy_study

__all__ = [
    "DASH_RPN",
    "HSS_RPN",
    "WEAK_RPN",
    "RepeatStats",
    "Series",
    "TrialResult",
    "bench_scale",
    "epsilon_sweep",
    "fig2a_strong_scaling",
    "fig2b_phase_breakdown",
    "fig3a_weak_scaling",
    "fig3b_phase_breakdown",
    "fig4_shared_memory",
    "format_table",
    "guess_policy_ablation",
    "iterations_experiment",
    "median_ci",
    "merge_strategy_ablation",
    "merge_strategy_study",
    "overlap_ablation",
    "repeat_sort_trials",
    "run_sort_trial",
    "shm_ablation",
    "table1_machine",
]
