"""Ablation experiments for the design choices DESIGN.md calls out.

* ε sweep — §VI-B: "we certainly get a better scaling if we soften the
  perfect partitioning requirement as the number of histogramming
  iterations decreases".
* shared-memory windows on/off — §VI-A.1's PGAS intra-node memcpy path.
* probe schedule and initial-guess policy — §III-B/V-A's "optimizing the
  initial splitter guesses", and how a round's probes are placed.
* merge strategy inside the full sort — §V-C.

Like the figure drivers these measure the paper's Algorithm 3
(:data:`~repro.bench.harness.PAPER_CONFIG`); only the guess ablation sets
the shared probe schedule beside it.
"""

from __future__ import annotations

import numpy as np

from ..core import SortConfig, SplitterConfig
from ..machine import supermuc_phase2
from .harness import PAPER_CONFIG, repeat_sort_trials
from .results import Series

__all__ = [
    "epsilon_sweep",
    "shm_ablation",
    "guess_policy_ablation",
    "merge_strategy_ablation",
]

_P = 64
_RPN = 16
_NPR = 1 << 13


def epsilon_sweep(repeats: int = 3, epsilons=(0.0, 0.001, 0.01, 0.1)) -> Series:
    """Histogramming rounds and time versus the load-balance threshold ε."""
    machine = supermuc_phase2()
    series = Series(
        experiment="ablation_epsilon",
        title="Effect of the load-balance threshold eps on splitting",
        columns=["eps", "rounds", "splitting_s", "total_s"],
        params={"p": _P, "n_per_rank": _NPR},
        notes="paper (§VI-B): relaxing perfect partitioning reduces iterations",
    )
    for eps in epsilons:
        _, trials = repeat_sort_trials(
            _P, _NPR, repeats=repeats, warmup=0,
            algo="dash", dist="uniform_u64",
            machine=machine, ranks_per_node=_RPN,
            config=PAPER_CONFIG.with_(eps=eps),
        )
        series.add(
            eps=eps,
            rounds=int(np.median([t.rounds for t in trials])),
            splitting_s=float(np.median([t.phases["splitting"] for t in trials])),
            total_s=float(np.median([t.total for t in trials])),
        )
    return series


def shm_ablation(repeats: int = 3) -> Series:
    """Intra-node traffic through shared-memory windows vs MPI loop-back."""
    machine = supermuc_phase2()
    series = Series(
        experiment="ablation_shm",
        title="PGAS shared-memory windows on/off (intra-node memcpy path)",
        columns=["use_shm", "exchange_s", "total_s"],
        params={"p": _P, "n_per_rank": _NPR},
        notes="paper (§VI-A.1): intra-node memcpy gives significant benefits",
    )
    for use_shm in (True, False):
        _, trials = repeat_sort_trials(
            _P, _NPR, repeats=repeats, warmup=0,
            algo="dash", dist="uniform_u64",
            machine=machine, ranks_per_node=_RPN, use_shm=use_shm,
        )
        series.add(
            use_shm=use_shm,
            exchange_s=float(np.median([t.phases["exchange"] for t in trials])),
            total_s=float(np.median([t.total for t in trials])),
        )
    return series


def guess_policy_ablation(repeats: int = 3) -> Series:
    """Probe schedule × initial-guess policy: rounds and bytes to converge."""
    machine = supermuc_phase2()
    series = Series(
        experiment="ablation_guess",
        title="Splitter probe schedule and initial guesses",
        columns=["probe_schedule", "initial_guess", "rounds", "wire_bytes", "splitting_s"],
        params={"p": _P, "n_per_rank": _NPR},
        notes="paper (§V-A): better initial guesses reduce histogram rounds; "
        "the shared schedule spends the same probes on distinct values, "
        "squeeze places them by rank and gathers the residue",
    )
    for schedule, guess in (
        ("midpoint", "minmax"), ("shared", "minmax"), ("shared", "sample"), ("squeeze", "minmax"),
    ):
        cfg = SortConfig(
            splitter=SplitterConfig(initial_guess=guess, probe_schedule=schedule)
        )
        _, trials = repeat_sort_trials(
            _P, _NPR, repeats=repeats, warmup=0,
            algo="dash", dist="uniform_u64",
            machine=machine, ranks_per_node=_RPN, config=cfg,
        )
        series.add(
            probe_schedule=schedule, initial_guess=guess,
            rounds=int(np.median([t.rounds for t in trials])),
            wire_bytes=int(np.median([t.stats.wire_bytes for t in trials])),
            splitting_s=float(np.median([t.phases["splitting"] for t in trials])),
        )
    return series


def merge_strategy_ablation(repeats: int = 3) -> Series:
    """Local-merge strategy inside the full sort (virtual merge times)."""
    machine = supermuc_phase2()
    series = Series(
        experiment="ablation_merge",
        title="Local merge strategy inside the histogram sort",
        columns=["strategy", "merge_s", "total_s"],
        params={"p": _P, "n_per_rank": _NPR},
    )
    for strategy in ("sort", "binary_tree", "tournament", "adaptive"):
        _, trials = repeat_sort_trials(
            _P, _NPR, repeats=repeats, warmup=0,
            algo="dash", dist="uniform_u64",
            machine=machine, ranks_per_node=_RPN,
            config=PAPER_CONFIG.with_(merge_strategy=strategy),
        )
        series.add(
            strategy=strategy,
            merge_s=float(np.median([t.phases["merge"] for t in trials])),
            total_s=float(np.median([t.total for t in trials])),
        )
    return series


def overlap_ablation(repeats: int = 3, n_per_rank: int = 1 << 14) -> Series:
    """§VI-E.1: 1-factor exchange with merges hidden behind communication."""
    machine = supermuc_phase2()
    series = Series(
        experiment="ablation_overlap",
        title="Overlapped exchange+merge vs plain alltoallv + merge",
        columns=["overlap", "exchange_s", "merge_s", "total_s"],
        params={"p": _P, "n_per_rank": n_per_rank},
        notes="paper (§VI-E.1): merging overlapped with 1-factor rounds "
        "'gives more time to complete a pending data transfer'",
    )
    for overlap in (False, True):
        cfg = PAPER_CONFIG.with_(merge_strategy="binary_tree", overlap_exchange=overlap)
        _, trials = repeat_sort_trials(
            _P, n_per_rank, repeats=repeats, warmup=0,
            algo="dash", dist="uniform_u64",
            machine=machine, ranks_per_node=_RPN, config=cfg,
        )
        import numpy as _np

        series.add(
            overlap=overlap,
            exchange_s=float(_np.median([t.phases["exchange"] for t in trials])),
            merge_s=float(_np.median([t.phases["merge"] for t in trials])),
            total_s=float(_np.median([t.total for t in trials])),
        )
    return series
