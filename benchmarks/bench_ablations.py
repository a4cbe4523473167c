"""Ablations of the design choices DESIGN.md calls out.

* ``eps`` sweep — §VI-B: softening perfect partitioning cuts histogram
  rounds (and splitting time).
* shared-memory windows — §VI-A.1: pricing intra-node traffic as memcpy
  instead of MPI loop-back speeds up the exchange.
* probe schedule / initial guesses — §V-A's proposed optimisations to
  splitter convergence, and the shared probe budget.
* merge strategy — §V-C: re-sort vs binary tree vs tournament inside the
  full sort.
"""

import pytest

from repro.bench import (
    epsilon_sweep,
    guess_policy_ablation,
    merge_strategy_ablation,
    overlap_ablation,
    run_sort_trial,
    shm_ablation,
)
from repro.core import SortConfig
from repro.machine import supermuc_phase2


def test_epsilon_sweep(emit):
    series = emit(epsilon_sweep(repeats=2))
    rows = {r["eps"]: r for r in series.rows}
    assert rows[0.1]["rounds"] < rows[0.0]["rounds"]
    assert rows[0.1]["splitting_s"] < rows[0.0]["splitting_s"]


def test_shm_ablation(emit):
    series = emit(shm_ablation(repeats=2))
    rows = {r["use_shm"]: r for r in series.rows}
    assert rows[False]["exchange_s"] > rows[True]["exchange_s"]
    assert rows[False]["total_s"] > rows[True]["total_s"]


def test_guess_policy_ablation(emit):
    series = emit(guess_policy_ablation(repeats=2))
    rows = {(r["probe_schedule"], r["initial_guess"]): r for r in series.rows}
    base = rows[("midpoint", "minmax")]
    # the shared budget needs fewer rounds and never more bytes than Algorithm 3
    for key in (("shared", "minmax"), ("shared", "sample")):
        assert rows[key]["rounds"] < base["rounds"]
    assert rows[("shared", "minmax")]["wire_bytes"] <= base["wire_bytes"]


def test_merge_strategy_ablation(emit):
    series = emit(merge_strategy_ablation(repeats=2))
    rows = {r["strategy"]: r for r in series.rows}
    # a binary merge tree beats re-sorting the concatenation (modelled time)
    assert rows["binary_tree"]["merge_s"] < rows["sort"]["merge_s"]
    assert set(rows) == {"sort", "binary_tree", "tournament", "adaptive"}


def test_overlap_ablation(emit):
    series = emit(overlap_ablation(repeats=2))
    rows = {r["overlap"]: r for r in series.rows}
    # the fused path eliminates the separate merge superstep ...
    assert rows[True]["merge_s"] == 0.0
    # ... and never loses badly overall at this scale
    assert rows[True]["total_s"] <= rows[False]["total_s"] * 1.3


def test_ablation_kernel(benchmark):
    """Kernel: a full eps-relaxed sort trial."""
    machine = supermuc_phase2()
    trial = benchmark(
        run_sort_trial,
        32,
        2048,
        algo="dash",
        machine=machine,
        ranks_per_node=16,
        config=SortConfig(eps=0.01),
        seed=11,
    )
    assert trial.total > 0
