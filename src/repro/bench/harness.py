"""Trial runner: repeated SPMD sort runs with median + 95% CI statistics.

The paper reports "the median time out of 10 executions along with the 95%
confidence interval, excluding an initial warmup run" (§VI-B); runs here
vary the data seed (virtual time is deterministic per seed, so seeds are
the only noise source) and report the same statistics, with the CI of the
median from order statistics.  Virtual time has no warm-up effect, so the
warm-up seeds are skipped rather than run and thrown away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from ..algorithms import ALGORITHMS
from ..core import SortConfig, SplitterConfig, autosort
from ..data import make_partition
from ..machine import MachineSpec
from ..mpi import StatsSnapshot, run_spmd
from ..trace.timer import combine_phases

__all__ = [
    "PAPER_CONFIG",
    "TrialResult",
    "RepeatStats",
    "median_ci",
    "run_sort_trial",
    "repeat_sort_trials",
]


#: The paper's literal Algorithm 3 (one midpoint per splitter per round):
#: what a trial runs when handed no config, so the figure drivers keep
#: reproducing ``results/fig*.json`` whatever the library default becomes.
PAPER_CONFIG = SortConfig(splitter=SplitterConfig(probe_schedule="midpoint"))


def _result_record(res) -> dict[str, Any]:
    """Per-rank trial record: phases, histogramming rounds, bytes moved.

    ``rounds`` always rides along (1 for single-round algorithms), so
    harness output can feed :func:`repro.model.calibrate.fit_round_count`
    directly.
    """
    return {
        "phases": res.phases,
        "rounds": int(res.rounds),
        "exchanged": int(res.exchanged_bytes),
    }


@dataclass(frozen=True)
class TrialResult:
    """One sort execution: makespan, per-phase (max over ranks) times, and
    ``stats`` — the finished runtime's :meth:`repro.mpi.Stats.snapshot`,
    the one traffic record a run hands out.  ``extra`` holds what only
    some trials have (the tuner's plan)."""

    total: float
    phases: dict[str, float]
    rounds: int
    exchanged_bytes: int
    stats: StatsSnapshot
    extra: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class RepeatStats:
    """Median + 95% CI of the median over repeated trials."""

    median: float
    ci_low: float
    ci_high: float
    n: int
    values: tuple[float, ...]


def median_ci(values: Sequence[float]) -> RepeatStats:
    """Distribution-free 95 % CI of the median via binomial order statistics.

    The interval is fixed at 95 %; below three values it is the range.
    """
    vals = sorted(float(v) for v in values)
    n = len(vals)
    if n == 0:
        raise ValueError("no values")
    med = float(np.median(vals))
    if n < 3:
        return RepeatStats(med, vals[0], vals[-1], n, tuple(vals))
    # Normal approximation to the binomial(n, 0.5) order-statistic interval;
    # 1.95996... is the standard normal's 97.5 % quantile.
    half = 1.959963984540054 * math.sqrt(n) / 2.0
    lo = max(0, int(math.floor(n / 2.0 - half)))
    hi = min(n - 1, int(math.ceil(n / 2.0 + half)) - 1)
    return RepeatStats(med, vals[lo], vals[hi], n, tuple(vals))


def _phase_median(trials: Sequence[TrialResult]) -> dict[str, float]:
    """Per-phase median over ``trials``: phases in first-seen order, a
    phase missing from a trial counting as 0."""
    names = list(dict.fromkeys(name for t in trials for name in t.phases))
    out: dict[str, float] = {}
    for name in names:
        vals = sorted(t.phases.get(name, 0.0) for t in trials)
        mid = len(vals) // 2
        med = vals[mid] if len(vals) % 2 else 0.5 * (vals[mid - 1] + vals[mid])
        out[name] = float(med)
    return out


def _trial_program(comm, algo: str, dist: str, n_per_rank: int, seed: int,
                   config: SortConfig, plan, plan_cache):
    local = make_partition(dist, n_per_rank, rank=comm.rank, seed=seed)
    if plan is None:
        return _result_record(ALGORITHMS[algo].run(comm, local, config))
    # plan="auto" bypasses the algorithm table and runs the full autosort
    # lifecycle: fingerprint, cache lookup, planning on miss, feedback.
    auto = autosort(comm, local, eps=config.eps, cache=plan_cache)
    out = _result_record(auto.result)
    out["plan_id"] = auto.plan.plan_id
    out["plan_algo"] = auto.plan.algo
    out["cache_hit"] = auto.cache_hit
    return out


def run_sort_trial(
    p: int,
    n_per_rank: int,
    *,
    algo: str = "dash",
    dist: str = "uniform_u64",
    seed: int = 1,
    machine: MachineSpec | None = None,
    ranks_per_node: int | None = None,
    config: SortConfig | None = None,
    use_shm: bool = True,
    trace_path: str | Path | None = None,
    plan: str | None = None,
    plan_cache=None,
) -> TrialResult:
    """Execute one distributed sort and collect virtual-time statistics.

    ``trace_path`` enables event tracing for the run and writes a
    Chrome-trace JSON there (open it in Perfetto, or summarize it with
    ``python -m repro.trace.report``); tracing never perturbs the
    modelled times.

    ``plan="auto"`` ignores ``algo`` and runs :func:`repro.core.autosort`
    instead — benchmarks can measure tuned against paper-default
    configurations.  Pass a :class:`repro.tune.PlanCache` as ``plan_cache``
    to persist plans across trials (a warm cache skips planning entirely).
    The chosen ``plan_id``/``plan_algo`` and cache-hit flag land in
    ``extra``.
    """
    if plan not in (None, "auto"):
        raise ValueError(f"plan must be None or 'auto', got {plan!r}")
    if plan is None and algo not in ALGORITHMS:
        raise KeyError(f"unknown algo {algo!r}; available: {sorted(ALGORITHMS)}")
    if config is None:
        config = PAPER_CONFIG
    results, rt = run_spmd(
        p,
        _trial_program,
        algo,
        dist,
        n_per_rank,
        seed,
        config,
        plan,
        plan_cache,
        machine=machine,
        ranks_per_node=ranks_per_node,
        use_shm=use_shm,
        return_runtime=True,
        trace=trace_path is not None,
    )
    if trace_path is not None and rt.trace is not None:
        from ..trace.export import write_chrome_trace

        write_chrome_trace(trace_path, rt.trace)
    phases = combine_phases([r["phases"] for r in results], how="max")
    extra: dict[str, Any] = {}
    if plan is not None:
        extra["plan_id"] = results[0]["plan_id"]
        extra["plan_algo"] = results[0]["plan_algo"]
        extra["plan_cache_hit"] = bool(results[0]["cache_hit"])
    return TrialResult(
        total=rt.elapsed(),
        phases=phases,
        rounds=int(max(r["rounds"] for r in results)),
        exchanged_bytes=int(sum(r["exchanged"] for r in results)),
        stats=rt.stats.snapshot(),
        extra=extra,
    )


def repeat_sort_trials(
    p: int,
    n_per_rank: int,
    *,
    repeats: int = 5,
    warmup: int = 1,
    seed0: int = 100,
    **kwargs: Any,
) -> tuple[RepeatStats, list[TrialResult]]:
    """Repeat a trial over seeds; returns (stats over totals, the measured
    trials) — seeds ``seed0 + warmup`` onwards, the first ``warmup`` seeds
    being skipped."""
    trials = [
        run_sort_trial(p, n_per_rank, seed=seed0 + warmup + i, **kwargs)
        for i in range(repeats)
    ]
    stats = median_ci([t.total for t in trials])
    return stats, trials
