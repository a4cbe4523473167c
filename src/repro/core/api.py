"""Public API: ``sort``, ``nth_element``, ``percentile``, ``top_k``.

These mirror the paper's STL-like interface (``std::sort`` compatible entry
point, ``dash::nth_element``) plus the telemetry-query conveniences built
on distributed selection.  All are collective: every rank of the
communicator must call with its local partition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from .config import SortConfig
from .dselect import dselect
from .histsort import SortResult, histogram_sort
from .multiselect import find_splitters

if TYPE_CHECKING:  # pragma: no cover
    from ..mpi import Comm
    from ..tune.cache import PlanCache
    from ..tune.feedback import FeedbackRecord
    from ..tune.fingerprint import WorkloadFingerprint
    from ..tune.planner import SortPlan

__all__ = [
    "AutoSortResult",
    "autosort",
    "sort",
    "sorted_result",
    "nth_element",
    "nearest_rank",
    "percentile",
    "top_k",
    "find_splitters",
]


def sort(
    comm: "Comm",
    local: np.ndarray,
    *,
    eps: float = 0.0,
    config: SortConfig | None = None,
    capacities: Sequence[int] | None = None,
) -> np.ndarray:
    """Sort a distributed array; returns this rank's output partition.

    The output satisfies the §II contract: each partition sorted, partition
    boundaries globally ordered, the whole a permutation of the input, and
    each rank holding its requested capacity within ``eps`` slack
    (``eps=0``: *perfect partitioning*, exactly the input sizes).

    >>> from repro.mpi import run_spmd
    >>> import numpy as np, repro
    >>> def program(comm):
    ...     rng = np.random.default_rng(comm.rank)
    ...     return repro.sort(comm, rng.integers(0, 10**9, 1000))
    >>> parts = run_spmd(4, program)
    """
    if config is None:
        config = SortConfig(eps=eps)
    elif eps:
        config = config.with_(eps=eps)
    return histogram_sort(comm, local, config=config, capacities=capacities).output


def sorted_result(
    comm: "Comm",
    local: np.ndarray,
    *,
    config: SortConfig | None = None,
    capacities: Sequence[int] | None = None,
) -> SortResult:
    """Like :func:`sort` but returns the full :class:`SortResult` diagnostics."""
    return histogram_sort(comm, local, config=config, capacities=capacities)


@dataclass(frozen=True)
class AutoSortResult:
    """One tuned sort: the output plus the tuning decision that shaped it.

    ``result`` is a :class:`SortResult` for the core algorithm or a
    :class:`~repro.baselines.BaselineResult` when the plan picked a
    baseline; both carry ``output`` and per-phase virtual times.
    """

    result: Any
    plan: "SortPlan"
    fingerprint: "WorkloadFingerprint"
    cache_hit: bool
    feedback: "FeedbackRecord"

    @property
    def output(self) -> np.ndarray:
        return self.result.output


def autosort(
    comm: "Comm",
    local: np.ndarray,
    *,
    eps: float = 0.0,
    cache: "PlanCache | None" = None,
    seed: int = 0,
) -> AutoSortResult:
    """Sort a distributed array with an auto-tuned plan; collective.

    The full plan lifecycle in one call: **fingerprint** the workload
    (cheap sample statistics + one allreduce), **consult** the plan cache
    (a warm hit performs zero planning dry runs), **plan** on a miss
    (closed-form scoring + virtual-clock dry runs on rank 0, the decision
    broadcast to all ranks), **run** the chosen algorithm, and **record
    feedback** (observed vs predicted makespan) so drifting plans demote
    themselves.  With ``cache=None`` every call replans and nothing
    persists.

    When tracing is active, the chosen ``plan_id`` is stamped into the
    trace metadata so ``python -m repro.trace.report`` attributes the run
    to the plan that shaped it.
    """
    from ..algorithms import ALGORITHMS
    from ..tune.feedback import record_feedback
    from ..tune.fingerprint import fingerprint_collective
    from ..tune.planner import SortPlan, plan_sort
    from ..mpi.ops import MAX

    local = np.asarray(local)
    fp = fingerprint_collective(comm, local)
    if comm.rank == 0:
        key = fp.bucket_key()
        plan = cache.get(key) if cache is not None else None
        cache_hit = plan is not None
        if plan is None:
            plan = plan_sort(fp, comm.cost.machine, eps=eps, seed=seed)
            if cache is not None:
                cache.put(key, plan)
        payload = (plan.to_dict(), cache_hit)
    else:
        payload = None
    # decoded once, by the bcast's last arriver: every rank shares the plan
    plan, cache_hit = comm.bcast(payload, then=lambda d: (SortPlan.from_dict(d[0]), d[1]))

    recorder = comm.trace_recorder
    if recorder is not None and comm.rank == 0:
        recorder.metadata.update(
            plan_id=plan.plan_id, plan_algo=plan.algo, plan_label=plan.label,
            plan_cache_hit=bool(cache_hit),
        )

    if plan.algo not in ALGORITHMS:
        raise ValueError(f"plan names unknown algorithm {plan.algo!r}")
    # seeded like the planner's dry run of the same candidate
    result = ALGORITHMS[plan.algo].run(comm, local, plan.config, seed)

    observed = comm.allreduce(float(sum(result.phases.values())), op=MAX)
    record = record_feedback(cache, plan, observed) if comm.rank == 0 else None
    record = comm.bcast(record)
    return AutoSortResult(
        result=result, plan=plan, fingerprint=fp, cache_hit=bool(cache_hit),
        feedback=record,
    )


def nth_element(comm: "Comm", local: np.ndarray, n: int):
    """Value of the globally n-th smallest key (0-based); ``dash::nth_element``.

    Uses distributed selection (Algorithm 1); no data moves.
    """
    return dselect(comm, local, n).value


def nearest_rank(pct: float, n: int) -> int:
    """0-based global position of the ``pct``-th percentile (nearest-rank).

    ``ceil(pct/100 * n) - 1`` clamped into ``[0, n-1]``: exact at both
    edges (``pct=100`` maps to the maximum, never one past it — the
    truncation bug an open-coded variant had).
    """
    if n < 1:
        raise ValueError("nearest_rank needs n >= 1")
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"percentile {pct} outside [0, 100]")
    return min(max(math.ceil(pct / 100.0 * n) - 1, 0), n - 1)


def percentile(
    comm: "Comm", local: np.ndarray, pcts: float | Sequence[float]
) -> Any:
    """Nearest-rank percentile(s) of the distributed set; no data moves.

    ``pcts`` may be one percentile or a sequence, each in ``[0, 100]``;
    a sequence returns ``{pct: value}``.  Each maps to global position
    :func:`nearest_rank`, so ``pct=100`` yields the maximum and ``pct=0``
    the minimum.  Each percentile costs one :func:`nth_element` —
    O(log n) ALLREDUCE rounds, zero record movement.
    """
    scalar = np.isscalar(pcts)
    wanted = (float(pcts),) if scalar else tuple(float(p) for p in pcts)
    for pct in wanted:
        # before the first collective, so every rank raises alike
        if not 0.0 <= pct <= 100.0:
            raise ValueError(f"percentile {pct} outside [0, 100]")
    local = np.asarray(local)
    total = int(comm.allreduce(int(local.size)))
    if total < 1:
        raise ValueError("percentile of an empty distributed set")
    out = {}
    for pct in wanted:
        out[pct] = dselect(comm, local, nearest_rank(pct, total)).value
    return out[wanted[0]] if scalar else out


def top_k(comm: "Comm", local: np.ndarray, k: int) -> np.ndarray:
    """The ``k`` globally largest keys, descending; every rank gets all.

    Built on distributed selection: one :func:`nth_element` finds the
    cutoff value, after which only the (at most ``k``) qualifying keys
    travel through an ALLGATHER — never the partitions themselves.
    Duplicate cutoff keys are counted exactly, so the result always has
    ``min(k, n)`` entries.
    """
    if k < 1:
        raise ValueError("top_k needs k >= 1")
    local = np.asarray(local)
    total = int(comm.allreduce(int(local.size)))
    take = min(k, total)
    if take == 0:
        return local[:0]
    if take == total:
        chunks = comm.allgather(np.sort(local))
        merged = np.sort(np.concatenate(chunks))
        return merged[::-1].copy()
    cutoff = dselect(comm, local, total - take).value
    above = np.sort(local[local > cutoff])
    n_above = int(comm.allreduce(int(above.size)))
    chunks = comm.allgather(above)
    merged = np.sort(np.concatenate(chunks))[::-1]
    # exact duplicate handling: pad with copies of the cutoff key
    ties = take - n_above
    if ties > 0:
        pad = np.full(ties, cutoff, dtype=local.dtype)
        merged = np.concatenate([merged, pad])
    return merged.copy()
