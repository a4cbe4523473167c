"""Histogram Sort with Sampling — the paper's Charm++ comparator [1].

Harsh, Kale & Solomonik (SPAA'19) iterate histogramming like the histogram
sort, but generate probe candidates by *sampling*: each round draws random
keys from the still-unresolved splitter intervals, histograms the candidate
vector, keeps probes that satisfy their target ranks, and re-samples the
rest.  Convergence therefore depends on sample luck — the volatility the
paper observes in Figs. 2/3 (wide confidence intervals, 5–25 s
histogramming in weak scaling, non-termination on a normal distribution
within the job limit).

This implementation reproduces that structure: interval-tracked targets,
sampled probe generation (``samples_per_round`` per rank), histogram
rounds, and a final tie-aware exchange so the comparison against the
histogram sort is about *splitter determination*, not tie handling.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..core.config import SortConfig
from ..core.histsort import SortState, run_pipeline
from ..core.multiselect import (
    _MINMAX,
    SplitterResult,
    _ProbeArithmetic,
    accept_or_tighten,
    tightened_ranks,
)
from ..seq.search import local_histogram
from .common import BaselineResult

if TYPE_CHECKING:  # pragma: no cover
    from ..mpi import Comm

__all__ = ["hss_sort", "hss_splitters", "HSSDiagnostics"]


@dataclass(frozen=True)
class HSSDiagnostics(SplitterResult):
    """The splitter step's result (``rounds``, ``probes_total``, ...) plus
    whether the sampled probes closed every boundary within the budget."""

    converged: bool = True


def hss_sort(
    comm: "Comm",
    local: np.ndarray,
    eps: float = 0.0,
    samples_per_round: int = 12,
    max_rounds: int = 128,
    seed: int = 1,
    sampling: str = "global",
) -> BaselineResult:
    """Sort via sampled iterative histogramming (HSS).

    The histogram sort's pipeline (:func:`repro.core.histsort.run_pipeline`,
    binary-tree merge) with :func:`hss_splitters` as its splitter step, so
    the comparison against the histogram sort is about *splitter
    determination* alone.
    """
    local = np.asarray(local)
    res = run_pipeline(
        comm,
        SortState(local, local.dtype),
        SortConfig(eps=eps, merge_strategy="binary_tree"),
        find=partial(
            hss_splitters,
            samples_per_round=samples_per_round,
            max_rounds=max_rounds,
            seed=seed,
            sampling=sampling,
        ),
    )
    return BaselineResult(
        output=res.output, phases=res.phases, info={"diagnostics": res.splitters}
    )


def hss_splitters(
    comm: "Comm",
    work: np.ndarray,
    capacities: Sequence[int] | None = None,
    eps: float = 0.0,
    *,
    samples_per_round: int = 12,
    max_rounds: int = 128,
    seed: int = 1,
    sampling: str = "global",
) -> HSSDiagnostics:
    """Splitter determination by sampled probes; same shape as
    :func:`repro.core.multiselect.find_splitters`.

    ``sampling`` selects the probe generator:

    * ``"global"`` (default) — every round draws random keys from the whole
      local partition and keeps those that fall into a still-open splitter
      interval.  Narrow intervals are rarely hit, so convergence is slow
      and seed-dependent — this mirrors the "improper sampling in each
      histogramming round" the paper suspects in the Charm++ runs and
      reproduces their volatility.
    * ``"interval"`` — importance sampling inside each open interval (the
      idealized HSS of the SPAA'19 paper): a handful of rounds suffice.

    With ``eps == 0`` exact boundary ranks are required; sampled probes can
    only *bracket* them, so the final boundary refinement falls back to the
    achievable-interval acceptance (as the Charm++ code must around ties).
    """
    if sampling not in ("global", "interval"):
        raise ValueError(f"sampling must be 'global' or 'interval', got {sampling!r}")
    p = comm.size
    m = p - 1
    compute = comm.cost.compute
    dtype = work.dtype

    sizes = np.asarray(comm.allgather(int(work.size)), dtype=np.int64)
    caps = sizes if capacities is None else np.asarray(capacities, dtype=np.int64)
    total = int(sizes.sum())
    targets = np.cumsum(caps)[:-1]
    tol = max(int(np.floor(eps * total / (2 * p))), 0)
    if total == 0 or m == 0:
        return HSSDiagnostics.trivial(dtype, targets, caps, total, tol)
    rng = np.random.Generator(np.random.MT19937([seed, comm.rank]))

    # Interval state per boundary: value bounds and their achieved ranks.
    gmin, gmax = comm.allreduce(_ProbeArithmetic(dtype).extremes(work), op=_MINMAX)

    lo_val = np.full(m, gmin, dtype=dtype)
    hi_val = np.full(m, gmax, dtype=dtype)
    lo_rank = np.zeros(m, dtype=np.int64)           # rank of lo_val (keys < lo)
    hi_rank = np.full(m, total, dtype=np.int64)     # at-or-below count of hi_val
    values = np.empty(m, dtype=dtype)
    realized = np.zeros(m, dtype=np.int64)
    lower = np.zeros(m, dtype=np.int64)
    upper = np.zeros(m, dtype=np.int64)
    active = np.ones(m, dtype=bool)

    rounds = 0
    probes_total = 0
    tracer = comm.tracer
    while active.any() and rounds < max_rounds:
        t_round = comm.clock
        rounds += 1
        act = np.flatnonzero(active)
        # Sampled probe generation (the "sampling" of HSS); one gathering
        # round merges every rank's proposals into the candidate vector.
        if sampling == "interval":
            proposals = []
            for i in act:
                a = int(np.searchsorted(work, lo_val[i], side="right"))
                b = int(np.searchsorted(work, hi_val[i], side="left"))
                if b > a:
                    take = min(samples_per_round, b - a)
                    idx = rng.integers(a, b, size=take)
                    proposals.append(work[idx])
                else:
                    proposals.append(work[:0])
            flat = np.concatenate(proposals) if proposals else work[:0]
        else:
            # Global sampling: draw from the whole partition, keep what
            # lands in any open interval.
            take = min(samples_per_round * max(act.size, 1), int(work.size))
            draw = work[rng.integers(0, work.size, size=take)] if take else work[:0]
            keep = np.zeros(draw.size, dtype=bool)
            for i in act:
                keep |= (draw > lo_val[i]) & (draw < hi_val[i])
            flat = draw[keep]
        gathered = comm.allgather(flat)
        # Two deterministic probe families ride along with the samples:
        # the current interval bounds (duplicate-run boundaries resolve
        # once a bracket collapses onto the duplicated value) and a
        # rank-interpolated probe per open target — HSS's regula-falsi
        # style refinement, whose convergence is fast exactly when the key
        # CDF is locally linear and slow on skewed regions (the source of
        # the volatility the paper observes).
        t = targets[act]
        lo, hi = lo_val[act], hi_val[act]
        span = (hi_rank[act] - lo_rank[act]).astype(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = np.where(span > 0, (t - lo_rank[act]) / span, 0.5).clip(0.02, 0.98)
        lo64 = lo.astype(np.float64)
        interp = (lo64 + (hi.astype(np.float64) - lo64) * frac).astype(dtype)
        cand = np.unique(np.concatenate([*gathered, lo, hi, interp]))
        cand = cand[(cand >= gmin) & (cand <= gmax)]
        comm.compute(compute.sort(max(int(cand.size), 1)))

        l_loc, u_loc = local_histogram(work, cand)
        comm.compute(compute.search(2 * int(cand.size), max(int(work.size), 1)))
        glob = comm.allreduce(np.concatenate([l_loc, u_loc]))
        L, U = glob[: cand.size], glob[cand.size :]
        probes_total += int(cand.size)

        # Accept the first candidate achieving a target within tolerance,
        # otherwise shrink its interval to the bracketing candidates.
        hit, first, lo_val[act], hi_val[act] = accept_or_tighten(cand, L, U, t, tol, lo, hi)
        lo_rank[act], hi_rank[act] = tightened_ranks(
            first, L, U, lo_val[act] > lo, hi_val[act] < hi, lo_rank[act], hi_rank[act]
        )
        done, j = act[hit], first[hit]
        values[done] = cand[j]
        lower[done], upper[done] = L[j], U[j]
        realized[done] = np.clip(t[hit], L[j], U[j])
        active[done] = False
        comm.compute(compute.call_overhead + 2.0e-9 * int(cand.size))
        tracer.record(
            "hss_round",
            t_round,
            round=rounds,
            candidates=int(cand.size),
            open=int(active.sum()),
        )

    converged = not active.any()
    if not converged:
        # Residual open boundaries: resolve on their upper endpoints with a
        # final exact histogram (what keeps HSS from hanging forever on
        # duplicate-heavy inputs; the Charm++ prototype lacked this and
        # timed out — see §VI-B).
        act = np.flatnonzero(active)
        probes = hi_val[act].astype(dtype)
        l_loc, u_loc = local_histogram(work, probes)
        glob = comm.allreduce(np.concatenate([l_loc, u_loc]))
        L, U = glob[: act.size], glob[act.size :]
        for j, i in enumerate(act):
            values[i] = probes[j]
            lower[i], upper[i] = int(L[j]), int(U[j])
            realized[i] = int(np.clip(targets[i], L[j], U[j]))
            active[i] = False

    # Sort the accepted values (independent per-target acceptance can land
    # out of order around ties) and re-derive exact global bounds so the
    # exchange's rank-order fill sees consistent numbers even for
    # tol-accepted probes.
    values = np.sort(values)
    l_loc, u_loc = local_histogram(work, values)
    glob = comm.allreduce(np.concatenate([l_loc, u_loc]))
    lower = glob[: values.size].astype(np.int64)
    upper = glob[values.size :].astype(np.int64)
    realized = np.clip(targets, lower, upper)
    realized = np.maximum.accumulate(realized)

    return HSSDiagnostics(
        values=values,
        realized_ranks=realized,
        lower=lower,
        upper=upper,
        targets=targets,
        capacities=caps,
        total=total,
        tolerance=tol,
        rounds=rounds,
        probes_total=probes_total,
        converged=converged,
    )
