"""Sample sort baselines (§III-A): random sampling and regular sampling (PSRS).

Random sample sort follows the paper's three supersteps verbatim: sample →
central splitter selection → one ALL-TO-ALL exchange + local sort.  Regular
sampling (Shi & Schaeffer's PSRS) probes an already-sorted partition at
regular offsets, which in practice balances much better (§III-A).

Neither guarantees perfect partitioning: output sizes deviate according to
sample luck, which is exactly the behaviour the histogram sort's splitting
phase removes.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..core.merge import local_merge
from ..seq.kmerge import sort_keys
from ..trace.timer import PhaseTimer
from .common import BaselineResult, exchange_by_splitters

if TYPE_CHECKING:  # pragma: no cover
    from ..mpi import Comm

__all__ = ["sample_sort", "psrs_sort"]


def sample_sort(
    comm: "Comm",
    local: np.ndarray,
    oversampling: int = 32,
    seed: int = 1,
) -> BaselineResult:
    """Random-sampling sample sort.

    ``oversampling`` random keys per rank are gathered on rank 0, which
    sorts them and broadcasts every ``oversampling``-th as a splitter.
    """
    draw = partial(_random_sample, oversampling=oversampling, seed=seed)
    return _sort_by_sample(comm, local, draw, oversampling=oversampling)


def psrs_sort(comm: "Comm", local: np.ndarray) -> BaselineResult:
    """Parallel Sorting by Regular Sampling (deterministic splitters)."""
    return _sort_by_sample(comm, local, _regular_sample)


def _sort_by_sample(
    comm: "Comm", local: np.ndarray, draw: Callable, **info
) -> BaselineResult:
    """The three supersteps both sample sorts share.

    ``draw(comm, local, timer)`` gathers the sample on rank 0 and returns
    it with the sorted partition if drawing needed one (else ``None``).
    """
    local = np.asarray(local)
    timer = PhaseTimer(comm)
    if comm.size == 1:
        out = _local_sort(comm, local)
        timer.mark("merge")
        return BaselineResult(output=out, phases=dict(timer.phases))

    gathered, work = draw(comm, local, timer)
    splitters = _select_splitters(comm, gathered, local.dtype)
    timer.mark("splitting")

    if work is None:
        work = _local_sort(comm, local)
    received = exchange_by_splitters(comm, work, splitters)
    timer.mark("exchange")

    output = local_merge(comm, received, strategy="binary_tree")
    timer.mark("merge")

    return BaselineResult(
        output=output,
        phases=dict(timer.phases),
        info={"splitters": splitters, **info},
    )


def _local_sort(comm: "Comm", local: np.ndarray) -> np.ndarray:
    work = sort_keys(local)
    comm.compute(comm.cost.compute.sort(work.size))
    return work


def _random_sample(comm: "Comm", local: np.ndarray, timer: PhaseTimer,
                   oversampling: int, seed: int):
    """``oversampling`` random keys of the unsorted partition per rank."""
    rng = np.random.Generator(np.random.MT19937([seed, comm.rank]))
    s = min(oversampling, local.size)
    sample = local[rng.integers(0, local.size, size=s)] if s else local[:0]
    gathered = comm.gather(sample, root=0)
    timer.mark("sampling")
    return gathered, None


def _regular_sample(comm: "Comm", local: np.ndarray, timer: PhaseTimer):
    """``p-1`` keys per rank at offsets ``(i+1) * n / p`` of the sorted
    partition — regular sampling probes a sorted run, so sort first."""
    p = comm.size
    work = _local_sort(comm, local)
    timer.mark("local_sort")
    sample = work[(np.arange(1, p) * work.size) // p] if work.size else work[:0]
    return comm.gather(sample, root=0), work


def _select_splitters(comm: "Comm", gathered, dtype: np.dtype) -> np.ndarray:
    """Central splitter selection: rank 0 sorts the gathered sample and
    broadcasts every ``len/p``-th key."""
    p = comm.size
    if comm.rank == 0:
        flat = np.sort(np.concatenate(gathered))
        comm.compute(comm.cost.compute.sort(flat.size))
        if flat.size >= p - 1:
            splitters = flat[(np.arange(1, p) * flat.size) // p]
        else:
            # Degenerate sample (tiny inputs): pad with the sample maximum
            # so the trailing destinations receive nothing.
            pad = flat[-1] if flat.size else dtype.type(0)
            splitters = np.concatenate(
                [flat, np.full(p - 1 - flat.size, pad, dtype=flat.dtype)]
            )
    else:
        splitters = None
    return comm.bcast(splitters, root=0)
