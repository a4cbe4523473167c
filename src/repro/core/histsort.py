"""The distributed histogram sort (§V) as one resumable pipeline.

:func:`run_pipeline` runs :data:`STEPS` in order over one
:class:`SortState`: local sort, splitting, exchange plan, data exchange,
local merge (DESIGN.md, "The sort pipeline").  The splitter function is
the only variation point — ``repro.baselines.hss`` plugs its sampled
probes in there.  The first two steps end at a phase marker
(``PH_SORTED``, ``PH_SPLIT``); a state that already carries a marker
skips the steps before it, which is how :mod:`repro.core.resilient`
resumes an epoch from a checkpoint.  Virtual-time phase boundaries are
recorded per rank — the raw material of the Fig. 2(b)/3(b) breakdowns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from ..mpi.checkpoint import MARKER_NAMES, PH_SORTED, PH_SPLIT, PH_START
from ..mpi.ops import MAX
from ..seq.kmerge import sort_keys
from ..trace.timer import PhaseTimer
from .config import SortConfig
from .exchange import ExchangePlan, build_exchange_plan, exchange
from .keys import PackSpec, pack_keys, plan_packing, unpack_keys
from .merge import local_merge
from .multiselect import SplitterResult, find_splitters
from .overlap import exchange_merge_overlap

if TYPE_CHECKING:  # pragma: no cover
    from ..mpi import Comm

__all__ = ["SortResult", "SortState", "histogram_sort", "run_pipeline"]

#: canonical phase names, in execution order
PHASES = ("local_sort", "splitting", "exchange", "merge", "other")


@dataclass(frozen=True)
class SortResult:
    """Output partition plus per-rank diagnostics of one sort run."""

    output: np.ndarray
    phases: dict[str, float]
    splitters: SplitterResult
    plan_bytes: int
    exchanged_bytes: int

    @property
    def rounds(self) -> int:
        """Histogramming iterations taken by the splitting phase."""
        return self.splitters.rounds

    @property
    def time(self) -> float:
        return float(sum(self.phases.values()))


@dataclass
class SortState:
    """What one rank carries from step to step of the pipeline.

    ``local`` is the raw-key input basis — kept through every step so a
    roll-back to ``PH_START`` can always restart from scratch.  ``work``
    and ``spec`` hold the (packed) locally sorted partition once
    ``marker`` reaches ``PH_SORTED``; ``splitters`` the agreed splitter
    set at ``PH_SPLIT``.  ``plan``, ``received`` and ``output`` are the
    products of the last three steps, which are never resumed into.
    """

    local: np.ndarray
    dtype: np.dtype
    marker: int = PH_START
    work: np.ndarray | None = None
    spec: PackSpec | None = None
    splitters: SplitterResult | None = None
    plan: ExchangePlan | None = None
    received: tuple[np.ndarray, np.ndarray] | None = None
    output: np.ndarray | None = None


# Steps share one signature; only ``splitting`` reads the trailing
# ``(capacities, find)``.


def local_sort(comm: "Comm", st: SortState, config: SortConfig, *_) -> None:
    """Superstep 1, after the optional uniquify/pack prologue."""
    compute = comm.cost.compute
    work = st.local
    spec = None
    if config.uniquify:
        max_key = int(work.max()) if work.size else 0
        gmax_key, gmax_n = comm.allreduce((max_key, int(work.size)), op=MAX)
        spec = plan_packing(gmax_key, comm.size, max(gmax_n, 1))
        work = pack_keys(work, comm.rank, spec)
        comm.compute(compute.partition(work.size))
    work = sort_keys(work)
    comm.compute(compute.sort(work.size, work.dtype.itemsize))
    st.work, st.spec = work, spec


def splitting(comm: "Comm", st: SortState, config: SortConfig, capacities, find) -> None:
    """Superstep 2: splitter determination."""
    st.splitters = find(comm, st.work, capacities, config.eps)


def exchange_plan(comm: "Comm", st: SortState, *_) -> None:
    """Algorithm 4: this rank's tie-aware cut positions."""
    st.plan = build_exchange_plan(comm, st.work, st.splitters)


def exchange_data(comm: "Comm", st: SortState, config: SortConfig, *_) -> None:
    """Superstep 3: the single ALL-TO-ALLV data exchange."""
    if config.overlap_exchange:
        # §VI-E.1: 1-factor point-to-point rounds with merges hidden
        # behind communication; supersteps 3 and 4 fuse.
        st.output = exchange_merge_overlap(comm, st.work, st.plan).output
    else:
        st.received = exchange(comm, st.work, st.plan)


def merge(comm: "Comm", st: SortState, config: SortConfig, *_) -> None:
    """Superstep 4: local merge of the received runs, then unpack."""
    if not config.overlap_exchange:
        st.output = local_merge(comm, st.received, strategy=config.merge_strategy)
        st.received = None
    if st.spec is not None:
        st.output = unpack_keys(st.output, st.spec, dtype=st.dtype)
        comm.compute(comm.cost.compute.partition(st.output.size))


#: (phase billed, step, marker reached) — ``None``: never checkpointed,
#: the verification rendezvous right after a sort is its commit point
STEPS = (
    ("local_sort", local_sort, PH_SORTED),
    ("splitting", splitting, PH_SPLIT),
    ("other", exchange_plan, None),
    ("exchange", exchange_data, None),
    ("merge", merge, None),
)


def run_pipeline(
    comm: "Comm",
    st: SortState,
    config: SortConfig,
    capacities: Sequence[int] | None = None,
    *,
    find: Callable[..., SplitterResult] | None = None,
    on_boundary: Callable[[SortState, str | None], None] | None = None,
) -> SortResult:
    """Run the steps ``st.marker`` has not reached yet; collective.

    ``find`` replaces the splitter determination with any
    ``(comm, work, capacities, eps) -> SplitterResult``.  ``on_boundary``
    is called with ``(st, None)`` on entry and ``(st, phase)`` after each
    step that reached a marker; skipped steps still get their (empty)
    phase mark, so every result reports all of :data:`PHASES`.
    """
    if find is None:
        find = partial(find_splitters, config=config.splitter)
    t_begin = comm.clock
    resumed = st.marker
    timer = PhaseTimer(comm)
    if on_boundary is not None:
        on_boundary(st, None)
    for phase, step, reached in STEPS:
        ran = reached is None or st.marker < reached
        if ran:
            step(comm, st, config, capacities, find)
        timer.mark(phase)
        if ran and reached is not None:
            st.marker = reached
            if on_boundary is not None:
                on_boundary(st, phase)

    comm.tracer.record(
        "histogram_sort",
        t_begin,
        rounds=st.splitters.rounds,
        n=int(st.work.size),
        overlap=bool(config.overlap_exchange),
        resumed=MARKER_NAMES[resumed],
    )
    itemsize = int(st.work.dtype.itemsize)
    return SortResult(
        output=st.output,
        phases={name: timer.phases[name] for name in PHASES},
        splitters=st.splitters,
        plan_bytes=st.plan.elements_sent * itemsize,
        exchanged_bytes=st.plan.elements_received * itemsize,
    )


def histogram_sort(
    comm: "Comm",
    local: np.ndarray,
    config: SortConfig | None = None,
    capacities: Sequence[int] | None = None,
) -> SortResult:
    """Sort a distributed array; collective over ``comm``.

    Returns this rank's sorted output partition of exactly the requested
    capacity (input size by default) when ``config.eps == 0``, plus phase
    timings in virtual seconds.
    """
    if config is None:
        config = SortConfig()
    if config.resilient:
        from .resilient import resilient_sort

        return resilient_sort(comm, local, config, capacities)
    local = np.asarray(local)
    if local.ndim != 1:
        raise ValueError("local partition must be 1-D")
    return run_pipeline(comm, SortState(local, local.dtype), config, capacities)
