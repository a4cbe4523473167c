"""ULFM-style fault-tolerant driver around the histogram sort.

The resilient sort runs :func:`~repro.core.histsort.run_pipeline` over a
resumable :class:`~repro.core.histsort.SortState` on the communicator it is
given — the same collectives a plain sort runs, whose rendezvous prices
injected drops, duplicates and delays as retransmissions — inside one
recovery loop modelled on MPI's User-Level Failure Mitigation (ULFM)
proposal.  One state machine, whatever the mode:

1. **Detect.**  Run one *epoch* of the sort on the current communicator.
   A rank that observes a failure (any of :data:`RECOVERABLE`: a crashed
   peer, a revoked communicator, an unhealable link) **revokes** the
   communicator, which hoists every surviving peer out of its wait.
2. **Rendezvous.**  Every live rank ends the epoch in exactly one
   fault-tolerant pool round (:mod:`repro.mpi.spare`), immune to both
   revocation and crashes.  It is the only exit: either every survivor
   returns (all finished and the output verified globally), or every
   survivor gets the same ``recover`` verdict — no rank is left behind.
3. **Recover.**  The verdict names a fresh communicator and how each
   crashed member's place and data are made good, from what the run has:
   a warm spare (``run_spmd(..., spares=k)``) is **substituted** for it,
   keeping ``p`` and any capacity-tuned plan valid; its buddy replica
   (``SortConfig(checkpoint=True)``, :mod:`repro.mpi.checkpoint`) is
   **restored** into the substitute or, with the pool empty, **salvaged**
   into the surviving buddy; with neither, the survivors **shrink** and
   its input is reported in ``lost``.
4. **Resume.**  The epoch restarts from the deepest phase every member has
   checkpointed (``PH_START`` → input, ``PH_SORTED`` → skip the local
   sort, ``PH_SPLIT`` → skip splitter determination too); a membership
   change always restarts at ``PH_START``, since splitters and capacity
   targets depend on the rank count.

With no spares and no checkpoints this is plain shrink-and-restart: a
verified sort of the *survivors'* data.  With checkpoints only an adjacent
double failure (a rank and its buddy in the same epoch) loses data.  Every
mode is deterministic under a seeded :class:`~repro.faults.FaultPlan`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from ..mpi import Comm
from ..mpi.checkpoint import (
    MARKER_NAMES,
    PH_SORTED,
    PH_SPLIT,
    PH_START,
    BuddyCheckpointer,
    move,
)
from ..mpi.errors import CommRevokedError, MessageTimeoutError, RankFailedError
from ..mpi.spare import PoolVerdict, pool_round
from .config import SortConfig
from .histsort import SortResult, SortState, run_pipeline


__all__ = ["ResilientSortResult", "RecoveryExhaustedError", "resilient_sort"]

#: failures a recovery epoch can absorb; anything else is a bug and escapes
RECOVERABLE = (RankFailedError, CommRevokedError, MessageTimeoutError)


class RecoveryExhaustedError(RuntimeError):
    """The recovery loop hit ``max_recovery_attempts`` without agreement."""


@dataclass(frozen=True)
class ResilientSortResult:
    """A verified sort of the recoverable data.

    ``output`` is this rank's partition of the globally sorted data;
    ``comm`` is the (possibly substituted or shrunk) communicator it
    lives on.  ``survivors`` and ``failed`` are world ranks;
    ``spares_used`` counts pool substitutions; ``lost`` names, by initial
    rank in the sorted communicator, every member whose input is not in
    the output — without checkpoints every ``failed`` member, with them
    only a rank whose buddy died in the same epoch.
    """

    output: np.ndarray
    result: SortResult
    comm: Comm
    attempts: int
    survivors: tuple[int, ...]
    failed: tuple[int, ...]
    spares_used: int = 0
    lost: tuple[int, ...] = ()

    @property
    def phases(self) -> dict[str, float]:
        """Phase breakdown of the successful epoch."""
        return self.result.phases

    @property
    def splitters(self):
        return self.result.splitters

    @property
    def rounds(self) -> int:
        return self.result.rounds

    @property
    def exchanged_bytes(self) -> int:
        return self.result.exchanged_bytes


def _verified(work: Comm, n_in: int, output: np.ndarray) -> bool:
    """Global output verification (collective over ``work``): element
    conservation across the live ranks plus sorted, non-overlapping
    partition boundaries."""
    lo = float(output[0]) if output.size else None
    hi = float(output[-1]) if output.size else None
    if output.size and np.any(np.diff(output) < 0):
        return False
    cells = work.allgather((int(n_in), int(output.size), lo, hi))
    if sum(c[0] for c in cells) != sum(c[1] for c in cells):
        return False
    prev_hi = None
    for _, n_out, c_lo, c_hi in cells:
        if n_out == 0:
            continue
        if prev_hi is not None and c_lo < prev_hi:
            return False
        prev_hi = c_hi
    return True


def resilient_sort(
    comm: Comm,
    local: np.ndarray,
    config: SortConfig | None = None,
    capacities: Sequence[int] | None = None,
) -> ResilientSortResult:
    """Fault-tolerant :func:`~repro.core.histsort.histogram_sort`; collective
    over ``comm``.

    Completes a verified sort of the recoverable data under injected
    message drops, duplications, delays, and rank crashes, or raises a
    typed error (:class:`RecoveryExhaustedError` after too many epochs;
    :class:`RankFailedError` if this rank cannot take part in recovery).
    While spares are parked, ``comm`` must be the communicator ``run_spmd``
    handed out (``ValueError`` otherwise).
    Never hangs: blocked survivors are hoisted out by revocation, crashed
    peers by the runtime's failure notifications, and a message the plan
    drops on every attempt by the retry ladder's
    :class:`~repro.mpi.MessageTimeoutError`.
    """
    if config is None:
        config = SortConfig(resilient=True)
    local = np.asarray(local)
    if local.ndim != 1:
        raise ValueError("local partition must be 1-D")
    rt = comm._rt
    if rt.pool_open and comm._state is not rt.active_state:
        raise ValueError(
            "with spares, a resilient sort must run on the communicator "
            "run_spmd handed out: spares substitute into its positions"
        )
    initial_members = tuple(comm.world_ranks)
    st = _EpochState(local=local.copy(), dtype=local.dtype,
                     origins=(comm.rank,))
    meta = {
        "config": config,
        "capacities": None if capacities is None else tuple(capacities),
        "initial_members": initial_members,
        "dtype": local.dtype,
    }
    start = PoolVerdict(
        kind="start",
        origin_map={i: (i,) for i in range(len(initial_members))})
    return _epoch_loop(rt, comm, st, meta, start)


@dataclass
class _EpochState(SortState):
    """One rank's restartable sort state between recovery epochs.

    ``origins`` are the initial ring positions whose input data this
    rank currently carries (the unit of loss accounting).
    """

    origins: tuple[int, ...] = ()

    def n_in(self) -> int:
        """Elements this rank brings into the epoch (packing is 1:1)."""
        if self.marker >= PH_SORTED and self.work is not None:
            return int(self.work.size)
        return int(self.local.size)


def _substitute_entry(rt, wc, verdict: PoolVerdict, pos: int):
    """Continuation a spare runs after the pool assigned it position
    ``pos`` (deposited by the actives; see :func:`repro.mpi.spare.spare_main`).
    Receives the buddy replica planned for it (if any) and joins the
    epoch loop as a full member."""
    meta = verdict.meta
    work = Comm(verdict.state, pos)
    st = _EpochState(local=np.empty(0, dtype=meta["dtype"]),
                     dtype=meta["dtype"], origins=())
    try:
        _run_transfers(work, st, None, verdict)
    except RECOVERABLE:
        work.revoke()
    return _epoch_loop(rt, work, st, meta, verdict)


def _epoch_loop(rt, work: Comm, st: _EpochState, meta: dict,
                verdict: PoolVerdict) -> ResilientSortResult:
    """The recovery loop: run epochs until the pool rendezvous declares
    the sort done (or the attempt budget is exhausted).  ``verdict`` is
    the bookkeeping this rank starts from: the round that made it a
    member, or the driver's ``start``."""
    config: SortConfig = meta["config"]
    initial_members: tuple[int, ...] = meta["initial_members"]
    ckpt = BuddyCheckpointer() if config.checkpoint else None
    while True:
        epoch = verdict.epoch + 1
        result: SortResult | None = None
        ok = True
        try:
            n_in = st.n_in()
            # Tuned capacities are only meaningful while the rank count
            # and the input multiset both match the original plan.
            caps = (meta["capacities"]
                    if work.size == len(initial_members) and not verdict.lost
                    else None)
            result = run_pipeline(
                work, st, config, caps,
                on_boundary=(None if ckpt is None
                             else partial(_checkpoint, ckpt, work)),
            )
            ok = _verified(work, n_in, result.output)
        except RECOVERABLE:
            work.revoke()
            ok = False
        deposit = ("active", {
            "pos": work.rank,
            "positions": tuple(work.world_ranks),
            "ok": ok,
            "marker": st.marker,
            "origins": st.origins,
            "held": (None if ckpt is None or ckpt.held is None
                     else (ckpt.held.owner_pos, ckpt.held.marker)),
            "splitters": st.splitters,
            "lost": verdict.lost,
            "origin_map": verdict.origin_map,
            "epoch": epoch,
            "max_epochs": config.max_recovery_attempts,
            "spares_used": verdict.spares_used,
            "cont": _substitute_entry,
            "meta": meta,
        })
        verdict = pool_round(rt, deposit, work)
        if verdict.kind == "done":
            assert result is not None
            survivors = tuple(work.world_ranks)
            return ResilientSortResult(
                output=result.output,
                result=result,
                comm=work,
                attempts=epoch,
                survivors=survivors,
                failed=tuple(r for r in initial_members
                             if r not in survivors),
                spares_used=verdict.spares_used,
                lost=verdict.lost,
            )
        if verdict.kind == "exhausted":
            raise RecoveryExhaustedError(
                f"sort did not complete within "
                f"{config.max_recovery_attempts} recovery attempts"
            )
        assert verdict.kind == "recover", verdict.kind
        work = _apply_recovery(work, st, ckpt, verdict)


def _apply_recovery(work: Comm, st: _EpochState,
                    ckpt: BuddyCheckpointer | None,
                    verdict: PoolVerdict) -> Comm:
    """Move a surviving rank onto the recovered communicator: roll state
    back to the agreed resume phase and execute this rank's share of the
    planned replica transfers.  A failure *during* recovery revokes the
    new communicator, which turns the next epoch into an immediate
    recoverable failure — the following rendezvous plans again."""
    t0 = work.clock
    new_pos = verdict.positions.index(work.world_rank)
    nw = Comm(verdict.state, new_pos)
    _rollback(st, verdict)
    try:
        _run_transfers(nw, st, ckpt, verdict)
    except RECOVERABLE:
        nw.revoke()
    if ckpt is not None and verdict.shrunk:
        # Positions renumbered: replicas keyed by the old numbering must
        # never be offered as restore sources for the new one.  The
        # epoch-start refresh rebuilds them under the new membership.
        ckpt.held = None
    tracer = nw.tracer
    if tracer.enabled:
        tracer.record("recover", t0, cat="fault", attempt=verdict.epoch,
                      survivors=nw.size,
                      resume=MARKER_NAMES[verdict.resume_marker],
                      substituted=len(verdict.assigned),
                      shrunk=verdict.shrunk)
    return nw


def _rollback(st: _EpochState, verdict: PoolVerdict) -> None:
    """Roll phase progress back to the verdict's resume marker (the
    minimum over the new membership — deeper progress of this rank is
    discarded so every member replays the same phases)."""
    st.marker = min(st.marker, verdict.resume_marker)
    if st.marker >= PH_SPLIT:
        st.splitters = verdict.splitters
    else:
        st.splitters = None
    if st.marker < PH_SORTED:
        st.work = None
        st.spec = None


def _run_transfers(nw: Comm, st: _EpochState,
                   ckpt: BuddyCheckpointer | None,
                   verdict: PoolVerdict) -> None:
    """Execute this rank's share of the verdict's replica transfers.

    The restores are one :func:`~repro.mpi.checkpoint.move` over the new
    communicator, which every member enters when there are any: a holder
    ships its replica to its target.  A fresh substitute (``ckpt`` is
    ``None``: it holds no replica yet) only ever receives."""
    if verdict.restores:
        dest = payload = None
        for holder, target in verdict.restores:
            if nw.rank == holder:
                assert ckpt is not None
                dest, payload = target, ckpt.held
            elif nw.rank == target:
                # Dataless until the replica actually lands: if the transfer
                # fails we must not claim data we do not hold (the next
                # rendezvous re-plans the restore from the live buddy).
                st.local = np.empty(0, dtype=st.dtype)
                st.origins = ()
                st.work = None
                st.spec = None
                st.marker = PH_START
        rep = move(nw, "restore", dest, payload)
        if rep is not None:
            nw._rt._count_fault("restored")
            _load_replica(st, rep, verdict.resume_marker)
            if st.marker >= PH_SPLIT:
                st.splitters = verdict.splitters
    for holder in verdict.salvages:
        if nw.rank == holder and ckpt is not None and ckpt.held is not None:
            # Shrink fallback: fold the dropped owner's replica into this
            # rank's input basis so its data still reaches the output.
            extra = ckpt.held.unpacked()
            st.local = (np.concatenate([st.local, extra])
                        if st.local.size else extra.copy())
            st.origins = tuple(sorted(set(st.origins)
                                      | set(ckpt.held.origins)))


def _load_replica(st: _EpochState, rep, resume: int) -> None:
    """Adopt a buddy replica as this rank's partition state."""
    st.origins = tuple(rep.origins)
    if rep.dtype is not None:
        st.dtype = rep.dtype
    st.local = rep.unpacked()
    if resume >= PH_SORTED and rep.marker >= PH_SORTED:
        st.work = rep.data
        st.spec = rep.spec
        st.marker = min(int(rep.marker), resume)
    else:
        st.work = None
        st.spec = None
        st.marker = PH_START


def _checkpoint(ckpt: BuddyCheckpointer, work: Comm,
                st: _EpochState, phase: str | None) -> None:
    """Pipeline boundary callback: replicate ``st`` to the ring buddy."""
    if phase == "splitting":
        # Splitters are identical on every rank; a marker-only ring
        # update suffices (survivors re-share them at recovery).
        ckpt.save_marker(work, PH_SPLIT)
    elif st.marker >= PH_SORTED:
        # After the local sort — or, on entry (``phase is None``), the
        # epoch-start refresh: every buddy (including a fresh
        # substitute's) holds a current replica before new failures can
        # strike, and replicas invalidated by a membership change are
        # replaced under the new numbering.
        ckpt.save(work, st.marker, st.origins, st.work, st.spec, st.dtype)
    else:
        ckpt.save(work, PH_START, st.origins, st.local, None, st.dtype)
