"""Happens-before race detector + buffer-lifetime sanitizer (runtime half).

The in-process SPMD runtime passes numpy payloads between rank *threads*,
so the aliasing bugs real MPI programs hit — mutating a buffer that an
``isend`` still owns, holding a received reference that aliases the
sender's live array, racing on an object shared through closures — are
all expressible here, and all invisible to the protocol-level checks
every run makes (collective congruence, deadlocks, leak accounting).
``run_spmd(..., sanitize=True)`` (or ``REPRO_SANITIZE=1``) attaches a
:class:`Sanitizer` that catches them deterministically:

* **WRITE-AFTER-ISEND** — buffers handed to ``isend`` are fingerprinted
  (strided content samples, shape, dtype) and re-checked when the request
  completes; a digest change means the sender mutated an in-flight buffer.
  Legal on this eager-copy runtime, silent corruption on real MPI.
* **RECV-ALIAS** — every message carries weak references to the sender's
  original arrays; at delivery (and at collective extraction) the payload
  is tested with ``np.shares_memory`` against the live originals.  A hit
  means the copy discipline broke (e.g. a payload object whose
  ``__deepcopy__`` returns ``self``) and two ranks now share one buffer.
* **HB-RACE** — per-rank vector clocks (:mod:`~repro.sanitize.vclock`)
  advance at every send/recv/collective edge; accesses to objects shared
  across rank closures (annotated with ``comm.mark_read`` /
  ``comm.mark_write``, plus automatic read annotations when a tracked
  array is sent) are checked FastTrack-style for unordered pairs.

The sanitizer only *observes*: it never touches ``runtime.clocks``, so a
sanitized run's virtual clocks and results are bit-identical to an
unsanitized run's — the same guarantee tracing gives, and the two
compose freely.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from ..mpi.payload import iter_arrays
from ..mpi.waitstate import call_site
from .report import (
    HB_RACE,
    RECV_ALIAS,
    WRITE_AFTER_ISEND,
    SanitizeFinding,
    SanitizerError,
)
from .shadow import AccessHistory, InflightRecord, payload_fingerprints, weak_ref
from .vclock import VClockTable, leq

if TYPE_CHECKING:  # pragma: no cover
    from ..mpi.comm import _CommState
    from ..mpi.runtime import Runtime

__all__ = [
    "Sanitizer",
    "SanitizeFinding",
    "SanitizerError",
    "WRITE_AFTER_ISEND",
    "RECV_ALIAS",
    "HB_RACE",
]


@dataclass
class _MsgNote:
    """Sanitizer annotation piggybacked on one in-flight message."""

    vc: tuple[int, ...]
    origins: list  # weakrefs to the sender's original arrays
    src_world: int


def _describe(arr: np.ndarray) -> str:
    return f"ndarray(shape={arr.shape}, dtype={arr.dtype}, id=0x{id(arr):x})"


class Sanitizer:
    """Online memory-hazard detector for one :class:`~repro.mpi.Runtime`.

    All state lives behind one lock; every hook is called with no runtime
    lock held (send hooks run before the mailbox append, receive hooks
    after the message left the mailbox, collective hooks outside the
    rendezvous condition), so the lock is a leaf and cannot deadlock.
    Collectives keep nothing here: the rendezvous holds each member's
    entry snapshot beside its deposit, for the generation's lifetime.
    """

    def __init__(self, runtime: "Runtime"):
        self.runtime = runtime
        self.size = runtime.size
        self._lock = threading.Lock()
        self.vclocks = VClockTable(self.size)
        self._opnum = [0] * self.size
        self._findings: list[SanitizeFinding] = []
        self._seen: set[tuple] = set()
        #: id(obj) -> AccessHistory for closure-shared objects
        self._shared: dict[int, AccessHistory] = {}

    # ------------------------------------------------------------- findings

    @property
    def findings(self) -> list[SanitizeFinding]:
        """Deduplicated findings in deterministic order."""
        with self._lock:
            out = list(self._findings)
        return sorted(out, key=lambda f: (f.world_rank, f.opnum, f.kind, f.message))

    def raise_if_findings(self) -> None:
        """Raise :class:`SanitizerError` when the run detected hazards."""
        found = self.findings
        if found:
            raise SanitizerError(found)

    def _report_locked(
        self, kind: str, world_rank: int, op: str, message: str
    ) -> None:
        finding = SanitizeFinding(
            kind,
            world_rank,
            op,
            self._opnum[world_rank],
            self.vclocks.snapshot(world_rank),
            message,
        )
        if finding.key not in self._seen:
            self._seen.add(finding.key)
            self._findings.append(finding)

    # ---------------------------------------------------------------- p2p

    def on_send(
        self, world_rank: int, payload: Any, dest: int, tag: int, op: str = "send"
    ) -> _MsgNote:
        """Send edge: auto-read tracked arrays, tick, snapshot for piggyback."""
        arrays = list(iter_arrays(payload))
        with self._lock:
            self._opnum[world_rank] += 1
            for arr in arrays:
                self._auto_read_locked(world_rank, arr, op)
            self.vclocks.tick(world_rank)
            note = _MsgNote(
                self.vclocks.snapshot(world_rank),
                [weak_ref(arr) for arr in arrays],
                world_rank,
            )
        return note

    def on_recv(
        self,
        world_rank: int,
        payload: Any,
        note: "_MsgNote | None",
        src_world: int,
        tag: int,
        op: str = "recv",
    ) -> None:
        """Delivery edge: join the sender's clock, then alias-check the
        delivered payload against the sender's live originals."""
        delivered = list(iter_arrays(payload))
        with self._lock:
            self._opnum[world_rank] += 1
            if note is not None:
                self.vclocks.merge(world_rank, note.vc)
            self.vclocks.tick(world_rank)
            if note is None:
                return
            for ref in note.origins:
                src_arr = ref() if ref is not None else None
                if src_arr is None:
                    continue
                for arr in delivered:
                    if np.shares_memory(arr, src_arr):
                        self._report_locked(
                            RECV_ALIAS,
                            world_rank,
                            op,
                            f"payload received from rank {src_world} "
                            f"(tag={tag}) aliases the sender's live "
                            f"{_describe(src_arr)}; the copy discipline is "
                            "broken (payload defeats copy_payload?) and both "
                            "ranks now mutate one buffer",
                        )

    def begin_isend(
        self, world_rank: int, payload: Any, dest: int, tag: int
    ) -> "InflightRecord | None":
        """Fingerprint the user's buffers at ``isend`` entry; the record is
        re-checked by :meth:`check_inflight` when the request completes."""
        entries = payload_fingerprints(payload, iter_arrays)
        if not entries:
            return None
        with self._lock:
            return InflightRecord(
                world_rank,
                dest,
                tag,
                self._opnum[world_rank] + 1,  # the send edge about to happen
                self.vclocks.snapshot(world_rank),
                call_site(),
                entries,
            )

    def check_inflight(self, record: InflightRecord) -> None:
        """Completion edge of an ``isend`` request (``wait()``/``test()``)."""
        mutated = record.mutated()
        if not mutated:
            return
        with self._lock:
            for arr in mutated:
                self._report_locked(
                    WRITE_AFTER_ISEND,
                    record.world_rank,
                    "isend",
                    f"buffer {_describe(arr)} passed to isend(dest="
                    f"{record.dest}, tag={record.tag}) at {record.site} was "
                    "mutated before the request completed; real MPI does not "
                    "copy eagerly, so the receiver would see the torn write",
                )

    # --------------------------------------------------------- collectives

    def collective_entry(
        self, state: "_CommState", idx: int, deposit: Any, op: str
    ) -> tuple[int, ...]:
        """Deposit edge of a member's collective on ``state``, called before
        the deposit is visible: returns the member's clock snapshot, which
        the rendezvous keeps beside the deposit for :meth:`collective_exit`."""
        wr = state.world_ranks[idx]
        with self._lock:
            self._opnum[wr] += 1
            for arr in iter_arrays(deposit):
                self._auto_read_locked(wr, arr, op)
            return self.vclocks.snapshot(wr)

    def collective_exit(
        self, state: "_CommState", idx: int, deposits: list, notes: list,
        out: Any, op: str,
    ) -> None:
        """Extraction edge, reading the generation's buffers (complete, not
        yet reused): join every member's entry clock from ``notes`` (one
        snapshot per member) — a collective is a full synchronization — and
        alias-check this member's result against the other members' live
        ``deposits``."""
        extracted = list(iter_arrays(out))
        wr = state.world_ranks[idx]
        with self._lock:
            for snap in notes:
                self.vclocks.merge(wr, snap)
            self.vclocks.tick(wr)
            for j, deposit in enumerate(deposits):
                if j == idx:
                    continue
                for src_arr in iter_arrays(deposit):
                    for arr in extracted:
                        if np.shares_memory(arr, src_arr):
                            self._report_locked(
                                RECV_ALIAS,
                                wr,
                                op,
                                f"result extracted from collective '{op}' on "
                                f"comm#{state.trace_id} aliases rank "
                                f"{state.world_ranks[j]}'s live deposit "
                                f"{_describe(src_arr)}",
                            )

    # ------------------------------------------------------- shared objects

    def mark_write(self, world_rank: int, obj: Any) -> None:
        """Record a write to a closure-shared object by ``world_rank``."""
        site = call_site()
        with self._lock:
            hist = self._history_locked(obj)
            now = self.vclocks.snapshot(world_rank)
            if hist.write is not None:
                w_rank, w_vc, w_site = hist.write
                if w_rank != world_rank and not leq(w_vc, now):
                    self._race_locked(
                        world_rank, "write", site, w_rank, "write", w_site, obj
                    )
            for q, (r_vc, r_site) in hist.reads.items():
                if q != world_rank and not leq(r_vc, now):
                    self._race_locked(
                        world_rank, "write", site, q, "read", r_site, obj
                    )
            hist.write = (world_rank, now, site)
            hist.reads.clear()

    def mark_read(self, world_rank: int, obj: Any) -> None:
        """Record a read of a closure-shared object by ``world_rank``."""
        site = call_site()
        with self._lock:
            self._read_locked(world_rank, obj, site, create=True)

    def _read_locked(
        self, world_rank: int, obj: Any, site: str, *, create: bool
    ) -> None:
        if not create and id(obj) not in self._shared:
            return
        hist = self._history_locked(obj)
        now = self.vclocks.snapshot(world_rank)
        if hist.write is not None:
            w_rank, w_vc, w_site = hist.write
            if w_rank != world_rank and not leq(w_vc, now):
                self._race_locked(
                    world_rank, "read", site, w_rank, "write", w_site, obj
                )
        hist.reads[world_rank] = (now, site)

    def _auto_read_locked(self, world_rank: int, arr: np.ndarray, op: str) -> None:
        """Payload arrays count as reads — but only for objects already
        tracked via ``mark_read``/``mark_write`` (auto-tracking every
        payload would bloat the table with rank-private buffers)."""
        self._read_locked(world_rank, arr, f"payload of {op}()", create=False)

    def _history_locked(self, obj: Any) -> AccessHistory:
        hist = self._shared.get(id(obj))
        if hist is None:
            hist = self._shared[id(obj)] = AccessHistory(obj)
        return hist

    def _race_locked(
        self,
        rank_b: int,
        kind_b: str,
        site_b: str,
        rank_a: int,
        kind_a: str,
        site_a: str,
        obj: Any,
    ) -> None:
        what = _describe(obj) if isinstance(obj, np.ndarray) else repr(type(obj).__name__)
        self._report_locked(
            HB_RACE,
            rank_b,
            kind_b,
            f"{kind_b} of shared {what} at {site_b} races with rank "
            f"{rank_a}'s {kind_a} at {site_a}: no happens-before edge "
            "orders them (vector clocks are concurrent)",
        )
