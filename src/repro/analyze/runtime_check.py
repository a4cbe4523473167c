"""Runtime verification of SPMD programs (the ``check=True`` layer).

A :class:`RuntimeChecker` hangs off a :class:`~repro.mpi.runtime.Runtime`
(``runtime.checker``) and adds what only it knows:

* **Collective congruence** — every rank's Nth collective on a
  communicator must agree on operation name and root.  A mismatch raises
  :class:`~repro.mpi.errors.CollectiveMismatchError` carrying both ranks'
  call sites instead of silently folding incompatible deposits.
* **Call sites** — the user frame of each blocking operation, which the
  wait ledger (:mod:`repro.mpi.waitstate`) prints in its deadlock
  diagnosis.  Deadlocks themselves are detected there, in every run.
* **Finalize accounting** — at the end of a clean run the runtime reports
  undelivered mailbox messages and never-completed ``irecv`` requests
  (:class:`~repro.mpi.errors.MessageLeakError`).

The checker must never perturb the virtual clocks: it only *observes*,
so a checked run's clocks are bit-identical to an unchecked run's (the
same guarantee event tracing gives).
"""

from __future__ import annotations

import sys
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..mpi.errors import CollectiveMismatchError

if TYPE_CHECKING:  # pragma: no cover
    from ..mpi.comm import _CommState
    from ..mpi.runtime import Runtime

__all__ = ["RuntimeChecker", "RequestRecord", "call_site"]

#: filenames whose frames are skipped when attributing a call site
_INTERNAL_PARTS = ("repro/mpi/", "repro\\mpi\\", "repro/analyze/", "repro\\analyze\\")


def call_site(skip: int = 2) -> str:
    """``file:line (function)`` of the first frame outside the runtime."""
    frame = sys._getframe(skip)
    while frame is not None:
        fn = frame.f_code.co_filename
        if not any(part in fn for part in _INTERNAL_PARTS):
            return f"{fn}:{frame.f_lineno} ({frame.f_code.co_name})"
        frame = frame.f_back
    return "<unknown>"


@dataclass
class RequestRecord:
    """One outstanding non-blocking receive, for finalize accounting."""

    world_rank: int
    source: int
    tag: int
    site: str
    done: bool = False


class RuntimeChecker:
    """Online verifier for one :class:`~repro.mpi.runtime.Runtime`."""

    call_site = staticmethod(call_site)

    def __init__(self, runtime: "Runtime"):
        self.runtime = runtime
        self._lock = threading.Lock()
        #: (comm trace_id, seq) -> [op, root, site, world_rank, arrivals]
        self._coll_ops: dict[tuple[int, int], list] = {}
        self.requests: list[RequestRecord] = []

    def reset(self) -> None:
        """Discard all state (paired with :meth:`Runtime.reset`): a half
        congruence record would poison checking of the next run on the
        same runtime."""
        with self._lock:
            self._coll_ops.clear()
            self.requests = []

    def pending_requests(self) -> list[RequestRecord]:
        with self._lock:
            return [r for r in self.requests if not r.done]

    def note_irecv(self, world_rank: int, source: int, tag: int) -> RequestRecord:
        rec = RequestRecord(world_rank, source, tag, call_site())
        with self._lock:
            self.requests.append(rec)
        return rec

    # ------------------------------------------------------------- congruence

    def collective_op(
        self, state: "_CommState", idx: int, seq: int, op: str,
        root: int | None,
    ) -> str:
        """Verify this rank's ``seq``-th collective on ``state`` matches
        its peers'; returns its call site (for the wait ledger)."""
        wr = state.world_ranks[idx]
        site = call_site()
        mismatch: str | None = None
        with self._lock:
            op_key = (state.trace_id, seq)
            rec = self._coll_ops.get(op_key)
            if rec is None:
                self._coll_ops[op_key] = [op, root, site, wr, 1]
            else:
                rec[4] += 1
                if rec[4] >= state.size:
                    del self._coll_ops[op_key]
                if rec[0] != op or rec[1] != root:
                    mismatch = (
                        f"mismatched collectives on comm#{state.trace_id} "
                        f"(members {state.world_ranks}), sequence {seq}: "
                        f"rank {rec[3]} called {_fmt_op(rec[0], rec[1])} at {rec[2]}; "
                        f"rank {wr} called {_fmt_op(op, root)} at {site}"
                    )
        if mismatch is not None:
            self.runtime.abort()
            raise CollectiveMismatchError(mismatch)
        return site


def _fmt_op(op: str, root: int | None) -> str:
    return f"{op}(root={root})" if root is not None else f"{op}()"
