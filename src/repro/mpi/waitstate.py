"""The wait ledger: what every rank is blocked on, and the one arbiter.

Every rank thread registers what it is blocked on (a receive, a
collective rendezvous, or a fault-tolerant rendezvous) as structured
fields, in every run.  Call sites are not recorded per operation: a
diagnosis reads each named rank's user frame off its live stack
(:meth:`WaitRegistry.site`), since every rank it names is still inside
the runtime call.  Three consumers read the one table:

* ``Runtime.run(timeout=...)`` expiry reports *which ranks* were blocked
  and on what operation (:meth:`WaitRegistry.describe_blocked`).
* Revocation: a receive on a revoked communicator is abandoned only at
  *quiescence* (no rank is runnable and no blocked wait can make
  progress) — the point where the program, not thread scheduling,
  decides that its message can never come.
* Deadlocks: when the arbiter finds quiescence with no revocation left
  to drive progress, it stores the diagnosis — the same table plus the
  wait-for cycle — in :attr:`WaitRegistry.verdict` and aborts the run;
  every abort-woken wait re-raises it as
  :class:`~repro.mpi.errors.DeadlockError`.

Arbitration runs only at quiescence: :meth:`WaitRegistry.block` and a
rank's exit look at the blocked waits only once no rank is runnable, and
a completed collective hands its members back as runnable at once
(:meth:`WaitRegistry.release`), before their threads wake — so a rank
that was merely not yet scheduled never makes the ledger walk every wait.

Lock discipline: the registry lock is a leaf for condition variables —
wait predicates (``can_progress``) only *read* mailbox lists and
rendezvous state, which are stable at quiescence; notifications and aborts
happen after the registry lock is released, and callers never invoke
``block`` while holding a mailbox or rendezvous condition.
"""

from __future__ import annotations

import sys
import threading
from typing import Any, Callable

RUNNING, BLOCKED, FINISHED, DEAD = range(4)

_STATE_NAMES = {RUNNING: "running", FINISHED: "finished", DEAD: "dead"}

#: path fragments whose frames are skipped when attributing a call site
_INTERNAL_PARTS = ("repro/mpi/", "repro\\mpi\\", "repro/sanitize/", "repro\\sanitize\\")


def call_site(frame=None) -> str:
    """``file:line (function)`` of the user frame that called into the
    runtime: below the runtime frames nearest the top of the stack at
    ``frame`` (default: the caller's).  Frames above them (a blocked
    thread's ``threading`` waits) are skipped; ``""`` when the runtime
    frames reach down to the thread's bootstrap (a spare's pool loop)."""
    frame = sys._getframe(1) if frame is None else frame
    inside = False
    while frame is not None:
        internal = any(part in frame.f_code.co_filename for part in _INTERNAL_PARTS)
        if inside and not internal:
            if frame.f_globals.get("__name__") == "threading":
                return ""
            return f"{frame.f_code.co_filename}:{frame.f_lineno} ({frame.f_code.co_name})"
        inside = inside or internal
        frame = frame.f_back
    return ""


class WaitInfo:
    """One rank's current wait, as structured fields; the rank's call site
    is not among them, but read off its stack when a diagnosis names it
    (:meth:`WaitRegistry.site`)."""

    __slots__ = ("rank", "kind", "state", "op", "source", "tag",
                 "awake", "hoisted", "can_progress", "notify", "revocable")

    def __init__(self, rank: int, kind: str, state: Any, *, op: str = "",
                 source: int = -1, tag: int = -1,
                 can_progress: Callable[[], bool] | None = None,
                 notify: Callable[[], None] | None = None,
                 revocable: Callable[[], bool] | None = None):
        self.rank = rank
        #: "recv" | "collective" | "ft"
        self.kind = kind
        #: the communicator state waited on (``trace_id``, ``world_ranks``)
        self.state = state
        #: collective / rendezvous name ("collective" and "ft" waits)
        self.op = op
        #: group-rank source and tag specs, ``-1`` = ANY ("recv" waits)
        self.source = source
        self.tag = tag
        #: the waiter saw its wake condition hold and is acting on it — it
        #: may be consuming the very message the predicate sees, so the
        #: arbiter must treat it as in-flight progress (the non-monotone recv
        #: predicate only; collective and quorum predicates are monotone)
        self.awake = False
        #: the arbiter decided this wait must abandon with a revocation
        #: error (quiescence reached, nothing can progress, comm revoked)
        self.hoisted = False
        self.can_progress = can_progress
        self.notify = notify
        self.revocable = revocable

    def describe(self) -> str:
        where = f" on comm#{self.state.trace_id}"
        if self.kind != "recv":
            return f"{self.kind} '{self.op}'{where}"
        src = "ANY" if self.source < 0 else self.source
        tag = "ANY" if self.tag < 0 else self.tag
        return f"recv(source={src}, tag={tag}){where}"


class WaitRegistry:
    def __init__(self, size: int):
        self.size = size
        self._lock = threading.Lock()
        self._state = [RUNNING] * size
        self._waits: list[WaitInfo | None] = [None] * size
        self._nrunning = size
        #: each rank's thread id in the current run (set by the rank's task)
        self.threads = [0] * size
        #: the deadlock diagnosis, once the arbiter has issued it
        self.verdict: str | None = None
        self._on_deadlock: Callable[[], None] | None = None

    def begin(self, *, on_deadlock: Callable[[], None] | None = None) -> None:
        """Reset for a fresh run.  ``on_deadlock`` tears the run down once
        :attr:`verdict` is set."""
        with self._lock:
            self._state = [RUNNING] * self.size
            self._waits = [None] * self.size
            self._nrunning = self.size
            self.threads = [0] * self.size
            self.verdict = None
            self._on_deadlock = on_deadlock

    def site(self, rank: int) -> str:
        """``rank``'s user call site, read off its thread's live stack —
        valid while the rank is inside a runtime call, as every rank a
        diagnosis names is."""
        frame = sys._current_frames().get(self.threads[rank])
        return "" if frame is None else call_site(frame)

    # -- transitions -----------------------------------------------------

    def block(self, rank: int, kind: str, state: Any, **fields) -> WaitInfo:
        """Mark ``rank`` blocked (``fields`` as for :class:`WaitInfo`).
        Must NOT be called while holding any mailbox or rendezvous
        condition (the arbiter's follow-up actions may notify arbitrary
        conditions or abort the runtime)."""
        w = WaitInfo(rank, kind, state, **fields)
        with self._lock:
            if self._state[rank] == RUNNING:
                self._nrunning -= 1
            self._state[rank] = BLOCKED
            self._waits[rank] = w
            action = self._arbitrate_locked()
        self._perform(action)
        return w

    def release(self, ranks) -> None:
        """A completed rendezvous hands its blocked members back: they are
        runnable from here on, before their threads get to run and
        :meth:`unblock`, so arbitration in between does not mistake them
        for quiescent.  Never arbitrates (it can only add runnable ranks),
        so it is safe under the rendezvous condition."""
        with self._lock:
            for rank in ranks:
                if self._state[rank] == BLOCKED:
                    self._nrunning += 1
                    self._state[rank] = RUNNING
                    self._waits[rank] = None

    def unblock(self, rank: int) -> None:
        with self._lock:
            if self._state[rank] == BLOCKED:
                self._nrunning += 1
                self._state[rank] = RUNNING
            self._waits[rank] = None

    def wake_ack(self, rank: int) -> None:
        """The waiter found its wake condition true and is about to act on
        it (registry lock is a leaf, so this is safe to call while holding
        the waited condition)."""
        with self._lock:
            w = self._waits[rank]
            if w is not None:
                w.awake = True

    def finish(self, rank: int) -> None:
        """``rank``'s function returned (or raised); it will act no more."""
        self._leave(rank, FINISHED)

    def die(self, rank: int) -> None:
        """Mark a rank dead (fault-injected crash).  Call *after* all
        death bookkeeping (failed sets, wake-ups) so the arbiter sees a
        consistent picture."""
        self._leave(rank, DEAD)

    def _leave(self, rank: int, final: int) -> None:
        with self._lock:
            if self._state[rank] == RUNNING:
                self._nrunning -= 1
            if self._state[rank] != DEAD:
                self._state[rank] = final
            self._waits[rank] = None
            action = self._arbitrate_locked()
        self._perform(action)

    # -- arbiter ---------------------------------------------------------

    def _arbitrate_locked(self):
        if self._nrunning > 0 or self.verdict is not None:
            return None
        blocked = [w for w in self._waits if w is not None]
        if not blocked:
            return None
        for w in blocked:
            if w.awake or w.hoisted:
                return None  # a wake-up is already in flight
            try:
                if w.can_progress is not None and w.can_progress():
                    return None
            except Exception:
                return None  # predicate raced with a wake-up: assume progress
        # Waits on a revoked communicator abandon with CommRevokedError.
        # Deciding this only here — at quiescence, where the revoked flag
        # and every mailbox are stable — rather than eagerly on wake-up
        # keeps the schedule a pure function of virtual time: a blocked
        # receive whose message is still (causally) coming always
        # completes; revocation hoists only the traffic that can never be
        # satisfied.
        hoist = [w for w in blocked
                 if w.revocable is not None and w.revocable()]
        if hoist:
            for w in hoist:
                w.hoisted = True
            return ("hoist", hoist)
        # Nothing left that could ever wake anyone — a programming error.
        # Abort rather than hang.
        self.verdict = "\n".join(
            ["SPMD deadlock: every live rank is blocked and none can progress",
             self._describe_locked(), *self._cycle_locked(blocked)])
        return ("deadlock", None)

    def _perform(self, action) -> None:
        if action is None:
            return
        what, payload = action
        if what == "hoist":
            for w in payload:
                if w.notify is not None:
                    w.notify()
        elif self._on_deadlock is not None:  # "deadlock": verdict is stored
            self._on_deadlock()

    # -- introspection ---------------------------------------------------

    def _describe_locked(self) -> str:
        """One line per blocked rank, then the other ranks by state."""
        lines = []
        for w in self._waits:
            if w is None:
                continue
            line = f"  rank {w.rank}: blocked in {w.describe()}"
            if len(w.state.world_ranks) < self.size:
                line += f" (members {w.state.world_ranks})"
            site = self.site(w.rank)
            if site:
                line += f" at {site}"
            lines.append(line)
        for st, name in _STATE_NAMES.items():
            ranks = [r for r in range(self.size) if self._state[r] == st]
            if ranks:
                lines.append(f"  {name} rank(s): {ranks}")
        return "\n".join(lines)

    def describe_blocked(self) -> str:
        """Human-readable per-rank wait table (for run-timeout reports)."""
        with self._lock:
            return self._describe_locked()

    def _waits_for(self, w: WaitInfo) -> list[int]:
        """World ranks that could (but will not) wake ``w``: a receive's
        source(s); for a collective or rendezvous, the members that are
        not in the same operation."""
        members = w.state.world_ranks
        if w.kind == "recv":
            if w.source >= 0:
                return [members[w.source]]
            return [r for r in members if r != w.rank]
        return [r for r in members
                if (o := self._waits[r]) is None or o.kind != w.kind
                or o.state is not w.state]

    def _cycle_locked(self, blocked: list[WaitInfo]) -> list[str]:
        """The first wait-for cycle among blocked ranks, as a diagnosis
        line (depth-first; waits on finished or dead ranks lead nowhere)."""
        edges = {w.rank: [r for r in self._waits_for(w)
                          if self._waits[r] is not None] for w in blocked}
        done: set[int] = set()
        for start in edges:
            if start in done:
                continue
            path = [start]
            trail = [iter(edges[start])]
            while trail:
                nxt = next(trail[-1], None)
                if nxt is None:
                    done.add(path.pop())
                    trail.pop()
                elif nxt in path:
                    cycle = path[path.index(nxt):] + [nxt]
                    return ["  wait-for cycle: "
                            + " -> ".join(f"rank {r}" for r in cycle)]
                elif nxt not in done:
                    path.append(nxt)
                    trail.append(iter(edges[nxt]))
        return []
