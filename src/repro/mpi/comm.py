"""Communicators: the rank-facing API of the SPMD runtime.

A :class:`Comm` is one rank's handle on a communicator.  The API follows
mpi4py's lowercase object interface (``send``/``recv``/``bcast``/``allreduce``
/ ``alltoallv`` / ``split`` ...), and every call advances the calling rank's
*virtual clock* according to the machine's cost model.

Implementation notes
--------------------
Every collective runs through one skeleton (:meth:`_CommState.collective`),
a deposit / plan / pick protocol around one rendezvous: members count in
under the communicator's condition and wait at a turnstile:

1. a member's N-th collective is generation N: it writes its contribution
   into ``slots[N & 1]``, its ``(op, root, then)`` into ``calls[N & 1]``,
   and counts itself in — the first to count in closes a fresh turnstile
   ``gate`` for the generation, and every other member captures it;
2. the last arriver checks that every member called the same ``(op,
   root, then)`` — MPI's rule that all ranks issue collectives in the same
   order, checked in every run — then *plans*: it sizes every deposit once,
   combines the slots (applying the ``then=`` step of ``allreduce`` /
   ``allgather`` / ``bcast`` to the combined value, once), prices the
   operation — with the fault plan's link faults, when there is one — and
   merges the group's new virtual clocks, publishes ``done = N + 1``, hands
   the members back to the wait ledger as runnable
   (:meth:`~repro.mpi.waitstate.WaitRegistry.release`) and opens the gate;
   each waiter passes the gate and opens it for the next, so the members
   wake one after another instead of as one herd fighting for the
   interpreter lock;
3. every member takes its new clock and *picks* its result, unlocked: a
   copy of the combined value, or the ``then=`` result itself, shared.

:meth:`_CommState.wake` (abort, revocation, a member's death, the deadlock
verdict) opens the open generation's gate too; what a woken member returns
or raises is still decided by ``done > N`` first, then :meth:`_CommState._broken`.

Two buffers suffice: generation N + 2 cannot open before N + 1 completed,
N + 1 needs every member's deposit, and a member deposits N + 1 only after
it is through with N — so no deposit, call record (nor the one result
cell) is overwritten while a peer still reads it.  That is also why the
sanitizer can read every member's deposit and entry clock at exit.

This is deterministic in values: combines fold in rank order.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass
from itertools import accumulate
from typing import Any, Callable, Sequence

import numpy as np

from ..machine.cost import advance, finish
from ..trace.events import NULL_TRACER, NullTracer, RankTracer
from .errors import (
    Aborted,
    CollectiveMismatchError,
    CommRevokedError,
    CommunicatorError,
    DeadlockError,
    MessageTimeoutError,
    RankFailedError,
)
from .ops import SUM, ReduceOp
from .payload import copy_payload, payload_nbytes
from .reliable import MAX_ATTEMPTS, climb, collective_faults
from .requests import Request, _DoneRequest, _IRecvRequest
from .waitstate import call_site

ANY_SOURCE = -1
ANY_TAG = -1


@dataclass
class _Message:
    src: int          # group rank of the sender
    tag: int
    payload: Any
    departure: float  # sender's virtual clock when the message left
    nbytes: int
    #: the retry ladder's verdict (defaults on every faultless path): seconds
    #: waited on dropped attempts, the delivered attempt's extra transfer-cost
    #: multiples (delay spikes + degraded windows), why it is beyond repair
    waited: float = 0.0
    penalty: float = 0.0
    failure: str | None = None
    #: sanitizer annotation (vector-clock snapshot + origin-buffer refs);
    #: None whenever the sanitizer is off
    san: Any = None


class _Mailbox:
    """Per-rank FIFO of in-flight messages with a condition variable."""

    def __init__(self) -> None:
        self.cond = threading.Condition()
        self.messages: list[_Message] = []

    def find(self, source: int, tag: int, *, remove: bool) -> _Message | None:
        """First message matching (source, tag); wildcards are ``-1``."""
        for i, m in enumerate(self.messages):
            if (source == ANY_SOURCE or m.src == source) and (
                tag == ANY_TAG or m.tag == tag
            ):
                return self.messages.pop(i) if remove else m
        return None


class _CommState:
    """State shared by all ranks of one communicator."""

    def __init__(self, runtime, world_ranks: Sequence[int]):
        self.runtime = runtime
        self.world_ranks: list[int] = [int(r) for r in world_ranks]
        self.size = len(self.world_ranks)
        #: guards the rendezvous state; the fault-tolerant rendezvous waits on it
        self.cond = threading.Condition()
        # collective rendezvous: member idx's next generation; by generation
        # parity, the deposit buffers, each member's (op, root, then) and —
        # when sanitizing — its sanitizer entry clock;
        # the members counted into the open generation, the number of
        # completed generations and the last one's (shared value, new clocks,
        # fault-plan failure or None)
        self._seq = [0] * self.size
        self.slots: tuple[list[Any], list[Any]] = (
            [None] * self.size, [None] * self.size)
        self.calls: tuple[list[Any], list[Any]] = (
            [None] * self.size, [None] * self.size)
        self.notes: tuple[list[Any], list[Any]] = (
            [None] * self.size, [None] * self.size)
        self.arrived = 0
        self.done = 0
        self.cell: Any = None
        #: the open generation's turnstile: held (closed) from the first
        #: arrival until the last arriver or a wake-up opens it; ``None``
        #: once opened
        self.gate: Any = None
        self._entry_max = 0.0
        self.mailboxes = [_Mailbox() for _ in range(self.size)]
        self.aborted = False
        #: ULFM revocation flag; poisons every blocked/future ordinary
        #: operation on this communicator (shrink/agree keep working)
        self.revoked = False
        self._members_set = frozenset(self.world_ranks)
        self._members = np.array(self.world_ranks, dtype=np.intp)
        # fault-tolerant rendezvous (agree/shrink): generation-stamped
        # deposits completed over the live membership, whatever became of
        # the plain collectives.
        self.ft_count = [0] * self.size
        self.ft_deposits: dict[int, dict[int, tuple[Any, float]]] = {}
        self.ft_results: dict[int, tuple[Any, float, list[int]]] = {}
        #: serial number of this communicator (set by the runtime registry);
        #: together with the collective generation it matches the spans of
        #: one collective invocation across ranks.
        self.trace_id = -1
        #: creation identity keying fault fates (set under a fault plan)
        self.fault_key = -1
        self._span_level: str | None = None
        self._node_levels: list[str] | None = None
        #: did the last completed collective's price have several stages?
        self._staged = False
        runtime._register_state(self)

    def _group_level(self) -> str:
        """Locality level spanned by this communicator (cached)."""
        if self._span_level is None:
            placement = getattr(self.runtime.cost, "placement", None)
            if placement is None or self.size == 1:
                self._span_level = "self"
            else:
                self._span_level = placement.span_level(self.world_ranks).name.lower()
        return self._span_level

    def _node_level(self, idx: int) -> str:
        """Level member ``idx``'s deposit travels in a node-composed
        collective: across the network for the first member of a node, to
        that member for the others (cached)."""
        if self._node_levels is None:
            placement = self.runtime.cost.placement
            _, leaders = self.runtime.cost.node_groups(self.world_ranks)
            lead = {placement.node_of(r): r for r in leaders}
            self._node_levels = [
                "network" if r in leaders
                else placement.level(r, lead[placement.node_of(r)]).name.lower()
                for r in self.world_ranks
            ]
        return self._node_levels[idx]

    def wake(self) -> None:
        """Make every wait on this communicator re-check its predicate
        (after an abort, a revocation or a member's death): open the open
        generation's gate, notify the fault-tolerant rendezvous and the
        mailboxes.  Callers set what :meth:`_broken` reads first."""
        with self.cond:
            self._open_gate()
            self.cond.notify_all()
        for mb in self.mailboxes:
            with mb.cond:
                mb.cond.notify_all()

    def _open_gate(self) -> None:
        """Open the open generation's gate, once (caller holds ``cond``)."""
        gate, self.gate = self.gate, None
        if gate is not None:
            gate.release()

    def abort(self) -> None:
        self.aborted = True
        self.wake()

    def release(self) -> None:
        """Drop the last generations' deposits, calls and shared value once
        the run is over: the runtime and its states form reference cycles,
        so whatever they hold otherwise waits for the garbage collector."""
        for bufs in (self.slots, self.calls, self.notes):
            for buf in bufs:
                buf[:] = [None] * self.size
        self.cell = None

    def _aborted(self, what: str) -> Exception:
        """What an abort-woken operation raises: the wait ledger's deadlock
        verdict when that is why the runtime went down, else ``Aborted``."""
        verdict = self.runtime._registry.verdict
        return Aborted(what) if verdict is None else DeadlockError(verdict)

    def _broken(self, name: str) -> Exception | None:
        """What collective ``name`` raises because it can no longer
        complete here, if it cannot — at entry and on a wake-up alike."""
        if self.aborted:
            return self._aborted(f"runtime aborted; '{name}' cannot complete")
        if self.revoked:
            return CommRevokedError(
                f"communicator #{self.trace_id} was revoked"
            )
        failed = self.runtime.failed_ranks
        if failed and (failed := failed & self._members_set):
            return RankFailedError(
                f"collective '{name}' on comm#{self.trace_id}: member rank(s) "
                f"{sorted(failed)} have failed",
                failed,
            )
        return None

    def _mismatch(self, gen: int) -> CollectiveMismatchError:
        """Generation ``gen``'s incongruent calls: the first member's and
        the first that differs from it, each at its call site (every member
        is still inside the collective)."""
        calls = self.calls[gen & 1]
        other = next(i for i, c in enumerate(calls) if c != calls[0])

        def called(i: int) -> str:
            op, root, then = calls[i]
            args = ([] if root is None else [f"root={root}"]) + (["then=…"] if then else [])
            wrank = self.world_ranks[i]
            return (f"rank {wrank} called {op}({', '.join(args)}) at "
                    f"{self.runtime._registry.site(wrank)}")

        return CollectiveMismatchError(
            f"mismatched collectives on comm#{self.trace_id} (members "
            f"{self.world_ranks}), generation {gen}: {called(0)}; {called(other)}"
        )

    def collective(
        self,
        idx: int,
        name: str,
        deposit: Any,
        plan: Callable[[list[Any]], tuple[Any, Any, float]],
        pick: Callable[[list[Any], Any, int], Any],
        *,
        root: int | None = None,
        then: bool = False,
        trace_bytes: int | None = None,
        links: Callable[[list[Any]], list[tuple[int, int]]] | None = None,
    ) -> Any:
        """The one collective skeleton.  The last arriver raises
        :class:`CollectiveMismatchError` unless every member called ``(name,
        root, then)`` — ``then``: whether the caller gave a ``then=`` step —
        then calls ``plan(slots)`` for ``(shared value, cost,
        payload bytes for the statistics)`` — ``cost`` a scalar, one entry
        per rank, or a list of alternative tuples of such stages: the flat
        price, then a composed one, of which it keeps the one that finishes
        first (:func:`~repro.machine.cost.finish`; flat on a tie) — and merges
        the clocks (``latest entry + cost``, stage by stage, as consecutive
        collectives would add them); every rank then takes its new clock and
        ``pick(slots, shared, idx)``, its result.  The traced payload size
        defaults to the deposit's.  A stage may also be a ``(cost, group)``
        pair (:func:`~repro.machine.cost.advance`).

        Under a fault plan the last arriver prices the plan's link faults
        into each stage of each alternative
        (:func:`~repro.mpi.reliable.collective_faults`) — on the ``(src,
        dst)`` member pairs ``links(slots)`` names, when given — before it
        chooses: one that completes beats one that fails, and only the kept
        one's drops count.  A stage beyond repair completes the generation
        with every member raising :class:`MessageTimeoutError` at the same
        clock."""
        rt = self.runtime
        wrank = self.world_ranks[idx]
        if rt._faults is not None:
            rt.maybe_crash(wrank)
        broken = self._broken(name)
        if broken is not None:
            raise broken
        gen = self._seq[idx]
        self._seq[idx] = gen + 1
        san = rt.sanitizer
        if san is not None:
            # Deposit edge, before the deposit below: every member's entry
            # snapshot therefore precedes every member's exit.
            self.notes[gen & 1][idx] = san.collective_entry(self, idx, deposit, name)
        rec = rt.trace
        if rec is not None:
            t0 = float(rt.clocks[wrank])
        slots = self.slots[gen & 1]
        slots[idx] = deposit
        calls = self.calls[gen & 1]
        calls[idx] = call = (name, root, then)
        try:
            with self.cond:
                self.arrived += 1
                last = self.arrived == self.size
                if not last:
                    if self.arrived == 1:
                        # A wake-up before this generation opened found no
                        # gate to open: the members see _broken at once.
                        if self._broken(name) is None:
                            self.gate = threading.Lock()
                            self.gate.acquire()
                    gate = self.gate
                else:
                    self.arrived = 0
                    if calls.count(call) != self.size:
                        raise self._mismatch(gen)
                    shared, cost, total_bytes = plan(slots)
                    rt.stats.record_collective(name, total_bytes, self.size)
                    # Every member is waiting below with its entry clock
                    # untouched, so the latest arrival is also every rank's
                    # idle reference.
                    latest = clocks = rt.clocks[self._members].max()
                    self._entry_max = float(latest)
                    if not isinstance(cost, list):
                        cost = [(cost,)]
                    if rt._faults is None:
                        priced = [(stages, None, ()) for stages in cost]
                    else:
                        priced = collective_faults(self, gen, name, latest, cost,
                                                   None if links is None else links(slots))
                    # the one place a composed price is weighed against the
                    # flat one: whichever completes, and finishes first
                    stages, failure, tally = priced[0] if len(priced) == 1 else min(
                        priced, key=lambda alt: (alt[1] is not None, finish(alt[0])))
                    for kind in tally:
                        rt._count_fault(kind)
                    self._staged = len(stages) > 1
                    for stage in stages:
                        clocks = advance(clocks, stage)
                    self.cell = shared, clocks, failure
                    self.done = gen + 1
                    # The members are runnable from here on, whenever their
                    # threads get to run: the ledger must not count them
                    # towards quiescence meanwhile.
                    rt._registry.release(self.world_ranks)
                    self._open_gate()
        except BaseException:
            rt.abort()
            raise
        if not last:
            reg = rt._registry
            reg.block(wrank, "collective", self, op=name,
                      can_progress=lambda: self.done > gen or self._broken(name) is not None)
            try:
                if gate is not None:
                    # The turnstile: pass, then let the next member through.
                    gate.acquire()
                    gate.release()
            finally:
                reg.unblock(wrank)
            # Completion first: a collective whose result is agreed returns
            # on every member, whatever happened since.
            if self.done <= gen:
                raise self._broken(name)
        shared, clocks, failure = self.cell
        rt.clocks[wrank] = clocks if clocks.ndim == 0 else clocks[idx]
        if failure is not None:
            if rec is not None:
                rec.record(wrank, f"{name}_timeout", "fault", t0, float(rt.clocks[wrank]),
                           comm=self.trace_id, seq=gen)
            raise MessageTimeoutError(failure)
        try:
            out = pick(slots, shared, idx)
        except BaseException:
            rt.abort()
            raise
        if san is not None:
            # Extraction edge: peers deposit the next generation into the
            # other buffers, so every deposit and entry clock of this one is
            # still live and the alias check sees the true sharing relation.
            san.collective_exit(self, idx, slots, self.notes[gen & 1], out, name)
        if rec is not None:
            t1 = float(rt.clocks[wrank])
            latest = self._entry_max
            idle = min(max(latest - t0, 0.0), max(t1 - t0, 0.0))
            if trace_bytes is None:
                trace_bytes = payload_nbytes(deposit)
            rec.record(
                wrank,
                name,
                "collective",
                t0,
                t1,
                idle=idle,
                bytes=int(trace_bytes),
                nranks=self.size,
                level=self._node_level(idx) if self._staged else self._group_level(),
                comm=self.trace_id,
                seq=gen,
                last_arrival=latest,
            )
        return out

    # ------------------------------------------------ fault-tolerant path

    def _ft_try_complete(self, gen: int, combine, cost_fn) -> None:
        """Complete rendezvous generation ``gen`` if every live member has
        deposited (caller holds ``cond``)."""
        if gen in self.ft_results:
            return
        deps = self.ft_deposits.get(gen, {})
        failed = self.runtime.failed_ranks
        live = [i for i in range(self.size)
                if self.world_ranks[i] not in failed]
        if not live or any(i not in deps for i in live):
            return
        order = sorted(deps)
        values = [deps[i][0] for i in order]
        entry = max(deps[i][1] for i in order)
        live_world = [self.world_ranks[i] for i in live]
        result = combine(values, order, live)
        self.ft_results[gen] = (
            result, entry + float(cost_fn(live_world, result)), live)
        self.cond.notify_all()

    def _ft_quorum(self, gen: int) -> bool:
        """Lock-free completion test for the wait arbiter (monotone:
        deposits and failures only grow)."""
        deps = self.ft_deposits.get(gen)
        if deps is None:
            return False
        failed = self.runtime.failed_ranks
        return all(idx in deps or self.world_ranks[idx] in failed
                   for idx in range(self.size))

    def _ft_wait(self, wr: int, name: str, ready: Callable[[], bool]) -> None:
        """Block world rank ``wr`` on ``cond`` until ``ready()``, a predicate
        the quiescence arbiter also reads lock-free (monotone: once true it
        stays true)."""
        reg = self.runtime._registry
        reg.block(wr, "ft", self, op=name, can_progress=ready)
        try:
            with self.cond:
                while not ready():
                    self.cond.wait()
        finally:
            reg.unblock(wr)

    def ft_collective(self, idx: int, value: Any, combine, cost_fn,
                      name: str) -> Any:
        """Fault-tolerant rendezvous (``agree``/``shrink``, the recovery pool
        round).

        Completes over the set of *live* members, whatever became of the
        plain collectives (same condition, generations of its own): each
        member's Nth ft op joins generation N; a generation completes once
        every live member has deposited, and rank crashes shrink that
        requirement and wake the waiters, so completion never hangs on a
        dead rank.  This path contains no crash checkpoints: a rank that
        deposits is guaranteed to read the result, which is what makes
        completion sound.
        """
        rt = self.runtime
        wr = self.world_ranks[idx]
        if self.aborted:
            raise self._aborted(f"runtime aborted before '{name}'")
        with self.cond:
            gen = self.ft_count[idx]
            self.ft_count[idx] = gen + 1
            deps = self.ft_deposits.setdefault(gen, {})
            deps[idx] = (value, float(rt.clocks[wr]))
            self._ft_try_complete(gen, combine, cost_fn)
            done = gen in self.ft_results
        if not done:
            self._ft_wait(wr, name,
                          lambda: (self.aborted or gen in self.ft_results
                                   or self._ft_quorum(gen)))
            with self.cond:
                if self.aborted:
                    raise self._aborted(f"runtime aborted during '{name}'")
                self._ft_try_complete(gen, combine, cost_fn)
        result, newclock, live = self.ft_results[gen]
        t0 = float(rt.clocks[wr])
        rt.clocks[wr] = max(t0, newclock)
        rec = rt.trace
        if rec is not None:
            rec.record(wr, name, "collective", t0, float(rt.clocks[wr]),
                       comm=self.trace_id, nranks=len(live),
                       level=self._group_level())
        return result


class Comm:
    """One rank's handle on a communicator."""

    def __init__(self, state: _CommState, rank: int):
        self._state = state
        self._rank = rank
        self._rt = state.runtime

    # ------------------------------------------------------------- identity

    @property
    def rank(self) -> int:
        """This rank's index within the communicator."""
        return self._rank

    @property
    def size(self) -> int:
        """Number of ranks in the communicator."""
        return self._state.size

    @property
    def world_rank(self) -> int:
        """This rank's index in the world communicator."""
        return self._state.world_ranks[self._rank]

    @property
    def world_ranks(self) -> list[int]:
        """World ranks of all members, indexed by group rank."""
        return list(self._state.world_ranks)

    @property
    def cost(self):
        """The runtime's :class:`~repro.machine.cost.CostModel`."""
        return self._rt.cost

    # -------------------------------------------------------------- tracing

    @property
    def tracer(self) -> "RankTracer | NullTracer":
        """This rank's span tracer (a shared no-op when tracing is off)."""
        rec = self._rt.trace
        if rec is None:
            return NULL_TRACER
        return rec.tracer(self.world_rank)

    @property
    def trace_recorder(self):
        """The runtime's :class:`~repro.trace.TraceRecorder`, or ``None``."""
        return self._rt.trace

    def _pair_level(self, world_peer: int) -> str:
        placement = getattr(self._rt.cost, "placement", None)
        if placement is None:
            return "self"
        return placement.level(self.world_rank, world_peer).name.lower()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Comm rank {self._rank}/{self.size} (world {self.world_rank})>"

    # ---------------------------------------------------------- virtual time

    @property
    def clock(self) -> float:
        """This rank's virtual clock, in seconds."""
        return float(self._rt.clocks[self.world_rank])

    @clock.setter
    def clock(self, value: float) -> None:
        self._rt.clocks[self.world_rank] = value

    def compute(self, seconds: float) -> None:
        """Charge ``seconds`` of modelled local compute to this rank."""
        if seconds < 0:
            raise ValueError("compute time must be >= 0")
        wr = self.world_rank
        rec = self._rt.trace
        t0 = float(self._rt.clocks[wr]) if rec is not None else 0.0
        self._rt.clocks[wr] += seconds
        self._rt.stats.record_compute(wr, seconds)
        if rec is not None:
            rec.record(wr, "compute", "compute", t0, float(self._rt.clocks[wr]))

    # ------------------------------------------------------------------- p2p

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Buffered (eager) send: never blocks.

        Under a fault plan the message climbs the retry ladder on this
        link's send counter (:func:`~repro.mpi.reliable.climb`), priced onto
        its arrival.  Sends to crashed ranks are silently buffered into the
        dead mailbox (like an eager MPI send whose peer died): failure
        surfaces at the *receiving* side, which keeps the sender's
        behaviour independent of crash timing.
        """
        self._check_peer(dest)
        rt = self._rt
        plan = rt._faults
        if plan is not None:
            rt.maybe_crash(self.world_rank)
        nbytes = payload_nbytes(obj)
        t0 = self.clock
        departure = t0 + rt.cost.software_overhead
        self.clock = departure
        msg = _Message(self._rank, tag, copy_payload(obj), departure, nbytes)
        rt.stats.record_send(self.world_rank, nbytes)
        rec = rt.trace
        wdest = self._state.world_ranks[dest]
        san = rt.sanitizer
        if san is not None:
            msg.san = san.on_send(self.world_rank, obj, wdest, tag)
        if rec is not None:
            rec.record(
                self.world_rank,
                "send",
                "p2p",
                t0,
                departure,
                peer=wdest,
                tag=tag,
                bytes=nbytes,
                level=self._pair_level(wdest),
            )
        if plan is not None:
            wr = self.world_rank
            msg.waited, fate = climb(lambda a: plan.link_event(wr, wdest), rt._count_fault)
            if fate is None:
                msg.failure = (f"message {wr} -> {wdest} (tag {tag}) was "
                               f"dropped on all {MAX_ATTEMPTS} attempts")
            else:
                msg.penalty = fate.delay_factor + plan.degrade_factor(
                    wr, wdest, departure + msg.waited)
                if msg.penalty:
                    rt._count_fault("delayed")
        mb = self._state.mailboxes[dest]
        with mb.cond:
            mb.messages.append(msg)
            mb.cond.notify_all()

    def recv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        *,
        return_status: bool = False,
        _span_name: str = "recv",
    ) -> Any:
        """Blocking receive; with ``return_status`` returns ``(obj, (src, tag))``.

        Taking a message the fault plan dropped on every attempt moves the
        clock to its departure plus the whole retry ladder and raises
        :class:`MessageTimeoutError`.  A receive whose named source has
        crashed (and left no matching message behind) raises
        :class:`RankFailedError`; a receive on a revoked communicator that
        can no longer be satisfied raises :class:`CommRevokedError`.
        """
        rt = self._rt
        if rt._faults is not None:
            rt.maybe_crash(self.world_rank)
        if source != ANY_SOURCE:
            self._check_peer(source)
        rec = rt.trace
        t0 = self.clock if rec is not None else 0.0
        mb = self._state.mailboxes[self._rank]
        with mb.cond:
            if self._state.aborted:
                raise self._state._aborted("runtime aborted during recv")
            msg = mb.find(source, tag, remove=True)
        if msg is None:
            msg = self._recv_wait(mb, source, tag)
        wsrc = self._state.world_ranks[msg.src]
        if msg.failure is not None:
            self.clock = max(self.clock, msg.departure + msg.waited)
            if rec is not None:
                rec.record(self.world_rank, f"{_span_name}_timeout", "fault",
                           t0, self.clock, src=wsrc, tag=msg.tag)
            raise MessageTimeoutError(msg.failure)
        self.clock = max(self.clock, self._arrival(msg))
        san = rt.sanitizer
        if san is not None:
            san.on_recv(self.world_rank, msg.payload, msg.san, wsrc, msg.tag,
                        op=_span_name)
        if rec is not None:
            # The rank blocks from t0 until the message departs, then pays
            # the transfer: idle is the blocked share, the remainder is
            # transfer time (both zero if the message completed in the past).
            t1 = self.clock
            idle = max(0.0, min(msg.departure, t1) - t0) if t1 > t0 else 0.0
            rec.record(
                self.world_rank, _span_name, "p2p", t0, t1,
                src=wsrc, tag=msg.tag, bytes=msg.nbytes,
                departure=msg.departure, idle=idle,
                level=self._pair_level(wsrc),
                **({"fault_delay": msg.penalty} if msg.penalty else {}),
            )
        if return_status:
            return msg.payload, (msg.src, msg.tag)
        return msg.payload

    def _arrival(self, msg: _Message) -> float:
        """Virtual arrival time of a received message: departure, the
        retry ladder's dropped attempts, and the priced transfer inflated by
        any injected delay penalty."""
        wsrc = self._state.world_ranks[msg.src]
        cost = self._rt.cost.ptp(wsrc, self.world_rank, msg.nbytes)
        if msg.penalty:
            cost = cost * (1.0 + msg.penalty)
        return msg.departure + msg.waited + cost

    def _recv_wait(self, mb: _Mailbox, source: int, tag: int) -> _Message:
        """Slow path of :meth:`recv`: block until a matching message or an
        abort/revocation/failure wake-up."""
        rt = self._rt
        state = self._state
        reg = rt._registry
        rank = self._rank
        wr = self.world_rank

        def peer_failed() -> str | None:
            """Why no live peer can still send the quarry, if none can."""
            failed = rt.failed_ranks
            if not failed:
                return None
            if source != ANY_SOURCE:
                if state.world_ranks[source] in failed:
                    return (f"recv: peer rank {source} (world "
                            f"{state.world_ranks[source]}) has failed")
            elif all(
                r in failed for i, r in enumerate(state.world_ranks) if i != rank
            ):
                return f"recv: every peer on comm#{state.trace_id} has failed"
            return None

        def ready() -> bool:
            # The wake condition, evaluated by the loop below under the
            # mailbox condition and by the arbiter lock-free at quiescence
            # (mailbox lists are stable there).  A revoked communicator
            # deliberately does NOT count: the message may still be
            # (causally) in flight, and whether it beats the revocation
            # wake-up is a thread-scheduling race.  The arbiter hoists
            # revoked waits at quiescence instead.
            return (
                state.aborted
                or mb.find(source, tag, remove=False) is not None
                or peer_failed() is not None
            )

        def wake() -> None:
            with mb.cond:
                mb.cond.notify_all()

        w = reg.block(wr, "recv", state, source=source, tag=tag,
                      can_progress=ready, notify=wake,
                      revocable=lambda: state.revoked)
        try:
            with mb.cond:
                while not (ready() or w.hoisted):
                    mb.cond.wait()
                # This rank acts from here on, and what it consumes the
                # predicate stops showing: the arbiter must hold its fire
                # until the unblock.
                reg.wake_ack(wr)
                if state.aborted:
                    raise state._aborted("runtime aborted during recv")
                msg = mb.find(source, tag, remove=True)
                if msg is not None:
                    return msg
                why = peer_failed()
                if why is not None:
                    raise RankFailedError(
                        why, rt.failed_ranks & state._members_set)
                # What is left is the arbiter's revocation hoist.
                raise CommRevokedError(
                    f"communicator #{state.trace_id} was revoked "
                    "while blocked in recv"
                )
        finally:
            reg.unblock(wr)

    def sendrecv(
        self, obj: Any, dest: int, source: int | None = None, tag: int = 0
    ) -> Any:
        """Combined exchange; safe against deadlock because sends are eager."""
        if source is None:
            source = dest
        self.send(obj, dest, tag)
        return self.recv(source, tag)

    def isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        self._check_peer(dest)
        san = self._rt.sanitizer
        record = None
        if san is not None:
            # Fingerprint the *user's* buffers before the eager copy: the
            # request re-checks them at wait()/test() and reports
            # WRITE-AFTER-ISEND if the sender mutated one in flight.
            record = san.begin_isend(
                self.world_rank, obj, self._state.world_ranks[dest], tag
            )
        self.send(obj, dest, tag)
        req = _DoneRequest()
        if record is not None:
            req._san = san
            req._san_record = record
        return req

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        # Kept for the finalize leak accounting, which names its call site.
        req = _IRecvRequest(self, source, tag, call_site())
        self._rt.irecvs.append(req)
        return req

    # ------------------------------------------------------------ sanitizer

    def mark_read(self, obj: Any) -> None:
        """Annotate a read of an object shared across rank closures.

        No-op unless the runtime was built with ``sanitize=True``; with
        the sanitizer attached, the access joins this rank's vector clock
        into the object's happens-before history and reports an HB-RACE
        if it is concurrent with another rank's write.
        """
        san = self._rt.sanitizer
        if san is not None:
            san.mark_read(self.world_rank, obj)

    def mark_write(self, obj: Any) -> None:
        """Annotate a write to an object shared across rank closures.

        No-op unless the runtime was built with ``sanitize=True``; with
        the sanitizer attached, the write is checked against every other
        rank's unordered reads and writes of the same object.
        """
        san = self._rt.sanitizer
        if san is not None:
            san.mark_write(self.world_rank, obj)

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> bool:
        """Non-blocking check whether a matching message is pending."""
        mb = self._state.mailboxes[self._rank]
        with mb.cond:
            return mb.find(source, tag, remove=False) is not None

    # ------------------------------------------------------------ collectives

    def _combined(
        self,
        name: str,
        deposit: Any,
        combine: Callable[[list[Any]], Any],
        cost_fn: Callable[[list[int]], Any],
        *,
        root: int | None = None,
        everyone: bool = True,
        then: Callable[[Any], Any] | None = None,
    ) -> Any:
        """Collective with a uniform cost and one combined value, delivered
        to every rank or (``everyone=False``) to ``root`` only.  With
        ``then``, the last arriver applies it to the combined value once and
        every rank receives that one object, uncopied: computation every
        rank would repeat on the same value is done once.  ``cost_fn``
        prices the members' deposit sizes, each walked once."""

        def plan(slots: list[Any]) -> Any:
            shared = combine(slots)
            if then is not None:
                shared = then(shared)
            sizes = [payload_nbytes(s) for s in slots]
            return shared, cost_fn(sizes), sum(sizes)

        def pick(slots: list[Any], result: Any, idx: int) -> Any:
            if then is not None:
                return result
            return copy_payload(result) if everyone or idx == root else None

        return self._state.collective(self._rank, name, deposit, plan, pick,
                                      root=root, then=then is not None)

    def barrier(self) -> None:
        """Synchronize all ranks (and their virtual clocks)."""
        ranks = self._state.world_ranks
        self._combined(
            "barrier", None, lambda s: None, lambda n: self._rt.cost.barrier(ranks)
        )

    def bcast(self, obj: Any, root: int = 0, *, then: Callable[[Any], Any] | None = None) -> Any:
        """Broadcast ``root``'s ``obj``; ``then`` as in :meth:`allreduce`."""
        self._check_peer(root)
        ranks = self._state.world_ranks
        deposit = obj if self._rank == root else None
        return self._combined(
            "bcast",
            deposit,
            lambda s: s[root],
            lambda n: self._rt.cost.bcast(n[root], ranks),
            root=root,
            then=then,
        )

    def reduce(self, value: Any, op: ReduceOp = SUM, root: int = 0) -> Any:
        self._check_peer(root)
        ranks = self._state.world_ranks
        return self._combined(
            "reduce",
            value,
            lambda s: functools.reduce(op, s),
            lambda n: self._rt.cost.reduce(n[0], ranks),
            root=root,
            everyone=False,
        )

    def allreduce(
        self, value: Any, op: ReduceOp = SUM, *, by_node: bool = False,
        then: Callable[[Any], Any] | None = None,
    ) -> Any:
        """Reduce to every rank.  ``by_node`` asks for the node-composed
        algorithm — reduce inside each node, allreduce over one leader per
        node, bcast inside each node — where that finishes first: still one
        rendezvous, priced stage by stage
        (:meth:`CostModel.node_allreduce_stages`) and recorded as
        ``node_allreduce``.  Its two sub-communicators belong to the
        communicator's creation (:meth:`CostModel.node_setup`), not to the
        call.  ``allgather``, ``exscan`` and ``alltoall`` take ``by_node``
        alike.

        ``then(result)`` runs once, on the last arriver and before anyone
        returns, and every rank returns its value — the same object, not a
        copy, so it must be treated as read-only.  It must not communicate;
        what it raises fails the last arriver.  Every member passes ``then``
        or none does (the congruence check sees whether it was given)."""
        ranks = self._state.world_ranks
        price = self._rt.cost.node_allreduce_stages if by_node else self._rt.cost.allreduce
        return self._combined(
            "node_allreduce" if by_node else "allreduce",
            value,
            lambda s: functools.reduce(op, s),
            lambda n: price(n[0], ranks),
            then=then,
        )

    def gather(self, value: Any, root: int = 0) -> list[Any] | None:
        self._check_peer(root)
        ranks = self._state.world_ranks
        return self._combined(
            "gather",
            value,
            lambda s: list(s),
            lambda n: self._rt.cost.gather(n[0], ranks),
            root=root,
            everyone=False,
        )

    def allgather(
        self, value: Any, *, by_node: bool = False,
        then: Callable[[list[Any]], Any] | None = None,
    ) -> Any:
        """Every rank's ``value``, in rank order; ``by_node`` and ``then`` as
        in :meth:`allreduce` (``then`` receives the members' deposits
        themselves; :meth:`CostModel.node_allgather_stages`)."""
        ranks = self._state.world_ranks
        price = self._rt.cost.node_allgather_stages if by_node else self._rt.cost.allgather
        return self._combined(
            "node_allgather" if by_node else "allgather",
            value,
            lambda s: list(s),
            lambda n: price(n[0], ranks),
            then=then,
        )

    def scatter(self, values: Sequence[Any] | None, root: int = 0) -> Any:
        self._check_peer(root)
        ranks = self._state.world_ranks
        size = self.size
        if self._rank == root:
            if values is None or len(values) != size:
                raise CommunicatorError(
                    f"scatter at root needs exactly {size} values"
                )

        def plan(slots: list[Any]) -> Any:
            nbytes = payload_nbytes(slots[root])
            return slots[root], self._rt.cost.scatter(nbytes / size, ranks), nbytes

        return self._state.collective(
            self._rank,
            "scatter",
            values if self._rank == root else None,
            plan,
            lambda slots, vals, idx: copy_payload(vals[idx]),
            root=root,
        )

    def alltoall(self, values: Sequence[Any], *, by_node: bool = False) -> list[Any]:
        """Personalized exchange of one payload per peer; ``by_node`` as in
        :meth:`allreduce` (:meth:`CostModel.node_alltoall_stages`)."""
        size = self.size
        if len(values) != size:
            raise CommunicatorError(f"alltoall needs {size} values")
        ranks = self._state.world_ranks
        price = self._rt.cost.node_alltoall_stages if by_node else self._rt.cost.alltoall

        def plan(slots: list[Any]) -> Any:
            total = sum(payload_nbytes(row) for row in slots)
            return None, price(total / size**2, ranks), total

        return self._state.collective(
            self._rank,
            "node_alltoall" if by_node else "alltoall",
            list(values),
            plan,
            lambda slots, _, idx: copy_payload([row[idx] for row in slots]),
        )

    def alltoallv(
        self, sendbuf: np.ndarray | Sequence[np.ndarray], counts: Sequence[int] | None = None,
        *, by_node: bool = False,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Irregular personalized exchange in MPI's buffer form: ``counts[j]``
        elements of ``sendbuf``, back to back in rank order, go to group rank
        ``j`` (a sequence of ``size`` arrays, without ``counts``, is
        concatenated at entry).  Returns ``(recvbuf, recv_counts)``: what
        arrived, in source order, in one fresh buffer — empty segments vote on
        its dtype only if all are empty — and the count from each source.
        Priced by :meth:`CostModel.alltoallv_per_rank` over the count matrix.
        ``by_node``: off-node bytes through one leader per node where that
        finishes first (:meth:`CostModel.node_alltoallv_stages`), recorded as
        ``node_alltoallv`` — one rendezvous, same result, like ``allreduce``'s.
        """
        size = self.size
        if counts is None:
            if len(sendbuf) != size:
                raise CommunicatorError(f"alltoallv needs {size} chunks")
            chunks = [np.asarray(c) for c in sendbuf]
            counts = [c.size for c in chunks]
            sendbuf = np.concatenate(
                [c for c in chunks if c.size] or [np.empty(0, np.result_type(*chunks))])
        sendbuf = np.asarray(sendbuf)
        counts = np.asarray(counts, dtype=np.int64)
        if counts.shape != (size,) or counts.sum() != sendbuf.size or (counts < 0).any():
            raise CommunicatorError(
                f"alltoallv needs {size} non-negative counts summing to the "
                f"{sendbuf.size} elements sent, got {counts.tolist()}")
        ranks = self._state.world_ranks
        price = self._rt.cost.node_alltoallv_stages if by_node else self._rt.cost.alltoallv_per_rank

        def plan(slots: list[Any]) -> Any:
            matrix = np.stack([c for _, c in slots])
            offsets = np.cumsum(np.pad(matrix, ((0, 0), (1, 0))), axis=1)
            vols = matrix * np.array([[b.itemsize] for b, _ in slots], dtype=np.float64)
            return (matrix, offsets), price(vols, ranks), float(vols.sum())

        def pick(slots: list[Any], shared: Any, idx: int) -> Any:
            matrix, offsets = shared
            recv_counts = matrix[:, idx].copy()
            lo, hi = offsets[:, idx].tolist(), offsets[:, idx + 1].tolist()
            segs = [b[start:end] for (b, _), start, end in zip(slots, lo, hi) if end > start]
            return np.concatenate(
                segs or [np.empty(0, np.result_type(*(b for b, _ in slots)))]), recv_counts

        return self._state.collective(
            self._rank, "node_alltoallv" if by_node else "alltoallv", (sendbuf, counts), plan, pick,
            trace_bytes=sendbuf.nbytes,
        )

    def _prefix(self, name: str, value: Any, prefixes, price) -> Any:
        """Scan family: ``prefixes(slots)`` is the per-rank result list."""
        ranks = self._state.world_ranks

        def plan(slots: list[Any]) -> Any:
            sizes = [payload_nbytes(s) for s in slots]
            return prefixes(slots), price(sizes[0], ranks), sum(sizes)

        return self._state.collective(
            self._rank, name, value, plan,
            lambda slots, prefix, idx: copy_payload(prefix[idx]),
        )

    def scan(self, value: Any, op: ReduceOp = SUM) -> Any:
        """Inclusive prefix reduction over ranks."""
        return self._prefix("scan", value, lambda s: list(accumulate(s, op)), self._rt.cost.scan)

    def exscan(self, value: Any, op: ReduceOp = SUM, *, by_node: bool = False) -> Any:
        """Exclusive prefix reduction; rank 0 receives ``None``.  ``by_node``
        as in :meth:`allreduce`, where each node's members are consecutive
        in rank order (:meth:`CostModel.node_exscan_stages`)."""
        cost = self._rt.cost
        return self._prefix(
            "node_exscan" if by_node else "exscan", value,
            lambda s: [None, *accumulate(s[:-1], op)],
            cost.node_exscan_stages if by_node else cost.scan,
        )

    # -------------------------------------------------------- comm management

    def split(self, color: int | None, key: int = 0) -> "Comm | None":
        """Partition the communicator by ``color``; order members by ``key``.

        ``color=None`` (MPI_UNDEFINED) yields ``None`` for that rank.
        """
        ranks = self._state.world_ranks
        rt = self._rt

        def plan(slots: list[Any]) -> Any:
            groups: dict[int, list[tuple[int, int]]] = {}
            for idx, (col, k) in enumerate(slots):
                if col is not None:
                    groups.setdefault(col, []).append((k, idx))
            assignment: dict[int, Comm] = {}
            for col in sorted(groups):
                members = sorted(groups[col])
                new_state = _CommState(rt, [ranks[idx] for _, idx in members])
                for new_rank, (_, idx) in enumerate(members):
                    assignment[idx] = Comm(new_state, new_rank)
            return assignment, rt.cost.comm_split(ranks), 16 * len(ranks)

        return self._state.collective(
            self._rank, "split", (color, key), plan,
            lambda slots, assignment, idx: assignment.get(idx),
            trace_bytes=16,
        )

    def dup(self) -> "Comm":
        """Duplicate the communicator (fresh collective/p2p context)."""
        dup = self.split(0, self._rank)
        assert dup is not None
        return dup

    # ------------------------------------------------------- fault tolerance

    @property
    def revoked(self) -> bool:
        """True once any member has called :meth:`revoke`."""
        return self._state.revoked

    @property
    def failed(self) -> frozenset[int]:
        """World ranks of this communicator's members that have crashed."""
        return frozenset(self._rt.failed_ranks) & self._state._members_set

    def revoke(self) -> None:
        """ULFM ``MPI_Comm_revoke``: poison the communicator.

        Every member blocked in (or later entering) a p2p or plain
        collective operation on this communicator raises
        :class:`CommRevokedError`.  The fault-tolerant rendezvous
        operations :meth:`agree` and :meth:`shrink` remain usable — that
        is the whole point: survivors revoke, agree on the outcome, and
        shrink to continue.  Idempotent and deliberately *local*: it
        returns without waiting for other ranks.  Every caller records its
        own ``revoke`` span — which survivor gets here first is a wall-clock
        race — and the first sets the flag and wakes the waiters.
        """
        state = self._state
        rec = self._rt.trace
        if rec is not None:
            now = float(self._rt.clocks[self.world_rank])
            rec.record(self.world_rank, "revoke", "fault", now, now,
                       comm=state.trace_id)
        if not state.revoked:
            state.revoked = True
            state.wake()

    def agree(self, flag: Any = True) -> bool:
        """ULFM ``MPI_Comm_agree``: fault-tolerant logical-AND over the
        *live* members.  Completes even with crashed members and on a
        revoked communicator; all live members get the same result."""
        rt = self._rt

        def combine(values: list[Any], order: list[int], live: list[int]) -> bool:
            return all(bool(v) for v in values)

        def cost_fn(live_world: list[int], _agreed: bool) -> float:
            return rt.cost.allreduce(8, live_world)

        return self._state.ft_collective(
            self._rank, flag, combine, cost_fn, "agree"
        )

    def shrink(self) -> "Comm":
        """ULFM ``MPI_Comm_shrink``: build a new communicator containing
        exactly the live members (preserving rank order).  Fault-tolerant
        and revoke-immune, like :meth:`agree`."""
        rt = self._rt
        state = self._state

        def combine(values: list[Any], order: list[int], live: list[int]):
            new_state = _CommState(rt, [state.world_ranks[i] for i in live])
            mapping = {idx: new_rank for new_rank, idx in enumerate(live)}
            return new_state, mapping

        def cost_fn(live_world: list[int], _shrunk: Any) -> float:
            return rt.cost.comm_split(live_world)

        new_state, mapping = self._state.ft_collective(
            self._rank, None, combine, cost_fn, "shrink"
        )
        return Comm(new_state, mapping[self._rank])

    # --------------------------------------------------------------- helpers

    def _check_peer(self, rank: int) -> None:
        if not 0 <= rank < self.size:
            raise CommunicatorError(
                f"peer rank {rank} out of range [0, {self.size})"
            )
