"""The SPMD runtime: runs a rank function on one thread per rank.

This is the in-process substitute for ``mpiexec`` + MPI: a
:class:`Runtime` owns the world communicator, the per-rank virtual clocks,
and the traffic statistics; :func:`run_spmd` is the one-call entry point.

Virtual time
------------
``runtime.clocks[r]`` is rank ``r``'s virtual clock in seconds.  Every
communication call and every explicit :meth:`Comm.compute` charge advances
it by the machine model's price.  After a run, ``runtime.elapsed()`` (the
max over ranks) is the modelled makespan of the SPMD program — this is what
the benchmarks report.

Rank threads come from one process-wide, unbounded pool of parked workers.
"""

from __future__ import annotations

import math
import os
import queue
import threading
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from ..faults.plan import FaultPlan, FaultStats, fold
from ..machine import CostModel, MachineSpec, abstract_cluster, make_placement
from ..trace.events import TraceRecorder
from .comm import Comm, _CommState
from .errors import Aborted, MessageLeakError, RankCrashed, SPMDError
from .waitstate import WaitRegistry


_idle: list[queue.SimpleQueue] = []  # the parked workers' inboxes
_idle_lock = threading.Lock()
os.register_at_fork(after_in_child=_idle.clear)  # a child has none of these threads


class _Join:
    """The ranks of one run still running; a timed-out run abandons its workers."""

    def __init__(self, task: Callable[[int], None], size: int):
        """Run ``task(rank)`` for every rank on a pooled worker of its own."""
        self.cond = threading.Condition()
        self.pending = set(range(size))
        self.abandoned = False
        with _idle_lock:
            inboxes = [_idle.pop() for _ in range(min(size, len(_idle)))]
        for _ in range(size - len(inboxes)):
            inboxes.append(queue.SimpleQueue())
            threading.Thread(target=_worker, args=(inboxes[-1],), daemon=True).start()
        for rank, inbox in enumerate(inboxes):
            inbox.put((task, rank, self))

    def leave(self, rank: int, inbox: queue.SimpleQueue) -> bool:
        """``rank``'s task returned: park its worker unless abandoned."""
        with self.cond:
            self.pending.discard(rank)
            if not self.abandoned:
                with _idle_lock:
                    _idle.append(inbox)
            if not self.pending:
                self.cond.notify_all()
            return not self.abandoned

    def wait(self, timeout: float | None) -> int | None:
        """Wait for every rank, or ``timeout``: then abandon, naming the lowest rank left."""
        with self.cond:
            if self.cond.wait_for(lambda: not self.pending, timeout):
                return None
            self.abandoned = True
            return min(self.pending)


def _worker(inbox: queue.SimpleQueue) -> None:
    """A pooled rank thread: one rank task per job, parked in between."""
    thread = threading.current_thread()
    while True:
        task, rank, join = inbox.get()
        thread.name = f"rank-{rank}"
        task(rank)
        del task  # nothing of the run may stay reachable from a parked worker
        thread.name = "rank-parked"
        if not join.leave(rank, inbox):
            return


@dataclass(frozen=True)
class StatsSnapshot:
    """An immutable point-in-time copy of a :class:`Stats` object.

    Per-rank arrays are copies (safe to keep while the runtime runs on),
    and ``collectives`` maps operation name to ``(calls, payload bytes,
    participant-ranks total)``.  This is the one sanctioned way to read the
    statistics of a live runtime: every field is captured under the stats
    lock in a single critical section, so the snapshot is internally
    consistent even while ranks are still communicating.
    """

    size: int
    bytes_sent: np.ndarray
    msgs_sent: np.ndarray
    compute_time: np.ndarray
    collectives: dict[str, tuple[int, float, int]]
    #: control-plane traffic by kind (``checkpoint``: buddy replication and
    #: restores) as ``kind -> (messages, bytes)`` — kept OUT of ``bytes_sent``/
    #: ``wire_bytes`` so data-plane traffic cells stay comparable across
    #: runs with and without the recovery machinery.
    control: dict[str, tuple[int, float]] = field(default_factory=dict)

    @property
    def total_bytes_sent(self) -> int:
        return int(self.bytes_sent.sum())

    @property
    def total_msgs_sent(self) -> int:
        return int(self.msgs_sent.sum())

    @property
    def total_collective_bytes(self) -> float:
        return float(sum(v[1] for v in self.collectives.values()))

    @property
    def total_collective_calls(self) -> int:
        return int(sum(v[0] for v in self.collectives.values()))

    @property
    def wire_bytes(self) -> float:
        """Data-plane bytes on wire: point-to-point payloads plus
        collective payloads (the two are disjoint counters — see
        :meth:`Stats.record_send` vs :meth:`Stats.record_collective`).
        Control-plane traffic (:attr:`control`) is excluded."""
        return float(self.total_bytes_sent) + self.total_collective_bytes

    @property
    def total_control_bytes(self) -> float:
        return float(sum(v[1] for v in self.control.values()))


class Stats:
    """Per-rank and aggregate communication statistics.

    Ranks are concurrent threads and the counters must stay exact under
    interleaved sends, computes, and collectives: every mutator takes
    ``_lock`` except :meth:`record_compute`, whose slot has one writer (the
    rank itself).  Readers go through :meth:`snapshot`, which copies
    everything under the lock.
    """

    def __init__(self, size: int):
        self.size = size
        self.bytes_sent = np.zeros(size, dtype=np.int64)
        self.msgs_sent = np.zeros(size, dtype=np.int64)
        self.compute_time = np.zeros(size, dtype=np.float64)
        self._lock = threading.Lock()
        #: collective name -> [calls, total payload bytes, participant-ranks total]
        self.collectives: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0])
        #: control kind -> [messages, bytes] (checkpoint replication and
        #: restores); disjoint from the data-plane counters above
        self.control: dict[str, list[float]] = defaultdict(lambda: [0, 0.0])

    def record_send(self, world_rank: int, nbytes: int) -> None:
        with self._lock:
            self.bytes_sent[world_rank] += nbytes
            self.msgs_sent[world_rank] += 1

    def record_control(self, world_rank: int, nbytes: int, kind: str) -> None:
        with self._lock:
            entry = self.control[kind]
            entry[0] += 1
            entry[1] += nbytes

    def record_compute(self, world_rank: int, seconds: float) -> None:
        self.compute_time[world_rank] += seconds

    def record_collective(self, name: str, total_bytes: float, nranks: int) -> None:
        with self._lock:
            entry = self.collectives[name]
            entry[0] += 1
            entry[1] += total_bytes
            entry[2] += nranks

    def snapshot(self) -> StatsSnapshot:
        """A consistent, immutable copy of every counter (public read API)."""
        with self._lock:
            return StatsSnapshot(
                size=self.size,
                bytes_sent=self.bytes_sent.copy(),
                msgs_sent=self.msgs_sent.copy(),
                compute_time=self.compute_time.copy(),
                collectives={
                    k: (int(v[0]), float(v[1]), int(v[2]))
                    for k, v in sorted(self.collectives.items())
                },
                control={
                    k: (int(v[0]), float(v[1]))
                    for k, v in sorted(self.control.items())
                },
            )


class Runtime:
    """An in-process SPMD machine of ``size`` ranks.

    Parameters
    ----------
    size:
        Number of ranks.
    machine:
        The :class:`MachineSpec` to price operations on.  Defaults to an
        abstract flat cluster with 16 cores per node, sized to fit.
    ranks_per_node:
        Placement density; defaults to one rank per core.
    use_shm:
        Price intra-node traffic as shared-memory copies (paper default).
    trace:
        Attach a :class:`~repro.trace.TraceRecorder` so every communication
        call, compute charge, and wait is recorded as a virtual-time span
        (``runtime.trace``).  Off by default; recording never changes the
        virtual clocks.
    sanitize:
        Attach a :class:`~repro.sanitize.Sanitizer`: per-rank vector
        clocks advanced at every send/recv/collective edge, buffer
        fingerprints taken at ``isend``/``send``/collective entry and
        re-checked at delivery/``wait()``, and FastTrack-style race
        checking of closure-shared objects (``comm.mark_read`` /
        ``comm.mark_write``).  Detected hazards (WRITE-AFTER-ISEND,
        RECV-ALIAS, HB-RACE) raise
        :class:`~repro.sanitize.SanitizerError` at finalize.  ``None``
        (the default) reads the ``REPRO_SANITIZE`` environment variable.
        Sanitizing never changes the virtual clocks and composes with
        ``trace``.
    faults:
        A :class:`~repro.faults.FaultPlan` to inject into the delivery
        path (message drops/duplications/delays, degraded links, rank
        crashes) — all decisions seeded and deterministic.  ``None`` (the
        default) leaves the runtime bit-identical to one built without
        the fault machinery: clocks, statistics, and traces are unchanged.
    spares:
        Warm spare ranks held in reserve for the recovery layer: the
        runtime runs ``size + spares`` rank threads, but the rank function
        runs only on the first ``size`` (the *actives*, on their own
        communicator); spares sit in the spare-pool rendezvous
        (:mod:`repro.mpi.spare`) until a failure substitutes one for a
        crashed active — keeping the rank count, and with it every tuned
        plan, valid.  A fault plan must be built for ``size + spares``
        ranks (spares can crash too).  ``0`` (the default) changes
        nothing: actives run directly on the world communicator.
    """

    def __init__(
        self,
        size: int,
        *,
        machine: MachineSpec | None = None,
        ranks_per_node: int | None = None,
        use_shm: bool = True,
        trace: bool = False,
        sanitize: bool | None = None,
        faults: FaultPlan | None = None,
        spares: int = 0,
    ):
        if size < 1:
            raise ValueError("size must be >= 1")
        if spares < 0:
            raise ValueError("spares must be >= 0")
        total = size + spares
        if faults is not None and faults.size != total:
            raise ValueError(
                f"fault plan was built for {faults.size} ranks, runtime has "
                f"{total} ({size} active + {spares} spare)"
            )
        self.size = total
        self.active_size = size
        self.spares = spares
        if machine is None:
            machine = abstract_cluster(max(1, math.ceil(total / 16)))
        placement = make_placement(machine, total, ranks_per_node)
        self.cost = CostModel(placement, use_shm=use_shm)
        self.clocks = np.zeros(total, dtype=np.float64)
        self.stats = Stats(total)
        self.trace: TraceRecorder | None = None
        #: the run's irecv requests, for finalize leak accounting
        self.irecvs: list = []
        self.sanitizer = None
        if sanitize is None:
            flag = os.environ.get("REPRO_SANITIZE", "").strip().lower()
            sanitize = flag not in ("", "0", "false")
        if sanitize:
            from ..sanitize import Sanitizer

            self.sanitizer = Sanitizer(self)
        self._states: list[_CommState] = []
        #: communicators created so far, by membership (under a fault plan)
        self._created: dict[tuple[int, ...], int] = {}
        self._registry_lock = threading.Lock()
        self._aborted = False
        #: the fault adversary (None = pristine runtime; every fault hook
        #: is guarded on this so the faultless path is bit-identical)
        self._faults = faults
        self.failed_ranks: set[int] = set()
        self.fault_stats = FaultStats()
        self._fault_lock = threading.Lock()
        self._op_counts = [0] * total
        #: the wait ledger: what each rank is blocked on, in every run, and
        #: the one quiescence arbiter (revocation hoists, the deadlock
        #: verdict) — see repro.mpi.waitstate
        self._registry = WaitRegistry(total)
        self.world_state = _CommState(self, range(total))
        #: the communicator the rank function runs on: the world when
        #: there are no spares, otherwise a separate state over the active
        #: ranks only (spares substitute into its positions)
        self.active_state = (self.world_state if spares == 0
                             else _CommState(self, range(size)))
        #: are spares parked in the pool rendezvous?  From each run's start
        #: until a verdict other than ``recover`` releases them
        #: (:mod:`repro.mpi.spare`)
        self.pool_open = False
        if trace:
            self.trace = TraceRecorder(self)

    # ------------------------------------------------------------- plumbing

    def _register_state(self, state: _CommState) -> None:
        with self._registry_lock:
            state.trace_id = len(self._states)
            self._states.append(state)
            if self._faults is not None:
                # Creation identity: membership + how many came before.
                # Only a collective of all its members creates one, so the
                # count follows the program, unlike the raced ``trace_id``.
                members = tuple(state.world_ranks)
                n = self._created.get(members, 0)
                self._created[members] = n + 1
                state.fault_key = fold((n, *members))
            if self._aborted:
                state.abort()

    def abort(self) -> None:
        """Tear down all pending waits (the in-process ``MPI_Abort``)."""
        with self._registry_lock:
            self._aborted = True
            states = list(self._states)
        for state in states:
            state.abort()

    def comm(self, rank: int) -> Comm:
        """The world communicator handle for ``rank``."""
        if not 0 <= rank < self.size:
            raise IndexError(f"rank {rank} out of range")
        return Comm(self.world_state, rank)

    # --------------------------------------------------------------- faults

    def _count_fault(self, kind: str) -> None:
        with self._fault_lock:
            setattr(self.fault_stats, kind, getattr(self.fault_stats, kind) + 1)

    def maybe_crash(self, world_rank: int) -> None:
        """Crash checkpoint: called by the communication layer at the top
        of every p2p/collective operation of ``world_rank`` (own thread
        only).  Advances the rank's operation counter and executes a
        scheduled :class:`~repro.faults.CrashEvent` when its trigger — an
        op count or a virtual time, never wall clock — has been reached."""
        plan = self._faults
        if plan is None or not plan.has_crashes:
            return
        n = self._op_counts[world_rank]
        self._op_counts[world_rank] = n + 1
        if world_rank not in self.failed_ranks and plan.crash_now(
            world_rank, n, float(self.clocks[world_rank])
        ):
            self._execute_crash(world_rank)

    def _execute_crash(self, world_rank: int) -> None:
        """Kill ``world_rank`` (called on its own thread): record the
        failure, wake every operation it could be participating in, and
        unwind the thread with :class:`RankCrashed`."""
        now = float(self.clocks[world_rank])
        with self._fault_lock:
            self.failed_ranks.add(world_rank)
            self.fault_stats.crashed.append(world_rank)
        if self.trace is not None:
            self.trace.record(world_rank, "crash", "fault", now, now,
                              op=self._op_counts[world_rank])
        with self._registry_lock:
            states = list(self._states)
        for state in states:
            if world_rank in state._members_set:
                # Blocked peers re-check the failed set: collectives and
                # receives map it to RankFailedError, ft waits shrink
                # their quorum.
                state.wake()
        self._registry.die(world_rank)
        raise RankCrashed(f"rank {world_rank} crashed at virtual t={now:.6g}s")

    # ------------------------------------------------------------ execution

    def run(
        self,
        fn: Callable[..., Any],
        *,
        args: Sequence[Any] = (),
        per_rank_args: Sequence[Sequence[Any]] | None = None,
        timeout: float | None = None,
    ) -> list[Any]:
        """Run ``fn(comm, *args, *per_rank_args[rank])`` on every rank.

        Returns the per-rank results.  If any rank raises, all others are
        aborted and an :class:`SPMDError` carrying the per-rank exceptions
        is raised.  A run whose ranks were aborted with no failure of their
        own (the runtime torn down from outside) raises an :class:`SPMDError`
        of their :class:`Aborted` exceptions; an aborted runtime — like an
        ``MPI_Abort``-ed job — runs nothing again: ``run`` raises
        :class:`Aborted`.

        With spares, ``fn`` runs only on the active ranks (indexed by the
        active communicator); spare slots run the pool loop and yield
        ``None`` — or, once substituted, whatever the continuation they
        joined returns.
        """
        if per_rank_args is not None and len(per_rank_args) != self.active_size:
            raise ValueError("per_rank_args must have one entry per active rank")
        if self._aborted:
            raise Aborted("this runtime was aborted by an earlier run; build a new one")

        results: list[Any] = [None] * self.size
        failures: dict[int, BaseException] = {}
        casualties: dict[int, BaseException] = {}
        failures_lock = threading.Lock()
        self.pool_open = self.spares > 0
        self._registry.begin(on_deadlock=self.abort)

        def task(rank: int) -> None:
            self._registry.threads[rank] = threading.get_ident()
            try:
                if rank < self.active_size:
                    comm = Comm(self.active_state, rank)
                    extra = (per_rank_args[rank]
                             if per_rank_args is not None else ())
                    results[rank] = fn(comm, *args, *extra)
                else:
                    from .spare import spare_main

                    results[rank] = spare_main(self, rank)
            except Aborted as exc:
                with failures_lock:  # secondary casualty of another rank's failure
                    casualties[rank] = exc
            except RankCrashed:
                pass  # fault-injected death: peers observe RankFailedError
            except BaseException as exc:  # noqa: BLE001 - must not hang peers
                with failures_lock:
                    failures[rank] = exc
                self.abort()
            finally:
                # A finished rank will never send again: this transition
                # can complete a deadlock, so the ledger re-arbitrates.
                self._registry.finish(rank)

        join = _Join(task, self.size)
        # One deadline for the whole run, however the ranks finish.
        straggler = join.wait(timeout)
        if straggler is not None:
            blocked = self._registry.describe_blocked()
            self.abort()
            join.wait(5.0)
            raise TimeoutError(
                f"SPMD run exceeded {timeout}s (thread rank-{straggler}); "
                f"per-rank wait states at expiry:\n{blocked}"
            )
        # Aborted ranks and no primary failure: the runtime was torn down
        # from outside, and those ranks' results are missing.
        failures = failures or casualties
        leaks = self._finalize()
        if failures:
            first = failures[min(failures)]
            raise SPMDError(failures) from first
        if self.sanitizer is not None:
            self.sanitizer.raise_if_findings()
        if leaks is not None:
            raise MessageLeakError(leaks)
        return results

    def _finalize(self) -> str | None:
        """End-of-run accounting: empty every mailbox and drop the kept
        irecv requests, so nothing of this run reaches the next.  Returns
        the leak report — undelivered messages and never-completed irecvs
        — when the run left any and no rank crashed (crashed ranks leave
        residue by design: sends to a dead rank, and the messages it never
        took)."""
        with self._registry_lock:
            states = list(self._states)
        leaks = []
        for state in states:
            for dest_idx, mb in enumerate(state.mailboxes):
                with mb.cond:
                    msgs, mb.messages = mb.messages, []
                leaks += [f"  undelivered: src={state.world_ranks[m.src]} "
                          f"dest={state.world_ranks[dest_idx]} tag={m.tag}"
                          for m in msgs]
        pending = [r for r in self.irecvs if not r._done]
        self.irecvs = []
        if self.failed_ranks or not (leaks or pending):
            return None
        return "\n".join([
            f"SPMD run leaked {len(leaks)} message(s) and "
            f"{len(pending)} pending request(s)",
            *leaks,
            *(f"  never-completed irecv on rank {r._comm.world_rank} "
              f"(source={r._source}, tag={r._tag}) from {r._site}"
              for r in pending),
        ])

    # ------------------------------------------------------------- reporting

    def elapsed(self) -> float:
        """Modelled makespan so far: the maximum rank clock."""
        return float(self.clocks.max())


def run_spmd(
    size: int,
    fn: Callable[..., Any],
    *args: Any,
    machine: MachineSpec | None = None,
    ranks_per_node: int | None = None,
    use_shm: bool = True,
    trace: bool = False,
    sanitize: bool | None = None,
    faults: FaultPlan | None = None,
    spares: int = 0,
    per_rank_args: Sequence[Sequence[Any]] | None = None,
    timeout: float | None = None,
    return_runtime: bool = False,
) -> Any:
    """Run an SPMD function on a fresh :class:`Runtime`.

    With ``trace=True`` the runtime records a virtual-time span for every
    communication call (pair it with ``return_runtime=True`` to reach the
    recorder at ``rt.trace``).  Every run raises on incongruent collectives,
    diagnoses deadlocks — both naming user call sites — and raises on
    leaked messages when no rank crashed.  With ``sanitize=True``
    (default: the ``REPRO_SANITIZE`` environment variable) it additionally
    tracks happens-before vector clocks and buffer lifetimes, raising
    :class:`~repro.sanitize.SanitizerError` on write-after-isend,
    receive-aliasing, or data races — without touching the clocks.

    >>> def hello(comm):
    ...     return comm.allreduce(comm.rank)
    >>> run_spmd(4, hello)
    [6, 6, 6, 6]
    """
    rt = Runtime(
        size,
        machine=machine,
        ranks_per_node=ranks_per_node,
        use_shm=use_shm,
        trace=trace,
        sanitize=sanitize,
        faults=faults,
        spares=spares,
    )
    results = rt.run(fn, args=args, per_rank_args=per_rank_args, timeout=timeout)
    if return_runtime:
        return results, rt
    return results
