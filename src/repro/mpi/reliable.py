"""Drop/duplicate-tolerant p2p: sequence numbers, acks, retries.

Plain :meth:`~repro.mpi.comm.Comm.send` is fire-and-forget: under a
:class:`~repro.faults.FaultPlan` a message may be dropped (never
delivered) or duplicated.  This module layers a stop-and-wait ARQ
protocol on top:

* :func:`reliable_send` stamps each payload with a per
  ``(sender, dest, tag)`` sequence number and blocks for the matching
  acknowledgement with a *virtual-time* deadline.  No ack in time →
  resend with exponential backoff per :class:`RetryPolicy`; still
  nothing after ``max_attempts`` → :class:`MessageTimeoutError`.
* :func:`reliable_recv` delivers the next in-order payload of one
  channel, acknowledging every arrival — acks for already-delivered
  sequence numbers are what terminate sender retries when it was the
  *ack* that got dropped — and deduplicating retransmissions and
  injected duplicates.

Data and acks share one wire tag (``RELIABLE_BASE + tag``), and — the
part that makes the protocol live — **every blocked reliable operation
services the whole channel**: a sender waiting for its ack still
receives, acknowledges, and buffers incoming data (delivered later, in
order, by ``reliable_recv``), and a receiver waiting for one peer still
acknowledges retransmissions from others.  Without this, a dropped ack
starves its sender: the receiver has moved on and would only re-ack at
its *next* receive on that channel, which may itself be blocked behind
the stuck sender.

Determinism of virtual time
---------------------------
Channel servicing is *causal*, not clocked: :func:`_dispatch` consumes
wire messages without advancing the servicing rank's clock, and each
message carries its own arrival time (departure + priced transfer).
Acks are stamped with the causal arrival of the data they acknowledge
(``send(..., _at=arrival)``) rather than the acking rank's current —
schedule-dependent — clock, and they draw their fault decisions from a
separate per-link stream, so their interleaving with ordinary sends
cannot perturb which data message the k-th drop lands on.  A rank's
clock advances only at *logical* consumption: ``reliable_recv`` merges
the stored arrival of the payload it delivers, ``reliable_send`` merges
the arrival of the ack that releases it.  Per-channel mailbox order is
FIFO, so those arrivals — and therefore the modelled makespan — are a
pure function of the fault plan's seed, independent of thread
scheduling.

Stop-and-wait keeps each ``(sender, dest, tag)`` channel in-order; the
buddy checkpoints (:mod:`repro.mpi.checkpoint`) ride on it.

Collectives move no messages — the rendezvous combines deposits — so
:func:`collective_faults` prices the same drops, duplicates and delays
into them instead, with :data:`DEFAULT_POLICY`'s retry ladder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from ..faults.detector import PhiAccrualDetector
from .comm import ANY_SOURCE, Comm
from .errors import CircuitOpenError, MessageTimeoutError
from .tags import NAMESPACE_WIDTH, RELIABLE_BASE

__all__ = ["RetryPolicy", "DEFAULT_POLICY", "ADAPTIVE_POLICY",
           "reliable_send", "reliable_recv", "service_pending",
           "collective_faults"]

_DATA = "d"
_ACK = "a"

#: fault-decision stream of acknowledgement messages (see FaultPlan.link_event)
_ACK_STREAM = 1
#: fault-decision stream of the messages a collective stands for
_COLLECTIVE_STREAM = 2


@dataclass(frozen=True)
class RetryPolicy:
    """Retry schedule + degradation handling of :func:`reliable_send`.

    Attempt ``k`` (0-based) waits ``base_timeout * backoff**k`` virtual
    seconds for the ack before retransmitting; after ``max_attempts``
    unacknowledged sends the operation fails with
    :class:`MessageTimeoutError`.

    With ``adaptive=True`` the base of the ladder is no longer fixed:
    each link keeps a :class:`~repro.faults.PhiAccrualDetector` over the
    virtual arrival times of its acknowledgements and deliveries, and the
    first attempt's deadline becomes the silence duration at which the
    detector's suspicion reaches ``phi_threshold`` — clamped to
    ``[base_timeout, max_timeout]`` — so chronically slow links (delay
    spikes, degradation windows) earn proportionally longer patience
    while quiet fast links are given up on quickly.  Backoff still
    multiplies across attempts (per-link adaptive backoff).

    ``breaker_threshold`` arms a per-link circuit breaker: after that
    many *consecutive* reliable sends on one ``(dest, tag)`` channel
    exhausted their retry budget, further sends fail fast with
    :class:`CircuitOpenError` instead of paying another doomed ladder —
    the typed degradation signal recovery loops act on.  ``0`` disables
    the breaker.  Any acknowledged send closes the breaker again.
    """

    max_attempts: int = 8
    base_timeout: float = 1e-3
    backoff: float = 2.0
    adaptive: bool = False
    phi_threshold: float = 8.0
    max_timeout: float = 0.25
    breaker_threshold: int = 0
    window: int = 64

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_timeout <= 0.0:
            raise ValueError("base_timeout must be positive")
        if self.backoff < 1.0:
            raise ValueError("backoff must be >= 1.0")
        if self.phi_threshold <= 0.0:
            raise ValueError("phi_threshold must be positive")
        if self.max_timeout < self.base_timeout:
            raise ValueError("max_timeout must be >= base_timeout")
        if self.breaker_threshold < 0:
            raise ValueError("breaker_threshold must be >= 0")
        if self.window < 2:
            raise ValueError("window must be >= 2")

    def timeout(self, attempt: int,
                detector: PhiAccrualDetector | None = None) -> float:
        """Ack deadline (virtual seconds) for 0-based ``attempt``.

        ``detector`` (the link's arrival history) adapts the base of the
        ladder when the policy is adaptive and at least two heartbeats
        have been seen; otherwise the fixed ``base_timeout`` applies.
        """
        base = self.base_timeout
        if self.adaptive and detector is not None and detector.observations >= 2:
            base = min(max(detector.deadline(self.phi_threshold), base),
                       self.max_timeout)
        return base * self.backoff**attempt


DEFAULT_POLICY = RetryPolicy()

#: the checkpoint channel's policy (:class:`repro.mpi.checkpoint.
#: BuddyCheckpointer`): phi-accrual-adapted deadlines plus a 3-strike
#: circuit breaker
ADAPTIVE_POLICY = RetryPolicy(adaptive=True, breaker_threshold=3)


def _link_detector(state, key: tuple[int, int, int]) -> PhiAccrualDetector:
    """The (own rank, peer, tag) link's arrival-history detector, created
    on first use.  Keys start with the owning rank, so no locking."""
    det = state.rel_detect.get(key)
    if det is None:
        det = state.rel_detect[key] = PhiAccrualDetector()
    return det


def _process(comm: Comm, msg, tag: int) -> None:
    """Process one received channel message (data or ack), clock-neutral.

    Data is acknowledged *unconditionally* — with the causal arrival time
    as the ack's departure — and, when new, buffered with that arrival for
    :func:`reliable_recv`; acks advance the per-peer high-water mark that
    :func:`reliable_send` polls.

    Deliberately does NOT feed the link's phi-accrual detector: *when* a
    pending message gets processed is a wall-clock scheduling accident,
    so an observation made here could be visible to one replay's deadline
    computation and not another's.  Heartbeats are observed at logical
    consumption instead (ack release in :func:`reliable_send`, in-order
    delivery in :func:`reliable_recv`), whose virtual arrival times are a
    pure function of the fault seed.
    """
    state = comm._state
    rank = comm.rank
    wire = RELIABLE_BASE + tag
    src = msg.src
    arrival = comm._arrival(msg)
    payload = msg.payload
    key = (rank, src, tag)
    if payload[0] == _ACK:
        seq = payload[1]
        cur = state.rel_acked.get(key)
        # Highest seq wins; for the same seq keep the EARLIEST arrival —
        # acks of one seq can arrive with different injected delays, and
        # physically the first one to arrive is the release, regardless
        # of the wall-clock order this rank happened to process them in.
        if cur is None or seq > cur[0] or \
                (seq == cur[0] and arrival < cur[1]):
            state.rel_acked[key] = (seq, arrival)
        return
    _, seq, obj = payload
    # Acks draw their fault decision from (comm, tag, seq, ack#) — an
    # identity, not a link counter — so a teardown race over whether this
    # very ack goes out cannot skew later decisions on the link (see
    # FaultPlan.link_event).  The communicator id matters: per-channel
    # state resets when recovery shrinks to a new communicator, and
    # without it a retry epoch would replay the exact ack fates that
    # doomed the previous one.
    kkey = (rank, src, tag, seq)
    # One ack per distinct data ARRIVAL: the copies of a duplicated
    # transmission share departure and arrival, and acking each copy
    # would mint acks with independent fates whose race for the sender's
    # release slot depends on processing order.  A retransmission has a
    # new arrival and still draws a fresh ack (and fate) — that is what
    # keeps the retry ladder live when an earlier ack was dropped.
    acked_at = state.rel_ack_sent.setdefault(kkey, [])
    if arrival in acked_at:
        if comm.tracer.enabled:
            comm.tracer.instant("dedup-ack", src=src, tag=tag, seq=seq)
        return
    acked_at.append(arrival)
    k = state.rel_ackseq.get(kkey, 0)
    state.rel_ackseq[kkey] = k + 1
    comm.send((_ACK, seq), src, wire, _at=arrival, _stream=_ACK_STREAM,
              _event=(state.trace_id, tag, seq, k), _control="arq")
    if seq > state.rel_delivered.get(key, -1):
        state.rel_delivered[key] = seq
        state.rel_buf.setdefault(key, []).append((obj, arrival))
    elif comm.tracer.enabled:
        comm.tracer.instant("dedup", src=src, tag=tag, seq=seq)


def deferred(comm: Comm, m) -> bool:
    """Must this reliable wire message wait for the rank's clock?

    True for *data* whose virtual arrival lies beyond the servicing
    rank's current clock while that rank still has a planned crash ahead
    of it.  Acking such a message would assert the rank was alive at the
    arrival instant — but whether the thread schedule lets it do so
    before reaching its crash op is a wall-clock accident, and the crash
    cut (ack iff ``arrival <= crash clock``, :func:`crash_drain`) must be
    a pure function of the virtual schedule.  Deferred messages simply
    stay in the mailbox: if the rank lives on, a later drain at a higher
    clock picks them up; if it dies first, the crash drain applies the
    cut.  Acks are never deferred — they only advance the rank's own
    release bookkeeping, which dies with it.
    """
    if m.payload[0] == _ACK:
        return False
    rt = comm._rt
    wr = comm.world_rank
    if not rt.crash_pending(wr):
        return False
    return comm._arrival(m) > float(rt.clocks[wr])


def _dispatch(
    comm: Comm, tag: int, timeout: float | None, fail_source: int | None,
    recv_from: int | None = None,
) -> None:
    """Blocking-receive and process one channel message.

    ``fail_source`` is the rank whose death should fail the wait (the
    channel peer the caller is really blocked on); ``recv_from`` names
    the channel :func:`reliable_recv` is actively delivering from, whose
    next in-order data message is always visible — consuming it merges
    the arrival into the rank's clock, so the crash cut stays consistent
    without deferral.  Raises :class:`MessageTimeoutError` when nothing
    arrives before the virtual deadline.
    """
    wire = RELIABLE_BASE + tag
    visible = None
    if comm._rt.crash_pending(comm.world_rank):
        state = comm._state
        key = (comm.rank, recv_from, tag)

        def visible(m):
            if recv_from is not None and m.src == recv_from and \
                    m.payload[0] == _DATA and \
                    m.payload[1] == state.rel_delivered.get(key, -1) + 1:
                return True
            return not deferred(comm, m)

    msg = comm._recv_message(ANY_SOURCE, wire, timeout=timeout,
                             fail_source=fail_source,
                             span_name="reliable_wait", visible=visible)
    _process(comm, msg, tag)


def service_pending(comm: Comm, exclude: tuple[int, int] | None = None) -> int:
    """Drain every reliable wire message already sitting in this rank's
    mailbox and process it; returns how many were handled.

    Non-blocking and clock-neutral.  Called by ft rendezvous waits
    (``agree``/``shrink``) so a rank that has moved past its last channel
    operation still acknowledges peers' retransmissions — without this, a
    peer whose epoch-final ack was dropped could never complete.  Also
    called at reliable-op exits and from blocked receive waits so a
    serviceable message is never stranded behind a wall-clock race (see
    ``Comm._recv_wait``).  ``exclude`` is a ``(source, tag)`` receive
    pattern (``-1`` wildcards) whose matches are left in place — a wait
    must never consume its own quarry on behalf of the channel layer.
    Data the servicing rank may not ack yet (see :func:`deferred`) is
    likewise left in place, for a later drain or the crash cut.
    """
    state = comm._state
    mb = state.mailboxes[comm.rank]
    got = []
    with mb.cond:
        if state.aborted:
            return 0
        kept = []
        for m in mb.messages:
            if RELIABLE_BASE <= m.tag < RELIABLE_BASE + NAMESPACE_WIDTH \
                    and not (exclude is not None
                             and (exclude[0] < 0 or m.src == exclude[0])
                             and (exclude[1] < 0 or m.tag == exclude[1])) \
                    and not deferred(comm, m):
                got.append(m)
            else:
                kept.append(m)
        if got:
            mb.messages[:] = kept
    for m in got:
        _process(comm, m, m.tag - RELIABLE_BASE)
    return len(got)


def crash_drain(comm: Comm, now: float) -> int:
    """Final channel service of a dying rank (its own thread, from
    ``Runtime._execute_crash``): process every reliable wire message
    whose virtual **arrival** precedes the crash instant ``now``, so the
    acks those messages earned go out with their causal timestamps.

    Whether the rank's thread happened to service a message before
    reaching its crash op is a wall-clock scheduling accident; this cut
    — ack iff ``arrival <= crash clock`` — makes the dead rank's last
    acknowledgements a pure function of the virtual schedule.  Messages
    arriving after the cut die with the rank (left in the dead mailbox).
    The caller holds the rank's post-mortem lock, which also serializes
    senders that deposit after the drain (``Comm._post_mortem``).
    """
    state = comm._state
    mb = state.mailboxes[comm.rank]
    got = []
    with mb.cond:
        if state.aborted:
            return 0
        kept = []
        for m in mb.messages:
            if RELIABLE_BASE <= m.tag < RELIABLE_BASE + NAMESPACE_WIDTH \
                    and comm._arrival(m) <= now:
                got.append(m)
            else:
                kept.append(m)
        if got:
            mb.messages[:] = kept
    for m in got:
        _process(comm, m, m.tag - RELIABLE_BASE)
    return len(got)


def reliable_send(
    comm: Comm,
    obj: Any,
    dest: int,
    tag: int = 0,
    policy: RetryPolicy = DEFAULT_POLICY,
    *,
    control: str | None = None,
) -> int:
    """Send ``obj`` to ``dest`` surviving drops and duplications.

    Blocks until the matching ack (the clock merges the ack's causal
    arrival time, like a rendezvous send).  Returns the number of
    transmission attempts used (1 = no retry).  Raises
    :class:`MessageTimeoutError` when every attempt went unacknowledged,
    :class:`CircuitOpenError` immediately when the link's breaker is
    already open, and propagates :class:`RankFailedError` /
    :class:`CommRevokedError` from the underlying waits.

    ``control`` names a control-plane traffic kind (e.g. ``"checkpoint"``,
    ``"heartbeat"``) accounted via :meth:`Stats.record_control` instead of
    the data-plane byte counters; retransmissions are always accounted as
    control traffic (their kind, or ``"arq"`` for data-plane payloads),
    so ``wire_bytes`` reflects the payload once regardless of retries.
    """
    state = comm._state
    rt = comm._rt
    akey = (comm.rank, dest, tag)
    if policy.breaker_threshold:
        if state.rel_breaker.get(akey, 0) >= policy.breaker_threshold:
            raise CircuitOpenError(
                f"reliable_send(dest={dest}, tag={tag}): circuit open after "
                f"{state.rel_breaker[akey]} consecutive exhausted sends"
            )
    seq = state.rel_seq.get(akey, 0)
    state.rel_seq[akey] = seq + 1
    wire = RELIABLE_BASE + tag
    tracer = comm.tracer
    detector = state.rel_detect.get(akey) if policy.adaptive else None

    def acked() -> tuple[int, float] | None:
        cur = state.rel_acked.get(akey)
        return cur if cur is not None and cur[0] >= seq else None

    for attempt in range(policy.max_attempts):
        t0 = comm.clock
        kind = control if attempt == 0 else (control or "arq")
        comm.send((_DATA, seq, obj), dest, wire, _control=kind)
        try:
            while acked() is None:
                _dispatch(comm, tag, policy.timeout(attempt, detector), dest)
            ack_at = acked()[1]
            comm.clock = max(comm.clock, ack_at)
            # Heartbeat at the deterministic point: the op completed, and
            # the releasing ack's causal arrival is seed-pure (see the
            # module docs) — unlike the wall-clock-raced moment _process
            # happened to handle it.
            _link_detector(state, akey).observe(ack_at)
            if policy.breaker_threshold:
                state.rel_breaker[akey] = 0
            # Never exit a channel op with unprocessed channel traffic in
            # the mailbox: the dispatch loop consumes in deposit order, and
            # whether a peer's duplicate landed before or after our own ack
            # is a thread-scheduling race.  Leaving it stranded delays its
            # (causally timed) ack until this rank's next channel op, which
            # can let the peer's virtual deadline fire in one replay and
            # not another.  Draining here is clock-neutral and keeps every
            # ack's departure at its deterministic causal time.
            service_pending(comm)
            return attempt + 1
        except MessageTimeoutError:
            if attempt + 1 >= policy.max_attempts:
                if policy.breaker_threshold:
                    strikes = state.rel_breaker.get(akey, 0) + 1
                    state.rel_breaker[akey] = strikes
                    if strikes == policy.breaker_threshold:
                        rt._count_fault("breaker_trips")
                raise MessageTimeoutError(
                    f"reliable_send(dest={dest}, tag={tag}, seq={seq}) gave "
                    f"up after {policy.max_attempts} attempts"
                ) from None
            if tracer.enabled:
                tracer.record("retry", t0, cat="fault", dest=dest, tag=tag,
                              seq=seq, attempt=attempt + 1)
    raise AssertionError("unreachable")


def reliable_recv(
    comm: Comm,
    source: int,
    tag: int = 0,
    *,
    timeout: float | None = None,
) -> Any:
    """Receive the next in-order reliable message from ``source``.

    ``source`` must be a concrete rank: ordering and deduplication state
    is per channel.  ``timeout`` bounds each internal wait in virtual
    seconds (:class:`MessageTimeoutError` on expiry).
    """
    if source < 0:
        raise ValueError("reliable_recv requires a concrete source rank")
    rt = comm._rt
    if rt._faults is not None:
        # Channel servicing (_dispatch) is not a crash checkpoint, so the
        # op count a crash triggers on stays schedule-independent; check
        # once per logical receive instead.
        rt.maybe_crash(comm.world_rank)
    state = comm._state
    key = (comm.rank, source, tag)
    tracer = comm.tracer
    t0 = comm.clock
    while True:
        buf = state.rel_buf.get(key)
        if buf:
            obj, arrival = buf.pop(0)
            comm.clock = max(comm.clock, arrival)
            # In-order delivery is the receive-side heartbeat (same
            # determinism argument as the ack heartbeat in reliable_send).
            _link_detector(state, key).observe(arrival)
            if tracer.enabled:
                tracer.record("reliable_recv", t0, cat="p2p", src=source,
                              tag=tag, idle=max(0.0, comm.clock - t0))
            # Same stranding guard as reliable_send's success exit: drain
            # channel traffic before leaving, so pending duplicates get
            # their causally-timed acks out regardless of deposit order.
            service_pending(comm)
            return obj
        _dispatch(comm, tag, timeout, source, recv_from=source)


def collective_faults(state, gen: int, name: str, start: float,
                      stages: tuple) -> tuple[tuple, str | None]:
    """The fault plan's price on generation ``gen`` of collective ``name``
    on ``state``, computed once by the last arriver: ``(stages, failure)``.

    The rendezvous moves no messages, so each priced stage stands for the
    ones a message-passing collective would send: one from every other
    member to member 0 and one back — for ``alltoall``/``alltoallv``, one
    per ordered pair.  Attempt ``a`` of a message draws its fate from the
    content identity ``(comm, generation, stage, a)``, as an ack does, so
    the price is a pure function of the seed.  A dropped attempt costs
    :data:`DEFAULT_POLICY`'s deadline for it; the delivered attempt's delay
    and degraded-window penalty multiply the stage cost (its receiver's,
    for a per-rank stage).  A stage ends at its slowest message.  A message
    dropped on every attempt is beyond repair: its stage costs the whole
    ladder and ends the list, and ``failure`` says which message it was.
    """
    rt = state.runtime
    plan = rt._faults
    ranks = state.world_ranks
    p = len(ranks)
    if name in ("alltoall", "alltoallv"):
        links = [(i, j) for i in range(p) for j in range(p) if i != j]
    else:
        links = [(i, 0) for i in range(1, p)] + [(0, i) for i in range(1, p)]
    policy = DEFAULT_POLICY
    clocks = np.full(p, float(start))
    priced = []
    for s, stage in enumerate(stages):
        cost = np.broadcast_to(np.asarray(stage, dtype=np.float64), (p,))
        extra = np.zeros(p)
        for src, dst in links:
            waited = 0.0
            for a in range(policy.max_attempts):
                fate = plan.link_event(ranks[src], ranks[dst], _COLLECTIVE_STREAM,
                                       (state.trace_id, gen, s, a))
                if not fate.drop:
                    break
                rt._count_fault("dropped")
                waited += policy.timeout(a)
            else:
                return (*priced, waited), (
                    f"{name} on comm#{state.trace_id} (generation {gen}): its "
                    f"message {ranks[src]} -> {ranks[dst]} was dropped on all "
                    f"{policy.max_attempts} attempts")
            if fate.duplicate:
                rt._count_fault("duplicated")
            penalty = fate.delay_factor + plan.degrade_factor(
                ranks[src], ranks[dst], clocks[src] + waited)
            if penalty:
                rt._count_fault("delayed")
            extra[dst] = max(extra[dst], waited + penalty * cost[dst])
        stage = stage + (extra if np.ndim(stage) else extra.max())
        priced.append(stage)
        clocks = clocks + stage
    return tuple(priced), None
