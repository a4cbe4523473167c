"""Error types of the SPMD runtime."""

from __future__ import annotations

import traceback


def _frame_of(exc: BaseException) -> str | None:
    """``file:line (function)`` of the innermost traceback frame."""
    tb = traceback.extract_tb(exc.__traceback__)
    if not tb:
        return None
    f = tb[-1]
    return f"{f.filename}:{f.lineno} ({f.name})"


class SPMDError(RuntimeError):
    """One or more ranks raised; carries the per-rank exceptions.

    The first failing rank's exception is chained as ``__cause__`` so that
    pytest tracebacks point at the real failure; the message carries a
    one-line traceback summary for *every* failed rank, so failures on
    higher-numbered ranks are diagnosable without re-running.
    """

    def __init__(self, failures: dict[int, BaseException]):
        self.failures = dict(failures)
        ranks = ", ".join(str(r) for r in sorted(self.failures))
        first = self.failures[min(self.failures)]
        lines = [
            f"SPMD program failed on rank(s) {ranks}: "
            f"{type(first).__name__}: {first}"
        ]
        for r in sorted(self.failures):
            exc = self.failures[r]
            where = _frame_of(exc)
            at = f" at {where}" if where else ""
            lines.append(f"  rank {r}: {type(exc).__name__}: {exc}{at}")
        super().__init__("\n".join(lines))


class Aborted(RuntimeError):
    """Raised inside surviving ranks when the runtime aborts.

    This is the in-process analogue of ``MPI_Abort`` tearing down the job:
    when any rank raises, all pending waits are interrupted with this
    exception so the whole SPMD program unwinds instead of deadlocking.
    """


class CommunicatorError(RuntimeError):
    """Misuse of a communicator (bad rank, mismatched collective, ...)."""


class CollectiveMismatchError(CommunicatorError):
    """Two ranks issued incongruent collectives on the same communicator.

    Raised by the rendezvous' last arriver when the members' Nth
    collectives disagree on operation name or root; the message carries
    both ranks' call sites.
    """


class DeadlockError(CommunicatorError):
    """The wait ledger's quiescence arbiter found a deadlock.

    Every live rank is blocked (recv / collective / rendezvous) and no
    pending message, completion or revocation can wake any of them — a
    fault plan's drops cannot cause one, since every message reaches its
    receiver or times out there; the message contains the per-rank waits
    with their call sites and, when one exists, the wait-for cycle.
    """


class MessageLeakError(CommunicatorError):
    """A run with no crashed rank finished with undelivered messages or
    never-completed ``irecv`` requests; the message lists every orphaned
    (source, dest, tag) and every such request's call site."""


class RankFailedError(CommunicatorError):
    """An operation involved a rank that has crashed (ULFM ERR_PROC_FAILED).

    Raised from collectives whose membership includes a dead rank and from
    receives whose (named) source is dead with no deliverable message.
    Survivors recover by agreeing on the failure (:meth:`Comm.agree`) and
    continuing on a shrunken communicator (:meth:`Comm.shrink`).
    """

    def __init__(self, msg: str, failed: frozenset[int] = frozenset()):
        super().__init__(msg)
        #: world ranks known dead on this communicator when the error rose
        self.failed = frozenset(failed)


class CommRevokedError(CommunicatorError):
    """The communicator was revoked (ULFM MPI_Comm_revoke).

    After any member calls :meth:`Comm.revoke`, every pending and future
    operation on the communicator raises this — except the recovery calls
    :meth:`Comm.shrink` and :meth:`Comm.agree` — so all survivors converge
    on the recovery path instead of blocking on peers that already left it.
    """


class MessageTimeoutError(CommunicatorError):
    """A message was dropped on every attempt of its retry ladder
    (:mod:`repro.mpi.reliable`): a send, raised by the receive that takes
    it, or a collective's, raised on every member.

    The ladder is priced on the virtual clock: the raising rank's clock is
    advanced to the message's departure plus the whole ladder first,
    exactly as if it had waited out every attempt.
    """


class RankCrashed(BaseException):
    """Internal signal unwinding a rank that a fault plan just killed.

    Deliberately a ``BaseException``: an injected crash must terminate the
    rank's program even through ``except Exception`` handlers, like a real
    process death would.  The runtime catches it in the rank worker; user
    code should never handle it.
    """
