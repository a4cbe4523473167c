"""Non-blocking request objects (MPI_Request analogues).

``wait()`` is idempotent: once a request completes it caches its payload
and every later ``wait()``/``test()`` returns the same value without
touching the mailbox again; if the first ``wait()`` was torn down by an
abort, later waits re-raise the same exception instead of hanging on a
dead communicator.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable

if TYPE_CHECKING:  # pragma: no cover
    from ..sanitize import Sanitizer
    from ..sanitize.shadow import InflightRecord
    from .comm import Comm


class Request:
    """Handle on an in-flight non-blocking operation."""

    def wait(self) -> Any:
        """Block until completion; returns the received payload (or None)."""
        raise NotImplementedError

    def test(self) -> tuple[bool, Any]:
        """Non-blocking completion check: ``(done, payload-or-None)``."""
        raise NotImplementedError


class _DoneRequest(Request):
    """An already-completed operation (eager sends complete immediately).

    Under ``sanitize=True`` an ``isend``'s request carries the sanitizer's
    fingerprint record of the user's buffers; the first ``wait()`` /
    ``test()`` is the operation's completion edge and re-checks them
    (WRITE-AFTER-ISEND).  The check runs once — completion is a single
    event even when ``wait()`` is called repeatedly.
    """

    #: sanitizer plumbing, set by ``Comm.isend`` when sanitizing
    _san: "Sanitizer | None" = None
    _san_record: "InflightRecord | None" = None

    def _complete(self) -> None:
        san, record = self._san, self._san_record
        if san is not None and record is not None:
            self._san = self._san_record = None
            san.check_inflight(record)

    def wait(self) -> None:
        self._complete()
        return None

    def test(self) -> tuple[bool, Any]:
        self._complete()
        return True, None


class _IRecvRequest(Request):
    """A pending receive; completes on :meth:`wait` or a successful test.
    The runtime keeps every one until its run ends: one never completed is
    a leak, reported at ``site``, the user call site."""

    def __init__(self, comm: "Comm", source: int, tag: int, site: str = ""):
        self._comm = comm
        self._source = source
        self._tag = tag
        self._site = site
        self._done = False
        self._payload: Any = None
        self._exc: BaseException | None = None

    def wait(self) -> Any:
        if self._done:
            return self._payload
        if self._exc is not None:
            raise self._exc
        try:
            # Traced under the "wait" span name so blocked time on request
            # completion is distinguishable from a plain blocking recv.
            self._payload = self._comm.recv(self._source, self._tag, _span_name="wait")
        except BaseException as exc:
            self._exc = exc
            raise
        self._done = True
        return self._payload

    def test(self) -> tuple[bool, Any]:
        if self._done:
            return True, self._payload
        if self._exc is not None:
            raise self._exc
        if self._comm.iprobe(self._source, self._tag):
            return True, self.wait()
        return False, None


def waitall(requests: Iterable[Request]) -> list[Any]:
    """Wait for every request; returns their payloads in order."""
    return [req.wait() for req in requests]
