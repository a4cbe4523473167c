"""Sanitizer findings: structured diagnostics and the finalize error.

Every detector produces a :class:`SanitizeFinding` carrying the observing
rank, the operation (and its per-rank operation number), the rank's vector
clock at detection time, and a human-readable message naming the buffer.
Findings are collected during the run and raised together as a
:class:`SanitizerError` at finalize, so a single run reports every hazard
it hit rather than dying on the first.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "SanitizeFinding",
    "SanitizerError",
    "WRITE_AFTER_ISEND",
    "RECV_ALIAS",
    "HB_RACE",
]

#: sender mutated a buffer between ``isend`` and the request's ``wait()``
WRITE_AFTER_ISEND = "WRITE-AFTER-ISEND"
#: delivered payload aliases the sender's live array (copy discipline broken)
RECV_ALIAS = "RECV-ALIAS"
#: unordered read/write pair on an object shared across rank closures
HB_RACE = "HB-RACE"


@dataclass(frozen=True)
class SanitizeFinding:
    """One detected memory hazard."""

    kind: str              #: WRITE-AFTER-ISEND | RECV-ALIAS | HB-RACE
    world_rank: int        #: rank that observed the hazard
    op: str                #: operation at the detection point (isend, recv, ...)
    opnum: int             #: that rank's sanitizer operation counter
    vc: tuple[int, ...]    #: observing rank's vector clock at detection
    message: str

    def format(self) -> str:
        return (
            f"[{self.kind}] rank {self.world_rank} op#{self.opnum} "
            f"({self.op}): {self.message} [vc={list(self.vc)}]"
        )

    #: stable identity for deduplication across repeated detections
    @property
    def key(self) -> tuple:
        return (self.kind, self.world_rank, self.op, self.message)


class SanitizerError(RuntimeError):
    """Raised at finalize when a sanitized run detected memory hazards."""

    def __init__(self, findings: list[SanitizeFinding]):
        self.findings = list(findings)
        n = len(self.findings)
        lines = [f"sanitizer detected {n} memory hazard{'s' if n != 1 else ''}:"]
        lines += ["  " + f.format() for f in self.findings]
        super().__init__("\n".join(lines))
