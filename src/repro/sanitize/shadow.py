"""Shadow state for payload buffers: fingerprints, in-flight records,
and per-object access histories.

Fingerprinting samples up to :data:`SAMPLE_ELEMS` strided elements of an
array (plus its shape/dtype) into a CRC — cheap enough to run at every
send edge of a 16-rank program, yet it catches any mutation that touches
one of the sampled positions and every size/dtype change.  The digest is
a *detector*, not a proof: a write landing strictly between sample points
can escape it, which is the classic sanitizer trade (ThreadSanitizer's
shadow cells sample too).  Densify by raising ``SAMPLE_ELEMS``.
"""

from __future__ import annotations

import weakref
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

import numpy as np

__all__ = [
    "SAMPLE_ELEMS",
    "fingerprint",
    "payload_fingerprints",
    "weak_ref",
    "InflightRecord",
    "AccessHistory",
]

#: number of strided element samples folded into a buffer digest
SAMPLE_ELEMS = 64


def fingerprint(arr: np.ndarray) -> int:
    """Content digest of strided samples plus shape and dtype."""
    meta = f"{arr.shape}|{arr.dtype.str}".encode()
    crc = zlib.crc32(meta)
    if arr.size:
        flat = arr.reshape(-1) if arr.flags.c_contiguous else arr.flatten()
        step = max(1, flat.size // SAMPLE_ELEMS)
        sample = np.ascontiguousarray(flat[::step][:SAMPLE_ELEMS])
        crc = zlib.crc32(sample.tobytes(), crc)
        # The stride above never reaches the final element unless it
        # divides evenly; the tail is where appends/partial writes land.
        crc = zlib.crc32(np.ascontiguousarray(flat[-1:]).tobytes(), crc)
    return crc


def weak_ref(arr: np.ndarray) -> "weakref.ref[np.ndarray] | None":
    """A weak reference to ``arr``; ``None`` if its type refuses one."""
    try:
        return weakref.ref(arr)
    except TypeError:  # exotic ndarray subclass without weakref support
        return None


def payload_fingerprints(
    payload: Any, arrays: Callable[[Any], Iterator[np.ndarray]]
) -> list[tuple["weakref.ref[np.ndarray] | None", int]]:
    """``(weakref, digest)`` per array in the payload.

    Weak references keep the sanitizer from extending buffer lifetimes
    (that would change garbage-collection behaviour, and a dead buffer
    cannot be mutated anyway).
    """
    return [(weak_ref(a), fingerprint(a)) for a in arrays(payload)]


@dataclass
class InflightRecord:
    """Buffers handed to one ``isend``, checked again at ``wait()``."""

    world_rank: int
    dest: int
    tag: int
    opnum: int
    vc: tuple[int, ...]
    site: str
    entries: list[tuple["weakref.ref[np.ndarray] | None", int]]

    def mutated(self) -> list[np.ndarray]:
        """Arrays whose digest changed since the ``isend``."""
        out = []
        for ref, digest in self.entries:
            arr = ref() if ref is not None else None
            if arr is not None and fingerprint(arr) != digest:
                out.append(arr)
        return out


@dataclass
class AccessHistory:
    """FastTrack-style access history of one shared object.

    ``write`` is the last write epoch ``(rank, vc-snapshot, site)``;
    ``reads`` maps each rank to its latest read epoch.  On a race-free
    write every recorded read is ordered before it, so the read set
    resets; racy accesses are reported, then recorded anyway so one bug
    yields one finding rather than a cascade.
    """

    obj: Any  # strong ref: keeps id() stable for the table key
    write: tuple[int, tuple[int, ...], str] | None = None
    reads: dict[int, tuple[tuple[int, ...], str]] = field(default_factory=dict)
