"""Payload handling: value-semantics copies and size accounting.

The runtime is in-process, so without copies a "sent" NumPy array would be
aliased between ranks; every payload is copied exactly once, mirroring
MPI's value semantics.  A point-to-point message is copied when it is sent
(:meth:`Comm.send`); a collective copies at extraction, when each member
picks its result from the deposits.  The one exception is the ``then=``
step of ``allreduce`` / ``allgather`` / ``bcast``: its result is computed
once and shared by every member, not copied, so it is read-only by
contract.
"""

from __future__ import annotations

import copy
from numbers import Number
from typing import Any, Iterator

import numpy as np


#: the exact scalar types of a flat row: immutable, 8 wire bytes each
_FLAT = frozenset((int, float))


def _flat(row: list | tuple) -> bool:
    """Is every element an exact ``int`` or ``float`` (no per-element call)?"""
    return _FLAT.issuperset(map(type, row))


def copy_payload(obj: Any) -> Any:
    """Deep-enough copy of a message payload."""
    if type(obj) is int or type(obj) is float:  # the common scalars, first
        return obj
    if obj is None or isinstance(obj, (bool, int, float, complex, str, bytes, np.generic)):
        return obj
    if isinstance(obj, np.ndarray):
        return obj.copy()
    if isinstance(obj, tuple):
        return tuple(obj) if _flat(obj) else tuple(copy_payload(x) for x in obj)
    if isinstance(obj, list):
        return obj[:] if _flat(obj) else [copy_payload(x) for x in obj]
    if isinstance(obj, dict):
        return {k: copy_payload(v) for k, v in obj.items()}
    return copy.deepcopy(obj)


#: maximum container/object nesting depth walked by :func:`iter_arrays`
_WALK_DEPTH = 8


def iter_arrays(obj: Any, *, _depth: int = 0, _seen: set[int] | None = None) -> Iterator[np.ndarray]:
    """Yield every ndarray reachable inside a payload.

    Walks tuples/lists/dicts, and — for *user* classes only — one
    ``__dict__`` level per object, so a payload object that smuggles an
    array past :func:`copy_payload` (e.g. via ``__deepcopy__``) is still
    visible to the sanitizer.  Instances of ``repro.*`` classes are not
    introspected: runtime handles (``Comm`` and friends) reach the whole
    runtime graph, including mutable bookkeeping arrays that must never be
    mistaken for payload buffers.
    """
    if _depth > _WALK_DEPTH:
        return
    if isinstance(obj, np.ndarray):
        yield obj
        return
    if obj is None or isinstance(obj, (bool, int, float, complex, str, bytes, np.generic)):
        return
    if _seen is None:
        _seen = set()
    if id(obj) in _seen:
        return
    _seen.add(id(obj))
    if isinstance(obj, (tuple, list)):
        for x in obj:
            yield from iter_arrays(x, _depth=_depth + 1, _seen=_seen)
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from iter_arrays(v, _depth=_depth + 1, _seen=_seen)
    elif not type(obj).__module__.startswith("repro"):
        attrs = getattr(obj, "__dict__", None)
        if attrs is not None:
            for v in attrs.values():
                yield from iter_arrays(v, _depth=_depth + 1, _seen=_seen)


def payload_nbytes(obj: Any) -> int:
    """Approximate wire size of a payload in bytes."""
    if type(obj) is int or type(obj) is float:  # exact types: no ``Number`` ABC walk
        return 8
    if obj is None:
        return 0
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, np.generic):
        return int(obj.itemsize)
    if isinstance(obj, bool):
        return 1
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    if isinstance(obj, str):
        return len(obj.encode("utf-8", errors="replace"))
    if isinstance(obj, Number):
        return 8
    if isinstance(obj, (tuple, list)):
        if _flat(obj):
            return 8 * len(obj) + 8
        return sum(payload_nbytes(x) for x in obj) + 8
    if isinstance(obj, dict):
        return sum(payload_nbytes(k) + payload_nbytes(v) for k, v in obj.items()) + 8
    return 64
