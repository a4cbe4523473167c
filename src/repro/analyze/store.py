"""The incremental analysis store: per-file records keyed by content hash.

Parsing and per-file fact extraction dominate the analyzer's runtime; the
whole-program phase (literal-tag join + interprocedural fixpoint) is cheap
because it runs over small serialized summaries.  The store exploits that
split: every analyzed file gets a :class:`FileRecord` holding *all* of its
parse-derived artifacts —

* the raw per-function rule findings (unsuppressed),
* the module-local half of the tag audit plus its free-literal sites,
* the ``# spmd: ignore`` suppression table,
* the call-graph :class:`~repro.analyze.callgraph.ModuleIndex` and the
  interprocedural :class:`~repro.analyze.interproc.ModuleSummary`.

Records serialize themselves: :func:`encode` / :func:`decode` are driven
by the dataclass fields and their type hints, so a record class declares
its layout once.

A record is valid while the file's SHA-256 matches; the whole store is
valid while :data:`ANALYZER_VERSION` and the tag-namespace signature
match (rule changes and ``repro.mpi.tags`` edits invalidate everything —
cached per-module findings embed both).  Warm runs therefore re-parse
only changed files and still reproduce byte-identical output, because the
global phase always re-runs over the union of cached + fresh records.

Persistence mirrors :mod:`repro.tune.cache`: a small JSON document,
written atomically (temp file + rename), that degrades to empty on
corruption — the store is an accelerator, never a correctness dependency.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import types
import typing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from .astlint import Finding
from .interproc import ModuleSummary

__all__ = [
    "ANALYZER_VERSION",
    "STORE_ENV",
    "FileRecord",
    "AnalysisStore",
    "default_store_path",
    "content_hash",
    "encode",
    "decode",
]

#: bump on any change to rule logic, summary extraction, or record layout —
#: cached records embed findings and summaries produced by this code
ANALYZER_VERSION = 4

#: on-disk layout version of the store document itself
STORE_SCHEMA = 1

#: environment override for the default store location
STORE_ENV = "REPRO_ANALYZE_CACHE"


def default_store_path() -> Path:
    """``$REPRO_ANALYZE_CACHE``, else ``~/.cache/repro/analyze.json``."""
    env = os.environ.get(STORE_ENV, "").strip()
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME", "").strip()
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "analyze.json"


def content_hash(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def tags_signature() -> str:
    """Fingerprint of the tag-namespace table.

    The per-module tag findings cached in a record depend on
    ``repro.mpi.tags`` (namespace bases, owners, width); editing that
    module must invalidate records of *other* files too, so the signature
    is part of the store's global validity key rather than any per-file
    hash.
    """
    from repro.mpi import tags

    payload = json.dumps(
        {"namespaces": sorted(tags.NAMESPACES.items()), "width": tags.NAMESPACE_WIDTH},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


# ------------------------------------------------------------------ codec


def _same(value: Any) -> Any:
    return value


@functools.cache
def _codec(tp: Any) -> tuple[Callable[[Any], Any], Callable[[Any], Any]]:
    """``(encode, decode)`` for values of type ``tp``, built once per type
    from its hints: dataclasses become dicts of their non-transient fields,
    tuples lists, dict keys strings (``int`` keys come back as ``int``),
    optionals stay ``None``; anything else passes through untouched."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):  # ``T | None``
        ((enc, dec),) = (_codec(a) for a in args if a is not type(None))
        if dec is _same:
            return _same, _same
        return (
            lambda v: None if v is None else enc(v),
            lambda v: None if v is None else dec(v),
        )
    if dataclasses.is_dataclass(tp):
        hints = typing.get_type_hints(tp)
        parts = [
            (f.name, *_codec(hints[f.name]))
            for f in dataclasses.fields(tp)
            if not f.metadata.get("transient")
        ]
        return (
            lambda o: {name: enc(getattr(o, name)) for name, enc, _ in parts},
            lambda d: tp(**{name: dec(d[name]) for name, _, dec in parts}),
        )
    if origin in (list, tuple):
        # list[T], tuple[T, ...], or a fixed tuple of plain values
        enc, dec = _codec(args[0])
        if dec is _same:
            return list, origin
        return lambda v: [enc(x) for x in v], lambda v: origin(dec(x) for x in v)
    if origin is dict:
        key = int if args[0] is int else str
        enc, dec = _codec(args[1])
        return (
            lambda v: {str(k): enc(x) for k, x in v.items()},
            lambda v: {key(k): dec(x) for k, x in v.items()},
        )
    return _same, _same


def encode(obj: Any) -> Any:
    """A record (any dataclass instance) as JSON-ready data."""
    return _codec(type(obj))[0](obj)


def decode(tp: Any, data: Any) -> Any:
    """Rebuild a value of type ``tp`` from :func:`encode`'s output."""
    return _codec(tp)[1](data)


@dataclass
class FileRecord:
    """Every parse-derived artifact of one analyzed file."""

    path: str
    modname: str
    #: raw intraprocedural findings (check_module), unsuppressed
    findings: list[Finding] = field(default_factory=list)
    #: module-local tag-audit findings (namespace ownership), unsuppressed
    tag_findings: list[Finding] = field(default_factory=list)
    #: free-literal tag sites feeding the cross-module join: [(value, line)]
    literal_tags: list[tuple[int, int]] = field(default_factory=list)
    #: suppression comments: line -> None (all rules) | [rule ids]
    suppression: dict[int, list[str] | None] = field(default_factory=dict)
    #: interprocedural summary (None for files that failed to parse)
    summary: ModuleSummary | None = None
    #: parse failure, if any (the record is still cached by content hash)
    parse_error: Finding | None = None


class AnalysisStore:
    """Disk-backed map ``path -> (content hash, FileRecord)``.

    ``get``/``put`` count hits and misses so callers (and tests) can
    assert warm-run behavior; nothing is written until :meth:`save`.
    """

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else default_store_path()
        self._entries: dict[str, tuple[str, FileRecord]] = {}
        self.hits = 0
        self.misses = 0
        self._dirty = False
        self._load()

    # ------------------------------------------------------------ persistence

    def _load(self) -> None:
        try:
            data = json.loads(self.path.read_text())
        except (OSError, json.JSONDecodeError):
            return
        if (
            not isinstance(data, dict)
            or data.get("schema") != STORE_SCHEMA
            or data.get("analyzer") != ANALYZER_VERSION
            or data.get("tags_sig") != tags_signature()
        ):
            return  # stale rules or tag table: every cached record is suspect
        for key, raw in data.get("files", {}).items():
            try:
                self._entries[key] = (raw["hash"], decode(FileRecord, raw["record"]))
            except (KeyError, TypeError, ValueError, AttributeError):
                continue  # one bad entry never poisons the rest

    def save(self) -> None:
        """Write the store, forgetting files that no longer exist on disk
        (not files outside the current sweep: a narrower run keeps the rest)."""
        live = {k: e for k, e in self._entries.items() if os.path.exists(k)}
        if not self._dirty and len(live) == len(self._entries):
            return  # nothing parsed, nothing forgotten: the file is current
        self._entries, self._dirty = live, False
        self.path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "schema": STORE_SCHEMA,
            "analyzer": ANALYZER_VERSION,
            "tags_sig": tags_signature(),
            "files": {
                k: {"hash": h, "record": encode(r)}
                for k, (h, r) in sorted(self._entries.items())
            },
        }
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        tmp.write_text(json.dumps(payload))
        tmp.replace(self.path)

    # ----------------------------------------------------------------- access

    def get(self, path: str, digest: str) -> FileRecord | None:
        entry = self._entries.get(path)
        if entry is None or entry[0] != digest:
            self.misses += 1
            return None
        self.hits += 1
        return entry[1]

    def put(self, path: str, digest: str, record: FileRecord) -> None:
        self._entries[path] = (digest, record)
        self._dirty = True

    def __len__(self) -> int:
        return len(self._entries)
