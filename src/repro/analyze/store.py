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

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .astlint import Finding
from .callgraph import ModuleIndex  # noqa: F401  (re-exported record part)
from .interproc import ModuleSummary

__all__ = [
    "ANALYZER_VERSION",
    "STORE_ENV",
    "FileRecord",
    "AnalysisStore",
    "default_store_path",
    "content_hash",
]

#: bump on any change to rule logic, summary extraction, or record layout —
#: cached records embed findings and summaries produced by this code
ANALYZER_VERSION = 3

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
    #: suppression (``spmd: ignore``) table: line -> None (all) | [rule ids]
    suppression: dict[int, list[str] | None] = field(default_factory=dict)
    #: suppression-table lines verified (by tokenizing) to be real comments
    #: rather than marker text inside string literals — the only lines the
    #: stale-suppression lint may flag
    ignore_lines: list[int] = field(default_factory=list)
    #: interprocedural summary (None for files that failed to parse)
    summary: ModuleSummary | None = None
    #: parse failure, if any (the record is still cached by content hash)
    parse_error: Finding | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "path": self.path,
            "modname": self.modname,
            "findings": [f.to_dict() for f in self.findings],
            "tag_findings": [f.to_dict() for f in self.tag_findings],
            "literal_tags": [list(t) for t in self.literal_tags],
            "suppression": {str(k): v for k, v in self.suppression.items()},
            "ignore_lines": list(self.ignore_lines),
            "summary": self.summary.to_dict() if self.summary is not None else None,
            "parse_error": (
                self.parse_error.to_dict() if self.parse_error is not None else None
            ),
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "FileRecord":
        return cls(
            path=d["path"],
            modname=d["modname"],
            findings=[Finding.from_dict(f) for f in d.get("findings", [])],
            tag_findings=[Finding.from_dict(f) for f in d.get("tag_findings", [])],
            literal_tags=[(int(t[0]), int(t[1])) for t in d.get("literal_tags", [])],
            suppression={
                int(k): (None if v is None else [str(r) for r in v])
                for k, v in d.get("suppression", {}).items()
            },
            ignore_lines=[int(i) for i in d.get("ignore_lines", [])],
            summary=(
                ModuleSummary.from_dict(d["summary"])
                if d.get("summary") is not None
                else None
            ),
            parse_error=(
                Finding.from_dict(d["parse_error"])
                if d.get("parse_error") is not None
                else None
            ),
        )


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
                self._entries[key] = (raw["hash"], FileRecord.from_dict(raw["record"]))
            except (KeyError, TypeError, ValueError):
                continue  # one bad entry never poisons the rest

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "schema": STORE_SCHEMA,
            "analyzer": ANALYZER_VERSION,
            "tags_sig": tags_signature(),
            "files": {
                k: {"hash": h, "record": r.to_dict()}
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

    def prune(self, keep: set[str]) -> int:
        """Drop records for files outside ``keep``; returns how many."""
        stale = [p for p in self._entries if p not in keep]
        for p in stale:
            del self._entries[p]
        return len(stale)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, path: str) -> bool:
        return path in self._entries
