"""The persistent plan cache: fingerprint bucket -> best known plan.

A :class:`PlanCache` is a small JSON document on disk mapping
:meth:`~repro.tune.fingerprint.WorkloadFingerprint.bucket_key` strings to
serialized :class:`~repro.tune.planner.SortPlan` entries plus their
feedback history.  Lookups are invalidated — treated as misses — when:

* the on-disk schema version differs (:data:`CACHE_SCHEMA`),
* the entry was planned under a different closed-form model
  (:data:`repro.model.phases.MODEL_VERSION`) or planner
  (:data:`repro.tune.planner.PLANNER_VERSION`) — checked at load, before
  the plan is parsed, since its config may name knobs since removed,
* the machine signature embedded in the bucket key differs (a different
  cluster can never alias: the signature is part of the key itself), or
* the feedback loop has demoted the entry (observed/predicted drift past
  threshold; see :mod:`repro.tune.feedback`).

Writes are atomic (temp file + rename) so a crashed run never leaves a
truncated cache, and a corrupt/unreadable file degrades to an empty cache
rather than an error — the cache is an accelerator, never a correctness
dependency.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from ..model.phases import MODEL_VERSION
from .planner import PLANNER_VERSION, SortPlan

__all__ = ["MemoryPlanCache", "PlanCache", "default_cache_path"]

#: on-disk layout version; any change to the entry structure bumps it
CACHE_SCHEMA = 1

#: environment override for the default cache location
CACHE_ENV = "REPRO_TUNE_CACHE"


def default_cache_path() -> Path:
    """``$REPRO_TUNE_CACHE``, else ``~/.cache/repro/plans.json``."""
    env = os.environ.get(CACHE_ENV, "").strip()
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME", "").strip()
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "plans.json"


@dataclass
class CacheEntry:
    """One cached plan plus its service record."""

    plan: SortPlan
    model_version: int
    planner_version: int
    hits: int = 0
    demoted: bool = False
    #: trailing observed/predicted makespan ratios from executed runs
    feedback: list[float] = field(default_factory=list)
    #: robust correction factor fitted from ``feedback`` (1.0 = unbiased)
    correction: float = 1.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "plan": self.plan.to_dict(),
            "model_version": self.model_version,
            "planner_version": self.planner_version,
            "hits": self.hits,
            "demoted": self.demoted,
            "feedback": self.feedback,
            "correction": self.correction,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CacheEntry":
        return cls(
            plan=SortPlan.from_dict(data["plan"]),
            model_version=int(data["model_version"]),
            planner_version=int(data["planner_version"]),
            hits=int(data.get("hits", 0)),
            demoted=bool(data.get("demoted", False)),
            feedback=[float(x) for x in data.get("feedback", [])],
            correction=float(data.get("correction", 1.0)),
        )


class PlanCache:
    """Disk-backed plan store; all mutation methods persist immediately."""

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else default_cache_path()
        self._entries: dict[str, CacheEntry] = {}
        self._load()

    # ------------------------------------------------------------ persistence

    def _load(self) -> None:
        try:
            data = json.loads(self.path.read_text())
        except (OSError, json.JSONDecodeError):
            return
        if not isinstance(data, dict) or data.get("schema") != CACHE_SCHEMA:
            return  # stale layout: start over rather than misread it
        for key, raw in data.get("entries", {}).items():
            try:
                planned_under = (raw["model_version"], raw["planner_version"])
                if planned_under != (MODEL_VERSION, PLANNER_VERSION):
                    # planned under a different cost model / planner: stale,
                    # and its config may name knobs that no longer exist
                    continue
                self._entries[key] = CacheEntry.from_dict(raw)
            except (KeyError, TypeError, ValueError):
                continue  # one bad entry never poisons the rest

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "schema": CACHE_SCHEMA,
            "entries": {k: e.to_dict() for k, e in sorted(self._entries.items())},
        }
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        tmp.write_text(json.dumps(payload, indent=2))
        tmp.replace(self.path)

    # ----------------------------------------------------------------- access

    def get(self, key: str) -> SortPlan | None:
        """The cached plan for ``key``, or ``None`` on miss/invalidation."""
        entry = self._entries.get(key)
        if entry is None or entry.demoted:
            return None
        entry.hits += 1
        self.save()
        return entry.plan

    def put(self, key: str, plan: SortPlan) -> None:
        self._entries[key] = CacheEntry(
            plan=plan, model_version=MODEL_VERSION, planner_version=PLANNER_VERSION
        )
        self.save()

    def entry(self, key: str) -> CacheEntry | None:
        """The raw entry (demoted included); introspection only."""
        return self._entries.get(key)

    def record_feedback(self, key: str, ratio: float, *, correction: float | None = None,
                        demote: bool = False) -> None:
        """Append one observed/predicted ratio to ``key``'s service record
        (the last 16 are kept)."""
        entry = self._entries.get(key)
        if entry is None:
            return
        entry.feedback = (entry.feedback + [float(ratio)])[-16:]
        if correction is not None:
            entry.correction = float(correction)
        if demote:
            entry.demoted = True
        self.save()

    def demote(self, key: str) -> None:
        """Mark ``key``'s plan as no longer trusted (future gets miss)."""
        entry = self._entries.get(key)
        if entry is not None:
            entry.demoted = True
            self.save()

    def clear(self) -> int:
        """Drop every entry; returns how many were removed."""
        n = len(self._entries)
        self._entries.clear()
        if self.path.exists():
            self.save()
        return n

    def items(self) -> Iterator[tuple[str, CacheEntry]]:
        return iter(sorted(self._entries.items()))

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries


class MemoryPlanCache(PlanCache):
    """A :class:`PlanCache` that never touches disk.

    Same hit/miss/feedback semantics, but entries live only for the
    process lifetime.  This is the default warm-plan tier of
    :class:`repro.serve.SortService`: a service run is hermetic unless
    it is explicitly handed a disk-backed cache to share plans across
    restarts.
    """

    def __init__(self) -> None:
        self.path = Path(os.devnull)
        self._entries = {}

    def _load(self) -> None:  # pragma: no cover - never called
        pass

    def save(self) -> None:
        pass
