"""The traffic registry: labelled counters that sum many runs.

A :class:`MetricsRegistry` owns counter *families*; a family has a name
and a fixed tuple of label names.  ``family.labels`` resolves (and lazily
creates) one :class:`Counter` per label-value combination — the
Prometheus data model, scaled down to what this repository reads.

The registry is plain Python state fed *after* virtual-time accounting:
:func:`repro.metrics.collect_runtime` reads
:meth:`repro.mpi.Stats.snapshot` and never touches a clock, so a run
observed into a registry is bit-identical to an unobserved one.
"""

from __future__ import annotations

import re
import threading
from typing import Any, Sequence

__all__ = ["Counter", "MetricFamily", "MetricsRegistry"]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up (inc by {amount})")
        self._value += amount

    @property
    def value(self) -> float:
        return self._value


class MetricFamily:
    """One named counter with a fixed label-name tuple and many children."""

    def __init__(self, name: str, labelnames: Sequence[str] = ()):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for ln in labelnames:
            if not _LABEL_RE.match(ln):
                raise ValueError(f"invalid label name {ln!r}")
        self.name = name
        self.labelnames = tuple(labelnames)
        self._children: dict[tuple[str, ...], Counter] = {}
        self._lock = threading.Lock()

    def labels(self, **labels: Any) -> Counter:
        """The child for this label-value combination (created on demand)."""
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"{self.name} takes labels {list(self.labelnames)}, got {sorted(labels)}"
            )
        key = tuple(str(labels[ln]) for ln in self.labelnames)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = Counter()
            return child

    def samples(self) -> list[tuple[dict[str, str], Counter]]:
        """``(labels_dict, child)`` pairs ordered by label values."""
        with self._lock:
            items = sorted(self._children.items())
        return [(dict(zip(self.labelnames, key)), child) for key, child in items]

    def total(self) -> float:
        """Sum of child values across every label combination."""
        return float(sum(child.value for _, child in self.samples()))


class MetricsRegistry:
    """A collection of counter families, keyed by name.

    Registration is idempotent when the label names match — a collector
    declares its families on every pass — and raises on a mismatch, so two
    callers cannot silently share a name with different labels.
    """

    def __init__(self) -> None:
        self._families: dict[str, MetricFamily] = {}
        self._lock = threading.Lock()

    def counter(self, name: str, labelnames: Sequence[str] = ()) -> MetricFamily:
        with self._lock:
            fam = self._families.get(name)
            if fam is None:
                fam = self._families[name] = MetricFamily(name, labelnames)
                return fam
        if fam.labelnames != tuple(labelnames):
            raise ValueError(
                f"metric {name!r} already registered with labels "
                f"{list(fam.labelnames)}; redeclaration does not match"
            )
        return fam

    def collect(self) -> list[MetricFamily]:
        """All families, ordered by name."""
        with self._lock:
            return [self._families[k] for k in sorted(self._families)]

    def get(self, name: str) -> MetricFamily | None:
        with self._lock:
            return self._families.get(name)

    def value(self, name: str) -> float:
        """A family's total over every label combination."""
        fam = self.get(name)
        if fam is None:
            raise KeyError(f"no metric named {name!r}")
        return fam.total()
