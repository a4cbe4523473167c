"""Configuration of the histogram sort and its splitter engine."""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Mapping

__all__ = ["SplitterConfig", "SortConfig"]

_MERGE_STRATEGIES = ("sort", "binary_tree", "tournament", "adaptive")
_GUESS_POLICIES = ("minmax", "sample")
_PROBE_SCHEDULES = ("squeeze", "shared", "midpoint")


def _checked_kwargs(cls, data: Mapping[str, Any]) -> dict[str, Any]:
    """``data`` as constructor kwargs, rejecting unknown field names."""
    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(
            f"unknown {cls.__name__} field(s): {sorted(unknown)}; known: {sorted(known)}"
        )
    return dict(data)


@dataclass(frozen=True)
class SplitterConfig:
    """Knobs of the multiselect splitter determination (Algorithms 2+3).

    Attributes
    ----------
    initial_guess:
        ``"minmax"`` starts every splitter at the midpoint of the global key
        range (the paper's Algorithm 3).  ``"sample"`` seeds the first probe
        vector from local regular samples (the "optimized initial guesses"
        the paper mentions in §III-B/V-A).
    sample_factor:
        Regular samples drawn per rank for the ``"sample"`` policy.
    probe_schedule:
        Where a round places its probes — at most one per open splitter
        in every case, and every open bracket is tightened by every probe.
        ``"squeeze"`` (default) keeps the global counts at each bracket's
        ends, interpolates the probe on them aimed past the target into the
        bracket's wider side, falls back to the ``"shared"`` spread for a
        bracket whose rank span failed to halve, and allgathers the keys
        still inside the open brackets as soon as that costs no more
        modelled time than the next round.  ``"shared"`` treats the probes
        as one budget: the splitters sharing a bracket spread theirs
        equally over it, so round 1 resolves ``log2 P`` bits instead of
        one.  ``"midpoint"`` is the paper's literal Algorithm 3: every
        splitter bisects its own bracket, which ships the same midpoint
        once per splitter sharing it.
    max_rounds:
        Safety cap on histogramming iterations (the gather counts as one).
    """

    initial_guess: str = "minmax"
    sample_factor: int = 8
    probe_schedule: str = "squeeze"
    max_rounds: int = 512

    def __post_init__(self) -> None:
        if self.initial_guess not in _GUESS_POLICIES:
            raise ValueError(
                f"initial_guess must be one of {_GUESS_POLICIES}, got {self.initial_guess!r}"
            )
        if self.probe_schedule not in _PROBE_SCHEDULES:
            raise ValueError(
                f"probe_schedule must be one of {_PROBE_SCHEDULES}, got {self.probe_schedule!r}"
            )
        if self.sample_factor < 1:
            raise ValueError("sample_factor must be >= 1")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON form; inverse of :meth:`from_dict`."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SplitterConfig":
        """Rebuild from :meth:`to_dict` output; unknown fields are rejected."""
        return cls(**_checked_kwargs(cls, data))


@dataclass(frozen=True)
class SortConfig:
    """Configuration of the full four-superstep histogram sort.

    Attributes
    ----------
    eps:
        Load-balance threshold (§II, Definition 1).  ``0.0`` is the paper's
        *perfect partitioning* used in all of its benchmarks.
    merge_strategy:
        How received chunks are combined: ``"sort"`` (re-sort, the paper's
        evaluated configuration), ``"binary_tree"``, ``"tournament"``, or
        ``"adaptive"`` (tree for few chunks, re-sort for many small ones,
        following the §VI-E.2 findings).
    splitter:
        The :class:`SplitterConfig` for the splitting phase.
    uniquify:
        Apply the packed composite-key transform (§V-A's ``(key, rank,
        index)`` triple) before sorting.  Not required for correctness —
        the tie-aware exchange handles duplicates — but provided for
        fidelity; only valid for unsigned integer keys with headroom.
    """

    eps: float = 0.0
    merge_strategy: str = "sort"
    splitter: SplitterConfig = field(default_factory=SplitterConfig)
    uniquify: bool = False
    #: pipeline the exchange with pairwise merges over a 1-factor schedule
    #: (the §VI-E.1 optimisation); replaces the merge phase entirely.
    overlap_exchange: bool = False
    #: run the fault-tolerant driver (:mod:`repro.core.resilient`):
    #: the same collectives as a plain sort, whose rendezvous prices a
    #: fault plan's drops, duplicates and delays as retransmissions, and
    #: on a rank failure the live ranks rendezvous, rebuild the
    #: communicator — a spare
    #: substituted where the runtime has one, shrunk otherwise — and
    #: resume; :func:`~repro.core.histsort.histogram_sort` then returns a
    #: :class:`~repro.core.resilient.ResilientSortResult`.
    resilient: bool = False
    #: bound on recovery epochs before the resilient driver gives up
    max_recovery_attempts: int = 8
    #: buddy-checkpoint each phase boundary (:mod:`repro.mpi.checkpoint`):
    #: recovery then restores or salvages a crashed rank's partition
    #: instead of reporting it ``lost``, and resumes from the deepest
    #: phase every member reached; requires ``resilient``.
    checkpoint: bool = False

    def __post_init__(self) -> None:
        if self.eps < 0:
            raise ValueError("eps must be >= 0")
        if self.merge_strategy not in _MERGE_STRATEGIES:
            raise ValueError(
                f"merge_strategy must be one of {_MERGE_STRATEGIES}, got {self.merge_strategy!r}"
            )
        if self.max_recovery_attempts < 1:
            raise ValueError("max_recovery_attempts must be >= 1")
        if self.resilient and self.overlap_exchange:
            raise ValueError(
                "resilient mode has no overlap-exchange implementation; "
                "use the plain exchange"
            )
        if self.checkpoint and not self.resilient:
            raise ValueError(
                "checkpoint=True requires resilient=True (buddy "
                "checkpointing only exists inside the recovery loop)"
            )

    def with_(self, **kwargs) -> "SortConfig":
        """A copy with some fields replaced."""
        return replace(self, **kwargs)

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON form (nested splitter dict); inverse of :meth:`from_dict`."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["splitter"] = self.splitter.to_dict()
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SortConfig":
        """Rebuild from :meth:`to_dict` output; unknown fields are rejected."""
        kwargs = _checked_kwargs(cls, data)
        splitter = kwargs.get("splitter")
        if isinstance(splitter, Mapping):
            kwargs["splitter"] = SplitterConfig.from_dict(splitter)
        return cls(**kwargs)
