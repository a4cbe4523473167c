"""Shared plumbing of the baseline sorters."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from ..mpi import Comm

__all__ = ["BaselineResult", "exchange_by_splitters"]


@dataclass(frozen=True)
class BaselineResult:
    """Output partition + phase timings + algorithm-specific diagnostics."""

    output: np.ndarray
    phases: dict[str, float]
    info: dict[str, Any] = field(default_factory=dict)

    @property
    def time(self) -> float:
        return float(sum(self.phases.values()))

    @property
    def rounds(self) -> int:
        """Histogramming rounds (1 for the single-round algorithms)."""
        diag = self.info.get("diagnostics")
        return 1 if diag is None else int(diag.rounds)

    @property
    def exchanged_bytes(self) -> int:
        """Bytes this rank received in the exchange."""
        return int(self.output.nbytes)


def exchange_by_splitters(
    comm: "Comm", local_sorted: np.ndarray, splitter_values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Cut a sorted partition at the P-1 splitter values (keys <= splitter go
    left; no tie refinement — baselines are allowed imbalance) and run the
    ALL-TO-ALLV; returns its ``(recvbuf, recv_counts)``."""
    t0 = comm.clock
    cuts = np.searchsorted(local_sorted, splitter_values, side="right")
    cuts = np.concatenate(([0], cuts, [local_sorted.size]))
    received = comm.alltoallv(local_sorted, np.diff(cuts))
    comm.tracer.record("exchange_data", t0, elements_sent=int(local_sorted.size))
    return received
