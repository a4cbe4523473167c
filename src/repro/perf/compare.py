"""Snapshot comparison and the CI verdict: a cell passes only if it equals
the baseline cell field for field.

Every field of a snapshot cell is a function of the virtual clock and the
seeds, so re-running the suite at the same tree reproduces a committed
cell key for key — there is no measurement noise to allow for.  A cell
whose record differs in any way is **moved** and fails, whichever way it
moved: faster, slower, more rounds, other traffic or another
``model_error``.  A change that means to move the clock commits the
snapshot that says so (``python -m repro.perf run``).

A moved cell reports the top-level fields that differ, its median and
wire-byte ratios against the baseline, and a per-phase attribution: the
delta of the cell's measured phase medians against the baseline's,
ordered by contribution, so the output names the phase that moved (the
paper's phase-level accounting, applied to the repo's own history).

Cells that cannot be verified — present in the baseline but missing from
the candidate, or carrying NaN/absent measurements — are
``incomparable`` and fail too: an unverifiable baseline cell is
indistinguishable from a hidden move.  Cells only the candidate has are
informational (``new-only``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Mapping

from .snapshot import cell_median

__all__ = ["CellDelta", "PerfComparison", "compare_snapshots"]


@dataclass(frozen=True)
class CellDelta:
    """Verdict for one grid cell."""

    cell_id: str
    status: str  # ok | moved | incomparable | new-only
    new_median: float
    base_median: float
    #: new / baseline medians (NaN when incomparable)
    ratio: float
    #: top-level fields of the cell record that differ from the baseline's
    fields: tuple[str, ...] = ()
    #: per-phase (name, delta seconds, share of total delta), worst first
    attribution: tuple[tuple[str, float, float], ...] = ()
    note: str = ""
    #: new / baseline wire bytes per run (NaN when either side has none)
    wire_ratio: float = math.nan

    @property
    def failed(self) -> bool:
        return self.status in ("moved", "incomparable")


def _attribute(new_cell: Mapping[str, Any], base_cell: Mapping[str, Any]) -> tuple:
    new_phases = new_cell.get("phases_s") or {}
    base_phases = base_cell.get("phases_s") or {}
    names = list(new_phases) + [n for n in base_phases if n not in new_phases]
    deltas = [
        (name, float(new_phases.get(name, 0.0)) - float(base_phases.get(name, 0.0)))
        for name in names
    ]
    total = sum(d for _, d in deltas)
    scale = abs(total) if abs(total) > 0 else 1.0
    deltas.sort(key=lambda kv: kv[1], reverse=True)
    return tuple((name, d, d / scale) for name, d in deltas)


def _wire_ratio(new_cell: Mapping[str, Any], base_cell: Mapping[str, Any]) -> float:
    new = (new_cell.get("traffic") or {}).get("wire_bytes_per_run")
    base = (base_cell.get("traffic") or {}).get("wire_bytes_per_run")
    return float(new) / float(base) if new is not None and base else math.nan


def _compare_cell(
    cell_id: str, new_cell: Mapping[str, Any] | None, base_cell: Mapping[str, Any]
) -> CellDelta:
    base_med = cell_median(base_cell)
    if new_cell is None:
        return CellDelta(
            cell_id, "incomparable", math.nan, base_med, math.nan,
            note="cell missing from candidate snapshot",
        )
    new_med = cell_median(new_cell)
    if math.isnan(new_med):
        return CellDelta(
            cell_id, "incomparable", new_med, base_med, math.nan,
            note="candidate measurement is NaN or absent",
        )
    if math.isnan(base_med):
        return CellDelta(
            cell_id, "incomparable", new_med, base_med, math.nan,
            note="baseline measurement is NaN or absent",
        )
    ratio = new_med / base_med if base_med > 0 else math.inf
    wire = _wire_ratio(new_cell, base_cell)
    absent = object()
    moved = tuple(
        key for key in sorted(set(new_cell) | set(base_cell))
        if new_cell.get(key, absent) != base_cell.get(key, absent)
    )
    if not moved:
        return CellDelta(cell_id, "ok", new_med, base_med, ratio, wire_ratio=wire)
    return CellDelta(
        cell_id, "moved", new_med, base_med, ratio, moved,
        _attribute(new_cell, base_cell), wire_ratio=wire,
    )


@dataclass
class PerfComparison:
    """The full verdict of candidate-vs-baseline."""

    baseline_label: str
    new_label: str
    deltas: list[CellDelta] = field(default_factory=list)

    @property
    def moved(self) -> list[CellDelta]:
        return [d for d in self.deltas if d.status == "moved"]

    @property
    def incomparable(self) -> list[CellDelta]:
        return [d for d in self.deltas if d.status == "incomparable"]

    @property
    def ok(self) -> bool:
        return not any(d.failed for d in self.deltas)

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def format(self, *, verbose: bool = False) -> str:
        lines = [
            f"perf gate: {self.new_label} vs baseline {self.baseline_label} "
            "(every cell must equal the baseline field for field)"
        ]
        for d in self.deltas:
            if d.status == "new-only":
                lines.append(f"  [new]  {d.cell_id}: median {d.new_median:.6g}s (no baseline)")
                continue
            if d.status == "incomparable":
                lines.append(f"  [FAIL] {d.cell_id}: incomparable — {d.note}")
                continue
            tag = " ok " if d.status == "ok" else "FAIL"
            wire = "" if math.isnan(d.wire_ratio) else f", wire x{d.wire_ratio:.3f}"
            lines.append(
                f"  [{tag}] {d.cell_id}: median {d.new_median:.6g}s vs "
                f"{d.base_median:.6g}s (x{d.ratio:.3f}{wire})"
                + (f" — moved: {', '.join(d.fields)}" if d.fields else "")
            )
            attr_lines = [
                f"           {name:<12} {delta:+.6g}s ({share:+.0%} of total delta)"
                for name, delta, share in d.attribution
                if delta != 0.0 or verbose
            ]
            if attr_lines:
                lines.append("         per-phase attribution (delta vs baseline):")
                lines.extend(attr_lines)
        verdict = "PASS" if self.ok else "FAIL"
        lines.append(
            f"  => {verdict}: {len(self.deltas)} cell(s), {len(self.moved)} moved, "
            f"{len(self.incomparable)} incomparable"
        )
        return "\n".join(lines)


def compare_snapshots(new: Mapping[str, Any], baseline: Mapping[str, Any]) -> PerfComparison:
    """Compare two loaded snapshot documents cell by cell.

    Both documents must already be schema-validated (see
    :func:`repro.perf.snapshot.load_snapshot`); this function assumes the
    shared layout and judges only the cells.
    """
    new_cells: Mapping[str, Any] = new.get("cells", {})
    base_cells: Mapping[str, Any] = baseline.get("cells", {})
    comparison = PerfComparison(
        baseline_label=str(baseline.get("label") or "baseline"),
        new_label=str(new.get("label") or "candidate"),
    )
    for cell_id in sorted(set(base_cells) | set(new_cells)):
        base_cell = base_cells.get(cell_id)
        if base_cell is None:
            comparison.deltas.append(
                CellDelta(
                    cell_id, "new-only", cell_median(new_cells[cell_id]), math.nan, math.nan
                )
            )
            continue
        comparison.deltas.append(_compare_cell(cell_id, new_cells.get(cell_id), base_cell))
    return comparison
