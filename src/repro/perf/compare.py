"""Noise-aware snapshot comparison and the CI regression verdict.

The decision rule is built on the baseline's own confidence interval
rather than a bare ratio: seeds are the only noise source in the
virtual-clock harness, the committed baseline records the 95% CI of its
median over those seeds, and a candidate median is a **regression** only
when it lands *above* the baseline CI's upper edge by more than the
configurable threshold::

    new_median > baseline.ci_high * (1 + threshold)

(symmetrically, an **improvement** must undercut ``ci_low``).  Inside the
CI-plus-threshold band the verdict is ``ok`` — re-measurement noise never
fails the gate.  Wire bytes are gated beside the time, against the
baseline's value itself (a cell records one number, no interval): a cell
that moves more than ``baseline_wire * (1 + threshold)`` bytes per run is
a regression too, whatever its time reads.

Every regression carries a per-phase attribution: the delta of the
cell's measured phase medians against the baseline's, ordered by
contribution, so a failing gate names the phase that slowed down (the
paper's phase-level accounting, applied to the repo's own history).

Cells that cannot be verified — present in the baseline but missing from
the candidate, or carrying NaN/absent measurements — are
``incomparable`` and fail the gate too: an unverifiable baseline cell is
indistinguishable from a hidden regression.  Cells only the candidate
has are informational (``new-only``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Mapping

from .snapshot import cell_median

__all__ = ["DEFAULT_THRESHOLD", "CellDelta", "PerfComparison", "compare_snapshots"]

#: slack on top of the baseline CI before a median counts as moved
DEFAULT_THRESHOLD = 0.05


@dataclass(frozen=True)
class CellDelta:
    """Verdict for one grid cell."""

    cell_id: str
    status: str  # ok | regression | improvement | incomparable | new-only
    new_median: float
    base_median: float
    base_ci: tuple[float, float]
    #: new / baseline medians (NaN when incomparable)
    ratio: float
    #: per-phase (name, delta seconds, share of total delta), worst first
    attribution: tuple[tuple[str, float, float], ...] = ()
    note: str = ""
    #: new / baseline wire bytes per run (NaN when either side has none)
    wire_ratio: float = math.nan

    @property
    def failed(self) -> bool:
        return self.status in ("regression", "incomparable")


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
    cell_id: str,
    new_cell: Mapping[str, Any] | None,
    base_cell: Mapping[str, Any],
    threshold: float,
) -> CellDelta:
    base_med = cell_median(base_cell)
    base_ci = (
        float(base_cell.get("measured", {}).get("ci_low_s", base_med)),
        float(base_cell.get("measured", {}).get("ci_high_s", base_med)),
    )
    if new_cell is None:
        return CellDelta(
            cell_id, "incomparable", math.nan, base_med, base_ci, math.nan,
            note="cell missing from candidate snapshot",
        )
    new_med = cell_median(new_cell)
    if math.isnan(new_med):
        return CellDelta(
            cell_id, "incomparable", new_med, base_med, base_ci, math.nan,
            note="candidate measurement is NaN or absent",
        )
    if math.isnan(base_med):
        return CellDelta(
            cell_id, "incomparable", new_med, base_med, base_ci, math.nan,
            note="baseline measurement is NaN or absent",
        )
    ratio = new_med / base_med if base_med > 0 else math.inf
    wire = _wire_ratio(new_cell, base_cell)
    note = ""
    if new_med > base_ci[1] * (1.0 + threshold):
        status = "regression"
    elif wire > 1.0 + threshold:
        status, note = "regression", "wire bytes above the baseline"
    elif new_med < base_ci[0] * (1.0 - threshold):
        status = "improvement"
    else:
        status = "ok"
    attribution = () if status == "ok" else _attribute(new_cell, base_cell)
    return CellDelta(
        cell_id, status, new_med, base_med, base_ci, ratio, attribution, note, wire
    )


@dataclass
class PerfComparison:
    """The full verdict of candidate-vs-baseline."""

    baseline_label: str
    new_label: str
    threshold: float
    deltas: list[CellDelta] = field(default_factory=list)

    @property
    def regressions(self) -> list[CellDelta]:
        return [d for d in self.deltas if d.status == "regression"]

    @property
    def improvements(self) -> list[CellDelta]:
        return [d for d in self.deltas if d.status == "improvement"]

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
            f"(threshold {self.threshold:.0%} beyond the baseline 95% CI)"
        ]
        for d in self.deltas:
            if d.status == "new-only":
                lines.append(f"  [new]  {d.cell_id}: median {d.new_median:.6g}s (no baseline)")
                continue
            if d.status == "incomparable":
                lines.append(f"  [FAIL] {d.cell_id}: incomparable — {d.note}")
                continue
            tag = {"ok": " ok ", "regression": "FAIL", "improvement": "GOOD"}[d.status]
            wire = "" if math.isnan(d.wire_ratio) else f", wire x{d.wire_ratio:.3f}"
            lines.append(
                f"  [{tag}] {d.cell_id}: median {d.new_median:.6g}s vs "
                f"{d.base_median:.6g}s (x{d.ratio:.3f}{wire}, baseline CI "
                f"[{d.base_ci[0]:.6g}, {d.base_ci[1]:.6g}])"
                + (f" — {d.note}" if d.note else "")
            )
            if d.attribution and (d.status == "regression" or verbose):
                attr_lines = [
                    f"           {name:<12} {delta:+.6g}s ({share:+.0%} of total delta)"
                    for name, delta, share in d.attribution
                    if delta != 0.0 or verbose
                ]
                if attr_lines:
                    lines.append("         per-phase attribution (delta vs baseline):")
                    lines.extend(attr_lines)
        n_reg, n_imp, n_inc = (
            len(self.regressions), len(self.improvements), len(self.incomparable),
        )
        verdict = "PASS" if self.ok else "FAIL"
        lines.append(
            f"  => {verdict}: {len(self.deltas)} cell(s), {n_reg} regression(s), "
            f"{n_imp} improvement(s), {n_inc} incomparable"
        )
        return "\n".join(lines)


def compare_snapshots(
    new: Mapping[str, Any],
    baseline: Mapping[str, Any],
    *,
    threshold: float = DEFAULT_THRESHOLD,
) -> PerfComparison:
    """Compare two loaded snapshot documents cell by cell.

    Both documents must already be schema-validated (see
    :func:`repro.perf.snapshot.load_snapshot`); this function assumes the
    shared layout and judges only the measurements.
    """
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    new_cells: Mapping[str, Any] = new.get("cells", {})
    base_cells: Mapping[str, Any] = baseline.get("cells", {})
    comparison = PerfComparison(
        baseline_label=str(baseline.get("label") or "baseline"),
        new_label=str(new.get("label") or "candidate"),
        threshold=threshold,
    )
    for cell_id in sorted(set(base_cells) | set(new_cells)):
        base_cell = base_cells.get(cell_id)
        if base_cell is None:
            comparison.deltas.append(
                CellDelta(
                    cell_id, "new-only", cell_median(new_cells[cell_id]),
                    math.nan, (math.nan, math.nan), math.nan,
                )
            )
            continue
        comparison.deltas.append(
            _compare_cell(cell_id, new_cells.get(cell_id), base_cell, threshold)
        )
    return comparison
