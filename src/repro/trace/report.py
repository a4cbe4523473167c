"""Text summary of a recorded run: ``python -m repro.trace.report trace.json``.

Renders, for any trace written by :func:`repro.trace.export.write_chrome_trace`
(or a live :class:`~repro.trace.TraceRecorder`): per-rank busy/idle times,
the aggregate idle fraction and load-imbalance ratio, the phase breakdown,
traffic by phase x collective and by locality level, and the critical path
through the run.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .analysis import (
    critical_path,
    critical_path_composition,
    idle_fraction,
    imbalance_ratio,
    level_traffic,
    makespan_of,
    phase_breakdown,
    rank_activity,
    traffic_matrix,
)
from .events import Span

if TYPE_CHECKING:  # pragma: no cover
    from .events import TraceRecorder

__all__ = ["render_report", "report_recorder", "main"]


def _fmt_time(seconds: float) -> str:
    if seconds == 0:
        return "0"
    if abs(seconds) < 1e-3:
        return f"{seconds * 1e6:.1f}us"
    if abs(seconds) < 1.0:
        return f"{seconds * 1e3:.3f}ms"
    return f"{seconds:.4f}s"


def _fmt_bytes(n: float) -> str:
    n = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(n) < 1024 or unit == "GiB":
            return f"{n:.0f}{unit}" if unit == "B" else f"{n:.2f}{unit}"
        n /= 1024
    return f"{n:.2f}GiB"  # pragma: no cover - unreachable


def _table(columns: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [
        max(len(col), *(len(r[i]) for r in rows)) if rows else len(col)
        for i, col in enumerate(columns)
    ]
    lines = [
        "  ".join(c.ljust(w) for c, w in zip(columns, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for r in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)


def render_report(spans: list[Span], *, top: int = 12, metadata: dict | None = None) -> str:
    """The full text report for a flat span list.

    ``metadata`` is run-level attribution from the trace's ``otherData``
    (e.g. the ``plan_id`` of the tuning plan that chose the configuration).
    """
    total = makespan_of(spans)
    acts = rank_activity(spans)
    out: list[str] = []
    out.append("== trace report ==")
    out.append(
        f"ranks: {len(acts)}   spans: {len(spans)}   makespan: {_fmt_time(total)}"
    )
    if metadata:
        out.append(
            "attribution: " + "  ".join(f"{k}={v}" for k, v in sorted(metadata.items()))
        )

    out.append("")
    out.append("-- per-rank activity --")
    rows = [
        [
            str(a.rank),
            _fmt_time(a.end),
            _fmt_time(a.busy),
            _fmt_time(a.idle),
            f"{a.idle_fraction * 100:.1f}%",
        ]
        for a in acts
    ]
    out.append(_table(["rank", "end", "busy", "idle", "idle%"], rows))
    out.append(
        f"idle fraction (mean): {idle_fraction(spans) * 100:.1f}%   "
        f"imbalance ratio (max busy / mean busy): {imbalance_ratio(spans):.3f}"
    )

    phases = phase_breakdown(spans, how="max")
    if phases:
        out.append("")
        out.append("-- phase breakdown (max over ranks) --")
        rows = [
            [name, _fmt_time(dur), f"{dur / total * 100:.1f}%" if total else "-"]
            for name, dur in phases.items()
        ]
        out.append(_table(["phase", "time", "of makespan"], rows))

    traffic = traffic_matrix(spans)
    if traffic:
        out.append("")
        out.append("-- traffic: phase x operation (payload bytes, all ranks) --")
        ops = sorted({op for _, op in traffic})
        phase_names = list(dict.fromkeys(ph for ph, _ in traffic))
        rows = []
        for ph in phase_names:
            rows.append(
                [ph] + [_fmt_bytes(traffic.get((ph, op), 0)) for op in ops]
            )
        totals = ["total"] + [
            _fmt_bytes(sum(v for (_, op2), v in traffic.items() if op2 == op))
            for op in ops
        ]
        rows.append(totals)
        out.append(_table(["phase"] + ops, rows))
        out.append("")
        out.append("-- traffic by locality level (payload bytes, all ranks) --")
        by_level = sorted(level_traffic(spans).items(), key=lambda kv: -kv[1])
        out.append(_table(["level", "bytes"], [[lv, _fmt_bytes(n)] for lv, n in by_level]))

    path = critical_path(spans)
    if path:
        out.append("")
        out.append("-- critical path --")
        length = sum(seg.duration for seg in path)
        hops = sum(1 for a, b in zip(path, path[1:]) if a.rank != b.rank)
        out.append(
            f"length: {_fmt_time(length)} ({length / total * 100:.1f}% of makespan"
            f" is on-path work)   segments: {len(path)}   rank hops: {hops}"
        )
        comp = critical_path_composition(path)
        rows = [
            [name, _fmt_time(dur), f"{dur / length * 100:.1f}%"]
            for name, dur in list(comp.items())[:top]
        ]
        out.append(_table(["operation", "time", "of path"], rows))
    return "\n".join(out)


def report_recorder(recorder: "TraceRecorder", *, top: int = 12) -> str:
    """Render the report straight from a live recorder."""
    return render_report(
        recorder.spans(), top=top, metadata=getattr(recorder, "metadata", None)
    )


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.trace.report",
        description="Summarize a trace written by repro.trace.export "
        "(idle fractions, imbalance, traffic matrix, critical path).",
    )
    parser.add_argument("trace", help="path to a Chrome-trace JSON file")
    parser.add_argument(
        "--top", type=int, default=12, help="operations to list for the critical path"
    )
    args = parser.parse_args(argv)

    from .export import metadata_from_chrome, spans_from_chrome

    try:
        data = json.loads(Path(args.trace).read_text())
    except FileNotFoundError:
        print(f"{args.trace}: no such file", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"{args.trace}: not valid JSON ({exc})", file=sys.stderr)
        return 1
    spans = spans_from_chrome(data)
    if not spans:
        print(f"{args.trace}: no spans found", file=sys.stderr)
        return 1
    try:
        print(render_report(spans, top=args.top, metadata=metadata_from_chrome(data)))
    except BrokenPipeError:  # e.g. piped into `head`
        sys.stderr.close()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via main() in tests
    sys.exit(main())
