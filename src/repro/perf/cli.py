"""``python -m repro.perf`` — run / compare / gate / report.

Exit codes (CI contract):

* ``0`` — success; for ``gate``/``compare``, every baseline cell equals
  the candidate's field for field;
* ``1`` — at least one moved or unverifiable (missing/NaN) cell;
* ``2`` — usage or format error: missing baseline file, schema-version
  mismatch, unknown suite/preset.

The per-PR workflow::

    python -m repro.perf run            # next BENCH_NNNN.json + its history line
    git rm BENCH_<previous>.json        # the root keeps one snapshot ...
    git add BENCH_NNNN.json BENCH_HISTORY.jsonl   # ... and the trajectory
    python -m repro.perf gate           # CI: fresh run vs the committed one

``gate`` with no ``--new`` executes the baseline's own suite (same grid,
repeats, warm-up and seeds), so the fresh run is the identical workload
and must reproduce every cell exactly.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Sequence

from .compare import compare_snapshots
from .snapshot import (
    SUITES,
    SnapshotFormatError,
    append_history,
    latest_bench_path,
    load_snapshot,
    next_bench_path,
    run_suite,
    write_snapshot,
)

__all__ = ["main"]

USAGE_ERROR = 2


def _progress(msg: str) -> None:
    print(f"[repro.perf] {msg}", file=sys.stderr)


def _format_cells(doc: dict[str, Any]) -> str:
    from ..bench.results import format_table

    rows = []
    for cell_id, cell in sorted(doc.get("cells", {}).items()):
        measured = cell.get("measured", {})
        modelled = cell.get("modelled") or {}
        error = cell.get("model_error") or {}
        traffic = cell.get("traffic", {})
        rows.append(
            {
                "cell": cell_id,
                "median_s": measured.get("median_s"),
                "ci_low_s": measured.get("ci_low_s"),
                "ci_high_s": measured.get("ci_high_s"),
                "model_s": modelled.get("total_s", ""),
                "model_x": error.get("time_scale", ""),
                "rounds": cell.get("rounds"),
                "wire_MB": float(traffic.get("wire_bytes_per_run", 0.0)) / 1e6,
                "msgs": traffic.get("messages_per_run"),
            }
        )
    columns = [
        "cell", "median_s", "ci_low_s", "ci_high_s", "model_s", "model_x",
        "rounds", "wire_MB", "msgs",
    ]
    header = (
        f"suite={doc.get('suite')} schema={doc.get('schema_version')} "
        f"label={doc.get('label')} repeats={doc.get('repeats')} seed0={doc.get('seed0')}"
    )
    return header + "\n" + format_table(columns, rows)


def _cmd_run(args: argparse.Namespace) -> int:
    if args.suite not in SUITES:
        print(f"error: unknown suite {args.suite!r}; available: {sorted(SUITES)}",
              file=sys.stderr)
        return USAGE_ERROR
    out = Path(args.out) if args.out else next_bench_path(args.dir)
    doc = run_suite(
        args.suite,
        repeats=args.repeats,
        warmup=args.warmup,
        seed0=args.seed0,
        label=args.label or out.stem,
        progress=None if args.quiet else _progress,
    )
    write_snapshot(doc, out)
    print(_format_cells(doc))
    print(f"wrote {out}")
    if not args.out:  # an auto-numbered snapshot is a point on the trajectory
        print(f"appended {append_history(doc, args.dir)}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    doc = load_snapshot(args.snapshot)
    print(_format_cells(doc))
    per_phase = []
    for cell_id, cell in sorted(doc.get("cells", {}).items()):
        err = cell.get("model_error") or {}
        for phase, ratio in (err.get("per_phase_ratio") or {}).items():
            if ratio is not None:
                per_phase.append((cell_id, phase, ratio))
    if per_phase and args.verbose:
        print("\nmodel-vs-measured per phase (measured / modelled):")
        for cell_id, phase, ratio in per_phase:
            print(f"  {cell_id:<44} {phase:<12} x{ratio:.3f}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    new = load_snapshot(args.new)
    baseline = load_snapshot(args.baseline)
    comparison = compare_snapshots(new, baseline)
    print(comparison.format(verbose=args.verbose))
    return comparison.exit_code


def _cmd_gate(args: argparse.Namespace) -> int:
    baseline_path = Path(args.baseline) if args.baseline else latest_bench_path(args.dir)
    if baseline_path is None:
        print(
            f"error: no committed BENCH_*.json baseline found in {Path(args.dir).resolve()}",
            file=sys.stderr,
        )
        return USAGE_ERROR
    baseline = load_snapshot(baseline_path)
    if args.new:
        new = load_snapshot(args.new)
    else:
        suite = baseline.get("suite", "default")
        if suite not in SUITES:
            print(f"error: unknown suite {suite!r}; available: {sorted(SUITES)}",
                  file=sys.stderr)
            return USAGE_ERROR
        new = run_suite(
            suite,
            repeats=int(baseline.get("repeats", 3)),
            warmup=int(baseline.get("warmup", 1)),
            seed0=int(baseline.get("seed0", 100)),
            label="working-tree",
            progress=None if args.quiet else _progress,
        )
    comparison = compare_snapshots(new, baseline)
    print(comparison.format(verbose=args.verbose))
    return comparison.exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf",
        description="Performance snapshots and the CI gate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--verbose", action="store_true", help="show full attributions")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")

    p_run = sub.add_parser("run", help="run the suite: next BENCH_NNNN.json + its history line")
    p_run.add_argument("--suite", default="default", help=f"grid to run {sorted(SUITES)}")
    p_run.add_argument("--out", help="write here instead (off the trajectory: no history line)")
    p_run.add_argument("--dir", default=".", help="directory for auto-numbered snapshots")
    p_run.add_argument("--repeats", type=int, default=3)
    p_run.add_argument("--warmup", type=int, default=1)
    p_run.add_argument("--seed0", type=int, default=100)
    p_run.add_argument("--label", help="snapshot label (default: output file stem)")
    common(p_run)
    p_run.set_defaults(fn=_cmd_run)

    p_rep = sub.add_parser("report", help="render one snapshot as a table")
    p_rep.add_argument("snapshot")
    common(p_rep)
    p_rep.set_defaults(fn=_cmd_report)

    p_cmp = sub.add_parser("compare", help="compare two snapshot files")
    p_cmp.add_argument("new")
    p_cmp.add_argument("baseline")
    common(p_cmp)
    p_cmp.set_defaults(fn=_cmd_compare)

    p_gate = sub.add_parser(
        "gate", help="fail (exit 1) when the working tree moves a baseline cell"
    )
    p_gate.add_argument("--baseline", help="baseline snapshot (default: latest BENCH_*.json)")
    p_gate.add_argument("--new", help="pre-recorded candidate snapshot (default: run fresh)")
    p_gate.add_argument("--dir", default=".", help="where to look for BENCH_*.json")
    common(p_gate)
    p_gate.set_defaults(fn=_cmd_gate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except SnapshotFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
