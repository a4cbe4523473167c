"""Benchmark snapshots and the CI regression gate (the perf observatory's
trajectory half).

``BENCH_<NNNN>.json`` at the repository root is the latest
schema-versioned snapshot of a fixed (algorithm, distribution, machine
preset, rank count) grid, ``BENCH_HISTORY.jsonl`` beside it one line per
snapshot ever taken (:mod:`repro.perf.snapshot`).

``python -m repro.perf`` drives it: ``run`` writes the next snapshot and
its history line, ``compare`` diffs two files, ``gate`` re-measures the
working tree against the committed snapshot and exits nonzero on a
regression with the per-phase attribution printed
(:mod:`repro.perf.compare` has the decision rule), and ``report`` renders
a snapshot as a table.
"""

from .compare import (
    DEFAULT_THRESHOLD,
    CellDelta,
    PerfComparison,
    compare_snapshots,
)
from .snapshot import (
    PRESETS,
    SCHEMA_VERSION,
    SUITES,
    CellSpec,
    SnapshotFormatError,
    latest_bench_path,
    load_snapshot,
    next_bench_path,
    run_cell,
    run_suite,
    write_snapshot,
)

__all__ = [
    "CellDelta",
    "CellSpec",
    "DEFAULT_THRESHOLD",
    "PRESETS",
    "PerfComparison",
    "SCHEMA_VERSION",
    "SUITES",
    "SnapshotFormatError",
    "compare_snapshots",
    "latest_bench_path",
    "load_snapshot",
    "next_bench_path",
    "run_cell",
    "run_suite",
    "write_snapshot",
]
