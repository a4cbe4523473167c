"""Benchmark snapshots and the CI gate (the perf observatory's trajectory
half).

``BENCH_<NNNN>.json`` at the repository root is the latest
schema-versioned snapshot of a fixed (algorithm, distribution, machine
preset, rank count) grid, ``BENCH_HISTORY.jsonl`` beside it one line per
snapshot ever taken (:mod:`repro.perf.snapshot`).

``python -m repro.perf`` drives it: ``run`` writes the next snapshot and
its history line, ``compare`` diffs two files, ``gate`` re-runs the
committed snapshot's suite on the working tree and exits nonzero unless
every cell equals the committed one field for field, printing the moved
fields and the per-phase attribution (:mod:`repro.perf.compare` has the
rule), and ``report`` renders a snapshot as a table.
"""

from .compare import CellDelta, PerfComparison, compare_snapshots
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
