"""Benchmark snapshots: the curated suite behind ``BENCH_<NNNN>.json``.

A *snapshot* is one durable point on the repository's performance
trajectory: a fixed grid of (algorithm, distribution, machine preset,
rank count) cells, each executed through :func:`repro.bench.harness.
repeat_sort_trials` and recorded with

* the **measured** virtual-clock makespan (median + 95% CI over seeds,
  via :func:`~repro.bench.harness.median_ci`),
* the **modelled** makespan and per-phase times from
  :mod:`repro.model.phases`, evaluated with the *measured* round count
  (:func:`repro.model.calibrate.fit_round_count`),
* the model-vs-measured attribution — per-phase ratios plus the robust
  time-scale correction (:func:`repro.model.calibrate.fit_time_scale`,
  the same statistic :mod:`repro.tune.feedback` folds into plan scoring),
* and **traffic** per run (bytes on wire, message and collective-call
  counts): the mean of ``trial.stats`` over the same repeats ``measured``
  covers — the warm-up trial is in neither.

Every field is a function of the virtual clock, so re-running the suite at
the same tree reproduces a committed snapshot key for key; wall time and
memory are ``benchmarks/ledger``'s job, on a pinned CPU.  Snapshots are
schema-versioned; :func:`load_snapshot` refuses files whose
``schema_version`` it does not understand, so ``repro.perf compare`` never
silently compares incompatible records.  The repository keeps the latest
snapshot only; ``BENCH_HISTORY.jsonl`` beside it holds one
:func:`history_line` per snapshot ever taken.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping

from .. import __version__
from ..algorithms import ALGORITHMS
from ..bench.harness import _phase_median, median_ci, repeat_sort_trials
from ..core import SortConfig
from ..machine import MachineSpec, abstract_cluster, laptop, supermuc_phase2
from ..model.calibrate import fit_round_count, fit_time_scale

__all__ = [
    "SCHEMA_VERSION",
    "SNAPSHOT_KIND",
    "HISTORY_NAME",
    "CellSpec",
    "PRESETS",
    "SUITES",
    "SnapshotFormatError",
    "run_cell",
    "run_suite",
    "load_snapshot",
    "write_snapshot",
    "history_line",
    "append_history",
    "next_bench_path",
    "latest_bench_path",
]

#: bump on any incompatible change to the cell record layout
SCHEMA_VERSION = 2

SNAPSHOT_KIND = "repro-perf-snapshot"

#: the trajectory file beside the latest ``BENCH_NNNN.json``
HISTORY_NAME = "BENCH_HISTORY.jsonl"

_BENCH_RE = re.compile(r"^BENCH_(\d{4})\.json$")


class SnapshotFormatError(ValueError):
    """A snapshot file is missing, malformed, or of an unknown schema."""


#: machine presets a cell can name (factories, so specs stay immutable)
PRESETS: dict[str, Callable[[], MachineSpec]] = {
    "abstract2": lambda: abstract_cluster(2, cores_per_node=8),
    "abstract4": lambda: abstract_cluster(4, cores_per_node=8),
    "laptop8": lambda: laptop(8),
    "supermuc1": lambda: supermuc_phase2(nodes=1),
}


@dataclass(frozen=True)
class CellSpec:
    """One point of the snapshot grid."""

    algo: str
    dist: str
    preset: str
    p: int
    n_per_rank: int
    ranks_per_node: int | None = None
    overlap: bool = False

    @property
    def cell_id(self) -> str:
        algo = self.algo + ("+overlap" if self.overlap else "")
        return f"{algo}/{self.dist}/{self.preset}/p{self.p}"

    def machine(self) -> MachineSpec:
        try:
            return PRESETS[self.preset]()
        except KeyError:
            raise KeyError(
                f"unknown preset {self.preset!r}; available: {sorted(PRESETS)}"
            ) from None

    def sort_config(self) -> SortConfig:
        return SortConfig(overlap_exchange=self.overlap)


#: the committed grids.  ``default`` is the per-PR snapshot (and the CI
#: gate's workload); ``quick`` is a two-cell smoke grid for tests.
SUITES: dict[str, tuple[CellSpec, ...]] = {
    "default": (
        CellSpec("dash", "uniform_u64", "abstract2", p=8, n_per_rank=4096, ranks_per_node=4),
        CellSpec("dash", "zipf_u64", "abstract2", p=8, n_per_rank=4096, ranks_per_node=4),
        CellSpec("dash", "uniform_u64", "supermuc1", p=8, n_per_rank=4096, ranks_per_node=8),
        CellSpec("dash", "uniform_u64", "abstract4", p=16, n_per_rank=2048, ranks_per_node=4),
        CellSpec(
            "dash", "uniform_u64", "abstract2", p=8, n_per_rank=4096,
            ranks_per_node=4, overlap=True,
        ),
        CellSpec("hss", "uniform_u64", "abstract2", p=8, n_per_rank=4096, ranks_per_node=4),
        CellSpec("sample_sort", "uniform_u64", "abstract2", p=8, n_per_rank=4096, ranks_per_node=4),
        CellSpec("psrs", "uniform_u64", "abstract2", p=8, n_per_rank=4096, ranks_per_node=4),
        CellSpec("serve", "mixed", "laptop8", p=4, n_per_rank=192),
    ),
    "quick": (
        CellSpec("dash", "uniform_u64", "abstract2", p=4, n_per_rank=1024, ranks_per_node=2),
        CellSpec("hss", "uniform_u64", "abstract2", p=4, n_per_rank=1024, ranks_per_node=2),
    ),
}


def _predict_cell(spec: CellSpec, trials) -> dict[str, Any] | None:
    """Closed-form prediction for a cell, with measured round counts.

    Returns ``None`` for algorithms without a closed form (their cells
    still track measured trends; ``model_error`` is simply absent).
    """
    predict = ALGORITHMS[spec.algo].predict
    if predict is None:
        return None
    machine = spec.machine()
    pred = predict(
        machine,
        spec.p * spec.n_per_rank,
        spec.p,
        rounds=fit_round_count(trials),
        merge_strategy=spec.sort_config().merge_strategy,
        ranks_per_node=spec.ranks_per_node or machine.node.cores,
        itemsize=8,
    )
    return {"total_s": pred.total, "phases_s": pred.as_dict()}


def _model_error(modelled: dict[str, Any] | None, phases: dict[str, float],
                 totals: list[float]) -> dict[str, Any] | None:
    if modelled is None or modelled["total_s"] <= 0:
        return None
    per_phase = {
        name: (phases.get(name, 0.0) / pred if pred > 0 else None)
        for name, pred in modelled["phases_s"].items()
    }
    return {
        "time_scale": fit_time_scale(totals, [modelled["total_s"]] * len(totals)),
        "total_ratio": (sum(phases.values()) / modelled["total_s"]),
        "per_phase_ratio": per_phase,
    }


def _stats_traffic(snap) -> tuple[dict[str, float], dict[str, float]]:
    """One sort trial's traffic — (totals, calls per collective) — from its
    :class:`~repro.mpi.StatsSnapshot`."""
    totals = {
        "wire_bytes": snap.wire_bytes,
        "p2p_bytes": snap.total_bytes_sent,
        "messages": snap.total_msgs_sent + snap.total_collective_calls,
    }
    return totals, {op: v[0] for op, v in snap.collectives.items()}


def _registry_traffic(registry) -> tuple[dict[str, float], dict[str, float]]:
    """One service replay's traffic, as its registry accumulated it."""
    totals = {
        "wire_bytes": registry.value("repro_bytes_on_wire_total"),
        "p2p_bytes": registry.value("repro_p2p_bytes_total"),
        "messages": registry.value("repro_messages_total"),
    }
    calls = registry.get("repro_collective_calls_total").samples()
    return totals, {labels["op"]: child.value for labels, child in calls}


def _sort_cell(spec: CellSpec, *, repeats: int, warmup: int, seed0: int):
    """(makespans, per-trial traffic, the sort-only fields) of the measured trials."""
    _, trials = repeat_sort_trials(
        spec.p,
        spec.n_per_rank,
        repeats=repeats,
        warmup=warmup,
        seed0=seed0,
        algo=spec.algo,
        dist=spec.dist,
        machine=spec.machine(),
        ranks_per_node=spec.ranks_per_node,
        config=spec.sort_config(),
    )
    phases = _phase_median(trials)
    modelled = _predict_cell(spec, trials)
    totals = [t.total for t in trials]
    return totals, [_stats_traffic(t.stats) for t in trials], {
        "phases_s": phases,
        "rounds": int(max(t.rounds for t in trials)),
        "modelled": modelled,
        "model_error": _model_error(modelled, phases, totals),
    }


def _serve_cell(spec: CellSpec, *, repeats: int, warmup: int, seed0: int):
    """Service-throughput cell: replay the standard mixed workload.

    One trial = a fresh :class:`repro.serve.SortService` replaying
    :func:`repro.serve.make_workload` (sorts, percentiles, top-k, range
    queries; fused epochs; warm-plan repeats).  The gated statistic is
    **virtual seconds per completed job** — the inverse of the service's
    jobs/virtual-second throughput — so the gate's lower-is-better
    comparison applies unchanged.  There is no closed-form model for a
    whole service replay, so ``modelled`` stays absent.
    """
    from ..serve import SortService, make_workload

    values, throughputs, traffic = [], [], []
    # a fresh service per replay shares nothing with the one before it, so
    # the warm-up replays are skipped rather than run and thrown away
    for seed in range(seed0 + warmup, seed0 + warmup + repeats):
        service = SortService(
            spec.p, machine=spec.machine(), ranks_per_node=spec.ranks_per_node
        )
        service.replay(make_workload(spec.p, seed=seed, n_small=spec.n_per_rank))
        st = service.stats()
        done = st["jobs"].get("DONE", 0)
        if done == 0 or st["jobs_per_vsecond"] <= 0:
            raise RuntimeError(f"serve cell replay completed no jobs: {st['jobs']}")
        values.append(service.clock / done)
        throughputs.append(st["jobs_per_vsecond"])
        traffic.append(_registry_traffic(service.registry))
    return values, traffic, {
        "service": {
            "jobs_per_vsecond": sorted(throughputs)[len(throughputs) // 2],
            "jobs_done_per_run": done,
            "epochs_per_run": st["epochs"],
            "warm_plan_hits_per_run": st["warm_plan_hits"],
        },
    }


def run_cell(
    spec: CellSpec,
    *,
    repeats: int = 3,
    warmup: int = 1,
    seed0: int = 100,
) -> dict[str, Any]:
    """Execute one grid cell and build its snapshot record: ``measured``
    over the repeats' makespans, ``traffic`` as the mean over the same
    repeats (an operation a repeat never called counts 0 there)."""
    measure = _serve_cell if spec.algo == "serve" else _sort_cell
    values, traffic, fields = measure(spec, repeats=repeats, warmup=warmup, seed0=seed0)
    stats = median_ci(values)
    totals, calls = zip(*traffic)
    return {
        "id": spec.cell_id,
        "algo": spec.algo,
        "dist": spec.dist,
        "preset": spec.preset,
        "machine": spec.machine().name,
        "p": spec.p,
        "n_per_rank": spec.n_per_rank,
        "ranks_per_node": spec.ranks_per_node,
        "overlap": spec.overlap,
        "repeats": repeats,
        "warmup": warmup,
        "seed0": seed0,
        "measured": {
            "median_s": stats.median,
            "ci_low_s": stats.ci_low,
            "ci_high_s": stats.ci_high,
            "n": stats.n,
            "values_s": list(stats.values),
        },
        # what a serve replay has none of; a sort cell's fields replace them
        "phases_s": {},
        "rounds": 0,
        "modelled": None,
        "model_error": None,
        "traffic": {
            **{f"{key}_per_run": sum(t[key] for t in totals) / len(totals) for key in totals[0]},
            "collective_calls_per_run": {
                op: sum(c.get(op, 0) for c in calls) / len(calls)
                for op in sorted(set().union(*calls))
            },
        },
        **fields,
    }


def run_suite(
    suite: str = "default",
    *,
    repeats: int = 3,
    warmup: int = 1,
    seed0: int = 100,
    label: str | None = None,
    progress: Callable[[str], None] | None = None,
) -> dict[str, Any]:
    """Run every cell of ``suite`` and assemble a snapshot document."""
    try:
        specs = SUITES[suite]
    except KeyError:
        raise KeyError(f"unknown suite {suite!r}; available: {sorted(SUITES)}") from None
    cells: dict[str, Any] = {}
    for spec in specs:
        if progress is not None:
            progress(f"running {spec.cell_id} ...")
        cells[spec.cell_id] = run_cell(
            spec, repeats=repeats, warmup=warmup, seed0=seed0
        )
    return {
        "kind": SNAPSHOT_KIND,
        "schema_version": SCHEMA_VERSION,
        "suite": suite,
        "label": label,
        "repro_version": __version__,
        "repeats": repeats,
        "warmup": warmup,
        "seed0": seed0,
        "cells": cells,
    }


def write_snapshot(snapshot: Mapping[str, Any], path: str | Path) -> Path:
    path = Path(path)
    doc = dict(snapshot)
    if doc.get("label") is None:
        doc["label"] = path.stem
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def history_line(snapshot: Mapping[str, Any]) -> dict[str, Any]:
    """A snapshot's one-line trajectory record: per cell, the three numbers
    that say whether the virtual clock, the round count or the traffic moved."""
    return {
        "label": snapshot["label"],
        "schema_version": snapshot["schema_version"],
        "cells": {
            cell_id: {
                "median_s": cell["measured"]["median_s"],
                "rounds": cell["rounds"],
                "wire_bytes_per_run": cell["traffic"]["wire_bytes_per_run"],
            }
            for cell_id, cell in sorted(snapshot["cells"].items())
        },
    }


def append_history(snapshot: Mapping[str, Any], directory: str | Path) -> Path:
    """Append ``snapshot``'s :func:`history_line` to the trajectory file."""
    path = Path(directory) / HISTORY_NAME
    with path.open("a") as fh:
        fh.write(json.dumps(history_line(snapshot)) + "\n")
    return path


def load_snapshot(path: str | Path) -> dict[str, Any]:
    """Read and validate a snapshot; raises :class:`SnapshotFormatError`."""
    path = Path(path)
    if not path.exists():
        raise SnapshotFormatError(f"snapshot file not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise SnapshotFormatError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("kind") != SNAPSHOT_KIND:
        raise SnapshotFormatError(
            f"{path} is not a {SNAPSHOT_KIND} document (kind={doc.get('kind')!r})"
        )
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SnapshotFormatError(
            f"{path} has schema_version {version!r}, this build reads "
            f"{SCHEMA_VERSION}; re-run `python -m repro.perf run` to regenerate"
        )
    if not isinstance(doc.get("cells"), dict):
        raise SnapshotFormatError(f"{path} has no cells mapping")
    return doc


def _bench_files(directory: str | Path) -> list[tuple[int, Path]]:
    out = []
    if not Path(directory).is_dir():
        return out
    for p in Path(directory).iterdir():
        m = _BENCH_RE.match(p.name)
        if m:
            out.append((int(m.group(1)), p))
    return sorted(out)


def latest_bench_path(directory: str | Path = ".") -> Path | None:
    """Highest-numbered ``BENCH_NNNN.json`` in ``directory`` (None if none)."""
    files = _bench_files(directory)
    return files[-1][1] if files else None


def next_bench_path(directory: str | Path = ".") -> Path:
    """The next free ``BENCH_NNNN.json`` slot in ``directory``."""
    files = _bench_files(directory)
    n = files[-1][0] + 1 if files else 1
    return Path(directory) / f"BENCH_{n:04d}.json"


def cell_median(cell: Mapping[str, Any]) -> float:
    """A cell's measured median, NaN when absent or non-numeric."""
    try:
        value = cell["measured"]["median_s"]
    except (KeyError, TypeError):
        return math.nan
    try:
        value = float(value)
    except (TypeError, ValueError):
        return math.nan
    return value
