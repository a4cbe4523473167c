"""Shared measurement helpers: percentiles, digests, spans, host facts."""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import resource
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

#: repository root (``benchmarks/ledger/ledgerlib/common.py`` -> 3 up)
ROOT = Path(__file__).resolve().parents[3]

#: set-ups per run; ``setup_s`` takes the fastest repeat of each of their steps
SETUP_REPS = 3

#: datasets / scripts per seed set: ``--seed S`` selects ``S .. S+4``
SEED_SET = 5

#: plain/traced op pairs in a full-length traced pass
TRACED_PAIRS = 10


def contract() -> dict[str, Any]:
    """``BENCHMARK.json``: the one registry of metric names, units, bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def percentile(values: Iterable[float], pct: float) -> float:
    """Nearest-rank percentile (``pct`` in (0, 100]); the median for 50."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty population")
    return float(ordered[max(math.ceil(pct / 100.0 * len(ordered)) - 1, 0)])


def median(values: Iterable[float]) -> float:
    """Interpolating median (averages the two middle samples)."""
    return float(np.median(list(values)))


def digest(parts: Sequence[np.ndarray]) -> str:
    """Byte digest of a distributed array's concatenation in rank order.

    With perfect partitioning the per-rank outputs are determined by the
    input multiset alone, so the digest is implementation-independent.
    Empty parts are skipped (per-rank sizes are checked separately): the
    sampling baselines hand back float64 empties whatever the key dtype.
    """
    h = hashlib.blake2b(digest_size=16)
    dtype = None
    for part in parts:
        if part.size == 0:
            continue
        if part.dtype != dtype:  # once, unless parts disagree
            dtype = part.dtype
            h.update(str(dtype).encode())
        h.update(np.ascontiguousarray(part).data)
    return h.hexdigest()


def pin_to_one_cpu() -> int | None:
    """Pin this process (and the rank threads it spawns) to one CPU.

    The runtime is thread-per-rank under the GIL; left on two cores the
    ranks fight over the lock across CPUs, which costs 2-3x wall and is
    bimodal from run to run (README, "Findings").  One CPU measures the
    Python's CPU cost, steadily.  Returns the CPU, or ``None`` where the
    platform has no affinity call.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def peak_rss_mib() -> float:
    """High-water resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def commit_id() -> str:
    """HEAD of the checkout, read from ``.git`` without spawning git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def host_facts() -> dict[str, Any]:
    """What a result set records about where it was measured."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit_id(),
    }


@dataclass
class Tally:
    """Ops (serve: jobs) attempted and failed, over every check of a pass."""

    attempted: int = 0
    failed: int = 0

    def add(self, ok: bool, n: int = 1) -> None:
        self.attempted += n
        self.failed += 0 if ok else n


def traced_scale(seconds: float, smoke: bool) -> tuple[int, float]:
    """``(plain/traced op pairs, seconds per micro-cell)`` of a traced pass."""
    if smoke:
        return 2, 0.0
    return max(2, min(TRACED_PAIRS, round(seconds / 2))), seconds / 100.0


def timed_cycles(seconds: float, min_cycles: int) -> Iterator[int]:
    """Dataset indices of a timed pass: whole cycles of the seed set until
    ``seconds`` have passed, ``min_cycles`` at least.  ``gc.collect()`` runs
    before each op, outside its timed region; the collector stays on."""
    deadline = time.perf_counter() + seconds
    cycles = 0
    while cycles < min_cycles or time.perf_counter() < deadline:
        for idx in range(SEED_SET):
            gc.collect()
            yield idx
        cycles += 1


def fastest_repeats(walls: Sequence[float]) -> float:
    """Per dataset the fastest of its ops, summed.  ``walls[i]`` is the op on
    dataset ``i % SEED_SET``; host noise only ever slows an op."""
    return sum(min(walls[d::SEED_SET]) for d in range(min(SEED_SET, len(walls))))


def end_to_end(timed: dict[str, Any]) -> dict[str, float]:
    """The wall/virt end-to-end metrics of one timed pass.

    ``timed["walls"][d]`` holds the wall seconds of every passing op on
    dataset ``d``.  Host noise on a shared box is one-sided — it only ever
    slows an op, by up to 1.7x for minutes at a time (README, finding 2) —
    so the fastest repeat of an op is the steadiest estimate of what the
    code costs; medians and upper percentiles of the raw ops are not steady
    enough to gate on and are printed for information only.
    """
    pairs = [(min(w), k) for w, k in zip(timed["walls"], timed["keys"]) if w]
    if not pairs:  # every op failed: report their times rather than nothing
        pairs = [(w, 0) for w in timed["failed_walls"]]
    best = [w for w, _ in pairs]
    return {
        "wall_s_best": median(best),
        "keys_per_wall_s": sum(k for _, k in pairs) / sum(best),
        "virt_s_p50": percentile(timed["virts"], 50),
        "virt_s_p90": percentile(timed["virts"], 90),
    }


def raw_ops_note(timed: dict[str, Any]) -> str:
    """The unfiltered op population, failed ops included, for the reader."""
    raw = [w for per in timed["walls"] for w in per] + timed["failed_walls"]
    return (
        f"{len(raw)} timed ops, raw wall p50 {median(raw):.4f} s, "
        f"p80 {percentile(raw, 80):.4f} s, fastest {min(raw):.4f} s"
    )


class SpanLog:
    """In-memory spans of one traced pass, one list per rank.

    A span is ``(op, name, wall_t0, wall_t1, virt_t0, virt_t1)``; spans of
    one op share its id, and the op itself is the span that caused them.
    Rank programs hand in their virtual clock; the wall clock is read
    here, so no rank function touches it.  Each rank appends only to its
    own list, so no lock is needed.
    """

    def __init__(self, nranks: int, wall: Callable[[], float] = time.perf_counter):
        self._wall = wall
        self._open: list[tuple[float, float]] = [(0.0, 0.0)] * nranks
        self.spans: list[list[tuple[int, str, float, float, float, float]]] = [
            [] for _ in range(nranks)
        ]
        self.op = 0

    def start(self, rank: int, virt: float) -> None:
        self._open[rank] = (self._wall(), virt)

    def mark(self, rank: int, name: str, virt: float) -> None:
        """Close the span open since the last ``start``/``mark`` on ``rank``."""
        wall0, virt0 = self._open[rank]
        wall1 = self._wall()
        self.spans[rank].append((self.op, name, wall0, wall1, virt0, virt))
        self._open[rank] = (wall1, virt)

    def phase(self, op: int, name: str) -> tuple[float, float]:
        """``(wall, virt)`` seconds of ``name`` in ``op``: max over ranks."""
        wall = virt = 0.0
        for per_rank in self.spans:
            for span in per_rank:
                if span[0] == op and span[1] == name:
                    wall = max(wall, span[3] - span[2])
                    virt = max(virt, span[5] - span[4])
        return wall, virt

    def dump(self, path: str | Path) -> None:
        rows = [
            {"rank": rank, "op": s[0], "name": s[1], "wall": [s[2], s[3]], "virt": [s[4], s[5]]}
            for rank, per_rank in enumerate(self.spans)
            for s in per_rank
        ]
        Path(path).write_text(json.dumps(rows))


def per_call(fn: Callable[[], Any], budget_s: float, min_calls: int = 3) -> float:
    """Median wall seconds of ``fn()`` over ``min_calls`` or ``budget_s``."""
    times: list[float] = []
    deadline = time.perf_counter() + budget_s
    while len(times) < min_calls or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return median(times)
