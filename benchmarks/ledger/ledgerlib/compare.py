"""``--compare A.json B.json``: the benchmark's bounds applied to two result sets.

A is the parent (or the first set of runs), B the change (or the second).
Wall-clock metrics are compared by medians over the runs of a set and are
*unresolved* where a set's own run-to-run spread is wider than the bound.
Deterministic metrics (virtual time and counts) are compared run by run on
the seeds both sets have: the same code must reproduce them exactly.
"""

from __future__ import annotations

import json
import statistics
from typing import Any

#: per-layer names a wall-only optimisation must leave exactly unchanged
EXACT_COUNTS = ("core.rounds", "mpi.wire_bytes_per_op", "mpi.msgs_per_op")


def is_exact(name: str) -> bool:
    """Deterministic per seed: everything that is not host time or memory."""
    noisy = (
        "wall" in name
        or name.startswith(("seq.", "bench.", "data."))
        or name in ("setup_s", "peak_rss_mb", "mpi.copy_payload_gb_per_s")
    )
    return not noisy


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (0 for one run)."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / abs(statistics.median(values))


def worsening(a: float, b: float, better: str) -> float:
    """By what share of ``a`` is ``b`` worse (negative: better)."""
    if a == 0:
        return 0.0
    return (b - a) / abs(a) if better == "lower" else (a - b) / abs(a)


def values_of(runs: list[dict[str, Any]], workload: str, trace: int, name: str) -> dict[int, float]:
    return {
        r["seed"]: r["metrics"][name]["value"]
        for r in runs
        if r["workload"] == workload and r["trace"] == trace and name in r["metrics"]
    }


def judge(a: dict[int, float], b: dict[int, float], metric: dict[str, Any]) -> tuple[str, str]:
    """``(verdict, detail)`` of one end-to-end metric on one workload."""
    name, better, bound = metric["name"], metric["better"], metric["bound"]
    if not a or not b:
        return "unresolved", f"{name}: no runs"
    if is_exact(name):
        shared = sorted(set(a) & set(b))
        worst = max((worsening(a[s], b[s], better) for s in shared), default=0.0)
        same = all(a[s] == b[s] for s in shared)
        detail = f"{name} {'identical' if same else f'differs, worst {worst:+.2%}'}"
        return ("regressed" if worst > bound else "ok"), detail
    va, vb = list(a.values()), list(b.values())
    worse = worsening(statistics.median(va), statistics.median(vb), better)
    sa, sb = spread(va), spread(vb)
    detail = f"{name} {worse:+.1%} (spread {sa:.1%}/{sb:.1%}, bound {bound:.0%})"
    if max(sa, sb) > bound:
        clear = (
            max(vb) < min(va) if better == "lower" else min(vb) > max(va)
        )
        return ("ok" if clear else "unresolved"), detail
    return ("regressed" if worse > bound else "ok"), detail


def main(path_a: str, path_b: str, spec: dict[str, Any]) -> int:
    with open(path_a) as fa, open(path_b) as fb:
        set_a, set_b = json.load(fa), json.load(fb)
    for label, result in (("A", set_a), ("B", set_b)):
        print(f"{label}: {json.dumps(result['meta'], sort_keys=True)}")
    rank = {"ok": 0, "unresolved": 1, "regressed": 2}
    any_regressed = False
    for workload in (w["name"] for w in spec["workloads"]):
        verdict = "ok"
        details = []
        for metric in spec["end_to_end"]:
            a = values_of(set_a["runs"], workload, 0, metric["name"])
            b = values_of(set_b["runs"], workload, 0, metric["name"])
            v, detail = judge(a, b, metric)
            details.append(f"[{v}] {detail}")
            verdict = max(verdict, v, key=rank.__getitem__)
        differing = []
        for metric in spec["per_layer"]:
            if metric["name"] not in EXACT_COUNTS:
                continue
            a = values_of(set_a["runs"], workload, 1, metric["name"])
            b = values_of(set_b["runs"], workload, 1, metric["name"])
            if any(a[s] != b[s] for s in set(a) & set(b)):
                differing.append(metric["name"])
        counts = "counts identical" if not differing else f"counts differ: {differing}"
        print(f"{workload:22s} {verdict:10s} {counts}")
        for detail in details:
            print(f"    {detail}")
        any_regressed |= verdict == "regressed"
    return 1 if any_regressed else 0
