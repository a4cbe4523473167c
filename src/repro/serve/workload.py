"""Scripted service workloads: arrival scripts, oracles, chaos schedules.

A *workload* is a deterministic arrival script — a list of
:class:`~repro.serve.job.JobSpec` ordered by submission — plus host-side
**oracles**: for every job, the answer a trivial single-process
implementation would give.  The replay driver (CLI ``replay`` mode,
``tests/test_serve.py``, the CI soak) submits the script, drains the
service, and compares every completed job against its oracle, so service
correctness never rests on the service's own code paths.

:func:`make_workload` builds the standard mixed soak: ≥32 jobs, all four
kinds, multiple tenants, a fusable cluster of ≥3 compatible small sorts,
repeat-fingerprint sorts (the warm-plan assertion), a float dataset that
must run solo, and queries arriving both after and *before* their sort
(the defer path).  :func:`make_chaos` pairs it with a crash schedule.
"""

from __future__ import annotations

import zlib
from math import ceil
from typing import Any, Sequence

import numpy as np

from ..data import make_partition
from .job import JobSpec
from .service import ServiceChaos

__all__ = ["make_chaos", "make_workload", "oracle", "oracle_all"]


def make_workload(p: int, *, seed: int = 0, n_small: int = 192) -> list[JobSpec]:
    """The standard mixed arrival script (deterministic in ``seed``).

    Structure, in virtual-second arrival order:

    * ``t=0``: four compatible ``uniform_u64`` sorts for tenant *acme*
      (same dtype + log2 size class → one fused epoch of up to
      ``max_epoch_jobs``), plus one ``normal_f64`` sort for *globex*
      (floats cannot pack → solo epoch).
    * ``t=5``: a query volley against those datasets — percentiles
      (including the 0/100 edges), top-k, ranges.
    * ``t=10``: four repeat-fingerprint sorts (same job count, shape,
      and distribution class as wave one) — these must hit the
      warm-plan tier with **zero** planner dry runs — plus a *zipf*
      skew sort.
    * ``t=12``: queries for a dataset that only arrives at ``t=15``
      (exercising deferral), then its sort, then follow-up queries.
    """
    base = seed * 1000
    specs: list[JobSpec] = []

    def sort(tenant: str, ds: str, t: float, dist: str, n: int, s: int, prio: int = 0):
        specs.append(
            JobSpec(
                kind="sort", tenant=tenant, dataset=ds, arrival=t, priority=prio,
                dist=dist, n_per_rank=n, seed=base + s,
            )
        )

    def q(kind: str, tenant: str, ds: str, t: float, **kw: Any):
        specs.append(
            JobSpec(kind=kind, tenant=tenant, dataset=ds, arrival=t, **kw)
        )

    # wave 1: the fusable cluster + a solo float sort
    for i in range(4):
        sort("acme", f"events-{i}", 0.0, "uniform_u64", n_small, 11 + i)
    sort("globex", "readings", 0.0, "normal_f64", n_small, 31)

    # wave 2: queries against wave-1 datasets
    for i in range(4):
        q("percentile", "acme", f"events-{i}", 5.0, pcts=(0.0, 25.0, 50.0, 99.0, 100.0))
    q("top_k", "acme", "events-0", 5.0, k=7)
    q("top_k", "acme", "events-1", 5.0, k=3)
    q("range_query", "acme", "events-2", 5.0, lo=1e8, hi=6e8)
    q("range_query", "acme", "events-3", 5.0, lo=0.0, hi=1e9)
    q("percentile", "globex", "readings", 5.0, pcts=(50.0, 90.0))
    q("top_k", "globex", "readings", 5.0, k=5)

    # wave 3: repeat fingerprints (warm-plan tier) + skew.  Same job
    # count, dtype, and size class as wave 1, so the fused epoch's
    # fingerprint lands in wave 1's cache bucket and planning is skipped.
    for i in range(4):
        sort("acme", f"events-{i}", 10.0, "uniform_u64", n_small, 41 + i)
    # a different log2 size class, so the skew sort cannot fuse into —
    # and perturb the fingerprint of — the repeat batch above
    sort("globex", "clicks", 10.0, "zipf_u64", n_small * 3, 51)
    q("range_query", "globex", "clicks", 11.0, lo=1.0, hi=10.0)
    q("percentile", "globex", "clicks", 11.0, pcts=(50.0, 100.0))

    # wave 4: queries arriving BEFORE their sort (deferral), then the sort
    q("percentile", "acme", "late", 12.0, pcts=(10.0, 90.0))
    q("top_k", "acme", "late", 12.0, k=4)
    sort("acme", "late", 15.0, "uniform_u64", n_small, 61)
    q("range_query", "acme", "late", 16.0, lo=2e8, hi=9e8)

    # trailing low-priority singles so every kind appears for two tenants
    q("top_k", "acme", "events-2", 18.0, k=2)
    q("range_query", "globex", "readings", 18.0, lo=-1.0, hi=1.0)
    q("percentile", "acme", "events-3", 18.0, pcts=(75.0,))
    sort("globex", "audit", 20.0, "duplicates_i64", n_small, 71, prio=1)
    q("percentile", "globex", "audit", 21.0, pcts=(0.0, 50.0))
    q("top_k", "globex", "audit", 21.0, k=6)
    q("range_query", "globex", "audit", 21.0, lo=0.0, hi=4.0)
    return specs


def make_chaos(workload: Sequence[JobSpec], *, seed: int = 1) -> ServiceChaos:
    """A crash schedule proportioned to ``workload``'s sort epochs.

    Injects two mid-epoch rank crashes, one in the first sort epoch
    (which carries the fused cluster) and one in a later epoch.  A
    checkpointed epoch spends its ops 0-1 on two ring exchanges and then
    one op per collective, so both ``at_op`` values fall inside the
    splitter's three set-up collectives (size allgather at op 2, key range
    at op 3, extreme-key bounds at op 4): late enough that
    packing and splitter determination have started, and — unlike anything
    from the first histogram round on — at the same op whatever the round
    count is (a rank that finishes before its ``at_op`` never crashes).
    Epoch ordinals count *sort* epochs only, matching
    :class:`~repro.serve.service.ServiceChaos` semantics.
    """
    n_sorts = sum(1 for s in workload if s.kind == "sort")
    # rank 1 in the extreme-key bounds allreduce
    crashes: dict[int, tuple[tuple[int, int], ...]] = {0: ((1, 4),)}
    if n_sorts > 2:
        # rank 3 in the key-range allreduce
        crashes[2] = ((3, 3),)
    return ServiceChaos(crashes=crashes, spares=2, seed=seed)


# --------------------------------------------------------------------- oracle


def _global_sorted(spec: JobSpec, p: int) -> np.ndarray:
    parts = [
        make_partition(spec.dist, spec.n_per_rank, rank=r, seed=spec.seed)
        for r in range(p)
    ]
    return np.sort(np.concatenate(parts))


def oracle(
    spec: JobSpec, p: int, *, sort_specs: dict[tuple[str, str], JobSpec]
) -> Any:
    """The single-process answer for one job of a script.

    ``sort_specs`` maps ``(tenant, dataset)`` to the *latest preceding*
    sort spec for that dataset (queries read the most recent sort).
    """
    if spec.kind == "sort":
        data = _global_sorted(spec, p)
        return {
            "n": int(data.size),
            "dtype": str(data.dtype),
            "min": data[0].item() if data.size else None,
            "max": data[-1].item() if data.size else None,
            "checksum": zlib.crc32(np.ascontiguousarray(data).tobytes()),
        }
    src = sort_specs[(spec.tenant, spec.dataset)]
    data = _global_sorted(src, p)
    n = int(data.size)
    if spec.kind == "percentile":
        return {
            float(pct): data[min(max(ceil(pct / 100.0 * n) - 1, 0), n - 1)].item()
            for pct in spec.pcts
        }
    if spec.kind == "top_k":
        k = min(spec.k, n)
        return [v.item() for v in data[n - k :][::-1]]
    lo_cnt = int(np.searchsorted(data, spec.lo, side="left"))
    hi_cnt = int(np.searchsorted(data, spec.hi, side="left"))
    return {"count": hi_cnt - lo_cnt, "first_rank": lo_cnt}


def oracle_all(workload: Sequence[JobSpec], p: int) -> list[Any]:
    """Oracle answers for every spec, in script order.

    Tracks dataset redefinition: a query's oracle uses the last sort of
    its dataset whose arrival is ``<=`` the query's arrival — a
    same-instant sort counts, because the service runs a round's sort
    epochs before re-admitting its deferred queries.  A query with *no*
    preceding sort resolves against the earliest future sort of its
    dataset (the defer path: the query waits for exactly that epoch).
    """
    out: list[Any] = []
    for spec in workload:
        if spec.kind == "sort":
            out.append(oracle(spec, p, sort_specs={}))
            continue
        key = (spec.tenant, spec.dataset)
        past = [
            o for o in workload
            if o.kind == "sort" and (o.tenant, o.dataset) == key
            and o.arrival <= spec.arrival
        ]
        if past:
            src = max(past, key=lambda o: o.arrival)
        else:
            future = [
                o for o in workload
                if o.kind == "sort" and (o.tenant, o.dataset) == key
            ]
            src = min(future, key=lambda o: o.arrival)
        out.append(oracle(spec, p, sort_specs={key: src}))
    return out
