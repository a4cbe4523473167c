"""Sort-as-a-service: concurrent tenants, fused epochs, index queries.

The library's sort becomes a long-running service (:mod:`repro.serve`):
tenants submit jobs against a virtual service clock, compatible small
sorts fuse into shared SPMD epochs (one splitter search + one ALLTOALLV
amortized over the batch), and sorted datasets stay resident behind a
splitter-table index that answers percentile / top-k / range queries
with zero data movement.

This example runs a small interactive-style session by hand — submit,
drain, query — then replays the standard scripted workload and verifies
every result against the single-process oracle, once cleanly and once
with two mid-epoch rank crashes absorbed by the lossless-recovery tier.

Run:  python examples/sort_service.py
"""

from __future__ import annotations

import zlib

from repro.serve import (
    JobSpec,
    SortService,
    make_chaos,
    make_workload,
    oracle_all,
)

P = 4


def interactive_session() -> None:
    service = SortService(P)
    print(f"service up: p={P} ranks, virtual clock t={service.clock:.1f}s\n")

    # three compatible sorts from two tenants -> one fused epoch
    for tenant, name in [("acme", "orders"), ("acme", "events"), ("globex", "logs")]:
        service.submit(
            JobSpec(kind="sort", tenant=tenant, dataset=name,
                    dist="uniform_u64", n_per_rank=512,
                    seed=zlib.crc32(name.encode()) % 1000)
        )
    service.drain()
    epoch = next(e for e in service.events if e["kind"] == "sort")
    print(f"sort epoch 0: jobs {epoch['jobs']} fused={epoch['fused']} "
          f"(one exchange paid for {len(epoch['jobs'])} jobs)")

    # queries ride the resident index: no re-sort, no data movement
    q = service.submit(
        JobSpec(kind="percentile", tenant="acme", dataset="orders",
                pcts=(50.0, 99.0, 100.0))
    )
    t = service.submit(JobSpec(kind="top_k", tenant="globex", dataset="logs", k=3))
    service.drain()
    print(f"percentiles of acme/orders: {q.result.value}")
    print(f"top-3 of globex/logs:       {t.result.value}")
    queries = sum(e["kind"] == "query" for e in service.events)
    print(f"query epochs moved no partitions: {queries} query epoch(s), "
          f"no alltoallv\n")


def scripted_replay(chaos: bool) -> None:
    workload = make_workload(P, seed=0)
    service = SortService(
        P, chaos=make_chaos(workload) if chaos else None
    )
    service.replay(workload)
    expected = oracle_all(workload, P)
    matches = sum(
        1 for job_id, want in enumerate(expected)
        if service.jobs[job_id].result is not None
        and service.jobs[job_id].result.value == want
    )
    stats = service.stats()
    label = "chaos (2 rank crashes)" if chaos else "clean"
    print(f"{label:<24} {matches}/{len(expected)} jobs match oracle, "
          f"{stats['epochs']} epochs, "
          f"{stats['jobs_per_vsecond']:.1f} jobs/virtual-s, "
          f"warm plan hits {int(stats['warm_plan_hits'])}")
    assert matches == len(expected)


def main() -> None:
    interactive_session()
    print("scripted workload replay (32+ jobs, 4 kinds, 2 tenants):")
    scripted_replay(chaos=False)
    scripted_replay(chaos=True)
    print("\nsame answers with and without crashes - the service is lossless")


if __name__ == "__main__":
    main()
