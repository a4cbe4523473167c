"""The serve workload: one op = one ``SortService.replay`` of a job script.

Arrivals are an open loop in *virtual* time: the script fixes every
arrival on the service clock, so the generator is never late (lateness is
0 by construction) and queues form only where the simulated service is
slower than the arrivals.
"""

from __future__ import annotations

import gc
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.data import make_partition
from repro.machine import laptop
from repro.serve import (
    AdmissionError,
    AdmissionPolicy,
    Job,
    JobSpec,
    SortService,
    oracle_all,
    plan_batches,
)
from repro.tune import planner
from repro.tune.cache import MemoryPlanCache
from repro.tune.fingerprint import fingerprint_partition

from .common import (
    SEED_SET,
    SpanLog,
    Tally,
    fastest_repeats,
    median,
    per_call,
    percentile,
    timed_cycles,
    traced_scale,
)

NAME = "serve-mixed-p4"
P = 4
CORES = 8
MEAN_GAP_S = 130e-6

# (dist, n/rank): a fusable integer class and four that run solo or pair up
SMALL = ("uniform_u64", 512)
BIG = ("uniform_u64", 4096)
FLOATS = ("normal_f64", 2048)
SKEW = ("zipf_u64", 4096)
DUPS = ("duplicates_i64", 2048)

# 24 jobs in 21 arrival events, repeated twice per script.  Jobs of one
# event arrive at the same instant (a tenant's burst of small sorts), so they
# fuse whatever the queue looks like: batch composition, and with it the
# number of epochs per replay (42), does not depend on the seed.  The mix
# keeps both latency percentiles steady across seeds: over half of the jobs
# finish within the class of short sorts (41-50 us), so the median lies
# inside it, and the 90th percentile lies inside the ~30 jobs of the
# 4096/rank class (193-200 us).  (With 8192/rank big sorts and single
# arrivals the median sat on the edge between two classes and jumped by 20 %
# on one seed in five, and the fused share moved with the arrival jitter.)
EVENTS: tuple[tuple[tuple[Any, ...], ...], ...] = (
    (("sort", "t0", "a", SMALL),),
    (("percentile", "t0", "a"),),
    (("sort", "t1", "b", SMALL),),
    (("top_k", "t1", "b"),),
    (("sort", "t0", "big-a", BIG),),
    (("sort", "t1", "c", SMALL), ("sort", "t2", "d", SMALL), ("sort", "t3", "e", SMALL)),
    (("range_query", "t0", "a"),),
    (("sort", "t2", "floats", FLOATS),),
    (("percentile", "t0", "big-a"),),
    (("sort", "t0", "f", SMALL),),
    (("top_k", "t2", "floats"),),
    (("sort", "t3", "skew", SKEW),),
    (("sort", "t1", "g", SMALL),),
    (("percentile", "t3", "skew"),),
    (("sort", "t3", "dups", DUPS),),
    (("range_query", "t3", "dups"),),
    (("sort", "t2", "h", SMALL),),
    (("top_k", "t2", "d"),),
    (("sort", "t1", "big-b", BIG),),
    (("sort", "t0", "i", SMALL), ("sort", "t3", "j", SMALL)),
    (("percentile", "t1", "big-b"),),
)
REPEATS = 2


def make_script(seed: int, shrink: int = 1) -> list[JobSpec]:
    """One arrival script.  The seed varies data seeds, query targets and
    arrival jitter only, so scripts of a seed set are homogeneous."""
    rng = np.random.default_rng(seed)
    t = 0.0
    specs: list[JobSpec] = []
    for rep in range(REPEATS):
        for event in EVENTS:
            t += MEAN_GAP_S * rng.uniform(0.5, 1.5)
            for kind, tenant, dataset, *shape in event:
                common = {
                    "kind": kind, "tenant": tenant, "dataset": f"{dataset}-{rep}", "arrival": t,
                }
                if kind == "sort":
                    dist, n = shape[0]
                    specs.append(
                        JobSpec(dist=dist, n_per_rank=max(n // shrink, 16),
                                seed=int(rng.integers(1, 2**31)), **common)
                    )
                elif kind == "percentile":
                    pcts = tuple(float(x) for x in np.round(rng.uniform(0.0, 100.0, 3), 1))
                    specs.append(JobSpec(pcts=pcts, **common))
                elif kind == "top_k":
                    specs.append(JobSpec(k=int(rng.integers(1, 16)), **common))
                else:
                    lo = float(rng.uniform(0.0, 5e8))
                    specs.append(JobSpec(lo=lo, hi=lo + float(rng.uniform(0.0, 5e8)), **common))
    return specs


@dataclass
class ServeState:
    scripts: list[list[JobSpec]]
    #: per script, per job: the oracle-verified value
    values: list[list[Any]]
    cache: MemoryPlanCache
    cold_dry_runs: int

    @property
    def sort_keys(self) -> list[int]:
        return [
            sum(s.n_per_rank * P for s in script if s.kind == "sort") for script in self.scripts
        ]


def new_service(cache: MemoryPlanCache) -> SortService:
    return SortService(
        P,
        machine=laptop(CORES),
        policy=AdmissionPolicy(max_queue_depth=1024, max_per_tenant=256),
        plan_cache=cache,
    )


def check_jobs(
    tally: Tally, service: SortService | None, script: list[JobSpec], values: list[Any]
) -> bool:
    """A job fails unless it is DONE with the verified value; a replay that
    raised (``service is None``) fails all of its jobs.  True if none failed."""
    before = tally.failed
    for job_id in range(len(script)):
        job = service.jobs.get(job_id) if service is not None else None
        done = job is not None and job.state == "DONE" and job.result is not None
        tally.add(done and job.result.value == values[job_id])
    return tally.failed == before


def set_up(seed: int, smoke: bool) -> tuple[ServeState, Tally, list[float]]:
    """Scripts, their oracles, and a plan cache warmed by one checked replay
    per script (so cold planning lands in ``setup_s``, not in the ops).

    Also returns the wall seconds of each script's step (generate, oracle,
    replay, check), which is what ``setup_s`` is made of.
    """
    shrink = 8 if smoke else 1
    cache = MemoryPlanCache()
    dry0 = planner.dry_run_count()
    state = ServeState([], [], cache, 0)
    tally = Tally()
    steps = []
    for s in range(SEED_SET):
        t0 = time.perf_counter()
        script = make_script(seed + s, shrink)
        values = oracle_all(script, P)
        service = new_service(cache)
        service.replay(script)
        check_jobs(tally, service, script, values)
        state.scripts.append(script)
        state.values.append(values)
        steps.append(time.perf_counter() - t0)
    state.cold_dry_runs = planner.dry_run_count() - dry0
    return state, tally, steps


def replay_op(state: ServeState, idx: int) -> tuple[SortService | None, float, float]:
    """One timed replay: ``(service, wall, cpu)``; ``None`` if it raised."""
    service = new_service(state.cache)
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        service.replay(state.scripts[idx])
    except Exception:  # a failed op is counted, and its time kept
        traceback.print_exc(file=sys.stderr)
        service = None
    return service, time.perf_counter() - t0, time.process_time() - cpu0


def timed_pass(state: ServeState, seconds: float, min_cycles: int) -> dict[str, Any]:
    walls: list[list[float]] = [[] for _ in state.scripts]
    failed_walls: list[float] = []
    virts: list[float] = []
    tally = Tally()
    for idx in timed_cycles(seconds, min_cycles):
        service, wall, _ = replay_op(state, idx)
        if check_jobs(tally, service, state.scripts[idx], state.values[idx]):
            walls[idx].append(wall)
            virts.extend(r.time_to_result for r in service.results().values())
        else:
            failed_walls.append(wall)
    return {
        "walls": walls,
        "failed_walls": failed_walls,
        "virts": virts or [0.0],
        "tally": tally,
        "keys": state.sort_keys,
        "virt_population": (
            f"{SEED_SET * len(state.scripts[0])} job time_to_result values "
            "(all jobs of the seed set's scripts); arrivals are scripted on the "
            "virtual clock, so generator lateness is 0 by construction"
        ),
    }


def traced_pass(state: ServeState, seconds: float, smoke: bool) -> dict[str, Any]:
    """Replays driven step by step, a span per scheduling round."""
    pairs, cell_budget = traced_scale(seconds, smoke)
    m: dict[str, float] = {}
    tally = Tally()

    plain_walls: list[float] = []
    plain_cpu: list[float] = []
    traced_walls: list[float] = []
    log = SpanLog(1)  # the service is driven from one thread: "rank" 0
    job_virt: dict[str, list[float]] = {"sort": [], "query": []}
    waits: list[float] = []
    per_replay: dict[str, list[float]] = {
        k: [] for k in ("epochs", "sort_epochs", "fused", "jobs_per_virt_s", "warm",
                        "wire", "msgs", "calls")
    }
    for i in range(pairs):
        idx = i % SEED_SET
        script = state.scripts[idx]
        gc.collect()
        service, wall, cpu = replay_op(state, idx)
        plain_walls.append(wall)
        plain_cpu.append(cpu)
        check_jobs(tally, service, script, state.values[idx])

        gc.collect()
        service = new_service(state.cache)
        log.op += 1
        t_begin = time.perf_counter()
        for spec in script:
            try:
                service.submit(spec)
            except AdmissionError:  # as replay() does; the job then counts as failed
                continue
        log.start(0, service.clock)
        more = True
        while more:
            seen = len(service.events)
            more = service.step()
            kinds = [e["kind"] for e in service.events[seen:]]
            # only a round that ran exactly one epoch can be attributed to a kind
            log.mark(0, kinds[0] if len(kinds) == 1 else "other", service.clock)
        traced_walls.append(time.perf_counter() - t_begin)
        check_jobs(tally, service, script, state.values[idx])

        stats = service.stats()
        sort_jobs = [j for j in service.jobs.values() if j.spec.kind == "sort"]
        fused = sum(len(e["jobs"]) for e in service.events if e["kind"] == "sort" and e["fused"])
        per_replay["epochs"].append(stats["epochs"])
        per_replay["sort_epochs"].append(stats["sort_epochs"])
        per_replay["fused"].append(fused / len(sort_jobs))
        per_replay["jobs_per_virt_s"].append(stats["jobs_per_vsecond"])
        per_replay["warm"].append(stats["warm_plan_hits"] / stats["sort_epochs"])
        reg = service.registry
        per_replay["wire"].append(reg.value("repro_bytes_on_wire_total"))
        per_replay["msgs"].append(reg.value("repro_messages_total"))
        per_replay["calls"].append(reg.value("repro_collective_calls_total"))
        for job in service.jobs.values():
            if job.result is None or job.started_at is None:
                continue
            kind = "sort" if job.spec.kind == "sort" else "query"
            job_virt[kind].append(job.result.time_to_result)
            waits.append(job.started_at - job.spec.arrival)

    mean = lambda xs: float(np.mean(xs))  # noqa: E731
    m["serve.epochs_per_replay"] = mean(per_replay["epochs"])
    m["serve.sort_epochs_per_replay"] = mean(per_replay["sort_epochs"])
    m["serve.fused_job_frac"] = mean(per_replay["fused"])
    m["serve.jobs_per_virt_s"] = median(per_replay["jobs_per_virt_s"])
    m["tune.warm_hit_frac"] = mean(per_replay["warm"])
    m["mpi.wire_bytes_per_op"] = median(per_replay["wire"])
    m["mpi.msgs_per_op"] = median(per_replay["msgs"])
    m["mpi.collective_calls_per_op"] = median(per_replay["calls"])
    for kind in ("sort", "query"):
        m[f"serve.{kind}_epoch_wall_ms_p50"] = 1e3 * median(
            s[3] - s[2] for s in log.spans[0] if s[1] == kind
        )
        m[f"serve.{kind}_job_virt_s_p50"] = percentile(job_virt[kind], 50)
        m[f"serve.{kind}_job_virt_s_p90"] = percentile(job_virt[kind], 90)
    m["serve.queue_wait_virt_s_p50"] = percentile(waits, 50)
    m["serve.queue_wait_virt_s_p90"] = percentile(waits, 90)
    m["bench.trace_overhead_frac"] = (
        fastest_repeats(traced_walls) / fastest_repeats(plain_walls) - 1.0
    )
    m["bench.cpu_s_per_op"] = median(plain_cpu)
    m["bench.timed_ops"] = float(len(plain_walls) + len(traced_walls))

    # batching and planning, called directly on one script's sort jobs
    script = state.scripts[0]
    jobs = [Job(job_id=i, spec=s) for i, s in enumerate(script) if s.kind == "sort"]
    data = {
        j.job_id: [
            make_partition(j.spec.dist, j.spec.n_per_rank, rank=r, seed=j.spec.seed)
            for r in range(P)
        ]
        for j in jobs
    }
    m["serve.plan_batches_wall_us"] = 1e6 * per_call(
        lambda: plan_batches(jobs, data, max_epoch_jobs=8), cell_budget
    )
    big = next(j for j in jobs if j.spec.n_per_rank == max(x.spec.n_per_rank for x in jobs))
    machine = laptop(CORES)
    fingerprint = lambda: fingerprint_partition(  # noqa: E731
        data[big.job_id][0], p=P, machine=machine, ranks_per_node=P
    )
    m["tune.fingerprint_wall_us"] = 1e6 * per_call(fingerprint, cell_budget)
    fp = fingerprint()
    m["tune.cold_plan_wall_s"] = per_call(
        lambda: planner.plan_sort(fp, machine, seed=0), cell_budget, min_calls=1 if smoke else 3
    )
    m["tune.plan_dry_runs"] = float(state.cold_dry_runs)
    return {"metrics": m, "tally": tally, "log": log}
