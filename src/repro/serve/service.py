"""``SortService`` — the long-running multi-tenant sort service.

The service is the *driver* side of the system: it owns the job queue,
the dataset registry (the persistent query tier), the plan cache (the
warm-plan tier) and a **service clock** in virtual seconds.  Rank-side
work happens in *epochs*: each scheduling round takes every job whose
arrival has been reached, batches compatible sort jobs
(:mod:`repro.serve.batch`), groups queries into query epochs
(:mod:`repro.serve.index`), and runs each epoch on a fresh virtual-clock
:class:`~repro.mpi.Runtime` of the service's ``p`` ranks.  The epoch's
modelled makespan advances the service clock, so per-job
``time_to_result`` (completion − arrival) is an end-to-end virtual
latency including queueing delay.

Everything is deterministic: scheduling order, batch composition, epoch
programs, and — through the lossless-recovery substrate — even epochs
with injected rank crashes replay bit-identically
(:meth:`SortService.fingerprint` is the replay oracle).

Chaos: a :class:`ServiceChaos` schedule marks sort epochs for fault
injection.  Marked epochs run the resilient path (buddy checkpoints +
warm spares), so jobs survive mid-epoch crashes with ``p`` — and with it
every cached plan — unchanged.

Counts live in the records: job states in ``jobs``, epochs, batches and
crashes in ``events``, warm-plan hits and planner dry runs in two int
fields.  ``registry`` sums the epochs' runtime traffic into four
counters (:func:`repro.metrics.collect_runtime`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from ..core.resilient import ResilientSortResult
from ..data import make_partition
from ..faults import CrashEvent, FaultPlan, FaultSpec
from ..machine import MachineSpec
from ..metrics import MetricsRegistry, collect_runtime
from ..mpi import Runtime
from ..tune import planner
from ..tune.cache import PlanCache
from .batch import Batch, demux_output, plan_batches
from .epoch import sort_epoch_program
from .index import Dataset, SortedIndex, nearest_rank, query_program
from .job import AdmissionError, Job, JobResult, JobSpec, UnknownDatasetError
from .queue import AdmissionPolicy, JobQueue

__all__ = ["ServiceChaos", "ServiceError", "SortService", "STATE_SCHEMA"]

#: on-disk state layout version (see :meth:`SortService.save`)
STATE_SCHEMA = 1


class ServiceError(RuntimeError):
    """The service broke an internal invariant (a bug, not a job error)."""


@dataclass(frozen=True)
class ServiceChaos:
    """Deterministic fault schedule for a service run.

    ``crashes`` maps a **sort-epoch ordinal** (0 = the first sort epoch
    executed) to the crash events injected into that epoch, each a
    ``(rank, at_op)`` pair.  Marked epochs run resiliently with
    ``spares`` warm spare ranks; unmarked epochs (and all query epochs)
    run on pristine runtimes and stay bit-identical to a chaos-free
    service.
    """

    crashes: Mapping[int, tuple[tuple[int, int], ...]] = field(default_factory=dict)
    spares: int = 2
    seed: int = 1

    def plan_for(self, ordinal: int, total_ranks: int) -> FaultPlan | None:
        events = self.crashes.get(ordinal)
        if not events:
            return None
        spec = FaultSpec(crashes=tuple(CrashEvent(rank=r, at_op=op) for r, op in events))
        return FaultPlan(spec, seed=self.seed + ordinal, size=total_ranks)


class SortService:
    """A sort-as-a-service instance over the virtual-clock runtime.

    Parameters
    ----------
    p:
        Ranks of the service's SPMD cluster (fixed for its lifetime).
    machine, ranks_per_node:
        The priced machine (defaults to the auto-sized abstract cluster).
    policy:
        Admission limits (:class:`~repro.serve.queue.AdmissionPolicy`).
    plan_cache:
        The warm-plan tier.  Defaults to an **in-memory**
        :class:`~repro.tune.cache.MemoryPlanCache`; pass a disk-backed
        :class:`~repro.tune.cache.PlanCache` to persist plans across
        service restarts.
    chaos:
        Optional :class:`ServiceChaos` fault schedule.
    trace:
        Record every epoch's spans (service clock timeline); the span
        tree is part of :meth:`fingerprint`.
    """

    def __init__(
        self,
        p: int,
        *,
        machine: MachineSpec | None = None,
        ranks_per_node: int | None = None,
        policy: AdmissionPolicy | None = None,
        plan_cache: PlanCache | None = None,
        chaos: ServiceChaos | None = None,
        trace: bool = False,
        seed: int = 0,
    ):
        if p < 1:
            raise ValueError("p must be >= 1")
        self.p = p
        self.machine = machine
        self.ranks_per_node = ranks_per_node
        self.chaos = chaos
        self.trace = trace
        self.seed = seed
        from ..tune.cache import MemoryPlanCache

        self.plan_cache = plan_cache if plan_cache is not None else MemoryPlanCache()
        #: the four runtime-traffic counters, summed over every epoch
        self.registry = MetricsRegistry()
        self._queue = JobQueue(policy)
        self.jobs: dict[int, Job] = {}
        self.datasets: dict[tuple[str, str], Dataset] = {}
        self.clock = 0.0
        self.next_epoch = 0
        self.sort_epochs = 0
        #: sort epochs served from the plan cache, and the planner dry runs
        #: the others made
        self.warm_plan_hits = 0
        self.plan_dry_runs = 0
        #: per-epoch service records: batch composition, timings, spans
        self.events: list[dict[str, Any]] = []

    # ------------------------------------------------------------- admission

    def submit(self, spec: JobSpec) -> Job:
        """Admit one job (or raise a typed rejection, recorded either way).

        The job's ``arrival`` may lie in the future of the service clock;
        it becomes schedulable once the clock reaches it.
        """
        try:
            job = self._queue.submit(spec, now=self.clock)
        except AdmissionError as exc:
            rejected = getattr(exc, "job", None)
            if rejected is not None:
                self.jobs[rejected.job_id] = rejected
            raise
        self.jobs[job.job_id] = job
        return job

    def replay(self, specs: Iterable[JobSpec]) -> dict[int, JobResult]:
        """Scripted mode: submit a whole arrival script, then drain.

        Typed rejections are recorded (REJECTED job records) and skipped;
        returns ``{job_id: result}`` for completed jobs.
        """
        for spec in specs:
            try:
                self.submit(spec)
            except AdmissionError:
                continue
        self.drain()
        return self.results()

    # ------------------------------------------------------------ scheduling

    def drain(self) -> None:
        """Run epochs until no queued job remains."""
        while self.step():
            pass

    def step(self) -> bool:
        """One scheduling round; returns False when the queue is drained."""
        ready = self._queue.take_ready(self.clock)
        if not ready:
            nxt = self._queue.next_arrival(self.clock)
            if nxt is None:
                return False
            self.clock = nxt
            return True

        sort_jobs: list[Job] = []
        query_jobs: list[Job] = []
        deferred: list[Job] = []
        upcoming = {
            (j.spec.tenant, j.spec.dataset)
            for j in list(ready) + list(self._queue.queued_jobs())
            if j.spec.kind == "sort"
        }
        for job in ready:
            if not job.spec.is_query:
                sort_jobs.append(job)
                continue
            key = (job.spec.tenant, job.spec.dataset)
            if key in self.datasets:
                query_jobs.append(job)
            elif key in upcoming:
                deferred.append(job)
            else:
                self._fail(job, UnknownDatasetError.reason)

        ran = False
        max_jobs = self._queue.policy.max_epoch_jobs
        for start in range(0, len(query_jobs), max_jobs):
            self._run_query_epoch(query_jobs[start : start + max_jobs])
            ran = True
        if sort_jobs:
            data = {
                j.job_id: [
                    make_partition(
                        j.spec.dist, j.spec.n_per_rank, rank=r, seed=j.spec.seed
                    )
                    for r in range(self.p)
                ]
                for j in sort_jobs
            }
            for batch in plan_batches(sort_jobs, data, max_epoch_jobs=max_jobs):
                self._run_sort_epoch(batch)
                ran = True
        for job in deferred:
            self._queue.requeue(job)
        if not ran and deferred:
            # only deferred queries were ready: their sort dependency has
            # a future arrival, so jump the clock to it rather than spin
            nxt = self._queue.next_arrival(self.clock)
            if nxt is None:  # pragma: no cover - upcoming guarantees one
                for job in self._queue.take_ready(self.clock):
                    self._fail(job, UnknownDatasetError.reason)
                return bool(len(self._queue))
            self.clock = nxt
        return True

    def _fail(self, job: Job, reason: str) -> None:
        job.transition("FAILED")
        job.error = reason
        job.done_at = self.clock

    # ---------------------------------------------------------------- epochs

    def _runtime(self, *, faults: FaultPlan | None = None, spares: int = 0) -> Runtime:
        return Runtime(
            self.p,
            machine=self.machine,
            ranks_per_node=self.ranks_per_node,
            trace=self.trace,
            faults=faults,
            spares=spares,
        )

    def _finish_epoch(self, rt: Runtime, record: dict[str, Any]) -> None:
        """Advance the service clock, fold traffic/spans, file the record."""
        t0 = self.clock
        self.clock = t0 + rt.elapsed()
        record.update(epoch=self.next_epoch, t0=t0, t1=self.clock)
        if self.trace and rt.trace is not None:
            record["spans"] = [
                (s.rank, s.name, s.cat, t0 + s.t0, t0 + s.t1)
                for s in rt.trace.spans()
            ]
        self.events.append(record)
        collect_runtime(self.registry, rt)
        self.next_epoch += 1

    def _complete(self, job: Job, value: Any, epoch: int, batched_with: int) -> None:
        job.transition("DONE")
        job.done_at = self.clock
        job.epoch = epoch
        job.result = JobResult(
            job_id=job.job_id,
            kind=job.spec.kind,
            value=value,
            time_to_result=self.clock - job.spec.arrival,
            epoch=epoch,
            batched_with=batched_with,
        )

    def _run_query_epoch(self, jobs: Sequence[Job]) -> None:
        queries = []
        for job in jobs:
            job.transition("RUNNING")
            job.started_at = self.clock
            ds = self.datasets[(job.spec.tenant, job.spec.dataset)]
            q: dict[str, Any] = {
                "job_id": job.job_id,
                "kind": job.spec.kind,
                "parts": ds.parts,
                "index": ds.index,
            }
            if job.spec.kind == "percentile":
                q["pcts"] = job.spec.pcts
            elif job.spec.kind == "top_k":
                q["k"] = job.spec.k
            else:
                q["lo"], q["hi"] = job.spec.lo, job.spec.hi
            queries.append(q)
        rt = self._runtime()
        results = rt.run(query_program, args=(queries,))
        answers = results[0]
        if {"alltoallv", "node_alltoallv"} & set(rt.stats.snapshot().collectives):
            raise ServiceError(
                "query epoch moved data: the index tier must never alltoallv"
            )
        epoch = self.next_epoch
        self._finish_epoch(
            rt,
            {
                "kind": "query",
                "jobs": [j.job_id for j in jobs],
                "datasets": sorted(
                    {f"{j.spec.tenant}/{j.spec.dataset}" for j in jobs}
                ),
            },
        )
        for job in jobs:
            self._complete(job, answers[job.job_id], epoch, len(jobs))

    def _run_sort_epoch(self, batch: Batch) -> None:
        for job in batch.jobs:
            job.transition("RUNNING")
            job.started_at = self.clock
        ordinal = self.sort_epochs
        self.sort_epochs += 1
        spares = self.chaos.spares if self.chaos is not None else 0
        faults = (
            self.chaos.plan_for(ordinal, self.p + spares)
            if self.chaos is not None
            else None
        )
        resilient = faults is not None
        rt = self._runtime(faults=faults, spares=spares if resilient else 0)
        dry_before = planner.dry_run_count()
        results = rt.run(
            sort_epoch_program,
            args=(batch, self.plan_cache, resilient, self.seed),
        )
        self.plan_dry_runs += planner.dry_run_count() - dry_before

        dtype = batch.data[0][0].dtype
        if resilient:
            outputs, meta = self._collect_resilient(results, batch, dtype, rt)
        else:
            outputs = [None] * self.p
            for logical, runs, rank_meta in results[: self.p]:
                outputs[logical] = runs
            meta = results[0][2]
            if meta.get("cache_hit"):
                self.warm_plan_hits += 1

        epoch = self.next_epoch
        self._finish_epoch(
            rt,
            {
                "kind": "sort",
                "jobs": list(batch.job_ids),
                "fused": batch.fused,
                "key_bits": batch.key_bits,
                "meta": meta,
            },
        )
        for slot, job in enumerate(batch.jobs):
            parts = [np.asarray(outputs[r][slot]) for r in range(self.p)]
            ds = Dataset(
                tenant=job.spec.tenant,
                name=job.spec.dataset,
                parts=parts,
                index=SortedIndex.build(parts),
                created_epoch=epoch,
            )
            self.datasets[ds.key] = ds  # atomically replaces any stale index
            job.notes.update(meta)
            self._complete(job, ds.summary(), epoch, len(batch.jobs))

    def _collect_resilient(
        self, results: list[Any], batch: Batch, dtype: np.dtype, rt: Runtime
    ) -> tuple[list[list[np.ndarray]], dict[str, Any]]:
        """Reassemble a crashed epoch's outputs by logical rank."""
        live = [r for r in results if isinstance(r, ResilientSortResult)]
        if len(live) != self.p or any(r.lost for r in live):
            raise ServiceError(
                f"lossless recovery failed: {len(live)}/{self.p} logical ranks "
                f"returned, lost={sorted(set().union(*(r.lost for r in live)) if live else ())}"
            )
        outputs: list[list[np.ndarray] | None] = [None] * self.p
        for res in live:
            runs = (
                demux_output(res.output, len(batch.jobs), batch.key_bits, dtype)
                if batch.fused
                else [np.asarray(res.output)]
            )
            outputs[int(res.comm.rank)] = runs
        first = live[0]
        meta = {
            "resilient": True,
            "attempts": first.attempts,
            "spares_used": first.spares_used,
            "crashed": sorted(rt.fault_stats.crashed),
        }
        return outputs, meta  # type: ignore[return-value]

    # ------------------------------------------------------------- reporting

    def results(self) -> dict[int, JobResult]:
        return {
            j.job_id: j.result
            for j in sorted(self.jobs.values(), key=lambda j: j.job_id)
            if j.result is not None
        }

    def stats(self) -> dict[str, Any]:
        """A JSON-able service summary (the ``stats`` CLI payload).  The
        latency p50/p90 (nearest rank, virtual seconds, null before the
        first completion) come from the job records, so they survive
        :meth:`save`/:meth:`load`."""
        states: dict[str, int] = {}
        for job in self.jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
        completed = [j for j in self.jobs.values() if j.result is not None]

        def p50_p90(values: list[float]) -> dict[str, float | None]:
            ordered = sorted(values)
            return {
                f"p{pct}": ordered[nearest_rank(pct, len(ordered))] if ordered else None
                for pct in (50, 90)
            }

        return {
            "clock_s": self.clock,
            "p": self.p,
            "epochs": self.next_epoch,
            "sort_epochs": self.sort_epochs,
            "jobs": dict(sorted(states.items())),
            "queue_depth": self._queue.depth(),
            "datasets": [f"{t}/{d}" for t, d in sorted(self.datasets)],
            "jobs_per_vsecond": (
                len(completed) / self.clock if self.clock > 0 else 0.0
            ),
            # floats, as saved states and perf snapshots have always read them
            "warm_plan_hits": float(self.warm_plan_hits),
            "plan_dry_runs": float(self.plan_dry_runs),
            "time_to_result_s": {
                kind: p50_p90(
                    [j.result.time_to_result for j in completed
                     if j.spec.is_query == (kind == "query")]
                )
                for kind in ("sort", "query")
            },
            "queue_wait_s": p50_p90(
                [j.started_at - j.spec.arrival for j in completed]
            ),
        }

    def fingerprint(self) -> str:
        """Canonical digest of batch composition + results + span tree.

        Two replays of the same arrival script — crashes included — must
        produce identical fingerprints; ``tests/test_serve.py`` and the
        CLI ``--determinism`` flag assert exactly this.
        """
        doc = {
            "events": self.events,
            "results": {jid: r.to_dict() for jid, r in self.results().items()},
            "jobs": {
                j.job_id: (j.state, j.error) for j in self.jobs.values()
            },
        }
        blob = json.dumps(doc, sort_keys=True, default=str).encode()
        return hashlib.sha256(blob).hexdigest()

    # ----------------------------------------------------------- persistence

    def save(self, directory: str | Path) -> Path:
        """Persist jobs, datasets, and the index tier under ``directory``.

        Written as ``state.json`` (schema-versioned job/dataset/clock
        state) plus ``datasets.npz`` (the sorted partitions), so a later
        process can :meth:`load` the service and serve queries against
        existing indexes without re-sorting anything.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        ds_list = []
        arrays: dict[str, np.ndarray] = {}
        for i, (key, ds) in enumerate(sorted(self.datasets.items())):
            ds_list.append(
                {
                    "tenant": ds.tenant,
                    "name": ds.name,
                    "created_epoch": ds.created_epoch,
                    "dtype": str(ds.dtype),
                    "index": ds.index.to_dict(),
                    "slot": i,
                }
            )
            for r, part in enumerate(ds.parts):
                arrays[f"{i}:{r}"] = part
        state = {
            "schema": STATE_SCHEMA,
            "p": self.p,
            "clock": self.clock,
            "seed": self.seed,
            "next_epoch": self.next_epoch,
            "sort_epochs": self.sort_epochs,
            "next_job_id": self._queue._next_id,
            "jobs": [j.to_dict() for j in sorted(self.jobs.values(), key=lambda j: j.job_id)],
            "datasets": ds_list,
            "stats": self.stats(),
        }
        np.savez(directory / "datasets.npz", **arrays)
        tmp = directory / "state.json.tmp"
        tmp.write_text(json.dumps(state, indent=2, sort_keys=True, default=str))
        tmp.replace(directory / "state.json")
        return directory

    @classmethod
    def load(cls, directory: str | Path, **kwargs: Any) -> "SortService":
        """Rebuild a service from :meth:`save` output (datasets warm)."""
        directory = Path(directory)
        state = json.loads((directory / "state.json").read_text())
        if state.get("schema") != STATE_SCHEMA:
            raise ServiceError(
                f"state schema {state.get('schema')!r} unsupported "
                f"(this build reads {STATE_SCHEMA})"
            )
        service = cls(int(state["p"]), seed=int(state.get("seed", 0)), **kwargs)
        service.clock = float(state["clock"])
        service.next_epoch = int(state["next_epoch"])
        service.sort_epochs = int(state["sort_epochs"])
        service._queue.allocate_from(int(state["next_job_id"]))
        service.warm_plan_hits = int(state["stats"]["warm_plan_hits"])
        service.plan_dry_runs = int(state["stats"]["plan_dry_runs"])
        for raw in state["jobs"]:
            job = Job.from_dict(raw)
            service.jobs[job.job_id] = job
        with np.load(directory / "datasets.npz") as npz:
            for raw in state["datasets"]:
                slot = raw["slot"]
                index = SortedIndex.from_dict(raw["index"])
                parts = [npz[f"{slot}:{r}"] for r in range(int(state["p"]))]
                ds = Dataset(
                    tenant=raw["tenant"],
                    name=raw["name"],
                    parts=parts,
                    index=index,
                    created_epoch=int(raw["created_epoch"]),
                )
                service.datasets[ds.key] = ds
        return service
