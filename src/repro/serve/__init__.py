"""``repro.serve`` — sort-as-a-service on the virtual-clock runtime.

The library's algorithms become a long-running multi-tenant *service*:

* :mod:`~repro.serve.job` / :mod:`~repro.serve.queue` — the job model
  (sort / percentile / top_k / range_query), deterministic admission
  control with typed rejections, priority + FIFO scheduling;
* :mod:`~repro.serve.batch` — shared-epoch batching: compatible small
  sorts fuse into **one** SPMD sort via concatenate-with-provenance
  packing, amortizing splitter determination and the single ALLTOALLV;
* :mod:`~repro.serve.epoch` — the rank-side epoch programs, riding
  :func:`repro.autosort` (warm-plan tier: repeat fingerprints skip
  planning entirely) or the resilient paper-default path under chaos;
* :mod:`~repro.serve.index` — the persistent query tier: per-rank
  splitter tables + global offsets answer rank/percentile/range queries
  with **zero data movement**;
* :mod:`~repro.serve.service` — :class:`SortService`: the scheduler,
  the virtual service clock, dataset registry, chaos, and
  save/load persistence;
* :mod:`~repro.serve.workload` — scripted workloads + host-side oracles
  (the replay/soak driver).

CLI: ``python -m repro.serve replay|submit|status|stats``.
"""

from .batch import Batch, plan_batches, size_class
from .index import Dataset, SortedIndex, nearest_rank
from .job import (
    JOB_KINDS,
    JOB_STATES,
    AdmissionError,
    Job,
    JobResult,
    JobSpec,
    MalformedJobError,
    QueueFullError,
    QuotaExceededError,
    UnknownDatasetError,
)
from .queue import AdmissionPolicy, JobQueue
from .service import ServiceChaos, ServiceError, SortService
from .workload import make_chaos, make_workload, oracle, oracle_all

__all__ = [
    "JOB_KINDS",
    "JOB_STATES",
    "AdmissionError",
    "AdmissionPolicy",
    "Batch",
    "Dataset",
    "Job",
    "JobQueue",
    "JobResult",
    "JobSpec",
    "MalformedJobError",
    "QueueFullError",
    "QuotaExceededError",
    "ServiceChaos",
    "ServiceError",
    "SortService",
    "SortedIndex",
    "UnknownDatasetError",
    "make_chaos",
    "make_workload",
    "nearest_rank",
    "oracle",
    "oracle_all",
    "plan_batches",
    "size_class",
]
