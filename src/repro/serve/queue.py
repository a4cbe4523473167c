"""Deterministic admission control and the ready queue.

Admission is synchronous and typed: :meth:`JobQueue.submit` either
returns a live :class:`~repro.serve.job.Job` or raises an
:class:`~repro.serve.job.AdmissionError` subclass naming the reason
(queue depth, tenant quota, malformed spec).  Rejected work never enters
the queue, so backpressure is visible to the tenant at submit time — the
"Robust Massively Parallel Sorting" lesson applied to the service tier:
an adversarial job mix degrades into typed rejections, not into unbounded
queue growth.

Scheduling order is a pure function of the job set: ready jobs sort by
``(-priority, arrival, job_id)`` — strict priority first, FIFO inside a
priority class, job id as the final total-order tiebreak.  Two replays of
the same arrival script therefore always dequeue identically, which is
what makes batch composition reproducible (asserted by
``tests/test_serve.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .job import (
    AdmissionError,
    Job,
    JobSpec,
    QueueFullError,
    QuotaExceededError,
)

__all__ = ["AdmissionPolicy", "JobQueue"]


@dataclass(frozen=True)
class AdmissionPolicy:
    """Service-side limits; all enforced at submit time.

    ``max_epoch_jobs`` caps how many jobs one epoch may fuse (batching
    compatibility can lower it further, never raise it).
    """

    max_queue_depth: int = 256
    max_per_tenant: int = 64
    max_epoch_jobs: int = 8

    def __post_init__(self) -> None:
        if self.max_queue_depth < 1 or self.max_per_tenant < 1:
            raise ValueError("queue depth and tenant quota must be >= 1")
        if self.max_epoch_jobs < 1:
            raise ValueError("max_epoch_jobs must be >= 1")


class JobQueue:
    """The pending/ready set with per-tenant accounting.

    Owns job-id allocation (dense, in submission order) so ids are a
    deterministic function of the arrival script.
    """

    def __init__(self, policy: AdmissionPolicy | None = None):
        self.policy = policy or AdmissionPolicy()
        self._queued: list[Job] = []
        self._next_id = 0

    # ------------------------------------------------------------- admission

    def submit(self, spec: JobSpec, *, now: float = 0.0) -> Job:
        """Admit ``spec`` or raise a typed :class:`AdmissionError`.

        ``JobSpec`` construction itself raises
        :class:`~repro.serve.job.MalformedJobError` for structural
        problems, so by the time a spec object exists only capacity
        checks remain.  Every submission — rejected ones included —
        consumes one job id, so ids are a pure function of the
        submission sequence; a rejection carries its (REJECTED) job on
        the exception's ``job`` attribute for the service's records.
        """
        job = Job(job_id=self._next_id, spec=spec, submitted_at=max(now, spec.arrival))
        self._next_id += 1
        error: AdmissionError | None = None
        if len(self._queued) >= self.policy.max_queue_depth:
            error = QueueFullError(
                f"queue is at max_queue_depth={self.policy.max_queue_depth}"
            )
        else:
            live = sum(1 for j in self._queued if j.spec.tenant == spec.tenant)
            if live >= self.policy.max_per_tenant:
                error = QuotaExceededError(
                    f"tenant {spec.tenant!r} already has {live} live jobs "
                    f"(max_per_tenant={self.policy.max_per_tenant})"
                )
        if error is not None:
            job.transition("REJECTED")
            job.error = error.reason
            error.job = job
            raise error
        self._queued.append(job)
        return job

    def allocate_from(self, next_id: int) -> None:
        """Resume id allocation at ``next_id`` (service restore path)."""
        self._next_id = max(self._next_id, int(next_id))

    def queued_jobs(self) -> tuple[Job, ...]:
        """The queued set, id-ordered (scheduling introspection)."""
        return tuple(sorted(self._queued, key=lambda j: j.job_id))

    # ------------------------------------------------------------ scheduling

    def depth(self) -> int:
        return len(self._queued)

    def next_arrival(self, now: float) -> float | None:
        """Earliest arrival strictly after ``now`` (None when drained)."""
        future = [j.spec.arrival for j in self._queued if j.spec.arrival > now]
        return min(future) if future else None

    def take_ready(self, now: float) -> list[Job]:
        """Remove and return every job with ``arrival <= now``.

        Returned in scheduling order: ``(-priority, arrival, job_id)``.
        """
        ready = [j for j in self._queued if j.spec.arrival <= now]
        if not ready:
            return []
        taken = set(j.job_id for j in ready)
        self._queued = [j for j in self._queued if j.job_id not in taken]
        ready.sort(key=lambda j: (-j.spec.priority, j.spec.arrival, j.job_id))
        for job in ready:
            job.transition("READY")
        return ready

    def requeue(self, job: Job) -> None:
        """Put a deferred job back (a query waiting for its dataset)."""
        job.transition("PENDING")
        self._queued.append(job)
        # keep the backing list id-ordered so iteration order never
        # depends on defer/requeue history
        self._queued.sort(key=lambda j: j.job_id)

    def __len__(self) -> int:
        return len(self._queued)
