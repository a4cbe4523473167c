"""The sort service: admission, batching, queries, chaos, determinism."""

import numpy as np
import pytest

import repro
from repro.mpi import run_spmd
from repro.serve import (
    AdmissionPolicy,
    JobSpec,
    MalformedJobError,
    QueueFullError,
    QuotaExceededError,
    ServiceError,
    SortService,
    make_chaos,
    make_workload,
    nearest_rank,
    oracle_all,
)
from repro.serve import service as service_module
from repro.serve.batch import demux_output
from repro.tune import MemoryPlanCache
from repro.tune.planner import dry_run_count

P = 4


def _spec(kind="sort", tenant="t0", dataset="d0", **kw):
    kw.setdefault("n_per_rank", 64 if kind == "sort" else 0)
    return JobSpec(kind=kind, tenant=tenant, dataset=dataset, **kw)


def _served(**kwargs):
    service = SortService(P, **kwargs)
    workload = make_workload(P, seed=0)
    service.replay(workload)
    return service, workload


class TestJobModel:
    def test_malformed_specs_rejected_with_type(self):
        with pytest.raises(MalformedJobError):
            JobSpec(kind="shuffle", tenant="t", dataset="d")
        with pytest.raises(MalformedJobError):
            _spec(kind="sort", n_per_rank=0)
        with pytest.raises(MalformedJobError):
            _spec(kind="percentile", pcts=())
        with pytest.raises(MalformedJobError):
            _spec(kind="percentile", pcts=(101.0,))
        with pytest.raises(MalformedJobError):
            _spec(kind="top_k", k=0)
        with pytest.raises(MalformedJobError):
            _spec(kind="range_query", lo=5.0, hi=1.0)

    def test_spec_roundtrip_rejects_unknown_fields(self):
        spec = _spec(kind="percentile", pcts=(50.0,))
        assert JobSpec.from_dict(spec.to_dict()) == spec
        with pytest.raises(MalformedJobError):
            JobSpec.from_dict({**spec.to_dict(), "shard": 3})


class TestAdmission:
    def test_queue_full_is_typed_and_recorded(self):
        service = SortService(P, policy=AdmissionPolicy(max_queue_depth=2))
        service.submit(_spec(dataset="a"))
        service.submit(_spec(dataset="b"))
        with pytest.raises(QueueFullError):
            service.submit(_spec(dataset="c"))
        # the rejection consumed a job id and left a REJECTED record
        assert service.jobs[2].state == "REJECTED"
        assert service.jobs[2].error == "queue_full"
        assert [j.error for j in service.jobs.values() if j.state == "REJECTED"] == [
            "queue_full"
        ]

    def test_tenant_quota_is_per_tenant(self):
        service = SortService(P, policy=AdmissionPolicy(max_per_tenant=1))
        service.submit(_spec(tenant="a", dataset="x"))
        with pytest.raises(QuotaExceededError):
            service.submit(_spec(tenant="a", dataset="y"))
        service.submit(_spec(tenant="b", dataset="x"))  # other tenant fine

    def test_rejected_ids_keep_sequence_deterministic(self):
        service = SortService(P, policy=AdmissionPolicy(max_per_tenant=1))
        service.submit(_spec(tenant="a", dataset="x"))
        with pytest.raises(QuotaExceededError):
            service.submit(_spec(tenant="a", dataset="y"))
        job = service.submit(_spec(tenant="b", dataset="x"))
        assert job.job_id == 2

    def test_query_for_unknown_dataset_fails_typed(self):
        service = SortService(P)
        service.submit(_spec(kind="top_k", dataset="never-sorted", k=3))
        service.drain()
        job = service.jobs[0]
        assert job.state == "FAILED"
        assert job.error == "unknown_dataset"


class TestBatching:
    def test_compatible_jobs_fuse_and_demux(self):
        service, _ = _served()
        fused = [
            e for e in service.events if e["kind"] == "sort" and e["fused"]
        ]
        assert fused, "workload must exercise shared epochs"
        assert max(len(e["jobs"]) for e in fused) >= 3

    def test_floats_never_fuse(self):
        service, workload = _served()
        float_ids = [
            i for i, s in enumerate(workload)
            if s.kind == "sort" and s.dist == "normal_f64"
        ]
        assert float_ids
        for e in service.events:
            if e["kind"] == "sort" and set(float_ids) & set(e["jobs"]):
                assert not e["fused"] and len(e["jobs"]) == 1

    def test_demux_roundtrip_is_exact(self, rng):
        parts = [
            [rng.integers(0, 2**20, size=37).astype(np.uint64) for _ in range(2)]
            for _ in range(3)
        ]
        packed = []
        for slot, job_parts in enumerate(parts):
            for arr in job_parts:
                packed.append((np.uint64(slot) << np.uint64(21)) | arr)
        output = np.sort(np.concatenate(packed))
        runs = demux_output(output, 3, 21, np.dtype(np.uint64))
        for slot, job_parts in enumerate(parts):
            want = np.sort(np.concatenate(job_parts))
            assert np.array_equal(runs[slot], want)

    def test_plan_batches_respects_epoch_cap(self):
        service = SortService(P, policy=AdmissionPolicy(max_epoch_jobs=2))
        for i in range(5):
            service.submit(_spec(dataset=f"d{i}", n_per_rank=64, seed=i + 1))
        service.drain()
        sort_epochs = [e for e in service.events if e["kind"] == "sort"]
        assert all(len(e["jobs"]) <= 2 for e in sort_epochs)
        assert sum(len(e["jobs"]) for e in sort_epochs) == 5


class TestResults:
    def test_every_job_matches_oracle(self):
        service, workload = _served()
        expected = oracle_all(workload, P)
        assert len(expected) >= 32
        kinds = {s.kind for s in workload}
        assert kinds == {"sort", "percentile", "top_k", "range_query"}
        assert len({s.tenant for s in workload}) >= 2
        for job_id, want in enumerate(expected):
            job = service.jobs[job_id]
            assert job.state == "DONE", (job_id, job.error)
            assert job.result.value == want, job_id

    def test_query_epochs_move_no_data(self):
        service, _ = _served()
        assert any(e["kind"] == "query" for e in service.events)

    def test_query_epoch_that_moves_data_raises(self, monkeypatch):
        real = service_module.query_program

        def moving(comm, queries):
            comm.alltoallv(np.zeros(comm.size, dtype=np.int64), [1] * comm.size)
            return real(comm, queries)

        service = SortService(P)
        service.submit(_spec(n_per_rank=32))
        service.drain()
        monkeypatch.setattr(service_module, "query_program", moving)
        service.submit(_spec(kind="percentile", pcts=(50.0,)))
        with pytest.raises(ServiceError, match="must never alltoallv"):
            service.drain()

    def test_queries_after_load_run_without_planning(self, tmp_path):
        service, _ = _served()
        service.save(tmp_path / "state")
        loaded = SortService.load(tmp_path / "state")
        assert loaded.datasets.keys() == service.datasets.keys()
        before = dry_run_count()
        loaded.submit(
            _spec(kind="percentile", tenant="acme", dataset="events-0",
                  pcts=(0.0, 50.0, 100.0))
        )
        loaded.drain()
        job = loaded.jobs[max(loaded.jobs)]
        assert job.state == "DONE"
        assert dry_run_count() == before  # index query: no sort, no planning
        src = service.jobs[
            max(
                j.job_id for j in service.jobs.values()
                if j.spec.kind == "sort" and j.spec.dataset == "events-0"
            )
        ]
        assert job.result.value[100.0] == src.result.value["max"]


class TestTelemetry:
    def test_registry_totals_are_the_sum_of_the_epochs_stats_snapshots(self):
        # the contract benchmarks/ledger's serveload.py and perf's serve
        # cell read: four families, each the sum over the epochs, on a
        # clean replay and on one that absorbs crashes
        workload = make_workload(P, seed=0)
        for chaos in (None, make_chaos(workload)):
            runtimes = []

            class Recording(SortService):
                def _runtime(self, **kwargs):
                    runtimes.append(super()._runtime(**kwargs))
                    return runtimes[-1]

            service = Recording(P, chaos=chaos)
            service.replay(workload)
            snaps = [rt.stats.snapshot() for rt in runtimes]
            assert len(snaps) == service.next_epoch
            assert any(rt.fault_stats.crashed for rt in runtimes) == (chaos is not None)
            registry = service.registry
            assert [fam.name for fam in registry.collect()] == [
                "repro_bytes_on_wire_total",
                "repro_collective_calls_total",
                "repro_messages_total",
                "repro_p2p_bytes_total",
            ]
            value = registry.value
            assert value("repro_bytes_on_wire_total") == sum(s.wire_bytes for s in snaps)
            assert value("repro_p2p_bytes_total") == sum(s.total_bytes_sent for s in snaps)
            assert value("repro_messages_total") == sum(
                s.total_msgs_sent + s.total_collective_calls for s in snaps
            )
            per_op: dict[str, int] = {}
            for snap in snaps:
                for op, (calls, _, _) in snap.collectives.items():
                    per_op[op] = per_op.get(op, 0) + calls
            calls = registry.get("repro_collective_calls_total").samples()
            assert {labels["op"]: c.value for labels, c in calls} == per_op
            assert value("repro_collective_calls_total") == sum(per_op.values())

    def test_stats_latency_percentiles_match_the_job_records(self):
        service, _ = _served()
        fingerprint = service.fingerprint()
        stats = service.stats()
        assert service.fingerprint() == fingerprint

        def nearest(values, pct):
            ordered = sorted(values)
            return ordered[nearest_rank(pct, len(ordered))]

        jobs = list(service.jobs.values())
        assert all(j.result is not None for j in jobs)
        for kind, is_sort in (("sort", True), ("query", False)):
            ttr = [j.result.time_to_result for j in jobs if (j.spec.kind == "sort") == is_sort]
            assert stats["time_to_result_s"][kind] == {
                "p50": nearest(ttr, 50), "p90": nearest(ttr, 90),
            }
        waits = [j.started_at - j.spec.arrival for j in jobs]
        assert stats["queue_wait_s"] == {"p50": nearest(waits, 50), "p90": nearest(waits, 90)}
        assert stats["queue_wait_s"]["p90"] > 0  # some job did queue
        # before any job completes there is no distribution to report
        assert SortService(P).stats()["queue_wait_s"] == {"p50": None, "p90": None}


class TestWarmPlans:
    def test_repeat_fingerprints_hit_plan_cache(self):
        service, _ = _served()
        assert service.stats()["warm_plan_hits"] >= 1

    def test_shared_cache_makes_second_run_dry_run_free(self):
        cache = MemoryPlanCache()
        first = SortService(P, plan_cache=cache)
        first.replay(make_workload(P, seed=0))
        before = dry_run_count()
        second = SortService(P, plan_cache=cache)
        second.replay(make_workload(P, seed=0))
        assert dry_run_count() == before  # every epoch warm: zero dry runs
        assert second.stats()["plan_dry_runs"] == 0


class TestDeterminism:
    def test_two_replays_bit_identical(self):
        a, _ = _served(trace=True)
        b, _ = _served(trace=True)
        assert [e["jobs"] for e in a.events] == [e["jobs"] for e in b.events]
        assert a.fingerprint() == b.fingerprint()

    def test_chaos_replays_bit_identical_and_match_clean_results(self):
        chaos = make_chaos(make_workload(P, seed=0))
        a, _ = _served(trace=True, chaos=chaos)
        b, _ = _served(trace=True, chaos=chaos)
        assert a.fingerprint() == b.fingerprint()
        clean, workload = _served()
        for job_id in range(len(workload)):
            assert a.jobs[job_id].result.value == clean.jobs[job_id].result.value

    def test_traced_chaos_replays_agree_on_the_revoke_spans(self):
        # Every survivor meets a crash in the same rendezvous and revokes;
        # which of them gets there first is a wall-clock race, so each
        # records its own span, and the replays must not tell them apart.
        chaos = make_chaos(make_workload(P, seed=0))
        runs = [_served(trace=True, chaos=chaos)[0] for _ in range(6)]
        revokes = [s for e in runs[0].events for s in e.get("spans", ()) if s[1] == "revoke"]
        assert len(revokes) >= 2 * (P - 1)  # two crashes, every survivor
        assert len({s.fingerprint() for s in runs}) == 1


class TestChaos:
    def test_jobs_survive_mid_epoch_crashes(self):
        workload = make_workload(P, seed=0)
        chaos = make_chaos(workload)
        n_crashes = sum(len(v) for v in chaos.crashes.values())
        assert n_crashes >= 2
        service = SortService(P, chaos=chaos)
        service.replay(workload)
        assert service.p == P  # logical width never changes
        for job_id in range(len(workload)):
            assert service.jobs[job_id].state == "DONE"
        metas = [e["meta"] for e in service.events if e["kind"] == "sort"]
        assert sum(len(m.get("crashed", ())) for m in metas) == n_crashes
        assert sum(m.get("spares_used", 0) for m in metas) >= n_crashes

    def test_chaos_results_equal_oracle(self):
        workload = make_workload(P, seed=0)
        service = SortService(P, chaos=make_chaos(workload))
        service.replay(workload)
        for job_id, want in enumerate(oracle_all(workload, P)):
            assert service.jobs[job_id].result.value == want, job_id


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        service, _ = _served()
        service.save(tmp_path / "svc")
        loaded = SortService.load(tmp_path / "svc")
        assert loaded.clock == service.clock
        assert loaded.next_epoch == service.next_epoch
        assert {j.job_id: j.state for j in loaded.jobs.values()} == {
            j.job_id: j.state for j in service.jobs.values()
        }
        for key, ds in service.datasets.items():
            other = loaded.datasets[key]
            assert other.index == ds.index
            for mine, theirs in zip(ds.parts, other.parts):
                assert np.array_equal(mine, theirs)

    def test_stats_survive_save_and_load(self, tmp_path):
        service, _ = _served()
        before = service.stats()
        assert before["warm_plan_hits"] >= 1 and before["plan_dry_runs"] > 0
        service.save(tmp_path / "svc")
        assert SortService.load(tmp_path / "svc").stats() == before

    def test_job_ids_continue_after_load(self, tmp_path):
        service, workload = _served()
        service.save(tmp_path / "svc")
        loaded = SortService.load(tmp_path / "svc")
        job = loaded.submit(_spec(kind="top_k", tenant="acme",
                                  dataset="events-0", k=2))
        assert job.job_id == len(workload)


class TestServeIndex:
    def test_nearest_rank_edges(self):
        assert nearest_rank(0.0, 10) == 0
        assert nearest_rank(100.0, 10) == 9  # the p100 truncation bug
        assert nearest_rank(50.0, 10) == 4
        assert nearest_rank(100.0, 1) == 0
        with pytest.raises(ValueError):
            nearest_rank(101.0, 10)
        with pytest.raises(ValueError):
            nearest_rank(50.0, 0)


class TestPercentileTopK:
    """The repro.percentile / repro.top_k public API (satellite of serve)."""

    def test_percentile_matches_numpy_nearest_rank(self, rng):
        locals_ = [rng.normal(size=101 + r) for r in range(3)]
        oracle = np.sort(np.concatenate(locals_))
        n = oracle.size

        def program(comm):
            return repro.percentile(comm, locals_[comm.rank], (0.0, 37.0, 100.0))

        for result in run_spmd(3, program):
            for pct, value in result.items():
                assert value == oracle[nearest_rank(pct, n)]

    def test_percentile_scalar_form(self):
        def program(comm):
            local = np.arange(comm.rank * 10, comm.rank * 10 + 10)
            return repro.percentile(comm, local, 100.0)

        assert run_spmd(3, program) == [29, 29, 29]

    def test_top_k_descending_with_duplicate_cutoff(self):
        def program(comm):
            local = np.array([5, 7, 7, comm.rank], dtype=np.int64)
            return repro.top_k(comm, local, 4)

        for result in run_spmd(3, program):
            assert result.tolist() == [7, 7, 7, 7]

    def test_top_k_larger_than_total_returns_everything(self):
        def program(comm):
            return repro.top_k(comm, np.array([comm.rank]), 99)

        for result in run_spmd(3, program):
            assert result.tolist() == [2, 1, 0]
