"""Auto-tuning subsystem: fingerprints, planner, cache, feedback, autosort."""

import json
from unittest import mock

import numpy as np
import pytest

from repro.algorithms import ALGORITHMS
from repro.bench.harness import run_sort_trial
from repro.core import SortConfig, SplitterConfig, autosort, histogram_sort
from repro.machine import abstract_cluster, supermuc_phase2
from repro.mpi import run_spmd
from repro.tune import (
    PlanCache,
    SortPlan,
    WorkloadFingerprint,
    dry_run_count,
    enumerate_candidates,
    fingerprint_collective,
    fingerprint_partition,
    model_score,
    plan_sort,
    record_feedback,
)
from repro.tune.cache import CacheEntry
from repro.tune.cli import main as tune_main


@pytest.fixture(scope="module")
def machine():
    return abstract_cluster(2, cores_per_node=8)


@pytest.fixture(scope="module")
def fp(machine):
    rng = np.random.default_rng(7)
    local = rng.integers(0, 1 << 32, 4096, dtype=np.uint64)
    return fingerprint_partition(local, p=8, machine=machine, ranks_per_node=8)


def _plan(fp, machine, **kw):
    kw.setdefault("seed", 0)
    return plan_sort(fp, machine, **kw)


# ---------------------------------------------------------------- fingerprint


class TestFingerprint:
    def test_deterministic(self, machine):
        rng = np.random.default_rng(3)
        local = rng.integers(0, 1 << 20, 5000, dtype=np.uint64)
        a = fingerprint_partition(local, p=4, machine=machine)
        b = fingerprint_partition(local.copy(), p=4, machine=machine)
        assert a == b
        assert a.bucket_key() == b.bucket_key()

    def test_shape_fields(self, machine):
        local = np.arange(1000, dtype=np.uint64)
        fp = fingerprint_partition(local, p=4, machine=machine, ranks_per_node=2)
        assert fp.n_total == 4000
        assert fp.p == 4 and fp.ranks_per_node == 2
        assert fp.itemsize == 8 and fp.dtype_kind == "u"
        assert fp.n_per_rank == 1000

    def test_sorted_input_detected(self, machine):
        fp = fingerprint_partition(np.arange(4096, dtype=np.uint64), p=2, machine=machine)
        assert fp.sortedness == 1.0
        assert "ord=presorted" in fp.bucket_key()

    def test_duplicates_detected(self, machine):
        local = np.zeros(4096, dtype=np.uint64)
        fp = fingerprint_partition(local, p=2, machine=machine)
        assert fp.dup_ratio > 0.9
        assert "dup=heavy" in fp.bucket_key()

    def test_skew_detected(self, machine):
        rng = np.random.default_rng(0)
        skewed = rng.exponential(1.0, 8192)
        fp = fingerprint_partition(skewed, p=2, machine=machine)
        assert fp.skew > 0.0 and fp.dtype_kind == "f"

    def test_key_bits_track_value_range(self, machine):
        narrow = fingerprint_partition(
            np.arange(256, dtype=np.uint64), p=2, machine=machine
        )
        wide = fingerprint_partition(
            np.arange(256, dtype=np.uint64) << 40, p=2, machine=machine
        )
        assert narrow.key_bits < wide.key_bits

    def test_bucket_key_includes_machine(self, machine):
        local = np.arange(100, dtype=np.uint64)
        a = fingerprint_partition(local, p=2, machine=machine)
        b = fingerprint_partition(local, p=2, machine=supermuc_phase2(nodes=2))
        assert a.bucket_key() != b.bucket_key()

    def test_near_identical_workloads_share_bucket(self, machine):
        rng = np.random.default_rng(1)
        a = fingerprint_partition(
            rng.integers(0, 1 << 32, 4000, dtype=np.uint64), p=4, machine=machine
        )
        b = fingerprint_partition(
            rng.integers(0, 1 << 32, 4100, dtype=np.uint64), p=4, machine=machine
        )
        assert a.bucket_key() == b.bucket_key()

    def test_serde_roundtrip(self, fp):
        assert WorkloadFingerprint.from_dict(fp.to_dict()) == fp

    def test_serde_rejects_unknown(self, fp):
        data = fp.to_dict()
        data["bogus"] = 1
        with pytest.raises(ValueError, match="bogus"):
            WorkloadFingerprint.from_dict(data)

    def test_collective_agrees_across_ranks(self, machine):
        def program(comm):
            rng = np.random.default_rng(10 + comm.rank)
            local = rng.integers(0, 1 << 32, 1000 + comm.rank, dtype=np.uint64)
            return fingerprint_collective(comm, local)

        fps = run_spmd(4, program, machine=machine, ranks_per_node=4)
        assert all(f == fps[0] for f in fps)
        assert fps[0].n_total == sum(1000 + r for r in range(4))
        assert fps[0].machine == machine.signature()


# -------------------------------------------------------------------- planner


class TestPlanner:
    def test_paper_default_enumerated_first(self, fp):
        cands = enumerate_candidates(fp)
        assert cands[0].label == "dash/paper-default"
        assert cands[0].config == SortConfig()

    def test_sample_sort_gated_on_eps(self, fp):
        strict = {c.algo for c in enumerate_candidates(fp, eps=0.0)}
        loose = {c.algo for c in enumerate_candidates(fp, eps=0.2)}
        assert "sample_sort" not in strict
        assert "sample_sort" in loose

    def test_model_scores_positive(self, fp, machine):
        for cand in enumerate_candidates(fp, eps=0.2):
            assert model_score(cand, fp, machine) > 0

    @pytest.mark.parametrize("p", [4, 8, 16])
    def test_prior_rounds_bound_executed_rounds(self, machine, p):
        # dense 16-bit keys: the key width, not log2 N, is the binding term
        rng = np.random.default_rng(p)
        parts = [rng.integers(0, 1 << 16, 4096).astype(np.uint64) for _ in range(p)]
        fp = fingerprint_partition(parts[0], p=p, machine=machine, ranks_per_node=8)
        prior, executed = {}, {}
        for schedule in ("midpoint", "shared"):
            cfg = SortConfig(splitter=SplitterConfig(probe_schedule=schedule))
            prior[schedule] = ALGORITHMS["dash"].prior_rounds(fp, cfg)

            def prog(comm):
                return histogram_sort(comm, parts[comm.rank], config=cfg).rounds

            executed[schedule] = run_spmd(p, prog, machine=machine, ranks_per_node=8)[0]
            assert executed[schedule] <= prior[schedule]
        assert prior["midpoint"] == fp.key_bits == 16
        # round 1 of the shared schedule resolves floor(log2 p) bits
        assert prior["shared"] == 16 - int(np.log2(p)) + 1

    def test_plan_deterministic_exact(self, fp, machine):
        a = _plan(fp, machine)
        b = _plan(fp, machine)
        assert a == b  # field-for-field, provenance included

    def test_seed_changes_plan_id(self, fp, machine):
        a = _plan(fp, machine, dry_runs=False, seed=0)
        b = _plan(fp, machine, dry_runs=False, seed=1)
        assert a.plan_id != b.plan_id

    def test_no_dry_runs_mode(self, fp, machine):
        before = dry_run_count()
        plan = _plan(fp, machine, dry_runs=False)
        assert dry_run_count() == before
        assert all(c["dry_s"] is None for c in plan.provenance["candidates"])

    def test_dry_runs_cover_topk_and_control(self, fp, machine):
        before = dry_run_count()
        plan = _plan(fp, machine, top_k=2)
        measured = [c for c in plan.provenance["candidates"] if c["dry_s"] is not None]
        assert dry_run_count() - before == len(measured)
        assert 2 <= len(measured) <= 3
        # the paper default is always measured as the control
        assert any(c["label"] == "dash/paper-default" for c in measured)

    def test_machine_mismatch_rejected(self, fp):
        other = abstract_cluster(4, cores_per_node=4)
        with pytest.raises(ValueError, match="different machine"):
            plan_sort(fp, other)

    def test_plan_serde_roundtrip(self, fp, machine):
        plan = _plan(fp, machine, dry_runs=False)
        assert SortPlan.from_dict(plan.to_dict()) == plan

    def test_plan_serde_rejects_unknown(self, fp, machine):
        data = _plan(fp, machine, dry_runs=False).to_dict()
        data["surprise"] = True
        with pytest.raises(ValueError, match="surprise"):
            SortPlan.from_dict(data)

    def test_provenance_records_versions(self, fp, machine):
        prov = _plan(fp, machine, dry_runs=False).provenance
        assert prov["planner_version"] >= 1 and prov["model_version"] >= 1
        assert prov["fingerprint"] == fp.to_dict()


# ---------------------------------------------------------------------- cache


class TestPlanCache:
    def _plan(self, fp, machine):
        return plan_sort(fp, machine, dry_runs=False, seed=0)

    def test_put_get_roundtrip(self, fp, machine, tmp_path):
        cache = PlanCache(tmp_path / "c.json")
        plan = self._plan(fp, machine)
        cache.put(plan.key, plan)
        assert cache.get(plan.key) == plan

    def test_persists_across_instances(self, fp, machine, tmp_path):
        path = tmp_path / "c.json"
        plan = self._plan(fp, machine)
        PlanCache(path).put(plan.key, plan)
        assert PlanCache(path).get(plan.key) == plan

    def test_miss_returns_none(self, tmp_path):
        assert PlanCache(tmp_path / "c.json").get("nope") is None

    def test_corrupt_file_degrades_to_empty(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        assert len(PlanCache(path)) == 0

    def test_wrong_schema_ignored(self, fp, machine, tmp_path):
        path = tmp_path / "c.json"
        plan = self._plan(fp, machine)
        PlanCache(path).put(plan.key, plan)
        data = json.loads(path.read_text())
        data["schema"] = 999
        path.write_text(json.dumps(data))
        assert len(PlanCache(path)) == 0

    def test_stale_model_version_invalidated(self, fp, machine, tmp_path):
        path = tmp_path / "c.json"
        cache = PlanCache(path)
        plan = self._plan(fp, machine)
        cache.put(plan.key, plan)
        data = json.loads(path.read_text())
        entry = data["entries"][plan.key]
        entry["model_version"] = entry["model_version"] + 1
        path.write_text(json.dumps(data))
        stale = PlanCache(path)
        assert stale.get(plan.key) is None  # treated as a miss
        assert plan.key not in stale  # and evicted

    def test_entry_with_a_removed_knob_is_stale_not_malformed(self, fp, machine, tmp_path):
        # a plan persisted when `probe_schedule` was still another knob: the
        # MODEL_VERSION bump retires it before its config is ever parsed
        path = tmp_path / "c.json"
        plan = self._plan(fp, machine)
        PlanCache(path).put(plan.key, plan)
        data = json.loads(path.read_text())
        entry = data["entries"][plan.key]
        entry["model_version"] = 1
        splitter = entry["plan"]["config"]["splitter"]
        del splitter["probe_schedule"]
        splitter["retired_knob"] = True
        with pytest.raises(ValueError, match="retired_knob"):
            CacheEntry.from_dict(entry)
        path.write_text(json.dumps(data))
        with mock.patch.object(CacheEntry, "from_dict", side_effect=AssertionError):
            stale = PlanCache(path)
        assert stale.get(plan.key) is None and plan.key not in stale
        stale.put(plan.key, plan)  # and re-planning overwrites it
        assert PlanCache(path).get(plan.key) == plan

    def test_entry_carrying_the_removed_trace_field_is_dropped_at_load(
        self, fp, machine, tmp_path
    ):
        # `SortConfig.trace` was removed without a version bump (it never
        # changed a plan): an entry persisted with it fails from_dict with a
        # ValueError, which _load drops instead of raising
        path = tmp_path / "c.json"
        plan = self._plan(fp, machine)
        cache = PlanCache(path)
        cache.put(plan.key, plan)
        cache.put("healthy", plan)
        data = json.loads(path.read_text())
        data["entries"][plan.key]["plan"]["config"]["trace"] = False
        with pytest.raises(ValueError, match="trace"):
            CacheEntry.from_dict(data["entries"][plan.key])
        path.write_text(json.dumps(data))
        loaded = PlanCache(path)
        assert plan.key not in loaded
        assert loaded.get("healthy") == plan  # one bad entry never poisons the rest

    def test_demoted_entry_misses_but_stays(self, fp, machine, tmp_path):
        cache = PlanCache(tmp_path / "c.json")
        plan = self._plan(fp, machine)
        cache.put(plan.key, plan)
        cache.demote(plan.key)
        assert cache.get(plan.key) is None
        assert cache.entry(plan.key).demoted

    def test_hits_counted(self, fp, machine, tmp_path):
        cache = PlanCache(tmp_path / "c.json")
        plan = self._plan(fp, machine)
        cache.put(plan.key, plan)
        cache.get(plan.key)
        cache.get(plan.key)
        assert cache.entry(plan.key).hits == 2

    def test_clear(self, fp, machine, tmp_path):
        cache = PlanCache(tmp_path / "c.json")
        plan = self._plan(fp, machine)
        cache.put(plan.key, plan)
        assert cache.clear() == 1
        assert len(cache) == 0
        assert len(PlanCache(cache.path)) == 0

    def test_entry_serde_roundtrip(self, fp, machine):
        plan = self._plan(fp, machine)
        entry = CacheEntry(plan=plan, model_version=1, planner_version=1,
                           hits=3, feedback=[1.1, 0.9], correction=1.05)
        assert CacheEntry.from_dict(entry.to_dict()) == entry


# ------------------------------------------------------------------- feedback


class TestFeedback:
    def _cached_plan(self, fp, machine, tmp_path):
        cache = PlanCache(tmp_path / "c.json")
        plan = plan_sort(fp, machine, dry_runs=False, seed=0)
        cache.put(plan.key, plan)
        return cache, plan

    def test_ratio_recorded(self, fp, machine, tmp_path):
        cache, plan = self._cached_plan(fp, machine, tmp_path)
        rec = record_feedback(cache, plan, plan.predicted_s * 1.5)
        assert rec.ratio == pytest.approx(1.5)
        assert not rec.demoted
        assert cache.entry(plan.key).feedback == [pytest.approx(1.5)]

    def test_accurate_predictions_never_demote(self, fp, machine, tmp_path):
        cache, plan = self._cached_plan(fp, machine, tmp_path)
        for _ in range(8):
            rec = record_feedback(cache, plan, plan.predicted_s * 1.02)
        assert not rec.demoted
        assert cache.get(plan.key) is not None

    def test_persistent_drift_demotes(self, fp, machine, tmp_path):
        cache, plan = self._cached_plan(fp, machine, tmp_path)
        for _ in range(3):
            rec = record_feedback(cache, plan, plan.predicted_s * 10.0)
        assert rec.demoted
        assert cache.get(plan.key) is None  # demoted entries read as misses

    def test_single_outlier_does_not_demote(self, fp, machine, tmp_path):
        cache, plan = self._cached_plan(fp, machine, tmp_path)
        rec = record_feedback(cache, plan, plan.predicted_s * 10.0)
        assert not rec.demoted

    def test_works_without_cache(self, fp, machine):
        plan = plan_sort(fp, machine, dry_runs=False, seed=0)
        rec = record_feedback(None, plan, plan.predicted_s * 2.0)
        assert rec.ratio == pytest.approx(2.0)


# ------------------------------------------------------------------- autosort


def _autosort_program(comm, n, seed, cache_path):
    cache = PlanCache(cache_path) if cache_path else None
    rng = np.random.default_rng(seed + comm.rank)
    local = rng.integers(0, 1 << 32, n, dtype=np.uint64)
    res = autosort(comm, local, cache=cache, seed=0)
    return res, local


class TestAutosort:
    def test_output_globally_sorted(self, machine):
        out = run_spmd(4, _autosort_program, 1500, 20, None,
                       machine=machine, ranks_per_node=4)
        parts = [r.output for r, _ in out]
        merged = np.concatenate(parts)
        assert np.all(merged[:-1] <= merged[1:])
        original = np.concatenate([loc for _, loc in out])
        assert np.array_equal(np.sort(original), merged)
        assert sum(p.size for p in parts) == 4 * 1500

    def test_warm_cache_skips_planning(self, machine, tmp_path):
        path = str(tmp_path / "cache.json")
        kwargs = dict(machine=machine, ranks_per_node=4)
        before = dry_run_count()
        out1 = run_spmd(4, _autosort_program, 1500, 30, path, **kwargs)
        planned = dry_run_count() - before
        assert planned > 0  # cold cache: the planner dry-ran candidates
        assert not out1[0][0].cache_hit
        before = dry_run_count()
        out2 = run_spmd(4, _autosort_program, 1500, 30, path, **kwargs)
        assert dry_run_count() == before  # warm cache: ZERO dry runs
        assert out2[0][0].cache_hit
        assert out2[0][0].plan == out1[0][0].plan

    def test_all_ranks_agree_on_plan(self, machine):
        out = run_spmd(4, _autosort_program, 1000, 40, None,
                       machine=machine, ranks_per_node=4)
        ids = {r.plan.plan_id for r, _ in out}
        assert len(ids) == 1

    def test_feedback_returned(self, machine):
        out = run_spmd(4, _autosort_program, 1000, 50, None,
                       machine=machine, ranks_per_node=4)
        rec = out[0][0].feedback
        assert rec is not None and rec.ratio > 0

    def test_feedback_is_one_record_on_every_rank(self, machine, tmp_path):
        # every rank opens its own PlanCache on the same path; the feedback
        # lands in rank 0's, whichever rank arrives last at the allreduce
        path = str(tmp_path / "cache.json")
        kwargs = dict(machine=machine, ranks_per_node=4)
        ratios = []
        for run in range(3):  # cold (rank 0 stores the plan), then warm hits
            out = run_spmd(4, _autosort_program, 1000, 60, path, **kwargs)
            rec = out[0][0].feedback
            assert all(r.feedback == rec for r, _ in out)
            assert rec.observed_s == max(sum(r.result.phases.values()) for r, _ in out)
            ratios.append(pytest.approx(rec.ratio))
            entry = PlanCache(path).entry(out[0][0].plan.key)
            assert entry.feedback == ratios
            assert entry.hits == run

    def test_trace_metadata_stamped(self, machine, tmp_path):
        trial = run_sort_trial(
            4, 800, plan="auto", machine=machine, ranks_per_node=4,
            trace_path=tmp_path / "trace.json",
        )
        data = json.loads((tmp_path / "trace.json").read_text())
        meta = data["otherData"]
        assert meta["plan_id"] == trial.extra["plan_id"]
        assert meta["plan_algo"] == trial.extra["plan_algo"]
        from repro.trace.export import metadata_from_chrome

        assert metadata_from_chrome(data)["plan_id"] == trial.extra["plan_id"]


class TestTunedBeatsDefault:
    """Acceptance: the tuned plan's virtual makespan never loses to the
    paper-default ``SortConfig()`` on these fingerprints (two distinct
    workload/machine pairs).  ``benchmarks/bench_autotune.py`` sweeps the
    same comparison at larger scale."""

    @pytest.mark.parametrize(
        "machine,p,rpn,dist",
        [
            (abstract_cluster(2, cores_per_node=8), 8, 8, "zipf_u64"),
            (supermuc_phase2(nodes=4), 16, 4, "uniform_u64"),
        ],
        ids=["abstract2n-zipf", "supermuc4n-uniform"],
    )
    def test_tuned_not_worse(self, machine, p, rpn, dist):
        default = run_sort_trial(
            p, 2000, algo="dash", dist=dist, machine=machine, ranks_per_node=rpn
        )
        tuned = run_sort_trial(
            p, 2000, dist=dist, machine=machine, ranks_per_node=rpn, plan="auto"
        )
        assert tuned.total <= default.total
        assert tuned.extra["plan_id"]


# ------------------------------------------------------------------------ CLI


class TestCli:
    def test_recommend(self, capsys):
        rc = tune_main([
            "recommend", "--preset", "abstract", "--nodes", "2",
            "-p", "4", "-n", "1024", "--no-dry-runs",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "plan " in out and "algo:" in out

    def test_explain_lists_candidates(self, capsys):
        rc = tune_main([
            "explain", "--preset", "abstract", "--nodes", "2",
            "-p", "4", "-n", "1024", "--no-dry-runs",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "dash/paper-default" in out and "candidate" in out

    def test_recommend_deterministic(self, capsys):
        args = ["recommend", "--preset", "abstract", "--nodes", "2",
                "-p", "4", "-n", "1024", "--seed", "3"]
        tune_main(args)
        first = capsys.readouterr().out
        tune_main(args)
        second = capsys.readouterr().out
        assert first == second

    def test_store_and_cache_ls_clear(self, capsys, tmp_path):
        cache = str(tmp_path / "plans.json")
        rc = tune_main([
            "recommend", "--preset", "abstract", "--nodes", "2", "-p", "4",
            "-n", "1024", "--no-dry-runs", "--store", "--cache", cache,
        ])
        assert rc == 0
        capsys.readouterr()
        assert tune_main(["cache", "ls", "--cache", cache]) == 0
        out = capsys.readouterr().out
        assert "(1 entries)" in out
        assert tune_main(["cache", "clear", "--cache", cache]) == 0
        capsys.readouterr()
        tune_main(["cache", "ls", "--cache", cache])
        assert "(0 entries)" in capsys.readouterr().out

    def test_unknown_preset_rejected(self):
        with pytest.raises(SystemExit):
            tune_main(["recommend", "--preset", "warehouse"])


# --------------------------------------------------------------- config serde


class TestConfigSerde:
    def test_splitter_roundtrip_all_fields(self):
        cfg = SplitterConfig(
            initial_guess="sample", sample_factor=3, probe_schedule="midpoint", max_rounds=77
        )
        assert SplitterConfig.from_dict(cfg.to_dict()) == cfg

    def test_sort_config_roundtrip_all_fields(self):
        cfg = SortConfig(
            eps=0.25,
            merge_strategy="tournament",
            splitter=SplitterConfig(initial_guess="sample", probe_schedule="midpoint"),
            uniquify=True,
            overlap_exchange=True,
            resilient=False,
            max_recovery_attempts=3,
        )
        assert SortConfig.from_dict(cfg.to_dict()) == cfg

    def test_defaults_roundtrip(self):
        assert SortConfig.from_dict(SortConfig().to_dict()) == SortConfig()
        assert SplitterConfig.from_dict(SplitterConfig().to_dict()) == SplitterConfig()

    def test_roundtrip_is_json_safe(self):
        cfg = SortConfig(merge_strategy="binary_tree")
        assert SortConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    def test_unknown_sort_field_rejected(self):
        data = SortConfig().to_dict()
        data["warp_drive"] = True
        with pytest.raises(ValueError, match="warp_drive"):
            SortConfig.from_dict(data)

    def test_unknown_splitter_field_rejected(self):
        data = SplitterConfig().to_dict()
        data["telepathy"] = 1
        with pytest.raises(ValueError, match="telepathy"):
            SplitterConfig.from_dict(data)

    def test_nested_splitter_validated(self):
        data = SortConfig().to_dict()
        data["splitter"]["bogus"] = 0
        with pytest.raises(ValueError, match="bogus"):
            SortConfig.from_dict(data)

    def test_invalid_values_still_rejected(self):
        data = SortConfig().to_dict()
        data["merge_strategy"] = "quantum"
        with pytest.raises(ValueError, match="merge_strategy"):
            SortConfig.from_dict(data)
