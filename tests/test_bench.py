"""Benchmark harness: statistics, trials, Series containers, experiments."""

import json

import numpy as np
import pytest

from repro.bench import (
    Series,
    TrialResult,
    experiments,
    fig2a_strong_scaling,
    fig2b_phase_breakdown,
    fig3a_weak_scaling,
    fig3b_phase_breakdown,
    fig4_shared_memory,
    format_table,
    iterations_experiment,
    median_ci,
    merge_strategy_study,
    repeat_sort_trials,
    run_sort_trial,
    table1_machine,
)
from repro.bench.harness import _phase_median
from repro.machine import supermuc_phase2


class TestMedianCi:
    def test_median_value(self):
        stats = median_ci([3.0, 1.0, 2.0, 5.0, 4.0])
        assert stats.median == 3.0
        assert stats.ci_low <= stats.median <= stats.ci_high

    def test_small_samples_span_range(self):
        stats = median_ci([1.0, 9.0])
        assert stats.ci_low == 1.0 and stats.ci_high == 9.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            median_ci([])

    def test_ci_narrows_with_samples(self):
        rng = np.random.default_rng(0)
        small = median_ci(rng.normal(10, 1, 5).tolist())
        large = median_ci(rng.normal(10, 1, 200).tolist())
        assert (large.ci_high - large.ci_low) < (small.ci_high - small.ci_low)


class TestSeries:
    def test_table_renders(self):
        s = Series("exp", "title", ["a", "b"])
        s.add(a=1, b=2.5)
        s.add(a=10, b=0.00001)
        text = s.table()
        assert "exp" in text and "title" in text
        assert "10" in text

    def test_save_load_roundtrip(self, tmp_path):
        s = Series("exp1", "t", ["x"], params={"p": 4}, notes="n")
        s.add(x=1.5)
        path = s.save(tmp_path)
        loaded = Series.load(path)
        assert loaded.rows == [{"x": 1.5}]
        assert loaded.params == {"p": 4}
        assert json.loads(path.read_text())["experiment"] == "exp1"

    def test_column_accessor(self):
        s = Series("e", "t", ["x"])
        s.add(x=1)
        s.add(x=2)
        assert s.column("x") == [1, 2]

    def test_format_table_empty(self):
        out = format_table(["a"], [])
        assert "a" in out


class TestTrials:
    def test_run_sort_trial_dash(self):
        trial = run_sort_trial(
            8, 512, algo="dash", machine=supermuc_phase2(), ranks_per_node=8
        )
        assert trial.total > 0
        assert trial.rounds > 0
        assert set(trial.phases) >= {"local_sort", "splitting", "exchange", "merge"}

    @pytest.mark.parametrize("algo", ["hss", "sample_sort", "psrs"])
    def test_run_sort_trial_baselines(self, algo):
        trial = run_sort_trial(
            4, 512, algo=algo, machine=supermuc_phase2(), ranks_per_node=4
        )
        assert trial.total > 0

    def test_unknown_algo(self):
        with pytest.raises(KeyError):
            run_sort_trial(2, 64, algo="nope")

    def test_repeat_produces_stats(self):
        stats, trials = repeat_sort_trials(
            4, 256, repeats=3, warmup=1, machine=supermuc_phase2(), ranks_per_node=4
        )
        assert stats.n == 3
        assert len(trials) == 3
        assert stats.ci_low <= stats.median <= stats.ci_high

    @pytest.mark.parametrize("algo", ["dash", "hss", "sample_sort", "psrs"])
    def test_trial_records_carry_rounds(self, algo):
        # every algorithm's trial reports histogramming rounds (1 for the
        # single-round baselines), so harness output can feed
        # repro.model.calibrate.fit_round_count directly
        trial = run_sort_trial(
            4, 512, algo=algo, machine=supermuc_phase2(), ranks_per_node=4
        )
        assert isinstance(trial.rounds, int) and trial.rounds >= 1
        if algo in ("sample_sort", "psrs"):
            assert trial.rounds == 1

    def test_trials_feed_round_calibration(self):
        from repro.model import fit_round_count

        trials = [
            run_sort_trial(4, 512, seed=s, machine=supermuc_phase2(), ranks_per_node=4)
            for s in (1, 2, 3)
        ]
        fitted = fit_round_count(trials)
        assert min(t.rounds for t in trials) <= fitted <= max(t.rounds for t in trials)

    def test_plan_auto_trial(self, tmp_path):
        from repro.tune import PlanCache

        cache = PlanCache(tmp_path / "plans.json")
        machine = supermuc_phase2(nodes=2)
        first = run_sort_trial(
            4, 512, plan="auto", plan_cache=cache, machine=machine, ranks_per_node=2
        )
        assert first.total > 0
        assert first.extra["plan_id"] and first.extra["plan_algo"]
        assert first.extra["plan_cache_hit"] is False
        second = run_sort_trial(
            4, 512, plan="auto", plan_cache=cache, machine=machine, ranks_per_node=2
        )
        assert second.extra["plan_cache_hit"] is True
        assert second.extra["plan_id"] == first.extra["plan_id"]

    def test_plan_argument_validated(self):
        with pytest.raises(ValueError):
            run_sort_trial(2, 64, plan="magic")


class TestPhaseMedian:
    def test_first_seen_order_and_missing_phase_is_zero(self):
        trials = [
            TrialResult(0.0, {"b": 1.0, "a": 4.0}, 1, 0, None),
            TrialResult(0.0, {"a": 2.0, "c": 6.0}, 1, 0, None),
            TrialResult(0.0, {"a": 3.0, "b": 5.0}, 1, 0, None),
        ]
        med = _phase_median(trials)
        assert list(med) == ["b", "a", "c"]
        assert med == {"b": 1.0, "a": 3.0, "c": 0.0}

    def test_even_count_averages_the_middle_pair(self):
        trials = [TrialResult(0.0, {"x": v}, 1, 0, None) for v in (4.0, 1.0)]
        assert _phase_median(trials) == {"x": 2.5}


class TestExperimentsFast:
    def test_model_phase_breakdowns_are_the_scaling_runs(self, monkeypatch):
        """Figs. 2(b)/3(b) break down the runs Figs. 2(a)/3(a) time: at
        every modelled node count the five phases sum to ``dash_s``."""
        cal = {"dash_rounds": 24, "dash_n_exec": 458752, "hss_rounds_med": 7,
               "hss_rounds_max": 8, "hss_n_exec": 262144}
        monkeypatch.setattr(experiments, "_calibrate", lambda repeats, machine: dict(cal))
        for scaling, breakdown in (
            (fig2a_strong_scaling, fig2b_phase_breakdown),
            (fig3a_weak_scaling, fig3b_phase_breakdown),
        ):
            dash_s = {r["nodes"]: r["dash_s"] for r in scaling(mode="model").rows}
            rows = breakdown(mode="model").rows
            assert [r["nodes"] for r in rows] == list(dash_s) == experiments.MODEL_NODES
            for r in rows:
                phases = (r["local_sort"], r["splitting"], r["exchange"], r["merge"], r["other"])
                assert sum(phases) == pytest.approx(dash_s[r["nodes"]], rel=1e-12)

    def test_table1(self):
        s = table1_machine()
        text = s.table()
        assert "E5-2697v3" in text
        assert any("5.1" in str(r.get("value")) for r in s.rows)

    def test_fig4_crossover(self):
        s = fig4_shared_memory()
        rows = {r["numa_domains"]: r for r in s.rows}
        assert rows[1]["winner"] == "tbb"
        for d in (2, 3, 4):
            assert rows[d]["winner"] == "dash"

    def test_merge_study_headline(self):
        s = merge_strategy_study(ks=(4, 1024), threads=(2, 28))
        rows = {(r["k"], r["threads"]): r for r in s.rows}
        assert rows[(4, 2)]["winner"] in ("tournament", "binary_tree")
        assert rows[(1024, 28)]["winner"] == "sort"

    def test_iterations_tracks_key_width(self):
        s = iterations_experiment(repeats=1, n_per_rank=1 << 10)
        by_dist = {}
        for r in s.rows:
            by_dist.setdefault(r["dist"], []).append(r["rounds_med"])
        # f32 resolves in fewer rounds than f64 at the same N
        assert np.median(by_dist["normal_f32"]) <= np.median(by_dist["normal_f64"])
        # independence from P: spread across P values is small
        for dist, rounds in by_dist.items():
            assert max(rounds) - min(rounds) <= 8, (dist, rounds)
