"""Analytic model: predictions, calibration, agreement with execution."""

import numpy as np
import pytest

from repro.bench.harness import run_sort_trial
from repro.machine import supermuc_phase2
from repro.model import (
    PhasePrediction,
    fit_round_count,
    fit_time_scale,
    predict_histsort,
    predict_hss,
    predict_samplesort,
)


@pytest.fixture(scope="module")
def machine():
    return supermuc_phase2()


class TestPredictHistsort:
    def test_phases_positive(self, machine):
        pred = predict_histsort(machine, 2**28, 256, ranks_per_node=16, rounds=30)
        for v in pred.as_dict().values():
            assert v > 0
        assert pred.total == pytest.approx(sum(pred.as_dict().values()))

    def test_strong_scaling_speedup(self, machine):
        t1 = predict_histsort(machine, 2**30, 28, ranks_per_node=28, rounds=30).total
        t8 = predict_histsort(machine, 2**30, 224, ranks_per_node=28, rounds=30).total
        assert t8 < t1
        assert t1 / t8 > 4  # decent speedup at 8 nodes

    def test_splitting_grows_with_p(self, machine):
        s1 = predict_histsort(machine, 2**30, 28, ranks_per_node=28, rounds=30).splitting
        s128 = predict_histsort(machine, 2**30, 3584, ranks_per_node=28, rounds=30).splitting
        assert s128 > s1 * 10

    def test_rounds_scale_splitting_linearly(self, machine):
        a = predict_histsort(machine, 2**28, 256, ranks_per_node=16, rounds=10).splitting
        b = predict_histsort(machine, 2**28, 256, ranks_per_node=16, rounds=30).splitting
        assert b / a == pytest.approx(3.0, rel=0.15)

    def test_merge_strategy_changes_merge_phase(self, machine):
        sort = predict_histsort(machine, 2**28, 64, ranks_per_node=16, rounds=20)
        tree = predict_histsort(
            machine, 2**28, 64, ranks_per_node=16, rounds=20, merge_strategy="binary_tree"
        )
        assert tree.merge < sort.merge

    def test_single_rank(self, machine):
        pred = predict_histsort(machine, 2**20, 1, ranks_per_node=1, rounds=0)
        assert pred.total > 0

    def test_fewer_ranks_than_node_cores(self, machine):
        # regression: ranks_per_node > p drove intra_frac above 1 and made
        # the modelled exchange time negative
        pred = predict_histsort(machine, 2**16, 4, ranks_per_node=28, rounds=8)
        assert pred.exchange > 0
        for v in pred.as_dict().values():
            assert v >= 0

    def test_validation(self, machine):
        with pytest.raises(ValueError):
            predict_histsort(machine, 100, 0, ranks_per_node=1, rounds=1)


class TestPredictHss:
    def test_splitting_dominated_by_rounds(self, machine):
        a = predict_hss(machine, 2**28, 256, ranks_per_node=16, rounds=5, cand_per_round=2048)
        b = predict_hss(machine, 2**28, 256, ranks_per_node=16, rounds=25, cand_per_round=2048)
        assert b.splitting > a.splitting * 3
        assert a.local_sort == b.local_sort

    def test_candidate_volume_matters(self, machine):
        small = predict_hss(machine, 2**28, 256, ranks_per_node=16, rounds=10, cand_per_round=256)
        big = predict_hss(machine, 2**28, 256, ranks_per_node=16, rounds=10, cand_per_round=65536)
        assert big.splitting > small.splitting


class TestPredictSamplesort:
    def test_splitting_is_one_shot(self, machine):
        ss = predict_samplesort(machine, 2**28, 256, ranks_per_node=16)
        hist = predict_histsort(machine, 2**28, 256, ranks_per_node=16, rounds=20)
        assert 0 < ss.splitting < hist.splitting
        assert ss.local_sort == hist.local_sort

    def test_oversampling_costs(self, machine):
        lean = predict_samplesort(machine, 2**28, 256, ranks_per_node=16, oversample=8)
        rich = predict_samplesort(machine, 2**28, 256, ranks_per_node=16, oversample=4096)
        assert rich.splitting > lean.splitting


class _R:
    def __init__(self, rounds):
        self.rounds = rounds


class TestCalibration:
    def test_fit_round_count(self):
        assert fit_round_count([_R(10), _R(20), _R(12)]) == 12
        with pytest.raises(ValueError):
            fit_round_count([])

    def test_fit_round_count_rounds_half_up(self):
        # regression: int(median) used to truncate the even-count midpoint,
        # e.g. median([1, 2, 3, 4]) = 2.5 silently became 2 rounds
        assert fit_round_count([_R(1), _R(2), _R(3), _R(4)]) == 3
        assert fit_round_count([_R(10), _R(11)]) == 11
        assert fit_round_count([_R(7), _R(7)]) == 7

    def test_fit_round_count_accepts_harness_records(self, machine):
        # the Protocol contract: anything with .rounds works, including
        # bench-harness TrialResult objects
        trial = run_sort_trial(4, 512, machine=machine, ranks_per_node=4)
        assert fit_round_count([trial, trial]) == trial.rounds

    def test_fit_time_scale(self):
        assert fit_time_scale([2.0, 4.0, 20.0], [1.0, 2.0, 2.0]) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            fit_time_scale([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            fit_time_scale([], [])

    def test_model_matches_execution_within_factor(self, machine):
        """Model and runtime share the cost model: totals agree closely."""
        from repro.core import histogram_sort
        from repro.data import make_partition
        from repro.mpi import run_spmd

        p, n_per_rank = 32, 4096

        def prog(comm):
            local = make_partition("uniform_u64", n_per_rank, rank=comm.rank, seed=9)
            return histogram_sort(comm, local)

        results = run_spmd(p, prog, machine=machine, ranks_per_node=16)
        executed = max(sum(r.phases.values()) for r in results)
        predicted = predict_histsort(
            machine, p * n_per_rank, p, ranks_per_node=16, rounds=fit_round_count(results)
        ).total
        assert 0.4 < predicted / executed < 2.5, (predicted, executed)
