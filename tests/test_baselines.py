"""Correctness and behavioural tests of the baseline sorters."""

import numpy as np
import pytest

from repro.algorithms import ALGORITHMS
from repro.baselines import (
    BASELINES,
    bitonic_sort,
    hss_sort,
    hyksort,
    hyperquicksort,
    psrs_sort,
    sample_sort,
)
from repro.core import SortConfig
from repro.data import make_partition
from repro.mpi import SPMDError
from repro.seq import is_globally_sorted, is_permutation


def _run_baseline(run, algo, parts, **kwargs):
    p = len(parts)

    def prog(comm):
        return algo(comm, parts[comm.rank], **kwargs)

    return run(p, prog)


def _check(parts, results):
    outs = [r.output for r in results]
    assert is_globally_sorted(outs)
    assert is_permutation(parts, outs)


POW2_ONLY = {"hyperquicksort", "bitonic"}


class TestAllBaselines:
    @pytest.mark.parametrize("name", sorted(BASELINES))
    @pytest.mark.parametrize("dist", ["uniform_u64", "normal_f64", "duplicates_i64"])
    def test_correct_pow2(self, run, name, dist):
        parts = [make_partition(dist, 800, rank=r, seed=21) for r in range(8)]
        _check(parts, _run_baseline(run, BASELINES[name], parts))

    @pytest.mark.parametrize(
        "name", sorted(set(BASELINES) - POW2_ONLY)
    )
    def test_correct_odd_rank_count(self, run, name):
        parts = [make_partition("uniform_u64", 700, rank=r, seed=22) for r in range(5)]
        _check(parts, _run_baseline(run, BASELINES[name], parts))

    @pytest.mark.parametrize("name", sorted(BASELINES))
    def test_single_rank(self, run, name):
        parts = [make_partition("normal_f64", 300, rank=0, seed=23)]
        _check(parts, _run_baseline(run, BASELINES[name], parts))

    @pytest.mark.parametrize("name", sorted(set(BASELINES) - POW2_ONLY))
    def test_empty_partitions(self, run, name):
        parts = [
            make_partition("uniform_u64", 0 if r % 2 else 900, rank=r, seed=24)
            for r in range(4)
        ]
        _check(parts, _run_baseline(run, BASELINES[name], parts))

    @pytest.mark.parametrize(
        "algo, parts",
        [
            # all-equal keys: every cut lands on one side, three ranks get nothing
            (sample_sort, [np.full(40, 7, np.uint64)] * 4),
            (psrs_sort, [np.full(40, 7, np.uint64)] * 4),
            # 40 keys on rank 0 only: capacities leave ranks 1-3 empty
            (hss_sort, [np.arange(40, dtype=np.uint64)] + [np.empty(0, np.uint64)] * 3),
        ],
    )
    def test_empty_output_ranks_keep_the_input_dtype(self, run, algo, parts):
        out = _run_baseline(run, algo, parts)
        assert any(r.output.size == 0 for r in out)
        assert all(r.output.dtype == np.uint64 for r in out)
        _check(parts, out)

    @pytest.mark.parametrize("name", sorted(BASELINES))
    def test_phases_recorded(self, run, name):
        parts = [make_partition("uniform_u64", 400, rank=r, seed=25) for r in range(4)]
        out = _run_baseline(run, BASELINES[name], parts)
        assert out[0].phases
        assert out[0].time > 0


class TestStableBytes:
    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_signed_zeros_keep_input_order(self, run, name):
        # -0.0 == 0.0, so only the bytes tell whether ties kept their
        # global input order (rank, then position), as the stable oracle
        # does; a plain np.sort local sort reorders the zero block
        rng = np.random.default_rng(29)
        parts = [rng.choice([-0.0, 0.0, 0.5, 1.0, 2.0], size=300) for _ in range(4)]
        algo = ALGORITHMS[name]
        out = run(4, lambda comm: algo.run(comm, parts[comm.rank], SortConfig()))
        got = np.concatenate([r.output for r in out])
        assert got.tobytes() == np.sort(np.concatenate(parts), kind="stable").tobytes()


class TestSampleSort:
    def test_balance_depends_on_oversampling(self, run):
        parts = [make_partition("uniform_u64", 4000, rank=r, seed=26) for r in range(8)]
        small = _run_baseline(run, sample_sort, parts, oversampling=4)
        big = _run_baseline(run, sample_sort, parts, oversampling=256)
        def imbalance(results):
            sizes = np.array([r.output.size for r in results])
            return float(np.abs(sizes - 4000).max())
        assert imbalance(big) <= imbalance(small)

    def test_psrs_balances_well(self, run):
        parts = [make_partition("uniform_u64", 4000, rank=r, seed=27) for r in range(8)]
        out = _run_baseline(run, psrs_sort, parts)
        sizes = np.array([r.output.size for r in out])
        assert np.abs(sizes - 4000).max() < 4000  # never catastrophically off


class TestHss:
    def test_perfect_partitioning(self, run):
        parts = [make_partition("uniform_u64", 1500, rank=r, seed=28) for r in range(6)]
        out = _run_baseline(run, hss_sort, parts)
        assert all(r.output.size == 1500 for r in out)

    def test_diagnostics(self, run):
        parts = [make_partition("uniform_u64", 1500, rank=r, seed=28) for r in range(4)]
        out = _run_baseline(run, hss_sort, parts)
        diag = out[0].info["diagnostics"]
        assert diag.rounds >= 1
        assert diag.probes_total > 0

    def test_interval_sampling_converges_faster(self, run):
        parts = [make_partition("uniform_u64", 3000, rank=r, seed=29) for r in range(6)]
        glob = _run_baseline(run, hss_sort, parts, sampling="global")
        ideal = _run_baseline(run, hss_sort, parts, sampling="interval")
        assert (
            ideal[0].info["diagnostics"].rounds
            <= glob[0].info["diagnostics"].rounds
        )

    def test_invalid_sampling(self, run):
        parts = [np.arange(10)] * 2
        with pytest.raises(SPMDError):
            _run_baseline(run, hss_sort, parts, sampling="nope")

    def test_eps_tolerance(self, run):
        parts = [make_partition("uniform_u64", 4000, rank=r, seed=30) for r in range(4)]
        out = _run_baseline(run, hss_sort, parts, eps=0.1)
        outs = [r.output for r in out]
        assert is_globally_sorted(outs) and is_permutation(parts, outs)


class TestHypercubeFamily:
    def test_hyperquicksort_requires_pow2(self, run):
        parts = [np.arange(10)] * 3
        with pytest.raises(SPMDError):
            _run_baseline(run, hyperquicksort, parts)

    def test_hyperquicksort_moves_data_log_times(self, run):
        parts = [make_partition("uniform_u64", 1000, rank=r, seed=31) for r in range(8)]
        out = _run_baseline(run, hyperquicksort, parts)
        assert out[0].info["rounds"] == 3  # log2(8)

    def test_bitonic_requires_pow2(self, run):
        parts = [np.arange(10)] * 3
        with pytest.raises(SPMDError):
            _run_baseline(run, bitonic_sort, parts)

    def test_bitonic_requires_equal_sizes(self, run):
        parts = [np.arange(10), np.arange(5)]
        with pytest.raises(SPMDError):
            _run_baseline(run, bitonic_sort, parts)

    def test_bitonic_stage_count(self, run):
        parts = [make_partition("uniform_u64", 500, rank=r, seed=32) for r in range(8)]
        out = _run_baseline(run, bitonic_sort, parts)
        assert out[0].info["stages"] == 6  # 3*(3+1)/2

    def test_bitonic_preserves_sizes(self, run):
        parts = [make_partition("uniform_u64", 512, rank=r, seed=33) for r in range(4)]
        out = _run_baseline(run, bitonic_sort, parts)
        assert all(r.output.size == 512 for r in out)

    def test_hyksort_k_values(self, run):
        parts = [make_partition("uniform_u64", 700, rank=r, seed=34) for r in range(8)]
        for k in (2, 3, 8):
            _check(parts, _run_baseline(run, hyksort, parts, k=k))

    def test_hyksort_k_validation(self, run):
        parts = [np.arange(4)] * 2
        with pytest.raises(SPMDError):
            _run_baseline(run, hyksort, parts, k=1)

    def test_hyksort_fewer_rounds_with_bigger_k(self, run):
        parts = [make_partition("uniform_u64", 600, rank=r, seed=35) for r in range(8)]
        k2 = _run_baseline(run, hyksort, parts, k=2)[0].info["rounds"]
        k8 = _run_baseline(run, hyksort, parts, k=8)[0].info["rounds"]
        assert k8 < k2
