"""Micro-benchmarks of the library's hot kernels (real wall time).

Not a paper artefact, but the regression net under every experiment: the
sequential selection/merge kernels, the vectorised histogram, the runtime's
collectives, and a small end-to-end sort.
"""

import numpy as np
import pytest

from repro.baselines import hss_sort
from repro.core import dselect, histogram_sort
from repro.data import make_partition
from repro.mpi import run_spmd
from repro.seq import (
    floyd_rivest,
    kway_merge,
    local_histogram,
    merge_two_sorted,
    quickselect,
    weighted_median,
)

rng = np.random.default_rng(99)

#: k runs x n keys per run: the ledger's merge workload, and many small runs
MERGE_SHAPES = {
    "8x4096-f64": lambda: [np.sort(rng.normal(size=4096)) for _ in range(8)],
    "64x512-u64": lambda: [
        np.sort(rng.integers(0, 2**64, 512, dtype=np.uint64)) for _ in range(64)
    ],
}


class TestSequentialKernels:
    def test_quickselect(self, benchmark):
        x = rng.normal(size=200_000)
        v = benchmark(quickselect, x, 100_000)
        assert v == np.partition(x, 100_000)[100_000]

    def test_floyd_rivest(self, benchmark):
        x = rng.normal(size=200_000)
        v = benchmark(floyd_rivest, x, 100_000)
        assert v == np.partition(x, 100_000)[100_000]

    def test_weighted_median(self, benchmark):
        v = rng.normal(size=10_000)
        w = rng.integers(1, 10, 10_000).astype(np.float64)
        benchmark(weighted_median, v, w)

    def test_merge_two(self, benchmark):
        a = np.sort(rng.normal(size=100_000))
        b = np.sort(rng.normal(size=100_000))
        out = benchmark(merge_two_sorted, a, b)
        assert out.size == 200_000

    @pytest.mark.parametrize("shape", MERGE_SHAPES)
    @pytest.mark.parametrize("strategy", ["sort", "binary_tree", "tournament"])
    def test_kway_merge(self, benchmark, strategy, shape):
        runs = MERGE_SHAPES[shape]()
        out = benchmark(kway_merge, runs, strategy)
        assert np.array_equal(out, np.sort(np.concatenate(runs)))

    def test_local_histogram(self, benchmark):
        part = np.sort(rng.integers(0, 10**9, 500_000).astype(np.uint64))
        probes = np.sort(rng.integers(0, 10**9, 1023).astype(np.uint64))
        lo, up = benchmark(local_histogram, part, probes)
        assert lo.size == 1023


class TestRuntimeKernels:
    def test_allreduce_array(self, benchmark):
        def prog(comm):
            return comm.allreduce(np.ones(1024))

        benchmark(lambda: run_spmd(16, prog))

    def test_alltoallv(self, benchmark):
        def prog(comm):
            chunks = [np.full(256, comm.rank) for _ in range(comm.size)]
            return comm.alltoallv(chunks)

        benchmark(lambda: run_spmd(16, prog))

    def test_comm_split(self, benchmark):
        def prog(comm):
            sub = comm.split(comm.rank % 4, comm.rank)
            return sub.allreduce(1)

        benchmark(lambda: run_spmd(16, prog))


class TestEndToEnd:
    def test_histogram_sort_small(self, benchmark):
        def prog(comm):
            local = make_partition("uniform_u64", 4096, rank=comm.rank, seed=1)
            return histogram_sort(comm, local).output.size

        sizes = benchmark(lambda: run_spmd(8, prog))
        assert sizes == [4096] * 8

    def test_dselect_small(self, benchmark):
        def prog(comm):
            local = make_partition("normal_f64", 8192, rank=comm.rank, seed=1)
            return dselect(comm, local, 4 * 8192)

        benchmark(lambda: run_spmd(8, prog))

    def test_hss_small(self, benchmark):
        def prog(comm):
            local = make_partition("uniform_u64", 4096, rank=comm.rank, seed=1)
            return hss_sort(comm, local).output.size

        sizes = benchmark(lambda: run_spmd(8, prog))
        assert sizes == [4096] * 8
