"""Micro-benchmarks of the hot kernels the ledger does not time (real wall time).

``benchmarks/ledger`` times the merge kernels at the 8x4096 shape, the
local histogram, ``allreduce``/``alltoallv`` at its workloads' p and the
end-to-end sorts on a pinned CPU; what is left here is what it lacks: the
selection kernels, ``sort_keys`` against the stable ``np.sort`` it
replaces, the many-small-runs merge shape, ``comm.split``, ``dselect``,
and the runtime: at p = 64 a no-op run and the sort's exchange, at p = 64
and 256 a run of 100 128-byte ``allreduce`` calls (the splitter search's
collective skeleton).
"""

from functools import partial

import numpy as np
import pytest

from repro.core import dselect
from repro.data import make_partition
from repro.mpi import run_spmd
from repro.seq import floyd_rivest, kway_merge, quickselect, sort_keys, weighted_median

rng = np.random.default_rng(99)

_LOCAL_SORTS = {"sort_keys": sort_keys, "np_sort_stable": partial(np.sort, kind="stable")}


class TestSequentialKernels:
    @pytest.mark.parametrize("kernel", sorted(_LOCAL_SORTS))
    @pytest.mark.parametrize(
        "keys",
        [
            pytest.param(lambda: rng.integers(0, 2**64, 1 << 18, dtype=np.uint64), id="u64-2^18"),
            pytest.param(lambda: rng.normal(size=1 << 15), id="f64-2^15"),
        ],
    )
    def test_local_sort(self, benchmark, kernel, keys):
        x = keys()
        out = benchmark(_LOCAL_SORTS[kernel], x)
        assert out.tobytes() == np.sort(x, kind="stable").tobytes()

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

    @pytest.mark.parametrize("strategy", ["sort", "binary_tree", "tournament"])
    def test_kway_merge_many_small_runs(self, benchmark, strategy):
        runs = [np.sort(rng.integers(0, 2**64, 512, dtype=np.uint64)) for _ in range(64)]
        out = benchmark(kway_merge, runs, strategy)
        assert np.array_equal(out, np.sort(np.concatenate(runs)))


def _sort_exchange(comm, parts):
    """The sort's exchange at even cuts: the count ``alltoall``, then the
    ``alltoallv`` of the sorted partition."""
    work = parts[comm.rank]
    counts = np.diff(np.linspace(0, work.size, comm.size + 1).astype(np.int64))
    recv_counts = comm.alltoall(counts.tolist())
    buf, got = comm.alltoallv(work, counts)
    assert got.tolist() == recv_counts
    return buf.size


def _allreduce_loop(comm):
    """100 allreduces of 128 bytes (16 float64)."""
    v = np.zeros(16)
    for _ in range(100):
        total = comm.allreduce(v)
    return total.nbytes


class TestRuntimeKernels:
    def test_comm_split(self, benchmark):
        def prog(comm):
            sub = comm.split(comm.rank % 4, comm.rank)
            return sub.allreduce(1)

        benchmark(lambda: run_spmd(16, prog))

    def test_noop_run_p64(self, benchmark):
        """What a run costs before its rank function does anything: the
        floor under every ``run_spmd`` cell at p = 64."""
        out = benchmark(lambda: run_spmd(64, lambda comm: None))
        assert out == [None] * 64

    def test_allreduce_p64(self, benchmark):
        """100 128-byte ``allreduce`` calls in one run: per call, what a
        histogram round's rendezvous costs (the no-op cell is its floor)."""
        out = benchmark(lambda: run_spmd(64, _allreduce_loop))
        assert out == [128] * 64

    def test_allreduce_p256(self, benchmark):
        """The same loop at p = 256."""
        out = benchmark(lambda: run_spmd(256, _allreduce_loop))
        assert out == [128] * 256

    def test_sort_exchange_p64(self, benchmark):
        """The count ``alltoall`` + ``alltoallv`` at 2048 keys/rank, p = 64
        (one run each; the no-op cell is its floor)."""
        parts = [np.sort(make_partition("uniform_u64", 2048, rank=r, seed=5)) for r in range(64)]
        out = benchmark(lambda: run_spmd(64, _sort_exchange, parts))
        assert sum(out) == 64 * 2048


class TestEndToEnd:
    def test_dselect_small(self, benchmark):
        def prog(comm):
            local = make_partition("normal_f64", 8192, rank=comm.rank, seed=1)
            return dselect(comm, local, 4 * 8192)

        benchmark(lambda: run_spmd(8, prog))
