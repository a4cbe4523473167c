"""Local merge strategies (core.merge) and key packing (core.keys)."""

import numpy as np
import pytest

from repro.core import local_merge, merge_cost, pack_keys, plan_packing, unpack_keys
from repro.core.keys import PackError, PackSpec
from repro.machine import supermuc_phase2


def _received(chunks):
    """The exchange's ``(recvbuf, recv_counts)`` for these runs."""
    return np.concatenate(chunks), np.array([c.size for c in chunks])


class TestLocalMerge:
    @pytest.fixture
    def chunks(self, rng):
        return [np.sort(rng.integers(0, 100, rng.integers(0, 80))) for _ in range(6)]

    @pytest.mark.parametrize("strategy", ["sort", "binary_tree", "tournament", "adaptive"])
    def test_merges_correctly(self, run, chunks, strategy):
        ref = np.sort(np.concatenate(chunks))

        def prog(comm):
            return local_merge(comm, _received(chunks), strategy=strategy)

        out = run(1, prog)[0]
        assert np.array_equal(out, ref)

    def test_empty_chunks(self, run):
        def prog(comm):
            return local_merge(comm, _received([np.array([]), np.array([])]))

        assert run(1, prog)[0].size == 0

    def test_sorts_the_receive_buffer_in_place(self, run, chunks):
        buf, counts = _received(chunks)
        ref = np.sort(buf)

        def prog(comm):
            return local_merge(comm, (buf, counts))

        assert run(1, prog)[0] is buf
        assert np.array_equal(buf, ref)

    def test_no_chunks(self, run):
        def prog(comm):
            return local_merge(comm, (np.array([]), np.array([], np.int64)))

        assert run(1, prog)[0].size == 0

    def test_unknown_strategy(self, run, chunks):
        def prog(comm):
            return local_merge(comm, _received(chunks), strategy="nope")

        from repro.mpi import SPMDError

        with pytest.raises(SPMDError):
            run(1, prog)

    def test_charges_virtual_time(self, run, chunks):
        def prog(comm):
            t0 = comm.clock
            local_merge(comm, _received(chunks), strategy="sort")
            return comm.clock - t0

        assert run(1, prog)[0] > 0

    def test_adaptive_picks_sort_for_many_small(self, run, rng):
        small = [np.sort(rng.integers(0, 9, 5)) for _ in range(32)]
        ref = np.sort(np.concatenate(small))

        def prog(comm):
            return local_merge(comm, _received(small), strategy="adaptive")

        assert np.array_equal(run(1, prog)[0], ref)


class TestMergeCost:
    def test_strategies_priced_differently(self):
        compute = supermuc_phase2().compute
        n, k = 1 << 20, 64
        sort = merge_cost(compute, n, k, "sort")
        tree = merge_cost(compute, n, k, "binary_tree")
        tourney = merge_cost(compute, n, k, "tournament")
        assert tree < sort  # log2(64)=6 merge passes < full n log n sort
        assert tourney > 0 and sort > 0

    def test_zero_elements(self):
        compute = supermuc_phase2().compute
        assert merge_cost(compute, 0, 4, "sort") == compute.call_overhead

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            merge_cost(supermuc_phase2().compute, 10, 2, "nah")


class TestKeyPacking:
    def test_roundtrip(self, rng):
        keys = rng.integers(0, 10**9, 1000).astype(np.uint64)
        spec = plan_packing(10**9, nranks=64, max_local=1000)
        packed = pack_keys(keys, rank=13, spec=spec)
        assert np.array_equal(unpack_keys(packed, spec), keys)

    def test_packed_keys_unique(self, rng):
        keys = rng.integers(0, 5, 500).astype(np.uint64)  # heavy duplicates
        spec = plan_packing(5, nranks=4, max_local=500)
        p0 = pack_keys(keys, 0, spec)
        p1 = pack_keys(keys, 1, spec)
        both = np.concatenate([p0, p1])
        assert np.unique(both).size == both.size

    def test_order_preserved_key_major(self, rng):
        keys = rng.integers(0, 1000, 300).astype(np.uint64)
        spec = plan_packing(1000, nranks=8, max_local=300)
        packed = pack_keys(keys, 3, spec)
        order_keys = np.argsort(keys, kind="stable")
        order_packed = np.argsort(packed, kind="stable")
        assert np.array_equal(keys[order_packed], keys[order_keys])

    def test_overflow_rejected(self):
        with pytest.raises(PackError):
            PackSpec(key_bits=60, rank_bits=10, index_bits=10)

    def test_negative_keys_rejected(self):
        spec = plan_packing(100, 2, 10)
        with pytest.raises(PackError):
            pack_keys(np.array([-1], dtype=np.int64), 0, spec)

    def test_key_exceeds_plan(self):
        spec = plan_packing(100, 2, 10)
        with pytest.raises(PackError):
            pack_keys(np.array([1 << 30], dtype=np.uint64), 0, spec)

    def test_rank_exceeds_plan(self):
        spec = plan_packing(100, 2, 10)
        with pytest.raises(PackError):
            pack_keys(np.array([1], dtype=np.uint64), 99, spec)

    def test_index_exceeds_plan(self):
        spec = plan_packing(100, 2, max_local=4)
        with pytest.raises(PackError):
            pack_keys(np.arange(100, dtype=np.uint64) % 50, 0, spec)

    def test_float_keys_rejected(self):
        spec = plan_packing(100, 2, 10)
        with pytest.raises(PackError):
            pack_keys(np.array([1.5]), 0, spec)

    def test_empty(self):
        spec = plan_packing(100, 2, 10)
        packed = pack_keys(np.array([], dtype=np.uint64), 0, spec)
        assert packed.size == 0
