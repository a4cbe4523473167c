"""Collective semantics of the SPMD runtime."""

from unittest import mock

import numpy as np
import pytest

from repro.core import SortConfig, histogram_sort, multiselect
from repro.data import make_partition
from repro.machine import abstract_cluster
from repro.mpi import (
    MAX,
    MIN,
    PROD,
    SUM,
    CollectiveMismatchError,
    CommunicatorError,
    SPMDError,
    run_spmd,
)

from .conftest import spmd


class TestBcast:
    def test_scalar(self, run):
        def prog(comm):
            return comm.bcast("payload" if comm.rank == 0 else None)

        assert run(4, prog) == ["payload"] * 4

    def test_nonzero_root(self, run):
        def prog(comm):
            return comm.bcast(comm.rank if comm.rank == 2 else None, root=2)

        assert run(4, prog) == [2] * 4

    def test_array_copies_per_rank(self, run):
        def prog(comm):
            arr = comm.bcast(np.arange(3) if comm.rank == 0 else None)
            arr += comm.rank  # each rank owns its copy
            return int(arr[0])

        assert run(3, prog) == [0, 1, 2]


class TestReduceAllreduce:
    def test_allreduce_sum_scalar(self, run):
        def prog(comm):
            return comm.allreduce(comm.rank + 1)

        assert run(4, prog) == [10] * 4

    def test_allreduce_ops(self, run):
        def prog(comm):
            v = comm.rank + 1
            return (
                comm.allreduce(v, MIN),
                comm.allreduce(v, MAX),
                comm.allreduce(v, PROD),
            )

        assert run(3, prog)[0] == (1, 3, 6)

    def test_allreduce_array_elementwise(self, run):
        def prog(comm):
            return comm.allreduce(np.array([comm.rank, 1]))

        out = run(4, prog)
        for arr in out:
            assert np.array_equal(arr, [6, 4])

    def test_allreduce_tuple_elementwise(self, run):
        def prog(comm):
            return comm.allreduce((comm.rank, -comm.rank), MIN)

        assert run(4, prog)[0] == (0, -3)

    def test_reduce_only_root_gets_value(self, run):
        def prog(comm):
            return comm.reduce(1, SUM, root=1)

        out = run(3, prog)
        assert out == [None, 3, None]

    def test_reduce_rank_order_fold(self, run):
        # String concatenation is non-commutative: order must be rank order.
        from repro.mpi import ReduceOp

        cat = ReduceOp("cat", lambda a, b: a + b)

        def prog(comm):
            return comm.reduce(str(comm.rank), cat, root=0)

        assert run(4, prog)[0] == "0123"


class TestGatherScatter:
    def test_gather(self, run):
        def prog(comm):
            return comm.gather(comm.rank * 2, root=0)

        out = run(4, prog)
        assert out[0] == [0, 2, 4, 6]
        assert out[1] is None

    def test_allgather(self, run):
        def prog(comm):
            return comm.allgather(comm.rank)

        assert run(3, prog) == [[0, 1, 2]] * 3

    def test_scatter(self, run):
        def prog(comm):
            vals = [i * i for i in range(comm.size)] if comm.rank == 0 else None
            return comm.scatter(vals, root=0)

        assert run(4, prog) == [0, 1, 4, 9]

    def test_scatter_wrong_length_raises(self, run):
        def prog(comm):
            vals = [1] if comm.rank == 0 else None
            return comm.scatter(vals, root=0)

        with pytest.raises(SPMDError):
            run(2, prog)


class TestAlltoall:
    def test_alltoall_transpose(self, run):
        def prog(comm):
            return comm.alltoall([f"{comm.rank}->{d}" for d in range(comm.size)])

        out = run(3, prog)
        assert out[1] == ["0->1", "1->1", "2->1"]

    def test_alltoallv_roundtrip(self, run):
        def prog(comm):
            # deliberately p²-total payload — exercises varying row sizes
            chunks = [np.full(d + 1, comm.rank) for d in range(comm.size)]
            got = comm.alltoallv(chunks)  # spmd: ignore[P2-TRAFFIC]
            return [c.tolist() for c in got]

        out = run(3, prog)
        # rank 1 receives chunks of size 2 from every source
        assert out[1] == [[0, 0], [1, 1], [2, 2]]

    def test_alltoallv_wrong_count(self, run):
        def prog(comm):
            comm.alltoallv([np.zeros(1)])

        with pytest.raises(SPMDError):
            run(2, prog)

    def test_alltoallv_empty_chunks(self, run):
        def prog(comm):
            chunks = [np.zeros(0) for _ in range(comm.size)]
            got = comm.alltoallv(chunks)
            return sum(c.size for c in got)

        assert run(4, prog) == [0, 0, 0, 0]


class TestScans:
    def test_inclusive_scan(self, run):
        def prog(comm):
            return comm.scan(comm.rank + 1)

        assert run(4, prog) == [1, 3, 6, 10]

    def test_exscan(self, run):
        def prog(comm):
            return comm.exscan(comm.rank + 1)

        assert run(4, prog) == [None, 1, 3, 6]

    def test_scan_arrays(self, run):
        def prog(comm):
            return comm.scan(np.array([1, comm.rank]))

        out = run(3, prog)
        assert np.array_equal(out[2], [3, 3])


class TestBarrierAndClocks:
    def test_barrier_synchronizes_clocks(self, run):
        def prog(comm):
            if comm.rank == 0:
                comm.compute(1.0)
            comm.barrier()
            return comm.clock

        clocks = run(4, prog)
        assert min(clocks) > 1.0
        assert max(clocks) - min(clocks) < 1e-9

    def test_compute_accumulates(self, run):
        def prog(comm):
            comm.compute(0.5)
            comm.compute(0.25)
            return comm.clock

        assert run(2, prog)[0] >= 0.75

    def test_negative_compute_rejected(self, run):
        def prog(comm):
            comm.compute(-1.0)

        with pytest.raises(SPMDError):
            run(1, prog)

    def test_collective_clock_monotone(self, run):
        def prog(comm):
            t0 = comm.clock
            comm.allreduce(1)
            t1 = comm.clock
            assert t1 > t0
            return True

        assert all(run(4, prog))


class TestStats:
    def test_traffic_recorded(self):
        def prog(comm):
            comm.allreduce(np.zeros(16))
            if comm.rank == 0:
                comm.send(np.zeros(8), dest=1)
            if comm.rank == 1:
                comm.recv(source=0)

        _, rt = run_spmd(2, prog, return_runtime=True)
        snap = rt.stats.snapshot()
        assert snap.total_msgs_sent == 1
        assert snap.total_bytes_sent == 64
        assert "allreduce" in snap.collectives


#: the collectives with a ``then=`` step, each called the same way on every rank
THEN_CALLS = {
    "allreduce": lambda comm, then: comm.allreduce(np.array([comm.rank, 1]), then=then),
    "node_allreduce": lambda comm, then: comm.allreduce(
        np.array([comm.rank, 1]), by_node=True, then=then
    ),
    "allgather": lambda comm, then: comm.allgather(comm.rank, then=then),
    "bcast": lambda comm, then: comm.bcast([7] if comm.rank == 0 else None, then=then),
}


def _counted(fn):
    """``fn`` and the list its calls append to (``append`` is atomic)."""
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    return wrapper, calls


class TestThen:
    @pytest.mark.parametrize("p", [1, 3, 8])
    @pytest.mark.parametrize("name", sorted(THEN_CALLS))
    def test_runs_once_per_call_and_every_member_gets_its_result(self, name, p):
        then, calls = _counted(lambda value: {"got": value})

        def prog(comm):
            return [THEN_CALLS[name](comm, then) for _ in range(2)]

        # two nodes of four: ``by_node`` composes at p = 8
        out = spmd(p, prog, machine=abstract_cluster(2, cores_per_node=4), ranks_per_node=4)
        assert len(calls) == 2
        for i, (value,) in enumerate(calls):
            assert all(r[i] is out[0][i] for r in out)
            assert out[0][i]["got"] is value
        want = {
            "allgather": list(range(p)), "bcast": [7],
        }.get(name, [p * (p - 1) // 2, p])
        assert np.array_equal(calls[0][0], want)

    @pytest.mark.parametrize("name", sorted(THEN_CALLS))
    def test_without_then_every_rank_owns_a_copy(self, name):
        out = spmd(3, lambda comm: THEN_CALLS[name](comm, None))
        assert len({id(r) for r in out}) == 3

    def test_then_joins_the_congruence_record(self):
        def prog(comm):
            # rank 1 alone asks for a then= step
            return comm.allreduce(comm.rank, then=str if comm.rank == 1 else None)

        with pytest.raises(SPMDError) as ei:
            run_spmd(3, prog, check=False, timeout=30)
        (err,) = [e for e in ei.value.failures.values() if isinstance(e, CollectiveMismatchError)]
        assert "then=" in str(err)

    @pytest.mark.parametrize("p", [8, 16])
    def test_the_splitter_search_validates_once_per_round(self, p):
        parts = [make_partition("zipf_u64", 500, rank=r, seed=3) for r in range(p)]
        seam, calls = _counted(multiselect.accept_or_tighten)
        with mock.patch.object(multiselect, "accept_or_tighten", seam):
            out = spmd(p, lambda comm: histogram_sort(comm, parts[comm.rank]))
        res = out[0].splitters
        assert res.rounds > 2
        assert len(calls) == res.rounds - (res.gathered_keys > 0)
        assert all(r.splitters.values is res.values for r in out)
        assert not res.values.flags.writeable

    def test_a_resilient_sort_validates_once_per_round_too(self):
        # a resilient sort runs the plain collectives: one search state,
        # stepped by the last arriver of each round
        p = 4
        parts = [make_partition("zipf_u64", 500, rank=r, seed=3) for r in range(p)]
        seam, calls = _counted(multiselect.accept_or_tighten)
        with mock.patch.object(multiselect, "accept_or_tighten", seam):
            out = spmd(p, lambda comm: histogram_sort(
                comm, parts[comm.rank], SortConfig(resilient=True)
            ))
        res = out[0].splitters
        assert res.rounds > 2
        assert len(calls) == res.rounds - (res.gathered_keys > 0)
        assert all(r.splitters.values is res.values for r in out)
