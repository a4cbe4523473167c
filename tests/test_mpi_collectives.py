"""Collective semantics of the SPMD runtime."""

import sys
import time
from unittest import mock

import numpy as np
import pytest

from repro.core import SortConfig, histogram_sort, multiselect
from repro.data import make_partition
from repro.faults import CrashEvent, FaultPlan, FaultSpec
from repro.machine import abstract_cluster
from repro.mpi import (
    MAX,
    MIN,
    PROD,
    SUM,
    Aborted,
    CollectiveMismatchError,
    CommRevokedError,
    CommunicatorError,
    DeadlockError,
    RankFailedError,
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
            buf, counts = comm.alltoallv(chunks)  # spmd: ignore[P2-TRAFFIC]
            return buf.tolist(), counts.tolist()

        out = run(3, prog)
        # rank 1 receives runs of size 2 from every source, in source order
        assert out[1] == ([0, 0, 1, 1, 2, 2], [2, 2, 2])

    def test_alltoallv_wrong_count(self, run):
        def prog(comm):
            comm.alltoallv([np.zeros(1)])

        with pytest.raises(SPMDError) as info:
            run(2, prog)
        assert all(isinstance(e, CommunicatorError) for e in info.value.failures.values())

    def test_alltoallv_empty_chunks(self, run):
        def prog(comm):
            chunks = [np.zeros(0) for _ in range(comm.size)]
            buf, counts = comm.alltoallv(chunks)
            return buf.size, counts.tolist()

        assert run(4, prog) == [(0, [0, 0, 0, 0])] * 4


class TestAlltoallvBufferForm:
    @pytest.mark.parametrize("counts", [[1, 1], [1, 1, 0, 0], [1, 1, 0], [2, 2, 0], [4, -1, 0]],
                             ids=["short", "long", "sum-low", "sum-high", "negative"])
    def test_bad_counts_raise_on_every_rank(self, run, counts):
        def prog(comm):
            comm.alltoallv(np.arange(3), counts)

        with pytest.raises(SPMDError) as info:
            run(3, prog)
        failures = info.value.failures
        assert sorted(failures) == [0, 1, 2]
        assert all(isinstance(e, CommunicatorError) for e in failures.values())

    def test_empty_ranks(self, run):
        def prog(comm):
            # ranks 0 and 2 hold nothing; rank 1 sends one 1, rank 3 three 3s
            # to each peer
            buf = np.full(comm.rank * comm.size if comm.rank != 2 else 0, comm.rank, np.int64)
            counts = np.full(comm.size, buf.size // comm.size)
            got, got_counts = comm.alltoallv(buf, counts)  # spmd: ignore[P2-TRAFFIC]
            return got.tolist(), got_counts.tolist()

        assert run(4, prog) == [([1, 3, 3, 3], [0, 1, 0, 3])] * 4

    def test_single_rank(self, run):
        def prog(comm):
            buf = np.array([3, 1, 2], np.uint32)
            got, counts = comm.alltoallv(buf, [3])
            assert not np.shares_memory(got, buf)
            return got.dtype, got.tolist(), counts.tolist()

        assert run(1, prog) == [(np.dtype(np.uint32), [3, 1, 2], [3])]

    @pytest.mark.parametrize("listed", [False, True], ids=["buffer", "list"])
    def test_float64_empties_keep_the_receive_dtype(self, run, listed):
        # the sampling baselines' empty ranks hold np.empty(0) float64
        def prog(comm):
            if comm.rank == 0:
                buf = np.empty(0)
            else:
                buf = np.arange(comm.size, dtype=np.uint64) + np.uint64(2**63)
            counts = np.full(comm.size, buf.size // comm.size)
            if listed:  # a float64 empty to self beside the u64 chunks
                chunks = [buf[d:d + 1] if d != comm.rank else np.empty(0)
                          for d in range(comm.size)] if buf.size else [buf] * comm.size
                got, _ = comm.alltoallv(chunks)  # spmd: ignore[P2-TRAFFIC] (one key per peer)
            else:
                got, _ = comm.alltoallv(buf, counts)
            return got

        out = run(3, prog)
        assert all(g.dtype == np.uint64 for g in out)
        assert out[2].tolist() == ([2**63 + 2] if listed else [2**63 + 2] * 2)

    def test_list_and_buffer_forms_agree(self, run):
        def prog(comm, listed):
            rng = np.random.default_rng(comm.rank)
            counts = rng.integers(0, 5, comm.size)
            buf = rng.integers(0, 2**64, counts.sum(), dtype=np.uint64)
            cuts = np.concatenate(([0], np.cumsum(counts)))
            if listed:
                chunks = [buf[cuts[d]:cuts[d + 1]] for d in range(comm.size)]
                return comm.alltoallv(chunks)
            return comm.alltoallv(buf, counts)

        runs = [run(5, prog, listed, trace=True, return_runtime=True)
                for listed in (True, False)]
        (out_l, rt_l), (out_b, rt_b) = runs
        for (bl, cl), (bb, cb) in zip(out_l, out_b):
            assert bl.tobytes() == bb.tobytes() and bl.dtype == bb.dtype
            assert cl.tolist() == cb.tolist()
        assert rt_l.clocks.tobytes() == rt_b.clocks.tobytes()
        snap_l, snap_b = rt_l.stats.snapshot(), rt_b.stats.snapshot()
        assert snap_l.collectives == snap_b.collectives
        assert snap_l.bytes_sent.tolist() == snap_b.bytes_sent.tolist()
        assert snap_l.msgs_sent.tolist() == snap_b.msgs_sent.tolist()
        assert repr(rt_l.trace.spans()) == repr(rt_b.trace.spans())


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
            run_spmd(3, prog, timeout=30)
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


#: wall-clock bound of one run: a waiter nobody wakes fails the run instead
#: of hanging it
WALL = 60


def _wait_parked(comm, n):
    """Wait until ``n`` ranks are blocked in the wait ledger."""
    waits = comm._rt._registry._waits
    for _ in range(30_000):
        if sum(w is not None for w in waits) == n:
            return
        time.sleep(1e-3)
    raise AssertionError(f"{n} ranks never parked")


def _snapshot(rt):
    s = rt.stats.snapshot()
    return (s.bytes_sent.tolist(), s.msgs_sent.tolist(), s.compute_time.tolist(),
            s.collectives, s.control)


class TestTurnstile:
    """A generation's members pass its gate one after another.  Every wake
    that is not a completion opens the gate too: with p - 1 members parked
    in one allreduce, each waiter raises its own typed error."""

    P = 64

    def _parked(self, act):
        """``act(comm)`` on rank 0 once every other rank is parked in an
        allreduce; what each of those raises."""
        seen = {}

        def prog(comm):
            if comm.rank == 0:
                _wait_parked(comm, self.P - 1)
                return act(comm)
            try:
                comm.allreduce(1)  # spmd: ignore[DIV-COLLECTIVE]
            except (Aborted, CommunicatorError) as exc:
                seen[comm.rank] = type(exc)
            return None

        return prog, seen

    def _every_waiter(self, seen, error):
        assert seen == {rank: error for rank in range(1, self.P)}

    def test_abort(self):
        def fail(comm):
            raise ValueError("rank 0 fails")

        prog, seen = self._parked(fail)
        with pytest.raises(SPMDError) as ei:
            spmd(self.P, prog, timeout=WALL)
        assert set(ei.value.failures) == {0}
        self._every_waiter(seen, Aborted)

    def test_revoke(self):
        prog, seen = self._parked(lambda comm: comm.revoke())
        spmd(self.P, prog, timeout=WALL)
        self._every_waiter(seen, CommRevokedError)

    def test_crash(self):
        prog, seen = self._parked(lambda comm: comm.allreduce(1))  # rank 0 dies entering it
        plan = FaultPlan(FaultSpec(crashes=(CrashEvent(rank=0, at_op=0),)), seed=1, size=self.P)
        spmd(self.P, prog, faults=plan, timeout=WALL)
        self._every_waiter(seen, RankFailedError)

    def test_skipped_collective(self):
        # Rank 0 returns instead: the ledger's verdict aborts the run.
        prog, seen = self._parked(lambda comm: None)
        spmd(self.P, prog, timeout=WALL)
        self._every_waiter(seen, DeadlockError)

    def test_soak_under_a_tiny_switch_interval(self):
        def prog(comm):
            half = comm.split(comm.rank % 2, comm.rank)
            out = []
            for i in range(40):
                comm.compute(1e-6 * (comm.rank + i))
                out.append(comm.allreduce(comm.rank + i))
                out.append(half.allreduce(np.full(4, comm.rank)).tolist())
                out.append(half.bcast(i if half.rank == 0 else None))
                out.append(comm.alltoall([comm.rank * i] * comm.size))
                out.append(half.exscan(comm.rank))
            return out

        def once():
            out, rt = spmd(16, prog, timeout=WALL, return_runtime=True)
            return out, rt.clocks.tolist(), _snapshot(rt)

        default = once()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            tiny = once()
        finally:
            sys.setswitchinterval(interval)
        assert tiny == default
