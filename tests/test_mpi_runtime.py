"""Runtime lifecycle: split/dup, failure propagation, determinism, the
rank-thread pool."""

import gc
import os
import subprocess
import sys
import threading
import time
import weakref

import numpy as np
import pytest

from repro.mpi import Aborted, Runtime, SPMDError, run_spmd


class TestSplit:
    def test_split_by_parity(self, run):
        def prog(comm):
            sub = comm.split(comm.rank % 2, key=comm.rank)
            return sub.size, sub.rank, sub.allreduce(comm.rank)

        out = run(6, prog)
        # evens: 0,2,4 -> sum 6 ; odds: 1,3,5 -> sum 9
        assert out[0] == (3, 0, 6)
        assert out[1] == (3, 0, 9)
        assert out[4] == (3, 2, 6)

    def test_split_key_reorders(self, run):
        def prog(comm):
            sub = comm.split(0, key=-comm.rank)  # reversed order
            return sub.rank

        assert run(4, prog) == [3, 2, 1, 0]

    def test_split_undefined_color(self, run):
        def prog(comm):
            sub = comm.split(None if comm.rank == 0 else 1, key=comm.rank)
            return None if sub is None else sub.size

        assert run(3, prog) == [None, 2, 2]

    def test_split_subcomm_isolated_p2p(self, run):
        def prog(comm):
            sub = comm.split(comm.rank // 2, key=comm.rank)
            # p2p within the subcommunicator uses subgroup ranks
            peer = 1 - sub.rank
            return sub.sendrecv(comm.rank, dest=peer)

        out = run(4, prog)
        assert out == [1, 0, 3, 2]

    def test_dup_preserves_layout(self, run):
        def prog(comm):
            d = comm.dup()
            return d.rank == comm.rank and d.size == comm.size

        assert all(run(4, prog))

    def test_world_ranks_mapping(self, run):
        def prog(comm):
            sub = comm.split(comm.rank % 2, key=comm.rank)
            return sub.world_ranks

        out = run(4, prog)
        assert out[0] == [0, 2]
        assert out[1] == [1, 3]


class TestFailures:
    def test_exception_propagates_with_rank(self, run):
        def prog(comm):
            if comm.rank == 1:
                raise KeyError("kaboom")
            comm.barrier()  # spmd: ignore[DIV-COLLECTIVE]

        with pytest.raises(SPMDError) as ei:
            run(3, prog)
        assert 1 in ei.value.failures
        assert isinstance(ei.value.failures[1], KeyError)

    def test_failure_while_others_wait_on_recv(self, run):
        def prog(comm):
            if comm.rank == 0:
                raise ValueError("no message for you")
            comm.recv(source=0)  # would deadlock without abort

        with pytest.raises(SPMDError):
            run(2, prog)

    def test_multiple_failures_collected(self, run):
        def prog(comm):
            raise RuntimeError(f"rank {comm.rank}")

        with pytest.raises(SPMDError) as ei:
            run(3, prog)
        assert set(ei.value.failures) == {0, 1, 2}

    def test_an_aborted_runtime_runs_nothing_again(self):
        rt = Runtime(4)

        def prog(comm):
            if comm.rank == 1:
                raise ValueError("boom")
            return comm.allreduce(comm.rank)  # spmd: ignore[DIV-COLLECTIVE]

        with pytest.raises(SPMDError):
            rt.run(prog)
        # it used to return [None, None, None, None]: every rank Aborted
        with pytest.raises(Aborted, match="aborted by an earlier run"):
            rt.run(lambda comm: comm.allreduce(comm.rank))

    def test_ranks_aborted_from_outside_return_no_results(self):
        rt = Runtime(3)

        def prog(comm):
            if comm.rank == 0:
                rt.abort()  # torn down by no rank's failure
            return comm.allreduce(comm.rank)

        with pytest.raises(SPMDError) as ei:
            rt.run(prog)
        assert ei.value.failures
        assert all(isinstance(e, Aborted) for e in ei.value.failures.values())

    def test_failure_inside_subcommunicator(self, run):
        def prog(comm):
            sub = comm.split(comm.rank % 2, key=comm.rank)
            if comm.rank == 0:
                raise ValueError("boom")
            sub.barrier()  # spmd: ignore[DIV-COLLECTIVE]
            comm.barrier()  # spmd: ignore[DIV-COLLECTIVE]

        with pytest.raises(SPMDError):
            run(4, prog)


class TestRuntimeObject:
    def test_results_in_rank_order(self):
        out = run_spmd(5, lambda comm: comm.rank * 10)
        assert out == [0, 10, 20, 30, 40]

    def test_per_rank_args(self):
        out = run_spmd(
            3, lambda comm, a, b: (a, b),
            per_rank_args=[("a", 0), ("b", 1), ("c", 2)],
        )
        assert out == [("a", 0), ("b", 1), ("c", 2)]

    def test_per_rank_args_wrong_length(self):
        rt = Runtime(2)
        with pytest.raises(ValueError):
            rt.run(lambda comm: None, per_rank_args=[()])

    def test_common_args(self):
        out = run_spmd(2, lambda comm, x: x + comm.rank, 100)
        assert out == [100, 101]

    def test_size_validation(self):
        with pytest.raises(ValueError):
            Runtime(0)

    def test_invalid_rank_handle(self):
        rt = Runtime(2)
        with pytest.raises(IndexError):
            rt.comm(2)

    def test_return_runtime(self):
        out, rt = run_spmd(2, lambda comm: comm.rank, return_runtime=True)
        assert out == [0, 1]
        assert rt.size == 2

    def test_timeout_is_one_deadline_for_the_whole_run(self):
        # Ranks finishing at 0.6 T, 1.2 T and 1.8 T: each is within T of
        # the previous one, so a per-thread join(T) never expires.
        T = 0.25

        def prog(comm):
            time.sleep(0.6 * T * (comm.rank + 1))

        t0 = time.monotonic()
        with pytest.raises(TimeoutError, match="per-rank wait states"):
            run_spmd(3, prog, timeout=T)
        # expiry at T, then the abort's bounded join of the straggler
        assert time.monotonic() - t0 < 1.8 * T + 0.2


class TestDeterminism:
    def test_virtual_time_deterministic(self):
        def prog(comm):
            rng = np.random.default_rng(comm.rank)
            local = rng.integers(0, 1000, 500)
            total = comm.allreduce(int(local.sum()))
            comm.alltoallv([local[i::comm.size].copy() for i in range(comm.size)])
            return total

        runs = []
        for _ in range(2):
            out, rt = run_spmd(4, prog, return_runtime=True)
            runs.append((out, rt.elapsed()))
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == pytest.approx(runs[1][1], rel=0, abs=0)

    def test_larger_world(self, run):
        def prog(comm):
            return comm.allreduce(1)

        assert run(32, prog) == [32] * 32


class TestRankThreadPool:
    def test_workers_are_named_by_rank_while_they_run(self):
        assert run_spmd(4, lambda comm: threading.current_thread().name) == [
            f"rank-{r}" for r in range(4)]

    def test_a_run_after_a_timeout_succeeds(self):
        straggler = []

        def prog(comm):
            if comm.rank == 1:
                straggler.append(threading.current_thread())
                time.sleep(0.3)

        with pytest.raises(TimeoutError, match=r"thread rank-1\)"):
            run_spmd(2, prog, timeout=0.05)
        assert run_spmd(2, lambda comm: comm.allreduce(comm.rank)) == [1, 1]
        # the timed-out run's worker finishes its task and is not parked again
        straggler[0].join(5.0)
        assert not straggler[0].is_alive()

    def test_ranks_may_run_nested_programs_concurrently(self):
        # more pool users than cores, switching often: two runs popping the
        # same parked worker would cross their results or hang
        def inner(comm, base):
            return comm.allreduce(base + comm.rank)

        def outer(comm):
            return [run_spmd(3, inner, 10 * comm.rank + i) for i in range(10)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            out = run_spmd(6, outer, timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert out == [[[3 * (10 * r + i) + 3] * 3 for i in range(10)] for r in range(6)]

    def test_the_run_after_a_failure_is_correct(self):
        def bad(comm):
            if comm.rank == 2:
                raise ValueError("boom")
            return comm.allreduce(1)  # spmd: ignore[DIV-COLLECTIVE]

        for _ in range(3):
            with pytest.raises(SPMDError):
                run_spmd(4, bad)
            assert run_spmd(4, lambda comm: comm.allgather(comm.rank)) == [[0, 1, 2, 3]] * 4

    def test_a_finished_run_is_not_kept_alive(self):
        bufs = []

        def prog(comm):
            buf = np.arange(4 * comm.size)
            bufs.append(weakref.ref(buf))
            return comm.alltoallv(buf, [4] * comm.size)[1].sum()

        out, rt = run_spmd(4, prog, return_runtime=True)
        assert out == [16] * 4
        dead = weakref.ref(rt)
        del rt
        gc.collect()
        assert dead() is None
        assert len(bufs) == 4 and all(ref() is None for ref in bufs)

    def test_a_returned_runtime_keeps_no_deposits(self):
        # the runtime is a reference cycle: what its collectives kept would
        # live until the garbage collector ran, and raise the peak RSS
        bufs = []

        def prog(comm):
            buf = np.arange(4 * comm.size)
            bufs.append(weakref.ref(buf))
            return comm.alltoallv(buf, [4] * comm.size)[1].sum()

        gc.disable()
        try:
            out, rt = run_spmd(4, prog, return_runtime=True)
            assert out == [16] * 4
            assert len(bufs) == 4 and all(ref() is None for ref in bufs)
            assert rt.world_state.cell is None
        finally:
            gc.enable()

    def test_repeated_runs_reuse_p_threads(self):
        # a fresh interpreter: this process's pool holds other tests' workers
        script = (
            "import threading\n"
            "from repro.mpi import run_spmd\n"
            "counts = set()\n"
            "for _ in range(20):\n"
            "    run_spmd(8, lambda comm: comm.allreduce(1))\n"
            "    counts.add(threading.active_count())\n"
            "print(sorted(counts))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True, timeout=120)
        assert out.stdout.strip() == "[9]"
