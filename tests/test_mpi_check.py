"""Runtime verification, made by every run: congruence, deadlock and
timeout diagnoses with call sites, finalize accounting, request
idempotency, and a false-positive soak."""

import re
import time
import warnings
from unittest import mock

import numpy as np
import pytest

from repro.mpi import (
    Aborted,
    CollectiveMismatchError,
    DeadlockError,
    MessageLeakError,
    MessageTimeoutError,
    Runtime,
    SPMDError,
    run_spmd,
)
from repro.mpi.waitstate import WaitRegistry


def _failure_types(excinfo):
    return {type(e) for e in excinfo.value.failures.values()}


def _site(fn, offset):
    """Pattern of the call site ``offset`` lines into ``fn``'s definition."""
    line = fn.__code__.co_firstlineno + offset
    return rf"\S*test_mpi_check\.py:{line} \({fn.__name__}\)"


def _bcast_vs_allreduce(comm):
    if comm.rank == 0:
        return comm.bcast(1, root=0)  # spmd: ignore[DIV-COLLECTIVE]
    return comm.allreduce(1)  # spmd: ignore[DIV-COLLECTIVE]


def _bcast_roots_disagree(comm):
    return comm.bcast(1, root=0 if comm.rank == 0 else 1)


def _allgather_vs_allreduce(comm):
    if comm.rank == 0:
        return comm.allgather(1)  # spmd: ignore[DIV-COLLECTIVE]
    return comm.allreduce(1)  # spmd: ignore[DIV-COLLECTIVE]


class _SanitizerAxis:
    """Runs each case with the sanitizer on; the ``...Unchecked``
    subclasses re-run every case with it off.  The diagnoses, call sites
    included, must not depend on its wrapper frames."""

    sanitize = True

    def _run(self, *args, **kwargs):
        return run_spmd(*args, sanitize=self.sanitize, **kwargs)


class TestCollectiveCongruence(_SanitizerAxis):
    """The rendezvous' last arriver checks congruence in every run and
    names both members' call sites."""

    def test_mismatched_op_names(self):
        def prog(comm):
            if comm.rank == 0:
                return comm.bcast(1, root=0)  # spmd: ignore[DIV-COLLECTIVE]
            return comm.allreduce(1)  # spmd: ignore[DIV-COLLECTIVE]

        with pytest.raises(SPMDError) as ei:
            self._run(2, prog, timeout=30)
        assert CollectiveMismatchError in _failure_types(ei)
        msg = str(ei.value.__cause__)
        # Both ranks' call sites are named in the diagnosis.
        assert re.search(rf"rank 0 called bcast\(root=0\) at {_site(prog, 2)}", msg)
        assert re.search(rf"rank 1 called allreduce\(\) at {_site(prog, 3)}", msg)

    def test_mismatched_bcast_root(self):
        def prog(comm):
            return comm.bcast(comm.rank, root=0 if comm.rank == 0 else 1)

        with pytest.raises(SPMDError) as ei:
            self._run(2, prog, timeout=30)
        assert CollectiveMismatchError in _failure_types(ei)
        assert "root=0" in str(ei.value.__cause__)
        assert "root=1" in str(ei.value.__cause__)

    def test_congruent_run_is_clean(self):
        def prog(comm):
            x = comm.allreduce(comm.rank)
            comm.barrier()
            return comm.bcast(x, root=0)

        assert self._run(4, prog, timeout=30) == [6, 6, 6, 6]

    def _mismatch(self, size, prog):
        with pytest.raises(SPMDError) as ei:
            self._run(size, prog, timeout=30)
        assert _failure_types(ei) == {CollectiveMismatchError}
        msg = str(ei.value.__cause__)
        assert msg.count("test_mpi_check.py") == 2
        return msg

    @pytest.mark.parametrize("prog, first, other", [
        (_bcast_vs_allreduce, "bcast(root=0)", "allreduce()"),
        (_bcast_roots_disagree, "bcast(root=0)", "bcast(root=1)"),
        (_allgather_vs_allreduce, "allgather()", "allreduce()"),
    ])
    def test_three_ranks(self, prog, first, other):
        msg = self._mismatch(3, prog)
        assert f"rank 0 called {first}" in msg
        assert f"rank 1 called {other}" in msg

    def test_only_the_last_arriver_differs(self):
        def prog(comm):
            if comm.rank == 2:
                state = comm._state
                with state.cond:
                    for _ in range(30_000):
                        if state.arrived == 2:
                            break
                        state.cond.wait(1e-3)
                return comm.bcast(1, root=0)  # spmd: ignore[DIV-COLLECTIVE]
            return comm.allreduce(1)  # spmd: ignore[DIV-COLLECTIVE]

        msg = self._mismatch(3, prog)
        assert "rank 0 called allreduce()" in msg
        assert "rank 2 called bcast(root=0)" in msg

    def test_inside_one_split_half(self):
        def prog(comm):
            half = comm.split(comm.rank // 2, comm.rank)
            if comm.rank == 3:
                return half.bcast(1, root=0)  # spmd: ignore[DIV-COLLECTIVE]
            return half.allreduce(1)  # spmd: ignore[DIV-COLLECTIVE]

        msg = self._mismatch(4, prog)
        assert "(members [2, 3])" in msg
        assert "rank 2 called allreduce()" in msg
        assert "rank 3 called bcast(root=0)" in msg


class TestCollectiveCongruenceUnchecked(TestCollectiveCongruence):
    sanitize = False


class TestDeadlockDetection(_SanitizerAxis):
    """Deadlocks are diagnosed from the wait ledger in every run, each
    blocked rank at its call site, read off its stack."""

    def test_recv_recv_cycle(self):
        def prog(comm):
            peer = 1 - comm.rank
            got = comm.recv(source=peer, tag=7)  # spmd: ignore[TAG-COLLISION]
            comm.send(comm.rank, peer, tag=7)  # spmd: ignore[TAG-COLLISION]
            return got

        with pytest.raises(SPMDError) as ei:
            self._run(2, prog, timeout=30)
        assert DeadlockError in _failure_types(ei)
        msg = str(ei.value.__cause__)
        assert "wait-for cycle" in msg
        assert "rank 0" in msg and "rank 1" in msg

    def test_mismatched_barrier(self):
        # Rank 1 never reaches the barrier: rank 0 waits forever.
        def prog(comm):
            if comm.rank == 0:
                comm.barrier()  # spmd: ignore[SPMD-DIV-COLLECTIVE]
            return comm.rank

        with pytest.raises(SPMDError) as ei:
            self._run(2, prog, timeout=30)
        assert DeadlockError in _failure_types(ei)
        msg = str(ei.value.__cause__)
        assert "blocked in collective 'barrier'" in msg
        assert "finished rank(s): [1]" in msg

    def test_recv_with_no_sender(self):
        def prog(comm):
            if comm.rank == 0:
                return comm.recv(source=1, tag=3)
            return None

        with pytest.raises(SPMDError) as ei:
            self._run(2, prog, timeout=30)
        assert DeadlockError in _failure_types(ei)
        assert "blocked in recv(source=1, tag=3)" in str(ei.value.__cause__)

    def test_irecv_wait_with_no_sender(self):
        def prog(comm):
            if comm.rank == 0:
                return comm.irecv(source=1, tag=4).wait()
            return None

        with pytest.raises(SPMDError) as ei:
            self._run(2, prog, timeout=30)
        assert DeadlockError in _failure_types(ei)
        msg = str(ei.value.__cause__)
        assert "rank 0: blocked in recv(source=1, tag=4)" in msg
        assert "finished rank(s): [1]" in msg

    def test_split_collective_one_member_skips(self):
        # Rank 3 skips its pair's allreduce and goes straight to the world
        # barrier: rank 2 waits for it on the sub-communicator, everyone
        # else waits for rank 2 on the world.
        def prog(comm):
            sub = comm.split(comm.rank // 2, comm.rank)
            if comm.rank != 3:
                sub.allreduce(1)  # spmd: ignore[SPMD-DIV-COLLECTIVE]
            comm.barrier()

        with pytest.raises(SPMDError) as ei:
            self._run(4, prog, timeout=30)
        assert _failure_types(ei) == {DeadlockError}
        assert set(ei.value.failures) == {0, 1, 2, 3}
        msg = str(ei.value.__cause__)
        assert "rank 2: blocked in collective 'allreduce'" in msg
        assert "(members [2, 3])" in msg
        assert "rank 3: blocked in collective 'barrier'" in msg
        assert "wait-for cycle: rank 2 -> rank 3 -> rank 2" in msg
        for rank, offset in ((0, 4), (1, 4), (2, 3), (3, 4)):
            assert re.search(rf"rank {rank}: blocked in .* at {_site(prog, offset)}$",
                             msg, re.M), rank

    def test_recv_from_finished_rank(self):
        # Rank 1 sends once and returns; rank 0's second receive can only
        # be diagnosed once rank 1's exit re-arbitrates the ledger.
        def prog(comm):
            if comm.rank == 1:
                comm.send("only", 0, tag=5)  # spmd: ignore[TAG-COLLISION]
                return None
            first = comm.recv(source=1, tag=5)  # spmd: ignore[TAG-COLLISION]
            return first, comm.recv(source=1, tag=5)  # spmd: ignore[TAG-COLLISION]

        with pytest.raises(SPMDError) as ei:
            self._run(2, prog, timeout=30)
        assert set(ei.value.failures) == {0}
        msg = str(ei.value.__cause__)
        assert "blocked in recv(source=1, tag=5)" in msg
        assert "finished rank(s): [1]" in msg
        assert "wait-for cycle" not in msg

    def test_call_sites_only_when_checked(self):
        # Every run is a checked run: each rank line of the verdict ends at
        # the rank's blocked call.
        def prog(comm):
            return comm.recv(source=1 - comm.rank, tag=2)  # spmd: ignore[TAG-COLLISION]

        with pytest.raises(SPMDError) as ei:
            self._run(2, prog, timeout=30)
        msg = str(ei.value.__cause__)
        for rank in (0, 1):
            assert re.search(rf"rank {rank}: blocked in recv\(source={1 - rank}, tag=2\) "
                             rf"on comm#0 at {_site(prog, 1)}$", msg, re.M)
        # A parked spare has no user frame: its line names no site.
        with pytest.raises(SPMDError) as ei:
            self._run(2, prog, spares=1, timeout=30)
        msg = str(ei.value.__cause__)
        assert msg.count("test_mpi_check.py") == 2
        assert re.search(r"rank 2: blocked in ft 'spare_pool' on comm#0$", msg, re.M)

    def test_timeout_report_names_call_sites(self):
        # Rank 1 keeps running (no verdict) until the expiry's abort.
        def prog(comm):
            if comm.rank == 0:
                return comm.recv(source=1, tag=8)
            while not comm._state.aborted:
                time.sleep(1e-3)
            return None

        with pytest.raises(TimeoutError) as ei:
            self._run(2, prog, timeout=0.5)
        msg = str(ei.value)
        assert re.search(rf"rank 0: blocked in recv\(source=1, tag=8\) on comm#0 "
                         rf"at {_site(prog, 2)}$", msg, re.M)
        assert "running rank(s): [1]" in msg

    def test_starved_by_fault_plan(self):
        # The plan drops the only message on every attempt: the receive
        # takes it after the whole retry ladder and times out, no deadlock.
        from repro.faults import FaultPlan, FaultSpec
        from repro.mpi.reliable import LADDER

        def prog(comm):
            if comm.rank == 0:
                comm.send("lost", 1, tag=6)
                return None
            with pytest.raises(MessageTimeoutError, match="dropped on all 8 attempts"):
                comm.recv(source=0, tag=6)
            return comm.clock

        plan = FaultPlan(FaultSpec(drop_rate=1.0), seed=3, size=2)
        out = self._run(2, prog, faults=plan, timeout=30)
        assert out[1] == 5e-7 + LADDER

    def test_unchecked_still_works(self):
        # A clean program: the checks every run makes do not interfere.
        def prog(comm):
            peer = 1 - comm.rank
            return comm.sendrecv(comm.rank, peer, tag=1)  # spmd: ignore[TAG-COLLISION]

        assert self._run(2, prog, timeout=30) == [1, 0]


class TestDeadlockDetectionUnchecked(TestDeadlockDetection):
    sanitize = False


class TestArbitrationAtQuiescence:
    def test_a_collective_loop_arbitrates_at_most_p_times(self):
        # A completed collective hands its members back as runnable, so the
        # ledger walks its blocked waits only when no rank can run — not
        # each time a member blocks while its peers are not yet scheduled.
        p, rounds = 64, 200
        arbitrate = WaitRegistry._arbitrate_locked
        walks = []

        def counted(reg):
            if reg._nrunning == 0 and reg.verdict is None:
                walks.append(1)
            return arbitrate(reg)

        def prog(comm):
            for _ in range(rounds):
                comm.allreduce(np.zeros(16))

        with mock.patch.object(WaitRegistry, "_arbitrate_locked", counted):
            run_spmd(p, prog, timeout=60)
        assert len(walks) <= p


class TestFinalizeAccounting:
    def test_leak_raises_checked(self):
        from repro.faults import FaultPlan, FaultSpec

        def prog(comm):
            if comm.rank == 0:
                comm.send(b"orphan", 1, tag=9)  # spmd: ignore[TAG-COLLISION]
            return None

        # A crash-free fault plan leaves no residue of its own: every
        # message reaches its mailbox once, so a leak is still a leak.
        for faults in (None, FaultPlan(FaultSpec(drop_rate=0.1), seed=1, size=2)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # one error, no warning first
                with pytest.raises(MessageLeakError, match=r"src=0 dest=1 tag=9"):
                    run_spmd(2, prog, faults=faults, timeout=30)

    def test_reused_runtime_starts_clean(self):
        # A leaking run is reported once, and its orphans are discarded:
        # no later run sees them.
        rt = Runtime(2)

        def orphan(comm):
            if comm.rank == 0:
                comm.send(b"orphan", 1, tag=9)  # spmd: ignore[TAG-COLLISION]
                comm.irecv(source=1, tag=4)  # spmd: ignore[UNWAITED-REQUEST]
            return None

        with pytest.raises(MessageLeakError, match=r"never-completed irecv"):
            rt.run(orphan, timeout=30)
        assert rt.run(lambda comm: comm.allreduce(1), timeout=30) == [2, 2]

        def take(comm):
            if comm.rank == 1:
                return comm.recv(source=0, tag=9)  # spmd: ignore[TAG-COLLISION]
            comm.send(b"fresh", 1, tag=9)  # spmd: ignore[TAG-COLLISION]
            return None

        assert rt.run(take, timeout=30) == [None, b"fresh"]

    def test_pending_irecv_raises_checked(self):
        def prog(comm):
            if comm.rank == 0:
                req = comm.irecv(source=1, tag=4)  # spmd: ignore[UNWAITED-REQUEST]
                del req  # never waited
            return None

        with pytest.raises(MessageLeakError, match=r"never-completed irecv"):
            run_spmd(2, prog, timeout=30)

    def test_clean_run_no_warning(self, recwarn):
        def prog(comm):
            peer = 1 - comm.rank
            comm.send(comm.rank, peer, tag=2)  # spmd: ignore[TAG-COLLISION]
            return comm.recv(source=peer, tag=2)  # spmd: ignore[TAG-COLLISION]

        assert run_spmd(2, prog, timeout=30) == [1, 0]
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


class TestRequestIdempotency:
    def test_wait_twice_returns_same_payload(self, run):
        def prog(comm):
            peer = 1 - comm.rank
            req = comm.irecv(source=peer, tag=5)  # spmd: ignore[TAG-COLLISION]
            comm.send({"from": comm.rank}, peer, tag=5)  # spmd: ignore[TAG-COLLISION]
            first = req.wait()
            second = req.wait()  # idempotent: must not re-receive
            assert second is first
            done, payload = req.test()
            assert done and payload is first
            return first["from"]

        assert run(2, prog, timeout=30) == [1, 0]

    def test_wait_after_abort_is_stable(self):
        # Rank 1 dies; rank 0's wait() aborts — and keeps raising the same
        # error on every retry instead of hanging or returning garbage.
        def prog(comm):
            if comm.rank == 0:
                req = comm.irecv(source=1, tag=6)
                with pytest.raises(Aborted):
                    req.wait()
                with pytest.raises(Aborted):
                    req.wait()
                with pytest.raises(Aborted):
                    req.test()
                return "survived"
            raise ValueError("boom")

        with pytest.raises(SPMDError) as ei:
            run_spmd(2, prog, timeout=30)
        assert set(ei.value.failures) == {1}


class TestFailurePropagation:
    def test_abort_mid_collective_propagates(self):
        # Rank 0 raises while the others sit in a barrier; they must be
        # released as secondary casualties, not report their own failures.
        def prog(comm):
            if comm.rank == 0:
                raise ValueError("primary failure")
            comm.barrier()  # spmd: ignore[SPMD-DIV-COLLECTIVE]
            return None

        with pytest.raises(SPMDError) as ei:
            run_spmd(4, prog, timeout=30)
        assert set(ei.value.failures) == {0}
        assert isinstance(ei.value.failures[0], ValueError)

    def test_spmd_error_carries_every_failing_rank(self):
        # No communication before the raise: no rank can be demoted to a
        # secondary Aborted casualty, so every failure must be reported.
        def prog(comm):
            raise ValueError(f"rank {comm.rank} failed")

        with pytest.raises(SPMDError) as ei:
            run_spmd(3, prog, timeout=30)
        assert set(ei.value.failures) == {0, 1, 2}
        for r, exc in ei.value.failures.items():
            assert str(exc) == f"rank {r} failed"


class TestClockInvariance:
    def test_no_false_positive_soak(self):
        """200 rounds of random-partner sendrecv + allreduce at p=16: the
        ledger never cries deadlock."""
        p, rounds = 16, 200

        def prog(comm):
            rng = np.random.default_rng(1234)  # same stream on every rank
            total = 0
            for r in range(rounds):
                perm = rng.permutation(p)
                slot = int(np.flatnonzero(perm == comm.rank)[0])
                partner = int(perm[slot ^ 1])
                got = comm.sendrecv(comm.rank + r, partner, tag=r)
                assert got == partner + r
                total += comm.allreduce(got)
            return total

        res = run_spmd(p, prog, timeout=120)
        assert len(set(res)) == 1
