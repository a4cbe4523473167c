"""MPI-layer fault machinery: the retry ladder, priced link faults, ULFM ops.

Covers the building blocks :func:`repro.core.resilient.resilient_sort`
stands on — the one retry ladder every message climbs, point-to-point or
priced into the collective rendezvous, and the
``revoke``/``agree``/``shrink`` recovery triple — each in isolation, under
a deterministic :class:`FaultPlan`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import bitonic_sort, hyperquicksort
from repro.core import SortConfig, histogram_sort
from repro.core.resilient import RecoveryExhaustedError
from repro.data import make_partition
from repro.faults import CrashEvent, FaultPlan, FaultSpec
from repro.faults.plan import LinkFault
from repro.machine import abstract_cluster
from repro.mpi import (
    PH_SPLIT,
    PH_START,
    CommRevokedError,
    MessageTimeoutError,
    RankFailedError,
    ReduceOp,
    Replica,
    Runtime,
    SPMDError,
    payload_nbytes,
    run_spmd,
)
from repro.mpi.reliable import DEADLINES, LADDER
from tests.conftest import spmd

WALL = 60.0


# ------------------------------------------------------ the p2p retry ladder


class _DropFirst(FaultPlan):
    """Drops the first ``k`` attempts of every point-to-point message and
    duplicates the attempt that gets through when ``duplicate``."""

    def __init__(self, k, size, duplicate=False):
        super().__init__(FaultSpec(), seed=0, size=size)
        self.k, self.duplicate, self.attempt = k, duplicate, 0

    def link_event(self, src, dst, stream=0, event=None):
        assert event is None  # no collective below
        a, self.attempt = self.attempt, self.attempt + 1
        a %= self.k + 1
        return LinkFault(drop=a < self.k, duplicate=self.duplicate and a == self.k)


@pytest.mark.parametrize("k", [0, 1, 3, 7])
def test_a_message_arrives_after_the_attempts_the_plan_dropped(k):
    payload = np.arange(8, dtype=np.uint64)

    def prog(comm):
        if comm.rank == 0:
            comm.send(payload, 1)
            return comm.clock
        return comm.recv(source=0), comm.clock

    out, rt = run_spmd(2, prog, faults=_DropFirst(k, 2), return_runtime=True, timeout=WALL)
    departure, (got, arrival) = out
    assert np.array_equal(got, payload)
    assert departure == 5e-7  # the sender never waits for the ladder
    ptp = rt.cost.ptp(0, 1, payload_nbytes(payload))
    assert arrival == departure + sum(DEADLINES[:k]) + ptp
    assert rt.fault_stats.dropped == k


def test_a_message_beyond_repair_times_out_its_receive():
    def prog(comm):
        if comm.rank == 0:
            comm.send(b"lost", 1)
            return None
        try:
            comm.recv(source=0)
        except MessageTimeoutError:
            return comm.clock
        return "delivered"

    plan = FaultPlan(FaultSpec(drop_rate=1.0), seed=1, size=2)
    out, rt = run_spmd(2, prog, faults=plan, trace=True,
                       return_runtime=True, timeout=WALL)
    assert out[1] == 5e-7 + LADDER
    assert rt.fault_stats.dropped == len(DEADLINES)
    (span,) = [s for s in rt.trace.spans() if s.cat == "fault"]
    assert (span.rank, span.name, span.t1) == (1, "recv_timeout", 5e-7 + LADDER)


def test_a_duplicate_is_counted_and_leaves_nothing_behind():
    def prog(comm):
        peer = 1 - comm.rank
        comm.send(comm.rank, peer)
        return comm.recv(source=peer)

    out, rt = run_spmd(2, prog, faults=_DropFirst(0, 2, duplicate=True),
                       return_runtime=True, timeout=WALL)
    # returning at all is the leak check: a duplicate left in a mailbox
    # would have raised MessageLeakError at the run's end
    assert out == [1, 0]
    assert rt.fault_stats.duplicated == 2


P2P_SORTS = {
    "overlap_exchange": lambda comm, local: histogram_sort(
        comm, local, SortConfig(overlap_exchange=True)).output,
    "bitonic": lambda comm, local: bitonic_sort(comm, local).output,
    "hyperquicksort": lambda comm, local: hyperquicksort(comm, local).output,
}


def _p2p_sort(algo, drop, p=8, n=4096):
    def prog(comm):
        return P2P_SORTS[algo](comm, make_partition("uniform_u64", n, rank=comm.rank, seed=1))

    plan = FaultPlan(FaultSpec(drop_rate=drop, dup_rate=drop / 2, delay_rate=0.1),
                     seed=7, size=p)
    out, rt = run_spmd(p, prog, faults=plan, return_runtime=True, timeout=WALL)
    keys = np.concatenate([make_partition("uniform_u64", n, rank=r, seed=1) for r in range(p)])
    assert np.array_equal(np.concatenate(out), np.sort(keys))
    return rt


@pytest.mark.parametrize("drop", [0.05, 0.2])
@pytest.mark.parametrize("algo", sorted(P2P_SORTS))
def test_p2p_sorts_survive_drops(algo, drop):
    # every dropped message is retransmitted up the ladder: no deadlock,
    # and no duplicate left behind in a mailbox (that would raise
    # MessageLeakError at the run's end)
    rt = _p2p_sort(algo, drop)
    assert rt.fault_stats.dropped > 0


# Delays only: no attempt drops, so every send is priced as a delivered
# message always was; the sorts' few collectives draw their fates by
# their communicator's creation identity.
@pytest.mark.parametrize("algo, makespan", [("overlap_exchange", 2.848746e-4),
                                            ("bitonic", 2.938350e-4)])
def test_p2p_sorts_under_delays_only_keep_their_makespan(algo, makespan):
    assert _p2p_sort(algo, 0.0).elapsed() == pytest.approx(makespan, rel=1e-6)


def _hyperquicksort_under_delays():
    rt = _p2p_sort("hyperquicksort", 0.0)
    return rt.elapsed(), rt.fault_stats.summary()


def _resilient_sorts_on_split_halves():
    # each half loses one rank and recovers on its own, concurrently
    def prog(comm):
        half = comm.split(comm.rank % 2, comm.rank)
        local = make_partition("uniform_u64", 1024, rank=comm.rank, seed=5)
        return histogram_sort(half, local, SortConfig(resilient=True))

    crashes = (CrashEvent(rank=2, at_op=3), CrashEvent(rank=3, at_op=3))
    rt = Runtime(8, faults=FaultPlan(FaultSpec(drop_rate=0.1, crashes=crashes), seed=5, size=8))
    rt.run(prog, timeout=WALL)
    assert rt.fault_stats.crashed in ([2, 3], [3, 2])
    assert rt.fault_stats.recoveries == 2
    return rt.elapsed(), rt.fault_stats.summary()


@pytest.mark.parametrize("probe, runs", [(_hyperquicksort_under_delays, 6),
                                         (_resilient_sorts_on_split_halves, 8)])
def test_fault_fates_do_not_depend_on_thread_timing(probe, runs):
    # concurrent splits and recoveries on disjoint communicators create
    # communicators in a racy order; the fates must not follow it
    assert len({probe() for _ in range(runs)}) == 1


# ------------------------------------------------------- revoke/agree/shrink


def test_agree_is_a_fault_tolerant_and():
    def prog(comm):
        mine = comm.rank != 2
        return comm.agree(mine)

    plan = FaultPlan(FaultSpec(), seed=1, size=4)
    assert spmd(4, prog, faults=plan, timeout=WALL) == [False] * 4

    def prog_all_true(comm):
        return comm.agree(True)

    plan = FaultPlan(FaultSpec(), seed=1, size=4)
    assert spmd(4, prog_all_true, faults=plan, timeout=WALL) == [True] * 4


def test_revoke_hoists_blocked_receiver():
    def prog(comm):
        if comm.rank == 0:
            comm.revoke()
            return comm.agree(True)
        try:
            comm.recv(source=0, tag=5)  # rank 0 will never send  # spmd: ignore[TAG-COLLISION]
        except CommRevokedError:
            return comm.agree(True)
        return "not hoisted"

    plan = FaultPlan(FaultSpec(), seed=1, size=3)
    assert spmd(3, prog, faults=plan, timeout=WALL) == [True] * 3


def test_shrink_after_injected_crash():
    def prog(comm):
        # rank 2 is killed by the plan at its first operation below; the
        # survivors' receives from it fail instead of waiting for ever
        try:
            if comm.rank == 2:
                comm.send(b"x" * 64, 0)
            else:
                comm.recv(source=2)
        except RankFailedError:
            comm.revoke()
        if not comm.agree(False):
            comm = comm.shrink()
        return (comm.size, tuple(comm.world_ranks))

    plan = FaultPlan(
        FaultSpec(crashes=(CrashEvent(rank=2, at_op=0),)), seed=3, size=4
    )
    results = spmd(4, prog, faults=plan, timeout=WALL)
    live = [r for r in results if r is not None]
    assert len(live) == 3
    assert all(r == (3, (0, 1, 3)) for r in live)


# ------------------------------------------------- the collective rendezvous


class TestCompletedCollective:
    """A collective whose result was agreed returns on every member, no
    matter what a faster member does next; only one that cannot complete
    raises.  The races are wall-clock ones, hence the repeats."""

    REPEATS = 100
    P = 8

    def test_crash_at_the_next_operation(self):
        def prog(comm):
            total = comm.allreduce(1)
            with pytest.raises(RankFailedError):
                comm.barrier()  # rank 0 dies entering it
            return total

        clocks = set()
        for _ in range(self.REPEATS):
            plan = FaultPlan(FaultSpec(crashes=(CrashEvent(rank=0, at_op=1),)),
                             seed=1, size=self.P)
            out, rt = spmd(self.P, prog, faults=plan, timeout=WALL,
                           return_runtime=True)
            assert out == [None] + [self.P] * (self.P - 1)
            clocks.add(tuple(rt.clocks))
        assert len(clocks) == 1

    def test_revoke_right_after(self):
        def prog(comm):
            total = comm.allreduce(1)
            if comm.rank == 0:
                comm.revoke()
            else:
                with pytest.raises(CommRevokedError):
                    comm.barrier()  # spmd: ignore[DIV-COLLECTIVE]
            return total

        for _ in range(self.REPEATS):
            assert spmd(self.P, prog, timeout=WALL) == [self.P] * self.P

    def test_stalled_pick_reads_its_own_generation(self):
        # Rank 0's pick of generation 0 stalls until every peer has
        # deposited generation 1: the peers' deposits must have gone to the
        # other slot buffer, and generation 2 (same buffer as 0) cannot
        # open before rank 0 is through.
        p = 4
        overlapped = []

        class Stall:
            def __init__(self, state):
                self.state = state

            def __deepcopy__(self, memo):
                state = self.state
                with state.cond:
                    for _ in range(30_000):
                        if state.arrived == p - 1:
                            break
                        state.cond.wait(1e-3)
                    overlapped.append(state.arrived == p - 1)
                return ("g0", 0, 0)

        def prog(comm):
            rounds = []
            for g in ("g0", "g1", "g2"):
                row = [(g, comm.rank, dst) for dst in range(p)]
                if g == "g0" and comm.rank == 0:
                    row[0] = Stall(comm._state)
                rounds.append(comm.alltoall(row))
            return rounds

        out = spmd(p, prog, timeout=WALL)
        assert overlapped == [True]
        for rank, rounds in enumerate(out):
            assert rounds == [[(g, src, rank) for src in range(p)]
                              for g in ("g0", "g1", "g2")]

    def test_raising_plan_fails_exactly_one_rank(self):
        class Boom(RuntimeError):
            pass

        def boom(a, b):
            raise Boom("reduction failed")

        def prog(comm):
            return comm.allreduce(comm.rank, op=ReduceOp("boom", boom))

        with pytest.raises(SPMDError) as excinfo:
            spmd(self.P, prog, timeout=WALL)
        (failure,) = excinfo.value.failures.values()
        assert isinstance(failure, Boom)


# ------------------------------------------------- priced collective faults


def _cluster_sort(p, resilient, faults=None, checkpoint=False):
    """Uniform u64, 4,096 keys per rank, four ranks per node."""
    def prog(comm):
        local = make_partition("uniform_u64", 4096, rank=comm.rank, seed=7)
        return histogram_sort(comm, local, SortConfig(resilient=resilient,
                                                      checkpoint=checkpoint))

    rt = Runtime(p, machine=abstract_cluster(p // 4, cores_per_node=4),
                 ranks_per_node=4, faults=faults)
    return rt.run(prog, timeout=WALL), rt


@pytest.mark.parametrize("p", [8, 16])
def test_a_faultless_resilient_sort_is_priced_as_the_plain_one(p):
    # the same collectives, then the verification allgather and the pool
    # round: nothing else moves the clocks
    plain, rt_plain = _cluster_sort(p, False)
    res, rt = _cluster_sort(p, True)
    ranks = range(p)
    for a, b in zip(plain, res):
        assert b.phases == a.phases
        assert b.output.tobytes() == a.output.tobytes()
    out = res[0].output
    cell = (4096, int(out.size), float(out[0]), float(out[-1]))
    verified = rt_plain.elapsed() + rt.cost.allgather(payload_nbytes(cell), ranks)
    assert rt.elapsed() == verified + rt.cost.allreduce(64, ranks)
    assert np.all(rt.clocks == rt.elapsed())


@pytest.mark.parametrize("p", [8, 16])
def test_faultless_checkpoints_add_only_their_ring_moves(p):
    # three ring moves per epoch — the input, the sorted partition and the
    # splitting marker, each to the successor — priced as the alltoallv of
    # what moves; every other clock charge is the resilient sort's (the
    # moves land mid-run, so the sums associate differently: a few ulps)
    resilient, rt_resilient = _cluster_sort(p, True)
    checkpointed, rt = _cluster_sort(p, True, checkpoint=True)
    for a, b in zip(resilient, checkpointed):
        assert b.output.tobytes() == a.output.tobytes()
    ranks = range(p)

    def ring(nbytes):
        vols = np.zeros((p, p))
        vols[np.arange(p), (np.arange(p) + 1) % p] = nbytes
        return rt.cost.alltoallv_per_rank(vols, ranks).max()

    partition = Replica(0, PH_START, (0,), np.zeros(4096, np.uint64)).nbytes
    marker = payload_nbytes((0, PH_SPLIT))
    moves = ring(partition) + ring(partition) + ring(marker)
    assert rt.elapsed() == pytest.approx(rt_resilient.elapsed() + moves, rel=1e-15, abs=0)
    assert np.all(rt.clocks == rt.elapsed())


def test_priced_faults_repeat_with_the_seed():
    def once():
        plan = FaultPlan(FaultSpec(drop_rate=0.2, dup_rate=0.1, delay_rate=0.1,
                                   degrade_links=2), seed=5, size=8)
        _, rt = _cluster_sort(8, False, plan)
        return np.array(rt.clocks), rt.fault_stats.summary(), rt.fault_stats

    clocks, summary, stats = once()
    again, summary_again, _ = once()
    assert np.array_equal(clocks, again)
    assert summary == summary_again
    assert stats.dropped and stats.duplicated and stats.delayed
    _, rt_plain = _cluster_sort(8, False)
    assert np.all(clocks > rt_plain.elapsed())  # retransmissions cost time


def test_a_link_beyond_repair_times_out_every_member_without_an_abort():
    def prog(comm):
        comm.compute(1e-3 * comm.rank)
        try:
            comm.allreduce(1)
        except MessageTimeoutError:
            # the runtime lives on: the fault-tolerant rendezvous completes
            return comm.clock, comm.agree(True)
        return None

    p = 4
    plan = FaultPlan(FaultSpec(drop_rate=1.0), seed=1, size=p)
    out = spmd(p, prog, faults=plan, timeout=WALL)
    entry = 1e-3 * (p - 1)
    assert all(clock == entry + LADDER and agreed for clock, agreed in out)


def test_a_resilient_sort_on_a_dead_network_exhausts_recovery():
    plan = FaultPlan(FaultSpec(drop_rate=1.0), seed=1, size=4)

    def prog(comm):
        return histogram_sort(comm, np.arange(16) * (comm.rank + 1),
                              SortConfig(resilient=True, max_recovery_attempts=2))

    with pytest.raises(SPMDError) as err:
        spmd(4, prog, faults=plan, timeout=WALL)
    assert all(isinstance(e, RecoveryExhaustedError) for e in err.value.failures.values())
