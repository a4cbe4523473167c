"""``comm.allreduce(by_node=True)`` against the composition it is priced as.

The call is one rendezvous; its clock is that of three collectives on the
real ``(node_local, leaders)`` pair — ``local.reduce``, ``leaders.allreduce``,
``local.bcast`` — built here with two ``comm.split``s and executed, which is
the specification the fused price has to meet.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import SortConfig, histogram_sort
from repro.core.multiselect import _MINMAX
from repro.core.resilient import ResilientSortResult
from repro.faults import CrashEvent, FaultPlan, FaultSpec
from repro.machine import CostModel, abstract_cluster, make_placement
from repro.mpi import SUM, CommRevokedError, RankFailedError, Runtime, SPMDError, run_spmd
from repro.trace.analysis import level_traffic
from repro.trace.report import report_recorder

WALL = 120.0


def _cost(nodes, rpn, **machine):
    cluster = abstract_cluster(nodes, cores_per_node=rpn, **machine)
    return CostModel(make_placement(cluster, nodes * rpn, rpn))


# ------------------------------------------------------------ the price


class TestPrice:
    def test_a_histogram_round_at_p64(self):
        cost = _cost(8, 8)
        assert cost.allreduce(1008, range(64)) == pytest.approx(43.85e-6, rel=1e-3)
        # needs the per-node occupancy count: 25.1 us with the leaders' NIC shared 8 ways
        assert cost.node_allreduce(1008, range(64)) == pytest.approx(16.67e-6, rel=1e-3)
        assert cost.node_setup(range(64)) == 2 * cost.comm_split(range(64))

    @pytest.mark.parametrize(
        "ranks",
        [
            range(8),  # one node
            range(0, 64, 8),  # one rank per node
            [5],
        ],
    )
    def test_a_group_with_one_level_is_priced_flat(self, ranks):
        cost = _cost(8, 8)
        assert cost.node_groups(ranks) is None and cost.node_setup(ranks) == 0.0
        assert cost.node_allreduce_stages(4096, ranks) == (cost.allreduce(4096, ranks),)

    def test_flat_wins_the_call_it_is_cheaper_on(self):
        # a network as quick as the node: three software overheads lose to one
        cost = _cost(2, 2, net_latency=2.5e-7)
        assert cost.node_groups(range(4)) == ((0, 1), (0, 2))
        assert cost.node_allreduce_stages(64, range(4)) == (cost.allreduce(64, range(4)),)
        assert len(_cost(2, 2).node_allreduce_stages(64, range(4))) == 3

    def test_structure_follows_the_rank_tuple(self):
        # what shrink() leaves of 2 x 4: the largest node group and the leaders
        cost = _cost(2, 4)
        assert cost.node_groups((0, 1, 3, 4, 6)) == ((0, 1, 3), (0, 4))
        assert cost.node_groups((0, 1, 2, 4)) == ((0, 1, 2), (0, 4))
        assert cost.node_groups((2, 5)) is None  # one survivor per node
        assert cost.node_groups((4, 6, 7)) is None  # every survivor on one node


# ------------------------------------------ the executed composition


def _value(kind, rank, size):
    if kind == "minmax":
        return np.int64(rank * 7 % 5), np.int64(rank * 3 % 11)
    return np.arange(size, dtype=np.int64) * (rank + 1)


def _programs(keep, skew, kind, size):
    """``{how: rank program}``: every program builds the pair (so the entry
    clocks agree), then reduces its own way."""
    op = _MINMAX if kind == "minmax" else SUM

    def program(how):
        def prog(comm):
            work = comm if all(keep) else comm.split(0 if keep[comm.rank] else None, comm.rank)
            if work is None:
                return None
            node = comm.cost.placement.node_of(comm.world_rank)
            local = work.split(node, work.rank)
            leaders = work.split(0 if local.rank == 0 else None, work.rank)
            comm.compute(skew[comm.rank])
            value = _value(kind, comm.rank, size)
            if how != "executed":
                return work.allreduce(value, op, by_node=how == "fused")
            part = local.reduce(value, op)
            if leaders is not None:
                part = leaders.allreduce(part, op)
            return local.bcast(part)

        return prog

    return {how: program(how) for how in ("fused", "executed", "flat")}


def _same(a, b):
    return all(np.array_equal(x, y) for x, y in zip(np.atleast_1d(a), np.atleast_1d(b)))


@given(
    nodes=st.integers(1, 4),
    rpn=st.integers(1, 4),
    short=st.integers(0, 3),
    drop=st.sets(st.integers(0, 15)),
    skews=st.lists(st.floats(0.0, 1e-4), min_size=16, max_size=16),
    kind=st.sampled_from(["sum", "minmax"]),
    size=st.sampled_from([1, 30, 5000]),
    net_latency=st.sampled_from([2.0e-6, 2.5e-7]),
)
def test_fused_call_is_the_executed_composition(
    nodes, rpn, short, drop, skews, kind, size, net_latency
):
    p = max(nodes * rpn - min(short, rpn - 1), 1)  # the last node may be short
    keep = [r not in drop for r in range(p)]
    if not any(keep):
        keep[0] = True
    machine = abstract_cluster(nodes, cores_per_node=rpn, net_latency=net_latency)
    runs = {
        how: run_spmd(p, prog, machine=machine, ranks_per_node=rpn, return_runtime=True)
        for how, prog in _programs(keep, skews, kind, size).items()
    }
    members = [r for r in range(p) if keep[r]]
    for r in members:
        assert _same(runs["fused"][0][r], runs["executed"][0][r])
        assert _same(runs["fused"][0][r], runs["flat"][0][r])
    fused, executed, flat = (runs[how][1].clocks[members] for how in runs)
    assert np.all(fused <= flat)

    per_node = np.bincount([r // rpn for r in members])
    per_node = per_node[per_node > 0]
    if per_node.size == 1 or per_node.max() == 1 or executed.max() >= flat.max():
        assert np.array_equal(fused, flat)  # one level, or flat no dearer
    elif np.all(per_node == per_node[0]):
        assert np.array_equal(fused, executed)  # to the last digit
    else:
        # priced on the fullest node, so nobody leaves before the composition would let it
        assert np.all(fused >= executed)


# ------------------------------------------------- congruence and faults


def test_flat_against_composed_is_a_reported_mismatch():
    def prog(comm):
        return comm.allreduce(1, by_node=comm.rank != 0)

    with pytest.raises(SPMDError, match="mismatched collectives") as err:
        run_spmd(4, prog, timeout=WALL)
    assert "node_allreduce()" in str(err.value) and " allreduce()" in str(err.value)


@pytest.mark.parametrize(
    "victims, composed",
    [
        ((5,), True),  # 4 + 3
        ((1, 2, 3, 5, 6, 7), False),  # one survivor per node
        ((4, 5, 6, 7), False),  # every survivor on one node
    ],
)
def test_survivors_of_a_shrink_are_priced_on_their_own_structure(victims, composed):
    def prog(comm):
        try:
            comm.barrier()
            comm.barrier()
        except (RankFailedError, CommRevokedError):
            comm.revoke()
        if not comm.agree(False):
            comm = comm.shrink()
        before = comm.clock
        total = comm.allreduce(np.arange(64), by_node=True)
        return tuple(comm.world_ranks), int(total[1]), comm.clock - before

    spec = FaultSpec(crashes=tuple(CrashEvent(rank=r, at_op=1) for r in victims))
    rt = Runtime(8, machine=abstract_cluster(2, cores_per_node=4), faults=FaultPlan(spec, 1, 8))
    live = [r for r in rt.run(prog, timeout=WALL) if r is not None]
    assert sorted(rt.fault_stats.crashed) == list(victims)
    ranks = tuple(r for r in range(8) if r not in victims)
    stages = rt.cost.node_allreduce_stages(64 * 8, ranks)
    assert (len(stages) == 3) == composed
    for got_ranks, total, took in live:
        assert got_ranks == ranks and total == len(ranks)
        assert took == pytest.approx(sum(stages), rel=1e-9)


@pytest.mark.parametrize("spares", [0, 2])
def test_resilient_sort_on_two_nodes(spares):
    def _input(rank):
        return np.random.default_rng(177 + rank).integers(0, 1 << 62, 64, dtype=np.int64)

    def prog(comm):
        return histogram_sort(comm, _input(comm.rank), SortConfig(resilient=True, checkpoint=True))

    # rank 5 dies in the first epoch's (gmin, gmax) allreduce (op 3: two ring
    # exchanges and the size allgather before it); rank 2 in the same
    # allreduce of the second epoch (op 7: a shrink restarts from the input
    # with two ring exchanges, a substitution resumes from the sorted keys
    # with the restore and one ring exchange, then the size allgather)
    spec = FaultSpec(
        drop_rate=0.05, dup_rate=0.025,
        crashes=(CrashEvent(rank=5, at_op=3), CrashEvent(rank=2, at_op=7)),
    )
    rt = Runtime(
        8, machine=abstract_cluster(3, cores_per_node=4), ranks_per_node=4,
        spares=spares, faults=FaultPlan(spec, 11, 8 + spares),
    )
    live = [r for r in rt.run(prog, timeout=WALL) if isinstance(r, ResilientSortResult)]
    assert sorted(rt.fault_stats.crashed) == [2, 5]
    assert len(live) == (8 if spares else 6) and live[0].lost == ()
    chain = np.concatenate([r.output for r in sorted(live, key=lambda r: r.comm.rank)])
    assert np.array_equal(chain, np.sort(np.concatenate([_input(r) for r in range(8)])))


# --------------------------------------------------------- observability


class TestObservability:
    def _sort(self, nodes, rpn, **kwargs):
        def prog(comm):
            local = np.random.default_rng(comm.rank).integers(0, 1 << 40, 500, dtype=np.uint64)
            return histogram_sort(comm, local).rounds

        return run_spmd(
            nodes * rpn, prog, machine=abstract_cluster(nodes, cores_per_node=rpn),
            ranks_per_node=rpn, return_runtime=True, **kwargs,
        )

    def test_counted_under_its_own_name_like_an_allreduce(self):
        rounds, rt = self._sort(2, 4)
        snap = rt.stats.snapshot()
        calls, nbytes, ranks = snap.collectives["node_allreduce"]
        # every histogram round but the last, the gather (the setup is an allgather)
        assert calls == rounds[0] - 1 and ranks == 8 * calls
        assert "allreduce" not in snap.collectives
        assert snap.total_collective_calls == sum(v[0] for v in snap.collectives.values())

    def test_spans_split_the_deposits_by_level(self):
        _, rt = self._sort(2, 4, trace=True)
        spans = [s for s in rt.trace.spans() if s.name == "node_allreduce"]
        first = [s for s in spans if s.attrs["seq"] == spans[0].attrs["seq"]]
        assert [s.attrs["level"] for s in first] == ["network", *["numa"] * 3] * 2
        # p - nodes payloads stay inside a node, one per node crosses the network
        by_level = level_traffic(first)
        assert by_level == {"numa": 6 * first[0].nbytes, "network": 2 * first[0].nbytes}
        report = report_recorder(rt.trace)
        assert "-- traffic by locality level" in report
        assert f"node_setup_s={rt.cost.node_setup(range(8))}" in report

    def test_one_node_reads_as_before(self):
        _, rt = self._sort(1, 8, trace=True)
        spans = [s for s in rt.trace.spans() if s.name == "node_allreduce"]
        assert {s.attrs["level"] for s in spans} == {"numa"}
        assert "node_setup_s" not in rt.trace.metadata
