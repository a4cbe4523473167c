"""``comm.alltoallv(by_node=True)`` against the composition it is priced as.

The call is one rendezvous; its clock is that of three exchanges on the
real ``(node_local, leaders)`` pair — ``local.alltoallv`` delivering the
same-node segments and handing the off-node bytes to the node's leader,
``leaders.alltoallv`` of the node-to-node blocks, ``local.alltoallv``
forwarding them to the members — built here with two ``comm.split``s and
executed, which is the specification the fused price has to meet.
"""

from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import SortConfig, histogram_sort
from repro.core.resilient import ResilientSortResult
from repro.faults import CrashEvent, FaultPlan, FaultSpec
from repro.machine import CostModel, abstract_cluster, make_placement
from repro.machine.cost import advance
from repro.mpi import Runtime, SPMDError, run_spmd
from repro.mpi.comm import _CommState
from repro.sanitize import RECV_ALIAS, SanitizerError

WALL = 120.0


def _cost(nodes, rpn, **machine):
    cluster = abstract_cluster(nodes, cores_per_node=rpn, **machine)
    return CostModel(make_placement(cluster, nodes * rpn, rpn))


def _counts(p, seed, scale):
    """A ``p x p`` count matrix with some empty pairs."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, scale + 1, (p, p))
    counts[rng.random((p, p)) < 0.3] = 0
    return counts


# ------------------------------------------------------------ the price


class TestPrice:
    def test_a_latency_bound_exchange_at_p64_composes(self):
        cost = _cost(8, 8)
        vols = np.full((64, 64), 256.0)
        stages = cost.node_alltoallv_stages(vols, range(64))
        assert len(stages) == 3
        end = 0.0
        for stage in stages:
            end = advance(end, stage)
        assert end.max() < 0.7 * cost.alltoallv_per_rank(vols, range(64)).max()

    @pytest.mark.parametrize("ranks", [range(8), range(0, 64, 8), [5]])
    def test_a_group_with_one_level_is_priced_flat(self, ranks):
        cost = _cost(8, 8)
        vols = np.full((len(ranks), len(ranks)), 64.0)
        (flat,) = cost.node_alltoallv_stages(vols, ranks)
        assert np.array_equal(flat, cost.alltoallv_per_rank(vols, ranks))

    def test_flat_wins_the_call_it_is_cheaper_on(self):
        # bulk payloads: the composition moves the off-node bytes three times
        cost = _cost(2, 4)
        bulk = np.full((8, 8), 8.0 * 2**20)
        (flat,) = cost.node_alltoallv_stages(bulk, range(8))
        assert np.array_equal(flat, cost.alltoallv_per_rank(bulk, range(8)))
        assert len(cost.node_alltoallv_stages(np.full((8, 8), 64.0), range(8))) == 3


# ------------------------------------------ the executed composition


def _programs(keep, counts):
    """``{how: rank program}``: every program builds the pair and meets in a
    barrier (so the entry clocks agree), then exchanges its own way."""

    def program(how):
        def prog(comm):
            work = comm if all(keep) else comm.split(0 if keep[comm.rank] else None, comm.rank)
            if work is None:
                return None
            place = comm.cost.placement
            node = [place.node_of(r) for r in work.world_ranks]
            local = work.split(node[work.rank], work.rank)
            leaders = work.split(0 if local.rank == 0 else None, work.rank)
            work.barrier()
            mine = counts[work.rank, : work.size]
            if how != "executed":
                return work.alltoallv(np.zeros(mine.sum(), np.int64), mine, by_node=how == "fused")
            same = [j for j in range(work.size) if node[j] == node[work.rank]]
            off = [j for j in range(work.size) if node[j] != node[work.rank]]
            step = counts[work.rank, same]
            if local.rank:  # hand the off-node bytes to the leader
                step[0] += counts[work.rank, off].sum()
            local.alltoallv(np.zeros(step.sum(), np.int64), step)
            if leaders is not None:  # node-to-node blocks
                heads = [j for j in range(work.size) if j == min(
                    i for i in range(work.size) if node[i] == node[j])]
                block = [0 if node[h] == node[work.rank] else int(
                    counts[np.ix_(same, [j for j in range(work.size) if node[j] == node[h]])].sum())
                    for h in heads]
                leaders.alltoallv(np.zeros(sum(block), np.int64), block)
            fwd = np.zeros(len(same), np.int64)
            if local.rank == 0:  # forward to the members
                fwd[1:] = [counts[np.ix_(off, [j])].sum() for j in same[1:]]
            local.alltoallv(np.zeros(fwd.sum(), np.int64), fwd)
            return None

        return prog

    return {how: program(how) for how in ("fused", "executed", "flat")}


@given(
    nodes=st.integers(1, 4),
    rpn=st.integers(1, 4),
    short=st.integers(0, 3),
    drop=st.sets(st.integers(0, 15)),
    seed=st.integers(0, 2**16),
    scale=st.sampled_from([0, 3, 40, 20000]),
    net_latency=st.sampled_from([2.0e-6, 2.5e-7]),
)
def test_fused_call_is_the_executed_composition(nodes, rpn, short, drop, seed, scale, net_latency):
    p = max(nodes * rpn - min(short, rpn - 1), 1)  # the last node may be short
    keep = [r not in drop for r in range(p)]
    if not any(keep):
        keep[0] = True
    counts = _counts(p, seed, scale)
    machine = abstract_cluster(nodes, cores_per_node=rpn, net_latency=net_latency)
    runs = {
        how: run_spmd(p, prog, machine=machine, ranks_per_node=rpn, return_runtime=True)
        for how, prog in _programs(keep, counts).items()
    }
    members = [r for r in range(p) if keep[r]]
    for r in members:
        got, want = runs["fused"][0][r], runs["flat"][0][r]
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    fused, executed, flat = (runs[how][1].clocks[members] for how in runs)
    assert fused.max() <= flat.max()

    per_node = np.bincount([r // rpn for r in members])
    per_node = per_node[per_node > 0]
    if per_node.size == 1 or per_node.max() == 1 or executed.max() >= flat.max():
        assert np.array_equal(fused, flat)  # one level, or flat no dearer
    else:
        assert np.array_equal(fused, executed)  # to the last digit


# ------------------------------------------------- congruence and faults


def test_flat_against_composed_is_a_reported_mismatch():
    def prog(comm):
        return comm.alltoallv(np.arange(comm.size), np.ones(comm.size, int),
                              by_node=comm.rank != 0)

    with pytest.raises(SPMDError, match="mismatched collectives") as err:
        run_spmd(4, prog, timeout=WALL)
    assert "node_alltoallv()" in str(err.value) and " alltoallv()" in str(err.value)


class _LinkLog(FaultPlan):
    """Records the links each priced collective message crosses, on its
    first attempt, by (communicator creation identity, generation, stage)."""

    def __init__(self, spec, seed, size):
        super().__init__(spec, seed, size)
        self.links = defaultdict(list)

    def link_event(self, src, dst, stream=0, event=None):
        if event is not None and event[3] == 0:
            self.links[event[:3]].append((src, dst))
        return super().link_event(src, dst, stream, event)


def _exchange(comm):
    counts = np.full(comm.size, 16)
    return comm.alltoallv(np.arange(counts.sum()), counts, by_node=True), comm.clock


def test_an_inert_plan_prices_like_no_plan_and_draws_per_stage_links():
    machine = abstract_cluster(2, cores_per_node=4)
    plain = Runtime(8, machine=machine)
    plain.run(_exchange, timeout=WALL)
    plan = _LinkLog(FaultSpec(), seed=3, size=8)
    planned = Runtime(8, machine=machine, faults=plan)
    planned.run(_exchange, timeout=WALL)
    assert plain.clocks.tobytes() == planned.clocks.tobytes()
    assert len(planned.cost.node_alltoallv_stages(np.full((8, 8), 128.0), range(8))) == 3
    links = {stage: pairs for (_, _, stage), pairs in plan.links.items()}
    same_node = [(i, j) for i in range(8) for j in range(8) if i != j and i // 4 == j // 4]
    assert sorted(links[0]) == same_node
    assert sorted(links[1]) == [(0, 4), (4, 0)]
    assert sorted(links[2]) == [(0, 1), (0, 2), (0, 3), (4, 5), (4, 6), (4, 7)]


def test_a_sort_under_an_inert_plan_prices_like_no_plan():
    def prog(comm):
        local = np.random.default_rng(comm.rank).integers(0, 1 << 40, 300, dtype=np.uint64)
        return histogram_sort(comm, local).output

    machine = abstract_cluster(2, cores_per_node=4)
    plain = Runtime(8, machine=machine)
    out = plain.run(prog, timeout=WALL)
    planned = Runtime(8, machine=machine, faults=FaultPlan(FaultSpec(), 5, 8))
    again = planned.run(prog, timeout=WALL)
    assert all(np.array_equal(a, b) for a, b in zip(out, again))
    assert plain.clocks.tobytes() == planned.clocks.tobytes()
    assert "node_alltoallv" in plain.stats.snapshot().collectives


@pytest.mark.parametrize("spares", [0, 2])
def test_resilient_sort_on_two_nodes(spares):
    def _input(rank):
        return np.random.default_rng(277 + rank).integers(0, 1 << 62, 64, dtype=np.int64)

    def prog(comm):
        return histogram_sort(comm, _input(comm.rank), SortConfig(resilient=True, checkpoint=True))

    spec = FaultSpec(
        drop_rate=0.05, dup_rate=0.025, delay_rate=0.1,
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
    assert "node_alltoallv" in rt.stats.snapshot().collectives


# ------------------------------------------------------------ buffers


def test_every_member_gets_a_fresh_buffer():
    def prog(comm):
        # one segment each, from the rank before: the receive buffer must
        # still be a copy, not a view of a peer's send buffer
        counts = np.zeros(comm.size, int)
        counts[(comm.rank + 1) % comm.size] = 4
        send = np.full(4, comm.rank)
        got, _ = comm.alltoallv(send, counts, by_node=True)
        got[:] = -1
        comm.barrier()
        return send

    sends = run_spmd(8, prog, machine=abstract_cluster(2, cores_per_node=4), sanitize=True)
    assert [s.tolist() for s in sends] == [[r] * 4 for r in range(8)]


def test_an_aliased_result_is_still_flagged(monkeypatch):
    collective = _CommState.collective

    def aliasing(self, idx, name, deposit, plan, pick, **kwargs):
        if name == "node_alltoallv":  # hand back a peer's send buffer itself
            pick = lambda slots, shared, i: (slots[(i + 1) % self.size][0], shared[0][:, i].copy())
        return collective(self, idx, name, deposit, plan, pick, **kwargs)

    monkeypatch.setattr(_CommState, "collective", aliasing)

    def prog(comm):
        got = _exchange(comm)
        comm.barrier()  # the deposits outlive the next generation
        return got

    with pytest.raises(SanitizerError) as err:
        run_spmd(8, prog, machine=abstract_cluster(2, cores_per_node=4), sanitize=True)
    assert {f.kind for f in err.value.findings} == {RECV_ALIAS}
