"""``allgather``, ``exscan`` and ``alltoall`` with ``by_node=True``.

Each is one rendezvous with the flat call's result, recorded as
``node_allgather`` / ``node_exscan`` / ``node_alltoall``.  Its price has two
alternatives — the flat collective, and on a group with two levels the
composition through one leader per node (:meth:`CostModel.node_allgather_stages`
and its siblings) — and the rendezvous keeps the one that finishes first,
under a fault plan after pricing the plan's faults into both.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import histogram_sort
from repro.faults import FaultPlan, FaultSpec, LinkFault
from repro.machine import CostModel, abstract_cluster, make_placement
from repro.machine.cost import advance, finish
from repro.mpi import SUM, Runtime, SPMDError, run_spmd
from repro.mpi.payload import payload_nbytes

WALL = 120.0


def _cost(nodes, rpn, **machine):
    cluster = abstract_cluster(nodes, cores_per_node=rpn, **machine)
    return CostModel(make_placement(cluster, nodes * rpn, rpn))


def _value(kind, rank, size, width):
    """Member ``rank``'s deposit: an array, or for ``alltoall`` one per peer."""
    row = np.arange(width, dtype=np.int64) * (rank + 1)
    if kind == "alltoall":
        return [row + 1000 * peer for peer in range(size)]
    return row


def _call(kind, comm, value, by_node):
    if kind == "allgather":
        return comm.allgather(value, by_node=by_node)
    if kind == "exscan":
        return comm.exscan(value, SUM, by_node=by_node)
    return comm.alltoall(value, by_node=by_node)


def _alternatives(kind, cost, values, ranks):
    """What the rendezvous weighs, from the members' deposits."""
    if kind == "allgather":
        return cost.node_allgather_stages(payload_nbytes(values[0]), ranks)
    if kind == "exscan":
        return cost.node_exscan_stages(payload_nbytes(values[0]), ranks)
    total = sum(payload_nbytes(v) for v in values)
    return cost.node_alltoall_stages(total / len(ranks) ** 2, ranks)


def _through(clock, stages):
    for stage in stages:
        clock = advance(clock, stage)
    return clock


def _same(a, b):
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, list):
        return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))
    return np.array_equal(a, b)


KINDS = ("allgather", "exscan", "alltoall")


# ------------------------------------------------------------ the price


class TestPrice:
    def test_the_sort_collectives_at_p64_compose(self):
        # 8 nodes x 8 ranks, the payloads of a default sort: the setup row,
        # the duplicate counts of 63 boundaries, a row of 64 send counts
        cost = _cost(8, 8)
        row = payload_nbytes([0] * 64)
        for alternatives, flat_us, composed_us in (
            (cost.node_allgather_stages(payload_nbytes((0,) * 5), range(64)), 17.34, 10.43),
            (cost.node_exscan_stages(payload_nbytes(np.zeros(63, np.int64)), range(64)), 17.34, 9.38),
            (cost.node_alltoall_stages(row / 64, range(64)), 13.32, 10.34),
        ):
            flat, composed = alternatives
            assert len(flat) == 1 and len(composed) == 3
            assert finish(flat) == pytest.approx(flat_us * 1e-6, abs=5e-9)
            assert finish(composed) == pytest.approx(composed_us * 1e-6, abs=5e-9)

    @pytest.mark.parametrize("ranks", [range(8), range(0, 64, 8), [5]])
    def test_a_group_with_one_level_is_priced_flat(self, ranks):
        cost = _cost(8, 8)
        assert cost.node_allgather_stages(64, ranks) == [(cost.allgather(64, ranks),)]
        assert cost.node_exscan_stages(64, ranks) == [(cost.scan(64, ranks),)]
        assert cost.node_alltoall_stages(64, ranks) == [(cost.alltoall(64, ranks),)]

    def test_a_prefix_composes_only_over_consecutive_nodes(self):
        cost = _cost(2, 4)
        assert len(cost.node_exscan_stages(64, (0, 1, 2, 4, 5))) == 2
        assert cost.node_groups((0, 4, 1, 5)) == ((0, 1), (0, 4))
        assert cost.node_exscan_stages(64, (0, 4, 1, 5)) == [(cost.scan(64, (0, 4, 1, 5)),)]
        assert len(cost.node_allgather_stages(64, (0, 4, 1, 5))) == 2


# ------------------------------------------ composed against flat, run


@given(
    kind=st.sampled_from(KINDS),
    nodes=st.integers(1, 4),
    rpn=st.integers(1, 4),
    short=st.integers(0, 3),
    drop=st.sets(st.integers(0, 15)),
    permute=st.booleans(),
    seed=st.integers(0, 2**16),
    width=st.sampled_from([1, 30, 3000]),
    net_latency=st.sampled_from([2.0e-6, 2.5e-7]),
)
def test_composed_and_flat_agree(kind, nodes, rpn, short, drop, permute, seed, width, net_latency):
    p = max(nodes * rpn - min(short, rpn - 1), 1)  # the last node may be short
    keep = [r not in drop for r in range(p)]
    if not any(keep):
        keep[0] = True
    key = np.random.default_rng(seed).permutation(p) if permute else np.arange(p)

    def program(by_node):
        def prog(comm):
            work = comm.split(0 if keep[comm.rank] else None, int(key[comm.rank]))
            if work is None:
                return None
            work.barrier()
            entry = comm.clock
            value = _value(kind, work.rank, work.size, width)
            return _call(kind, work, value, by_node), entry, comm.clock, tuple(work.world_ranks)

        return prog

    machine = abstract_cluster(nodes, cores_per_node=rpn, net_latency=net_latency)
    runs = {
        how: run_spmd(p, program(how == "composed"), machine=machine, ranks_per_node=rpn,
                      return_runtime=True, timeout=WALL)
        for how in ("composed", "flat")
    }
    (composed, rt), (flat, _) = runs["composed"], runs["flat"]
    members = [r for r in range(p) if keep[r]]
    ranks = composed[members[0]][3]
    values = [_value(kind, i, len(ranks), width) for i in range(len(ranks))]
    alternatives = _alternatives(kind, rt.cost, values, ranks)
    kept = min(alternatives, key=finish)
    for r in members:
        assert _same(composed[r][0], flat[r][0])
        entry = composed[r][1]
        assert composed[r][2] == _through(entry, kept)
        assert flat[r][2] == _through(entry, alternatives[0])
        assert composed[r][2] <= flat[r][2]
    node = [r // rpn for r in ranks]
    if kind == "exscan" and sum(a != b for a, b in zip(node, node[1:])) + 1 > len(set(node)):
        # a node whose members are not consecutive: no prefix through leaders
        assert len(alternatives) == 1 and composed[members[0]][2] == flat[members[0]][2]


# ------------------------------------------------- congruence and faults


@pytest.mark.parametrize("kind", KINDS)
def test_flat_against_composed_is_a_reported_mismatch(kind):
    def prog(comm):
        return _call(kind, comm, _value(kind, comm.rank, comm.size, 2), by_node=comm.rank != 0)

    with pytest.raises(SPMDError, match="mismatched collectives") as err:
        run_spmd(4, prog, timeout=WALL)
    assert f"node_{kind}()" in str(err.value) and f" {kind}()" in str(err.value)


def test_a_sort_under_an_inert_plan_prices_every_composition_like_no_plan():
    def prog(comm):
        local = np.random.default_rng(comm.rank).integers(0, 1 << 40, 300, dtype=np.uint64)
        return histogram_sort(comm, local).output

    machine = abstract_cluster(2, cores_per_node=4)
    plain = Runtime(8, machine=machine, trace=True)
    out = plain.run(prog, timeout=WALL)
    planned = Runtime(8, machine=machine, faults=FaultPlan(FaultSpec(), 5, 8))
    again = planned.run(prog, timeout=WALL)
    assert all(np.array_equal(a, b) for a, b in zip(out, again))
    assert plain.clocks.tobytes() == planned.clocks.tobytes()
    names = {s.name: s.attrs["level"] for s in plain.trace.rank_spans(0) if s.cat == "collective"}
    # rank 0 leads its node: every composition it took crossed the network
    assert {n for n, level in names.items() if level == "network"} >= {
        "node_allgather", "node_exscan", "node_alltoall", "node_allreduce"}


class _LeaderDrops(FaultPlan):
    """Inert but for the link between the two leaders of 2 x 4, which drops
    the first ``attempts`` attempts of every message in one stage of the
    world's second collective."""

    def __init__(self, stage, attempts):
        super().__init__(FaultSpec(), 1, 8)
        self.stage, self.attempts = stage, attempts

    def link_event(self, src, dst, stream=0, event=None):
        if (event is not None and event[1:3] == (1, self.stage) and event[3] < self.attempts
                and {src, dst} == {0, 4}):
            return LinkFault(drop=True)
        return super().link_event(src, dst, stream, event)


def _gather_once(comm):
    comm.barrier()
    entry = comm.clock
    comm.allgather(np.arange(4), by_node=True)
    return entry, comm.clock


# the stages are numbered on across the alternatives: 0 is the flat one,
# 1..3 the composed gather, leaders' allgather, bcast
@pytest.mark.parametrize("stage, attempts, kept", [
    (2, 3, "flat"),  # the leaders' stage waits out 7 ms of retries
    (2, 8, "flat"),  # ... or fails: an alternative that completes wins
    (0, 3, "composed"),  # the flat star crosses 0 <-> 4 too
])
def test_faults_choose_the_alternative_that_finishes_first(stage, attempts, kept):
    machine = abstract_cluster(2, cores_per_node=4)
    rt = Runtime(8, machine=machine, faults=_LeaderDrops(stage, attempts))
    clocks = rt.run(_gather_once, timeout=WALL)
    flat, composed = rt.cost.node_allgather_stages(payload_nbytes(np.arange(4)), range(8))
    assert finish(composed) < finish(flat)  # faultless, the composition wins
    want = {"flat": flat, "composed": composed}[kept]
    assert all(after == _through(entry, want) for entry, after in clocks)
    assert rt.fault_stats.dropped == 0  # only the discarded alternative dropped


# ------------------------------------------------------------ buffers


@pytest.mark.parametrize("kind", KINDS)
def test_every_member_gets_a_fresh_buffer(kind):
    def prog(comm):
        mine = _value(kind, comm.rank, comm.size, 4)
        got = _call(kind, comm, mine, by_node=True)
        for part in got if isinstance(got, list) else [got]:
            if part is not None:
                part[:] = -1
        comm.barrier()
        return mine

    sends = run_spmd(8, prog, machine=abstract_cluster(2, cores_per_node=4), sanitize=True,
                     timeout=WALL)
    assert all(_same(sends[r], _value(kind, r, 8, 4)) for r in range(8))
