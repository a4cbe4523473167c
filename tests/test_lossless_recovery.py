"""Lossless recovery: buddy checkpointing and spare substitution.

Exercises the recovery loop of :mod:`repro.core.resilient` with what makes
it lossless (``SortConfig(checkpoint=True)`` / ``Runtime(spares=k)``): crashed ranks
are replaced by warm spares, their partitions restored from buddy
replicas, and the sort resumes from the last checkpointed phase — the
no-data-loss contract the chaos harness verifies at scale.  Also pins
the checkpoint collectives' price and fault links, and exact virtual-time
replay.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np
import pytest

from repro.core.config import SortConfig
from repro.core.histsort import histogram_sort
from repro.core.resilient import RecoveryExhaustedError, ResilientSortResult
from repro.faults import CrashEvent, FaultPlan, FaultSpec
from repro.faults.chaos import ChaosCase, run_case
from repro.mpi import Runtime, SPMDError
from repro.mpi.reliable import LADDER

WALL = 120.0


def _input(rank: int, n: int, seed: int = 177) -> np.ndarray:
    rng = np.random.default_rng(seed + rank)
    return rng.integers(0, 1 << 62, n, dtype=np.int64)


def _sorter(comm, n, cfg):
    return histogram_sort(comm, _input(comm.rank, n), cfg)


def _run(p, plan, *, spares=0, checkpoint=True, n=64):
    cfg = SortConfig(resilient=True, checkpoint=checkpoint)
    rt = Runtime(p, spares=spares, faults=plan)
    results = rt.run(_sorter, args=(n, cfg), timeout=WALL)
    live = [r for r in results if isinstance(r, ResilientSortResult)]
    return rt, live


def _expect(ranks, n):
    parts = [_input(r, n) for r in ranks] or [np.empty(0, np.int64)]
    return np.sort(np.concatenate(parts))


#: rank 3 dies in the first histogram round of the first epoch (its op 5,
#: after two ring exchanges and three set-up collectives, one op each),
#: rank 1 in the exact gather allgather of the second epoch (its op 13:
#: epoch 1 ends at op 5 in the round rank 3 died in, then the restore, a
#: ring exchange, three set-up collectives and two histogram rounds)
MID_SPLITTING_AND_MID_GATHER = ((1, 13), (3, 5))


def _crash_plan(seed, size, *crashes, drop=0.05):
    return FaultPlan(
        FaultSpec(drop_rate=drop, dup_rate=drop / 2,
                  crashes=tuple(CrashEvent(rank=r, at_op=op)
                                for r, op in crashes)),
        seed=seed, size=size,
    )


def test_spare_substitution_keeps_rank_count_and_all_data():
    # two crashes, two spares, checkpointing on: p stays 4 and nothing
    # is lost — the tentpole acceptance case
    plan = _crash_plan(11, 6, *MID_SPLITTING_AND_MID_GATHER)
    rt, live = _run(4, plan, spares=2)
    assert sorted(rt.fault_stats.crashed) == [1, 3]
    assert len(live) == 4
    first = live[0]
    assert first.comm.size == 4  # p unchanged
    assert first.spares_used == 2
    assert first.lost == ()
    assert first.failed == (1, 3)
    got = np.sort(np.concatenate([r.output for r in live]))
    assert np.array_equal(got, _expect(range(4), 64))  # full multiset
    chain = np.concatenate(
        [r.output for r in sorted(live, key=lambda r: r.comm.rank)])
    assert np.all(chain[:-1] <= chain[1:])
    assert rt.fault_stats.spares_used == 2
    assert rt.fault_stats.checkpoints > 0
    assert rt.fault_stats.lost == 0


def test_shrink_fallback_salvages_when_spares_exhausted():
    # two crashes but only one spare: the second failure falls back to
    # shrink, yet buddy replicas keep the data (salvage) — lost stays ()
    plan = _crash_plan(11, 5, *MID_SPLITTING_AND_MID_GATHER)
    rt, live = _run(4, plan, spares=1)
    assert sorted(rt.fault_stats.crashed) == [1, 3]
    assert live, "no survivors"
    first = live[0]
    assert len(live) == first.comm.size < 4  # shrunk
    assert first.lost == ()
    got = np.sort(np.concatenate([r.output for r in live]))
    assert np.array_equal(got, _expect(range(4), 64))


def test_spares_without_checkpoint_report_lost_ranks():
    # substitution keeps p constant, but with no replicas the crashed
    # rank's partition is gone — and the result must say so
    # op 2 of rank 2: the extreme-key bounds allreduce
    plan = _crash_plan(7, 5, (2, 2))
    rt, live = _run(4, plan, spares=1, checkpoint=False)
    assert rt.fault_stats.crashed == [2]
    assert len(live) == 4
    first = live[0]
    assert first.comm.size == 4
    assert first.spares_used == 1
    assert first.lost == (2,)
    got = np.sort(np.concatenate([r.output for r in live]))
    assert np.array_equal(got, _expect([0, 1, 3], 64))


def test_faultless_checkpoints_and_spares_leave_the_output_alone():
    # with no faults checkpoints and parked spares must be output-invisible
    def outputs(**kw):
        rt, live = _run(4, None, **kw)
        assert len(live) == 4
        assert all(r.attempts == 1 and r.lost == () for r in live)
        return [r.output for r in sorted(live, key=lambda r: r.comm.rank)]

    legacy = outputs(spares=0, checkpoint=False)
    pooled = outputs(spares=2, checkpoint=True)
    assert all(np.array_equal(a, b) for a, b in zip(legacy, pooled))


@pytest.mark.parametrize("p", [4, 8])
@pytest.mark.parametrize("uniquify", [False, True])
def test_faultless_idle_spare_is_invisible_in_the_diagnostics(p, uniquify):
    # without faults a parked spare (rendezvous on the world, actives on
    # their own communicator) must leave the epoch's diagnostics the same
    # bit for bit, not merely the output
    cfg = SortConfig(resilient=True, uniquify=uniquify)

    def prog(comm):
        rng = np.random.default_rng(177 + comm.rank)
        return histogram_sort(comm, rng.integers(0, 1 << 30, 256, dtype=np.uint64), cfg)

    def live(spares):
        results = Runtime(p, spares=spares).run(prog, timeout=WALL)
        found = [r for r in results if isinstance(r, ResilientSortResult)]
        assert len(found) == p
        return sorted(found, key=lambda r: r.comm.rank)

    for legacy, pooled in zip(live(0), live(1)):
        assert pooled.phases == legacy.phases
        assert pooled.result.rounds == legacy.result.rounds
        assert pooled.result.exchanged_bytes == legacy.result.exchanged_bytes
        assert pooled.output.tobytes() == legacy.output.tobytes()


def test_recovery_epoch_exact_replay():
    # a full lossless recovery (crash + restore + substitution) replays
    # bit-identically: same makespan, clocks, fault tally, outputs
    def once():
        # op 5 of rank 1: the first histogram round, after two ring
        # exchanges and three set-up collectives
        plan = _crash_plan(23, 5, (1, 5), drop=0.15)
        rt, live = _run(4, plan, spares=1)
        assert rt.fault_stats.crashed == [1]
        outs = [r.output for r in sorted(live, key=lambda r: r.comm.rank)]
        return rt.elapsed(), np.array(rt.clocks), rt.fault_stats.summary(), outs

    t_a, clocks_a, stats_a, outs_a = once()
    t_b, clocks_b, stats_b, outs_b = once()
    assert t_a == t_b  # exact float equality, not approx
    assert np.array_equal(clocks_a, clocks_b)
    assert stats_a == stats_b
    assert all(np.array_equal(a, b) for a, b in zip(outs_a, outs_b))
    assert "recoveries=" in stats_a  # the recovery actually happened


def test_control_traffic_separate_from_wire_bytes():
    # checkpoint replication is control-plane: wire_bytes must not move
    # when checkpointing turns on
    def snap(checkpoint):
        plan = FaultPlan(FaultSpec(drop_rate=0.1), seed=31, size=5)
        rt, live = _run(4, plan, spares=1, checkpoint=checkpoint)
        assert len(live) == 4
        return rt.stats.snapshot()

    off = snap(False)
    on = snap(True)
    assert "checkpoint" in on.control and "checkpoint" not in off.control
    ck_msgs, ck_bytes = on.control["checkpoint"]
    assert ck_msgs > 0 and ck_bytes > 0
    assert on.wire_bytes == off.wire_bytes  # data plane unchanged
    assert on.total_control_bytes > off.total_control_bytes


def test_checkpoint_bytes_cover_the_replicated_partitions():
    # a replica is priced by its partition, not as an opaque object
    rt, live = _run(4, None, n=512)
    assert len(live) == 4
    n_msgs, n_bytes = rt.stats.snapshot().control["checkpoint"]
    assert n_msgs == 3 * 4  # input, sorted partition, marker: one move each
    assert n_bytes >= 2 * 4 * _input(0, 512).nbytes


class _LinkLog(FaultPlan):
    """Records the links each priced collective message crosses, on its
    first attempt, by (communicator creation identity, generation)."""

    def __init__(self, spec, seed, size):
        super().__init__(spec, seed, size)
        self.links = defaultdict(list)

    def link_event(self, src, dst, stream=0, event=None):
        if event is not None and event[2:] == (0, 0):
            self.links[event[:2]].append((src, dst))
        return super().link_event(src, dst, stream, event)


def test_checkpoint_moves_draw_fates_on_the_moving_links_only():
    # a ring generation draws p fates (one per successor link), a restore
    # one per replica shipped — never the p(p - 1) of an alltoallv
    plan = _LinkLog(FaultSpec(crashes=(CrashEvent(rank=3, at_op=5),)), seed=11, size=5)
    cfg = SortConfig(resilient=True, checkpoint=True)
    rt = Runtime(4, spares=1, faults=plan, trace=True)
    rt.run(_sorter, args=(64, cfg), timeout=WALL)
    assert rt.fault_stats.crashed == [3] and rt.fault_stats.restored == 1
    names = {(s.attrs["comm"], s.attrs["seq"]): s.name
             for s in rt.trace.spans() if s.cat == "collective" and "seq" in s.attrs}
    states = {state.fault_key: state for state in rt._states}
    rings = restores = 0
    for (key, gen), links in plan.links.items():
        comm = states[key].trace_id
        members = states[key].world_ranks
        if names[comm, gen] == "checkpoint":
            rings += 1
            assert sorted(links) == sorted(
                (w, members[(i + 1) % 4]) for i, w in enumerate(members))
        elif names[comm, gen] == "restore":
            restores += 1
            # rank 3's buddy (position 0) ships its replica to the spare
            assert links == [(0, 4)]
    # epoch 1: input and sorted rings, then the crash; epoch 2 resumes
    # sorted: the refresh on entry and the splitting marker
    assert rings == 2 + 2 and restores == 1


def test_a_dead_network_times_out_the_first_ring_on_every_member():
    # the ring is a collective: a link beyond repair raises
    # MessageTimeoutError on every member at the same clock, without an
    # abort, and recovery runs out of epochs
    plan = FaultPlan(FaultSpec(drop_rate=1.0), seed=1, size=4)
    cfg = SortConfig(resilient=True, checkpoint=True, max_recovery_attempts=2)
    rt = Runtime(4, faults=plan, trace=True)
    with pytest.raises(SPMDError) as err:
        rt.run(_sorter, args=(64, cfg), timeout=WALL)
    assert all(isinstance(e, RecoveryExhaustedError) for e in err.value.failures.values())
    for rank in range(4):
        first = next(s for s in rt.trace.spans() if s.rank == rank and s.cat == "fault")
        assert (first.name, first.attrs["seq"], first.t1) == ("checkpoint_timeout", 0, LADDER)


def test_recovery_metrics_exported():
    plan = _crash_plan(11, 6, *MID_SPLITTING_AND_MID_GATHER)
    rt, live = _run(4, plan, spares=2)
    assert sorted(rt.fault_stats.crashed) == [1, 3]
    assert len(live) == 4
    # the run's own records carry what recovery did and what it moved
    msgs, nbytes = rt.stats.snapshot().control["checkpoint"]
    assert msgs > 0 and nbytes > 0
    assert rt.fault_stats.spares_used == 2
    assert rt.fault_stats.recoveries >= 1


def test_checkpoint_requires_resilient():
    with pytest.raises(ValueError, match="requires resilient"):
        SortConfig(checkpoint=True)


def test_chaos_oracle_accepts_lossless_case():
    out = run_case(ChaosCase(seed=11, size=4, drop_rate=0.1, crash_ranks=2,
                             n_per_rank=48, spares=2,
                             checkpoint=True),
                   wall_timeout=WALL)
    assert out.ok, f"{out.kind}: {out.detail}"
    assert "crashed=[2]" in out.detail and "restored=1" in out.detail
