"""End-to-end fault-tolerant histogram sort (``SortConfig(resilient=True)``).

The contract under a deterministic :class:`FaultPlan`: a verified sort of
the *surviving* ranks' data, or a typed error — and for a fixed seed, a
bit-identical virtual-time schedule on every replay.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import SortConfig
from repro.core.histsort import histogram_sort
from repro.faults import CrashEvent, FaultPlan, FaultSpec
from repro.faults.chaos import ChaosCase, run_case, sweep
from repro.mpi import Runtime

WALL = 120.0


def _sorter(comm, n, seed=77):
    rng = np.random.default_rng(seed + comm.rank)
    data = rng.integers(0, 1 << 62, n, dtype=np.int64)
    res = histogram_sort(comm, data, SortConfig(resilient=True))
    out = res.output
    assert np.all(out[:-1] <= out[1:])
    return (int(out.size), res.attempts, res.survivors, res.failed)


def _run(p, plan, n=64):
    rt = Runtime(p, faults=plan)
    results = rt.run(_sorter, args=(n,), timeout=WALL)
    return rt, [r for r in results if r is not None]


def test_faultless_run_is_single_attempt():
    rt, live = _run(4, None)
    assert len(live) == 4
    assert all(r[1] == 1 and r[2] == (0, 1, 2, 3) and r[3] == () for r in live)
    assert sum(r[0] for r in live) == 4 * 64


def test_drops_are_healed_without_recovery_epochs():
    plan = FaultPlan(FaultSpec(drop_rate=0.15, dup_rate=0.1), seed=5, size=4)
    rt, live = _run(4, plan)
    assert len(live) == 4
    assert all(r[1] == 1 for r in live)  # retransmission, not shrink/retry
    assert sum(r[0] for r in live) == 4 * 64
    assert rt.fault_stats.dropped > 0


def test_crash_recovery_completes_on_survivors():
    # op 2 of rank 1 is the splitter's extreme-key bounds allreduce (one op
    # per collective: the size allgather, the key range, then this)
    plan = FaultPlan(
        FaultSpec(drop_rate=0.05, crashes=(CrashEvent(rank=1, at_op=2),)),
        seed=9, size=4,
    )
    rt, live = _run(4, plan)
    assert rt.fault_stats.crashed == [1]
    assert len(live) == 3
    assert all(r[2] == (0, 2, 3) and r[3] == (1,) for r in live)
    # conservation over survivors: the dead rank's elements are gone, all
    # surviving input elements are accounted for exactly once
    assert sum(r[0] for r in live) == 3 * 64
    assert all(r[1] >= 2 for r in live)  # at least one recovery epoch


def test_same_seed_is_bit_identical():
    def once():
        plan = FaultPlan(
            # ops 1..9: the key-range allreduce up to the verification
            # allgather (one op per collective)
            FaultSpec(drop_rate=0.2, dup_rate=0.1, delay_rate=0.1,
                      crash_ranks=1, crash_op_range=(1, 9)),
            seed=13, size=4,
        )
        rt, live = _run(4, plan)
        assert rt.fault_stats.crashed, "the seed-chosen crash never fired"
        return (rt.elapsed(), np.array(rt.clocks),
                rt.fault_stats.summary(), live)

    t_a, clocks_a, stats_a, live_a = once()
    t_b, clocks_b, stats_b, live_b = once()
    assert t_a == t_b  # exact float equality, not approx
    assert np.array_equal(clocks_a, clocks_b)
    assert stats_a == stats_b
    assert live_a == live_b


def test_inert_plan_matches_plain_run_bit_for_bit():
    def clocks(**kw):
        rt = Runtime(4, **kw)
        rt.run(_sorter, args=(64,), timeout=WALL)
        return np.array(rt.clocks)

    assert np.array_equal(clocks(), clocks(faults=FaultPlan(FaultSpec(), seed=1, size=4)))


def test_checker_stays_quiet_under_faults():
    plan = lambda: FaultPlan(  # noqa: E731 - fresh plan per run
        # the key-range allreduce up to the verification allgather
        FaultSpec(drop_rate=0.2, dup_rate=0.1, crash_ranks=1,
                  crash_op_range=(1, 9)),
        seed=21, size=4,
    )
    rt_a, live_a = _run(4, plan())
    rt_b, live_b = _run(4, plan())
    assert rt_a.fault_stats.crashed and rt_b.fault_stats.crashed
    # no false leak/deadlock reports, and the same virtual schedule twice
    assert rt_a.elapsed() == rt_b.elapsed()
    assert live_a == live_b


def test_mini_chaos_sweep_contract():
    cases = [
        ChaosCase(seed=s, size=4, drop_rate=d, crash_ranks=1,
                  n_per_rank=48)
        for s in (1, 2, 3)
        for d in (0.05, 0.2)
    ]
    outcomes = sweep(cases, wall_timeout=WALL, determinism=True,
                     verbose=False)
    bad = [o for o in outcomes if not o.ok or "crashed=[]" in o.detail]
    assert not bad, [f"{o.case}: {o.kind} ({o.detail})" for o in bad]


def test_run_case_classifies_success():
    out = run_case(ChaosCase(seed=4, size=4, drop_rate=0.1, crash_ranks=0,
                             n_per_rank=32),
                   wall_timeout=WALL)
    assert out.ok and out.kind == "sorted"
    assert out.makespan > 0.0
