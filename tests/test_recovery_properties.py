"""Properties of the one recovery loop, every mode it can be given.

One strategy feeds all of it: the size ``p`` of the communicator being
sorted, ragged per-rank sizes (empty ranks, ``n < p``), a key dtype, warm
spares or none, buddy checkpoints or none, *which* communicator is sorted —
the world, one ``split`` half while the other half idles, both halves at
once — and a seeded :class:`FaultPlan`: message drops plus one crash of a
member somewhere in its sort (ops 1..9, ``faults/chaos.py``'s range: one op
per collective, two per ring exchange).  Over it, for every group that
sorted:

* the outputs, concatenated in final rank order, are ``np.sort`` of the
  inputs of the initial ranks not named in ``lost``;
* ``lost``, ``failed`` and ``survivors`` agree on every live rank;
* every ``lost`` entry is the initial rank of a ``failed`` member, and
  without checkpoints every ``failed`` member is in ``lost``;
* the makespan repeats run to run.

``max_examples`` comes from the profile in ``conftest.py``
(``REPRO_HYPOTHESIS_PROFILE=deep`` for the long run).  The named cases below
pin that the crash of the generated plans really fires where it matters.
"""

import sys

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core import SortConfig, histogram_sort
from repro.core.resilient import RecoveryExhaustedError, ResilientSortResult
from repro.faults import CrashEvent, FaultPlan, FaultSpec
from repro.mpi import MessageTimeoutError, RankFailedError, Runtime, SPMDError

WALL = 120.0
DTYPES = (np.int64, np.uint64, np.float64)
#: how the sorted communicator is cut from the world: (groups that sort,
#: groups the world is split into)
LAYOUTS = {"world": (1, 1), "half": (1, 2), "halves": (2, 2)}


def _input(seed, wrank, n, dtype):
    """World rank ``wrank``'s keys — regenerable for the loss oracle."""
    rng = np.random.default_rng([seed, wrank])
    kind = np.dtype(dtype).kind
    if kind == "f":
        return rng.normal(size=n)
    lo = -(1 << 19) if kind == "i" else 0
    return rng.integers(lo, lo + (1 << 20), n).astype(dtype)


def _prog(comm, seed, sizes, dtype, cfg, layout):
    sorting, groups = LAYOUTS[layout]
    color = comm.rank % groups
    if groups > 1:
        comm = comm.split(color, comm.rank)
    if color >= sorting:
        return None
    local = _input(seed, comm.world_rank, sizes[comm.rank], dtype)
    return histogram_sort(comm, local, cfg)


def _members(sizes, layout, color):
    """World ranks of group ``color``, by initial rank."""
    return [color + LAYOUTS[layout][1] * i for i in range(len(sizes))]


def _run(seed, sizes, dtype, spares, checkpoint, layout, drop, victim, at_op):
    """One run; returns ``(rt, {color: live results})``.  ``victim`` is an
    initial rank of group 0, or ``None``."""
    world = len(sizes) * LAYOUTS[layout][1]
    crashes = () if victim is None else (
        CrashEvent(rank=_members(sizes, layout, 0)[victim], at_op=at_op),)
    plan = FaultPlan(FaultSpec(drop_rate=drop, dup_rate=drop / 2, crashes=crashes),
                     seed=seed, size=world + spares)
    cfg = SortConfig(resilient=True, checkpoint=checkpoint)
    rt = Runtime(world, spares=spares, faults=plan)
    results = rt.run(_prog, args=(seed, sizes, dtype, cfg, layout), timeout=WALL)
    groups: dict[int, list[ResilientSortResult]] = {}
    for r in results:
        if isinstance(r, ResilientSortResult):
            # the members of group `color` are `color, color + groups, ...`
            groups.setdefault(r.survivors[0] % LAYOUTS[layout][1], []).append(r)
    return rt, groups


def _check_group(live, members, seed, sizes, dtype, checkpoint):
    """The contract of one sorted communicator (``members``: world ranks by
    initial rank)."""
    first = live[0]
    assert all((r.survivors, r.failed, r.lost, r.attempts) ==
               (first.survivors, first.failed, first.lost, first.attempts) for r in live)
    assert len(live) == first.comm.size
    assert set(first.failed) <= set(members)
    assert set(members) - set(first.failed) <= set(first.survivors)
    failed_initial = {members.index(w) for w in first.failed}
    assert set(first.lost) <= failed_initial
    if not checkpoint:
        assert set(first.lost) == failed_initial
    expect = np.sort(np.concatenate(
        [_input(seed, w, sizes[i], dtype) for i, w in enumerate(members)
         if i not in first.lost] or [np.empty(0, dtype)]))
    chain = np.concatenate([r.output for r in sorted(live, key=lambda r: r.comm.rank)])
    assert chain.dtype == np.dtype(dtype)
    assert chain.tobytes() == expect.tobytes()


@st.composite
def _cases(draw):
    """Everything but the layout and ``checkpoint``, which the test is
    parametrized over."""
    p = draw(st.integers(2, 6))
    return dict(
        seed=draw(st.integers(0, 2**16)),
        sizes=tuple(draw(st.lists(st.integers(0, 40), min_size=p, max_size=p))),
        dtype=draw(st.sampled_from(DTYPES)),
        spares=draw(st.integers(0, 1)),  # the world layout only
        drop=draw(st.sampled_from((0.0, 0.05, 0.1))),
        # an initial rank of the (first) sorting group
        victim=draw(st.integers(0, p - 1)),
        at_op=draw(st.integers(1, 9)),
    )


def _run_case(case):
    try:
        return _run(**case)
    except SPMDError as exc:
        # in contract, never seen on these plans: a clean typed error
        assert all(isinstance(e, (RecoveryExhaustedError, RankFailedError,
                                  MessageTimeoutError))
                   for e in exc.failures.values()), exc
        return None


#: op 5 of rank 2, the only rank holding keys: the exchange's alltoallv
#: without checkpoints (three keys need no histogram round), the splitting
#: marker's ring exchange with them (after two ring exchanges and the three
#: set-up collectives)
EMPTY_BUT_ONE = dict(seed=11, sizes=(0, 0, 3, 0), dtype=np.float64, spares=0,
                     drop=0.05, victim=2, at_op=5)


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("checkpoint", [False, True])
@given(case=_cases())
@example(case=EMPTY_BUT_ONE)
def test_recovered_sort_is_the_sort_of_what_was_not_lost(layout, checkpoint, case):
    case = dict(case, layout=layout, checkpoint=checkpoint,
                spares=case["spares"] if layout == "world" else 0)
    first, replay = _run_case(case), _run_case(case)
    assert (first is None) == (replay is None)
    if first is None:
        return
    rt, groups = first
    assert sorted(groups) == list(range(LAYOUTS[case["layout"]][0]))
    for color, live in groups.items():
        _check_group(live, _members(case["sizes"], layout, color), case["seed"],
                     case["sizes"], case["dtype"], checkpoint)
    assert rt.elapsed() == replay[0].elapsed()
    assert rt.fault_stats.summary() == replay[0].fault_stats.summary()


# ------------------------------------------------ named cases: the crash fires


def _sub(layout, checkpoint, victim=1, at_op=3):
    # op 3 of a split half's member, after the world split: the extreme-key
    # bounds allreduce without checkpoints, the size allgather after two
    # ring exchanges with them; in the world layout, the first histogram
    # round without checkpoints and the (gmin, gmax) allreduce with them
    return dict(seed=3, sizes=(64, 64, 64, 64), dtype=np.int64, spares=0,
                checkpoint=checkpoint, layout=layout, drop=0.0, victim=victim,
                at_op=at_op)


@pytest.mark.parametrize("layout", ["half", "halves"])
@pytest.mark.parametrize("checkpoint", [False, True])
def test_a_split_half_recovers_a_crash(layout, checkpoint):
    # the rendezvous runs on the communicator being sorted: pointed at the
    # world, the idle half never deposits (DeadlockError in 'spare_pool'),
    # and two halves would complete each other's rounds
    case = _sub(layout, checkpoint)
    victim = _members(case["sizes"], layout, 0)[1]
    rt, groups = _run(**case)
    assert rt.fault_stats.crashed == [victim]
    hit = groups[0][0]
    assert hit.attempts == 2 and hit.comm.size == 3
    assert hit.failed == (victim,)
    assert hit.lost == (() if checkpoint else (1,))
    assert rt.fault_stats.recoveries == 1
    assert rt.fault_stats.lost == (0 if checkpoint else 1)
    for color, live in groups.items():
        _check_group(live, _members(case["sizes"], layout, color), 3, case["sizes"], np.int64,
                     checkpoint)
    if layout == "halves":
        other = groups[1][0]
        assert (other.attempts, other.failed, other.lost) == (1, (), ())


@pytest.mark.parametrize("layout", ["half", "halves"])
@pytest.mark.parametrize("checkpoint", [False, True])
def test_a_split_half_sorts_without_faults(layout, checkpoint):
    case = _sub(layout, checkpoint, victim=None)
    rt, groups = _run(**case)
    assert len(groups) == LAYOUTS[layout][0]
    for color, live in groups.items():
        assert live[0].attempts == 1 and live[0].comm.size == 4
        _check_group(live, _members(case["sizes"], layout, color), 3, case["sizes"], np.int64,
                     checkpoint)


def test_without_checkpoints_every_crashed_rank_is_reported_lost():
    # the world, no spares, no checkpoints — shrink-and-restart
    case = dict(_sub("world", False), victim=2)
    rt, groups = _run(**case)
    assert rt.fault_stats.crashed == [2]
    res = groups[0][0]
    assert (res.failed, res.lost, res.survivors) == ((2,), (2,), (0, 1, 3))
    assert rt.fault_stats.recoveries == res.attempts - 1 == 1
    assert rt.fault_stats.lost == 1


def test_spares_need_the_runtimes_own_communicator():
    # spares substitute into the positions of the communicator run_spmd
    # handed out and rendezvous with it on the world: a resilient sort on
    # any other communicator would wait for them forever
    def prog(comm):
        half = comm.split(comm.rank % 2, comm.rank)
        return histogram_sort(half, np.arange(8), SortConfig(resilient=True))

    with pytest.raises(SPMDError) as err:
        Runtime(4, spares=1).run(prog, timeout=WALL)
    assert all(isinstance(e, ValueError) and "spares" in str(e)
               for e in err.value.failures.values())


def test_a_second_sort_runs_after_the_spares_were_released():
    # the first sort's verdict releases the parked spare; the second sort's
    # pool round meets on the sorted communicator, as without spares
    def prog(comm):
        cfg = SortConfig(resilient=True)
        first = histogram_sort(comm, np.arange(8) + comm.rank, cfg)
        second = histogram_sort(comm, first.output[::-1], cfg)
        return first.attempts, second.attempts

    # five rank threads on fewer cores, switched often: the release is
    # written by the last arriver and read by every later round
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(5):
            results = Runtime(4, spares=1).run(prog, timeout=WALL)
            assert results == [(1, 1)] * 4 + [None]
    finally:
        sys.setswitchinterval(interval)
