"""The recovery rendezvous, and the warm substitutes parked in it.

Every epoch of the resilient sort (:mod:`repro.core.resilient`) ends in
one **pool round**: a :meth:`~repro.mpi.comm._CommState.ft_collective`
over the communicator being sorted — or, when ``run_spmd(..., spares=k)``
spawned ``k`` extra ranks that sit the sort out in this rendezvous, over
the *world* state (all actives and spares).

* every live **active** deposits its epoch outcome — position, the
  membership it ran on, its verified/failed verdict, its phase-progress
  marker, the buddy replica it holds, and bookkeeping (origins carried,
  cumulative losses, the continuation for substitutes to run);
* every idle **spare** deposits a ready marker;
* the combine (:func:`_pool_combine`, pure bookkeeping — it never
  communicates) diagnoses the epoch: all verified and nobody dead →
  ``done``; attempts exhausted → ``exhausted``; otherwise it builds a
  ``recover`` verdict — a fresh communicator state with a spare
  substituted into each crashed position, which keeps ``p`` and any
  capacity-tuned plan valid, or, for the crashes the pool cannot cover,
  shrunk to the survivors; the phase to resume from (the minimum marker
  over the new membership); which buddy restores or salvages which
  partition; and what is irrecoverably lost.

Every live participant makes exactly one pool call per epoch exit, so the
rendezvous generations stay congruent: a spare's Nth call meets the
actives' Nth epoch verdict.  Deposits from ranks that later crash are
ignored via the rendezvous' ``live`` membership, and the combine folds
in deterministic (sorted) order, so verdicts are a pure function of the
program and the fault plan's seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from .checkpoint import PH_SORTED, PH_SPLIT, PH_START
from .comm import Comm, _CommState

__all__ = ["PoolVerdict", "pool_round", "spare_main"]


@dataclass(frozen=True)
class PoolVerdict:
    """Outcome of one pool rendezvous (identical on every live rank)."""

    #: "done" | "recover" | "exhausted" | "dead" — or "start", the
    #: driver's own initial bookkeeping before any round
    kind: str
    #: epoch attempts completed so far
    epoch: int = 0
    #: cumulative initial positions whose data is irrecoverably lost
    lost: tuple[int, ...] = ()
    #: cumulative spares consumed
    spares_used: int = 0
    # --- recover-only fields -------------------------------------------
    state: "_CommState | None" = None
    positions: tuple[int, ...] = ()
    #: spare world rank -> its new group rank
    assigned: dict[int, int] = field(default_factory=dict)
    resume_marker: int = PH_START
    #: agreed splitters when resuming at PH_SPLIT (opaque to this layer)
    splitters: Any = None
    #: (holder new rank, target new rank) replica transfers, target order
    restores: tuple[tuple[int, int], ...] = ()
    #: new ranks that must fold their held replica into their own input
    #: (shrink fallback: the dropped owner's data survives at its buddy)
    salvages: tuple[int, ...] = ()
    #: new group rank -> initial positions whose data it carries
    origin_map: dict[int, tuple[int, ...]] = field(default_factory=dict)
    shrunk: bool = False
    #: epoch-loop continuation substitutes run (from the active deposits)
    cont: Callable[..., Any] | None = None
    #: opaque driver context (config, capacities, ...) for substitutes
    meta: Any = None


def _pool_combine(rt, values: list, order: list[int], live: list[int]):
    """Fold one generation of pool deposits into a :class:`PoolVerdict`.

    Runs once per generation on whichever thread completes the
    rendezvous; everything it reads is a deposit or the (stable at this
    point) failed set, and all iteration is in sorted order, so the
    verdict is schedule-independent.  Spares deposit on the world state
    only, where the deposit index is the world rank.
    """
    live_set = set(live)
    actives: dict[int, tuple[int, dict]] = {}
    spare_pool: list[int] = []
    for idx, v in zip(order, values):
        if idx not in live_set:
            continue  # deposited, then crashed before the epoch ended
        if v[0] == "active":
            actives[v[1]["pos"]] = (idx, v[1])
        else:
            spare_pool.append(idx)
    if not actives:
        return PoolVerdict(kind="dead")
    ref = actives[min(actives)][1]
    positions = list(ref["positions"])
    p = len(positions)
    epoch = int(ref["epoch"])
    origin_map: dict[int, tuple[int, ...]] = dict(ref["origin_map"])
    lost = set()
    for _, d in actives.values():
        lost.update(d["lost"])
    spares_used = int(ref["spares_used"])

    failed = [i for i in range(p) if i not in actives]
    all_ok = not failed and all(d["ok"] for _, d in actives.values())
    if all_ok:
        return PoolVerdict(kind="done", epoch=epoch,
                           lost=tuple(sorted(lost)), spares_used=spares_used)
    if epoch >= int(ref["max_epochs"]):
        return PoolVerdict(kind="exhausted", epoch=epoch,
                           lost=tuple(sorted(lost)), spares_used=spares_used)

    rt._count_fault("recoveries")
    # Live survivors whose restore never completed carry no data; they are
    # re-restored (their buddy still holds the replica) rather than failed.
    # A rank whose origins are *known lost* (empty origin_map entry) is not
    # dataless — it legitimately runs with an empty partition.
    dataless = [i for i in sorted(actives)
                if not actives[i][1]["origins"] and origin_map.get(i)
                and i not in failed]
    # owner position -> (holder position, replica marker) at live holders
    held: dict[int, tuple[int, int]] = {}
    for pos in sorted(actives):
        h = actives[pos][1]["held"]
        if h is not None:
            held[h[0]] = (pos, h[1])

    spare_pool.sort()
    substituted: dict[int, int] = {}
    assigned_old: dict[int, int] = {}
    for i in failed:
        if not spare_pool:
            break
        wr = spare_pool.pop(0)
        substituted[i] = wr
        assigned_old[wr] = i
        rt._count_fault("spares_used")
    spares_used += len(substituted)
    dropped = [i for i in failed if i not in substituted]

    keep = [i for i in range(p) if i not in dropped]
    new_pos_of = {i: ni for ni, i in enumerate(keep)}
    new_positions = [substituted.get(i, positions[i]) for i in keep]
    shrunk = len(keep) != p

    restores: list[tuple[int, int]] = []
    new_origin_map: dict[int, tuple[int, ...]] = {}
    markers: dict[int, int] = {}
    newly_lost: set[int] = set()
    for i in keep:
        ni = new_pos_of[i]
        if i in substituted or i in dataless:
            h = held.get(i)
            if h is not None and h[0] in new_pos_of:
                restores.append((new_pos_of[h[0]], ni))
                markers[i] = h[1]
                new_origin_map[ni] = tuple(origin_map.get(i, ()))
            else:
                markers[i] = PH_START
                new_origin_map[ni] = ()
                newly_lost.update(origin_map.get(i, ()))
        else:
            markers[i] = int(actives[i][1]["marker"])
            new_origin_map[ni] = tuple(actives[i][1]["origins"])

    salvages: list[int] = []
    for i in dropped:
        h = held.get(i)
        if h is not None and h[0] in new_pos_of:
            ni = new_pos_of[h[0]]
            salvages.append(ni)
            merged = set(new_origin_map[ni]) | set(origin_map.get(i, ()))
            new_origin_map[ni] = tuple(sorted(merged))
        else:
            newly_lost.update(origin_map.get(i, ()))
    for _ in newly_lost - lost:
        rt._count_fault("lost")
    lost |= newly_lost

    if shrunk:
        # The rank count changed: splitters, packed keys, and capacity
        # targets are all invalid — the epoch restarts from scratch.
        resume = PH_START
        splitters = None
    else:
        resume = min(markers[i] for i in keep)
        splitters = None
        if resume >= PH_SPLIT:
            for pos in sorted(actives):
                s = actives[pos][1]["splitters"]
                if s is not None:
                    splitters = s
                    break
            if splitters is None:  # pragma: no cover - defensive
                resume = PH_SORTED

    new_state = _CommState(rt, new_positions)
    return PoolVerdict(
        kind="recover",
        epoch=epoch,
        lost=tuple(sorted(lost)),
        spares_used=spares_used,
        state=new_state,
        positions=tuple(new_positions),
        assigned={wr: new_pos_of[i] for wr, i in assigned_old.items()},
        resume_marker=resume,
        splitters=splitters,
        restores=tuple(sorted(restores, key=lambda r: r[1])),
        salvages=tuple(sorted(salvages)),
        origin_map=new_origin_map,
        shrunk=shrunk,
        cont=ref["cont"],
        meta=ref["meta"],
    )


def pool_round(rt, deposit: tuple, service_comm: Comm) -> PoolVerdict:
    """One pool rendezvous call.

    Collective over the communicator being sorted; while spares are parked
    in the pool — world ranks outside it that must take part — over the
    world.  A verdict other than ``recover`` releases them, so later rounds
    (a second sort) meet as in a spare-less runtime.  ``service_comm`` is
    the caller's handle on the sorted communicator (the world handle for a
    parked spare).
    """
    if rt.pool_open:
        state, idx = rt.world_state, service_comm.world_rank
    else:
        state, idx = service_comm._state, service_comm.rank

    def combine(values, order, live):
        verdict = _pool_combine(rt, values, order, live)
        if verdict.kind != "recover":
            rt.pool_open = False
        return verdict

    def cost_fn(live_world, verdict):
        cost = rt.cost.allreduce(64, live_world)
        if verdict.kind == "recover":
            # creating the recovered communicator costs what `split` and
            # `shrink` pay for theirs
            cost += rt.cost.comm_split(verdict.positions)
        return cost

    return state.ft_collective(idx, deposit, combine, cost_fn, "spare_pool")


def spare_main(rt, world_rank: int) -> Any:
    """Main loop of a spare rank: wait in the pool until substituted.

    Returns ``None`` when the sort finishes (or dies) without needing
    this spare; otherwise runs the actives' deposited continuation as
    the substitute and returns its result.
    """
    wc = Comm(rt.world_state, world_rank)
    while True:
        verdict = pool_round(rt, ("spare",), wc)
        if verdict.kind != "recover":
            return None
        pos = verdict.assigned.get(world_rank)
        if pos is not None:
            assert verdict.cont is not None
            return verdict.cont(rt, wc, verdict, pos)
