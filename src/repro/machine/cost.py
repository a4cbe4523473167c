"""Virtual-time cost model for communication and compute.

Every operation of the SPMD runtime (:mod:`repro.mpi`) asks this model how
long it took.  The model is the classic :math:`\\alpha`-:math:`\\beta`
(latency/bandwidth) model, made hierarchy-aware through
:class:`repro.machine.topology.Placement`:

* point-to-point cost depends on the locality level of the pair,
* tree collectives pay ``ceil(log2 P)`` rounds at the widest level spanned
  by the group,
* ``alltoallv`` is priced per rank from the full volume matrix, with a
  1-factor round structure and a bisection-bandwidth congestion floor.

The ``node_*_stages`` methods price a collective two ways, flat and
composed per level through one leader per node; the rendezvous keeps the
one that finishes first (:func:`finish`).

The PGAS shared-memory optimisation of the paper (intra-node traffic through
MPI-3 shared-memory windows, i.e. plain ``memcpy``) is the default;
``use_shm=False`` reprices intra-node traffic as loop-back MPI messages,
which is the ablation studied in ``benchmarks/bench_ablations.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .spec import Level, LinkSpec, MachineSpec
from .topology import Placement


def _log2_ceil(p: int) -> int:
    return int(math.ceil(math.log2(p))) if p > 1 else 0


def advance(clocks, stage) -> np.ndarray:
    """The clocks after one stage of a price: its cost (a scalar or one per
    member) added to them — for a ``(cost, group)`` stage, to the latest
    clock of each member's ``group``: a group starts when its last arrives."""
    if not isinstance(stage, tuple):
        return clocks + np.asarray(stage, dtype=np.float64)
    cost, group = stage
    start = np.full(group.size, -np.inf)
    np.maximum.at(start, group, clocks)
    return start[group] + cost


def finish(stages: tuple) -> float:
    """When the last member is through ``stages``, all starting at 0: what
    the rendezvous weighs a collective's alternative prices by."""
    end = 0.0
    for stage in stages:
        end = advance(end, stage)
    return float(np.max(end))


@dataclass
class CostModel:
    """Prices runtime operations on a given placement.

    Parameters
    ----------
    placement:
        Where each rank lives.
    use_shm:
        If True (paper's DASH configuration) intra-node transfers cost a
        ``memcpy``; if False they go through the MPI loop-back device.
    software_overhead:
        Fixed per-call software cost of entering any communication routine.
    """

    placement: Placement
    use_shm: bool = True
    software_overhead: float = 5.0e-7
    #: ranks on a node share its NIC: inter-node bandwidth divides by the
    #: concurrently communicating ranks per node (the multi-threaded-MPI
    #: effect §VI highlights).  Applied to collectives, where all ranks
    #: drive the network at once.
    nic_sharing: bool = True
    #: measured slow-down of MPI_Alltoallv on bulk payloads relative to the
    #: raw link bandwidth (§VI-E.1: "MPI ALL-TO-ALL communication is more
    #: optimized for small messages and not for huge chunks"); calibrated
    #: against the paper's weak-scaling exchange times.
    alltoallv_inefficiency: float = 2.5

    def __post_init__(self) -> None:
        self._machine = self.placement.machine
        self._compute = self._machine.compute
        # Loop-back MPI link used when shared-memory windows are disabled.
        net = self._machine.link(Level.NETWORK) if self._machine.nodes > 1 else None
        node_link = self._machine.link(Level.NODE)
        self._mpi_loopback = LinkSpec(
            latency=max(node_link.latency * 4, (net.latency * 0.6) if net else 1.0e-6),
            bandwidth=node_link.bandwidth * 0.5,
        )
        # _group_link per rank tuple: every collective of a communicator
        # prices the same group, and deriving its span walks every rank
        self._group_links: dict[tuple[int, ...], LinkSpec] = {}
        self._node_groups: dict[tuple[int, ...], tuple | None] = {}

    # ------------------------------------------------------------------ links

    @property
    def machine(self) -> MachineSpec:
        return self._machine

    @property
    def compute(self):
        return self._compute

    def link_for(self, level: Level) -> LinkSpec:
        if not self.use_shm and Level.SELF < level < Level.NETWORK:
            return self._mpi_loopback
        return self._machine.link(level)

    def ptp(self, src: int, dst: int, nbytes: float) -> float:
        """Point-to-point message cost."""
        level = self.placement.level(src, dst)
        return self.software_overhead + self.link_for(level).cost(nbytes)

    def _group_link(self, ranks: Sequence[int]) -> LinkSpec:
        key = tuple(ranks)
        link = self._group_links.get(key)
        if link is None:
            level = self.placement.span_level(key)
            link = self.link_for(level)
            if level >= Level.NETWORK and self.nic_sharing:
                sharers = self.placement.node_occupancy(key)
                if sharers > 1:
                    link = LinkSpec(latency=link.latency, bandwidth=link.bandwidth / sharers)
            self._group_links[key] = link
        return link

    # ------------------------------------------------------------ collectives

    def barrier(self, ranks: Sequence[int]) -> float:
        link = self._group_link(ranks)
        return self.software_overhead + _log2_ceil(len(ranks)) * link.latency * 2

    def bcast(self, nbytes: float, ranks: Sequence[int]) -> float:
        link = self._group_link(ranks)
        rounds = _log2_ceil(len(ranks))
        return self.software_overhead + rounds * link.cost(nbytes)

    def reduce(self, nbytes: float, ranks: Sequence[int]) -> float:
        return self.bcast(nbytes, ranks)

    def allreduce(self, nbytes: float, ranks: Sequence[int]) -> float:
        """Reduce + broadcast tree (2 log P rounds of the payload)."""
        link = self._group_link(ranks)
        rounds = _log2_ceil(len(ranks))
        return self.software_overhead + 2 * rounds * link.cost(nbytes)

    def node_groups(
        self, ranks: Sequence[int], *, contiguous: bool = False
    ) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
        """``(largest node-local group, first rank of every node)`` of a group
        with two levels — several nodes, one of them holding several of its
        ranks — else ``None``; with ``contiguous``, also ``None`` unless each
        node's members are consecutive in rank order (a prefix needs them
        so)."""
        key = tuple(ranks)
        if key not in self._node_groups:
            by_node: dict[int, list[int]] = {}
            runs, last = 0, None
            for r in key:
                node = self.placement.node_of(r)
                by_node.setdefault(node, []).append(r)
                runs, last = runs + (node != last), node
            groups = list(by_node.values())
            self._node_groups[key] = (
                (tuple(max(groups, key=len)), tuple(g[0] for g in groups))
                if 1 < len(groups) < len(key)
                else None
            ), runs == len(groups)
        groups, in_runs = self._node_groups[key]
        return groups if in_runs or not contiguous else None

    def _alternatives(self, flat: float, groups, composed) -> list[tuple]:
        """``[(flat,)]``, and ``composed(local, leaders)``'s stages after it
        where ``groups`` (:meth:`node_groups`) has two levels: the
        rendezvous keeps whichever finishes first (flat on a tie)."""
        return [(flat,)] if groups is None else [(flat,), composed(*groups)]

    def node_allreduce_stages(self, nbytes: float, ranks: Sequence[int]) -> list[tuple]:
        """The flat allreduce and, on two levels, the node composition:
        reduce inside the node, allreduce over one leader per node, bcast
        inside the node."""
        return self._alternatives(
            self.allreduce(nbytes, ranks), self.node_groups(ranks),
            lambda local, leaders: (self.reduce(nbytes, local),
                                    self.allreduce(nbytes, leaders),
                                    self.bcast(nbytes, local)))

    def node_allreduce(self, nbytes: float, ranks: Sequence[int]) -> float:
        """Allreduce composed by node, or flat where that is no dearer."""
        return min(map(finish, self.node_allreduce_stages(nbytes, ranks)))

    def node_allgather_stages(self, nbytes_per_rank: float, ranks: Sequence[int]) -> list[tuple]:
        """The flat allgather and, on two levels, the node composition:
        gather inside the node, allgather of the node blocks over the
        leaders, bcast of everything inside the node."""
        return self._alternatives(
            self.allgather(nbytes_per_rank, ranks), self.node_groups(ranks),
            lambda local, leaders: (self.gather(nbytes_per_rank, local),
                                    self.allgather(len(local) * nbytes_per_rank, leaders),
                                    self.bcast(len(ranks) * nbytes_per_rank, local)))

    def node_exscan_stages(self, nbytes: float, ranks: Sequence[int]) -> list[tuple]:
        """The flat exclusive scan and, on two levels whose nodes are
        consecutive in rank order, the node composition: scan inside the
        node, exclusive scan of the node totals over the leaders, bcast of
        the node's offset inside the node."""
        return self._alternatives(
            self.scan(nbytes, ranks), self.node_groups(ranks, contiguous=True),
            lambda local, leaders: (self.scan(nbytes, local),
                                    self.scan(nbytes, leaders),
                                    self.bcast(nbytes, local)))

    def node_alltoall_stages(self, nbytes_per_pair: float, ranks: Sequence[int]) -> list[tuple]:
        """The flat uniform all-to-all and, on two levels, the node
        composition: gather every member's row at the leader, all-to-all of
        the node-to-node blocks over the leaders, scatter the columns."""
        p = len(ranks)
        return self._alternatives(
            self.alltoall(nbytes_per_pair, ranks), self.node_groups(ranks),
            lambda local, leaders: (self.gather(p * nbytes_per_pair, local),
                                    self.alltoall(len(local) ** 2 * nbytes_per_pair, leaders),
                                    self.scatter(p * nbytes_per_pair, local)))

    def node_setup(self, ranks: Sequence[int]) -> float:
        """Building the node-local and the leader communicator of a two-level
        group (two ``comm_split``s).  Paid where the communicator is created,
        outside the run's clocks for the world."""
        return 2 * self.comm_split(ranks) if self.node_groups(ranks) else 0.0

    def gather(self, nbytes_per_rank: float, ranks: Sequence[int]) -> float:
        """Binomial-tree gather: log P latency, (P-1)·n bandwidth at the root."""
        link = self._group_link(ranks)
        p = len(ranks)
        return (
            self.software_overhead
            + _log2_ceil(p) * link.latency
            + (p - 1) * nbytes_per_rank * link.beta
        )

    def scatter(self, nbytes_per_rank: float, ranks: Sequence[int]) -> float:
        return self.gather(nbytes_per_rank, ranks)

    def allgather(self, nbytes_per_rank: float, ranks: Sequence[int]) -> float:
        """Ring/Bruck allgather: log P latency, (P-1)·n bandwidth."""
        link = self._group_link(ranks)
        p = len(ranks)
        return (
            self.software_overhead
            + _log2_ceil(p) * link.latency
            + (p - 1) * nbytes_per_rank * link.beta
        )

    def scan(self, nbytes: float, ranks: Sequence[int]) -> float:
        link = self._group_link(ranks)
        return self.software_overhead + _log2_ceil(len(ranks)) * link.cost(nbytes)

    def alltoall(self, nbytes_per_pair: float, ranks: Sequence[int]) -> float:
        """Uniform all-to-all: Bruck for latency + direct bandwidth term."""
        link = self._group_link(ranks)
        p = len(ranks)
        if p <= 1:
            return self.software_overhead
        return (
            self.software_overhead
            + _log2_ceil(p) * link.latency
            + (p - 1) * nbytes_per_pair * link.beta
        )

    def comm_split(self, ranks: Sequence[int]) -> float:
        """MPI_Comm_split is linear in the communicator size (paper §III-C)."""
        link = self._group_link(ranks)
        p = len(ranks)
        return self.software_overhead + p * 16 * link.beta + _log2_ceil(p) * link.latency * 2

    # --------------------------------------------------------------- alltoallv

    def alltoallv_per_rank(
        self, volumes: np.ndarray, ranks: Sequence[int]
    ) -> np.ndarray:
        """Per-rank cost of an irregular all-to-all.

        ``volumes[i, j]`` is the number of bytes rank ``i`` (group index)
        sends to rank ``j``.  The model charges each rank the larger of its
        outgoing and incoming serialized transfer time (1-factor rounds move
        disjoint pairs concurrently, so a rank's own transfers serialize),
        plus one latency per non-empty peer, plus a global congestion floor
        of (total inter-node bytes) / (bisection bandwidth).
        """
        ranks = tuple(ranks)
        p = len(ranks)
        volumes = np.asarray(volumes, dtype=np.float64)
        if volumes.shape != (p, p):
            raise ValueError(f"volumes must be {p}x{p}, got {volumes.shape}")
        if p == 1:
            return np.full(1, self.software_overhead + self._compute.memcpy(volumes[0, 0]))

        return self._priced(volumes, *self._pairs(ranks))

    def _pairs(self, ranks: Sequence[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(beta, lat, internode)`` of every ordered member pair.  Not kept
        between calls: small arrays living as long as the runtime read
        +8–14 MiB ``peak_rss_mb`` on bulk-uniform-p8 (heap fragmentation)."""
        lv = self.placement.level_matrix(ranks)
        table = np.zeros((2, len(Level)))  # (beta, lat) by level
        for level in np.flatnonzero(np.bincount(lv.ravel(), minlength=len(Level))):
            # only the levels present: single-node machines have no
            # NETWORK link to price
            link = self.link_for(Level(level))
            b = link.beta
            if level >= Level.NETWORK:
                if self.nic_sharing:
                    b *= self.placement.node_occupancy(ranks)
                b *= self.alltoallv_inefficiency
            table[:, level] = b, link.latency
        beta, lat = table[0][lv], table[1][lv]
        # loop-back (diagonal) always moves at memcpy speed
        np.fill_diagonal(beta, 1.0 / (self._compute.memcpy_bandwidth * 2))
        np.fill_diagonal(lat, 5.0e-8)
        return beta, lat, lv >= int(Level.NETWORK)

    def _priced(self, volumes: np.ndarray, beta, lat, internode) -> np.ndarray:
        """:meth:`alltoallv_per_rank` of a group of two or more, given its
        :meth:`_pairs`."""
        per_rank = self._transfer(volumes, beta, lat)
        cross_bytes = float(volumes[internode].sum())
        if cross_bytes > 0:
            floor = cross_bytes / self._machine.bisection_bandwidth
            per_rank = np.maximum(per_rank, floor)
        return per_rank

    def _transfer(self, volumes: np.ndarray, beta: np.ndarray, lat: np.ndarray) -> np.ndarray:
        """Per-rank time of an exchange of ``volumes`` over the last two axes:
        the larger of a rank's serialized sends and receives, one latency
        per non-empty peer."""
        # one p x p product alive at a time: keeping two alive read +0.5 MiB
        # peak RSS on latency-zipf-p64 (the last arriver's thread prices)
        nonzero = volumes > 0
        send_time = (volumes * beta).sum(axis=-1) + (lat * nonzero).sum(axis=-1)
        recv_time = (volumes * beta).sum(axis=-2) + (lat * nonzero).sum(axis=-2)
        return np.maximum(send_time, recv_time) + self.software_overhead

    def node_layout(self, ranks: Sequence[int]) -> tuple | None:
        """Member positions by node of a group with two levels (as in
        :meth:`node_groups`), else ``None``: ``(node of each member, first
        member of each node, stage-B group labels, members sorted by node or
        None if they are, where each node starts in that order, [members of
        the nodes of L members (G x L) per L])``, nodes numbered by first
        member as ``comm.split`` orders them."""
        if self.node_groups(ranks) is None:
            return None
        _, first, node = np.unique(np.asarray(ranks) // self.placement.ranks_per_node,
                                   return_index=True, return_inverse=True)
        renumber = np.empty_like(first)
        renumber[np.argsort(first)] = np.arange(first.size)
        node = renumber[node]
        order = np.argsort(node, kind="stable")
        starts = np.searchsorted(node[order], np.arange(first.size))
        leaders = order[starts]
        group_b = np.arange(node.size)
        group_b[leaders] = 0
        members = np.split(order, starts[1:])
        classes = [np.array([m for m in members if m.size == size])
                   for size in sorted({m.size for m in members})]
        in_order = bool((order == np.arange(order.size)).all())
        return node, leaders, group_b, None if in_order else order, starts, classes

    def node_alltoallv_stages(self, volumes: np.ndarray, ranks: Sequence[int]) -> list[tuple]:
        """The stages a node-composed alltoallv is priced as, in order, each
        by :meth:`alltoallv_per_rank` on the matrix it moves and each group
        starting when its last member arrives (:func:`advance`):

        A. inside each node, every member delivers its same-node segments
           and hands its off-node bytes to the node's leader (first member);
        B. the leaders exchange node-to-node blocks, each over a NIC no other
           rank of the group shares;
        C. each leader forwards what arrived to its members.

        After the flat per-rank cost, as :meth:`node_allreduce_stages` — that
        alone where the group has one level."""
        ranks = tuple(ranks)
        layout = self.node_layout(ranks)
        if layout is None:
            return [(self.alltoallv_per_rank(volumes, ranks),)]
        node, leaders, group_b, order, starts, classes = layout
        volumes = np.asarray(volumes, dtype=np.float64)
        beta, lat, internode = self._pairs(ranks)
        flat = self._priced(volumes, beta, lat, internode)
        # byte counts: exact sums in any order; no temporary as large as
        # ``volumes`` unless its nodes interleave (see _transfer)
        off, inbound = volumes.sum(axis=1), volumes.sum(axis=0)
        by_node = volumes if order is None else volumes[np.ix_(order, order)]
        between = np.add.reduceat(np.add.reduceat(by_node, starts, axis=0), starts, axis=1)
        np.fill_diagonal(between, 0.0)
        a, c = np.empty_like(off), np.empty_like(off)
        for ix in classes:
            pair = ix[:, :, None], ix[:, None, :]
            block, pair_beta, pair_lat = volumes[pair], beta[pair], lat[pair]
            off[ix] -= block.sum(axis=2)
            inbound[ix] -= block.sum(axis=1)
            if ix.shape[1] == 1:  # a node of one: alltoallv_per_rank's p == 1
                a[ix[:, 0]] = [self.software_overhead + self._compute.memcpy(v)
                               for v in block[:, 0, 0]]
                c[ix] = self.software_overhead + self._compute.memcpy(0.0)
                continue
            block[:, 1:, 0] += off[ix[:, 1:]]
            a[ix] = self._transfer(block, pair_beta, pair_lat)
            block[:] = 0.0
            block[:, 0, 1:] = inbound[ix[:, 1:]]
            c[ix] = self._transfer(block, pair_beta, pair_lat)
        b = np.zeros_like(off)
        b[leaders] = self.alltoallv_per_rank(between, [ranks[i] for i in leaders])
        return [(flat,), (a, (b, group_b), (c, node))]

    def network_byte_price(self, ranks: Sequence[int]) -> float:
        """Seconds an ALL-TO-ALLV byte costs between nodes over a NIC no
        other member shares (stage B of :meth:`node_alltoallv_stages`); 0 in
        a group on one node, whose bytes never cross the network."""
        if self.placement.span_level(tuple(ranks)) < Level.NETWORK:
            return 0.0
        return self.link_for(Level.NETWORK).beta * self.alltoallv_inefficiency

    def alltoallv(self, volumes: np.ndarray, ranks: Sequence[int]) -> float:
        """Completion time of the whole irregular exchange (max over ranks)."""
        return float(self.alltoallv_per_rank(volumes, ranks).max())
