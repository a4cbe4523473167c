"""Virtual-time cost model for communication and compute.

Every operation of the SPMD runtime (:mod:`repro.mpi`) asks this model how
long it took.  The model is the classic :math:`\\alpha`-:math:`\\beta`
(latency/bandwidth) model, made hierarchy-aware through
:class:`repro.machine.topology.Placement`:

* point-to-point cost depends on the locality level of the pair,
* tree collectives pay ``ceil(log2 P)`` rounds at the widest level spanned
  by the group (:meth:`CostModel.node_allreduce` composes them per level),
* ``alltoallv`` is priced per rank from the full volume matrix, with a
  1-factor round structure and a bisection-bandwidth congestion floor.

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
        self, ranks: Sequence[int]
    ) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
        """``(largest node-local group, first rank of every node)`` of a group
        with two levels — several nodes, one of them holding several of its
        ranks — else ``None``."""
        key = tuple(ranks)
        if key not in self._node_groups:
            by_node: dict[int, list[int]] = {}
            for r in key:
                by_node.setdefault(self.placement.node_of(r), []).append(r)
            groups = list(by_node.values())
            self._node_groups[key] = (
                (tuple(max(groups, key=len)), tuple(g[0] for g in groups))
                if 1 < len(groups) < len(key)
                else None
            )
        return self._node_groups[key]

    def node_allreduce_stages(self, nbytes: float, ranks: Sequence[int]) -> tuple[float, ...]:
        """The collectives a node-composed allreduce is priced as, in order:
        reduce inside the node, allreduce over one leader per node, bcast
        inside the node — or the flat allreduce alone where the group has
        one level or that is no dearer."""
        flat = self.allreduce(nbytes, ranks)
        groups = self.node_groups(ranks)
        if groups is not None:
            local, leaders = groups
            stages = (
                self.reduce(nbytes, local),
                self.allreduce(nbytes, leaders),
                self.bcast(nbytes, local),
            )
            if sum(stages) < flat:
                return stages
        return (flat,)

    def node_allreduce(self, nbytes: float, ranks: Sequence[int]) -> float:
        """Allreduce composed by node, or flat where that is no dearer."""
        return sum(self.node_allreduce_stages(nbytes, ranks))

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
        ranks = list(ranks)
        p = len(ranks)
        volumes = np.asarray(volumes, dtype=np.float64)
        if volumes.shape != (p, p):
            raise ValueError(f"volumes must be {p}x{p}, got {volumes.shape}")
        if p == 1:
            return np.full(1, self.software_overhead + self._compute.memcpy(volumes[0, 0]))

        lv = self.placement.level_matrix(ranks)
        beta = np.empty_like(volumes)
        lat = np.empty_like(volumes)
        for level in Level:
            mask = lv == int(level)
            if not mask.any():
                continue  # single-node machines have no NETWORK link to price
            link = self.link_for(level)
            b = link.beta
            if level >= Level.NETWORK:
                if self.nic_sharing:
                    b *= self.placement.node_occupancy(ranks)
                b *= self.alltoallv_inefficiency
            beta[mask] = b
            lat[mask] = link.latency
        # loop-back (diagonal) always moves at memcpy speed
        diag = np.arange(p)
        beta[diag, diag] = 1.0 / (self._compute.memcpy_bandwidth * 2)
        lat[diag, diag] = 5.0e-8

        nonzero = volumes > 0
        send_time = (volumes * beta).sum(axis=1) + (lat * nonzero).sum(axis=1)
        recv_time = (volumes * beta).sum(axis=0) + (lat * nonzero).sum(axis=0)
        per_rank = np.maximum(send_time, recv_time) + self.software_overhead

        internode = lv >= int(Level.NETWORK)
        cross_bytes = float(volumes[internode].sum())
        if cross_bytes > 0:
            floor = cross_bytes / self._machine.bisection_bandwidth
            per_rank = np.maximum(per_rank, floor)
        return per_rank

    def alltoallv(self, volumes: np.ndarray, ranks: Sequence[int]) -> float:
        """Completion time of the whole irregular exchange (max over ranks)."""
        return float(self.alltoallv_per_rank(volumes, ranks).max())
