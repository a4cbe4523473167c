"""Rank placement: mapping SPMD ranks onto the machine's cores.

The placement is *block by node* (ranks ``0..r-1`` on node 0, the next ``r``
on node 1, ...), matching how ``mpiexec`` fills nodes by default and how the
paper schedules 16 or 28 ranks per node.  Within a node, ranks fill NUMA
domains in order, which mirrors ``numactl`` pinning used in the paper's
shared-memory study.
"""

from __future__ import annotations

from dataclasses import dataclass

from typing import Iterable, Sequence

import numpy as np

from .spec import Level, MachineSpec


@dataclass(frozen=True)
class Placement:
    """Placement of ``nranks`` ranks on ``machine`` with ``ranks_per_node``."""

    machine: MachineSpec
    nranks: int
    ranks_per_node: int

    def __post_init__(self) -> None:
        if self.nranks < 1:
            raise ValueError("nranks must be >= 1")
        if self.ranks_per_node < 1:
            raise ValueError("ranks_per_node must be >= 1")
        nodes_needed = -(-self.nranks // self.ranks_per_node)
        if nodes_needed > self.machine.nodes:
            raise ValueError(
                f"{self.nranks} ranks at {self.ranks_per_node}/node need "
                f"{nodes_needed} nodes but machine {self.machine.name!r} has "
                f"{self.machine.nodes}"
            )

    # -- per-rank coordinates ------------------------------------------------

    def node_of(self, rank: int) -> int:
        self._check(rank)
        return rank // self.ranks_per_node

    def local_index(self, rank: int) -> int:
        """Index of ``rank`` among the ranks of its node."""
        self._check(rank)
        return rank % self.ranks_per_node

    def numa_of(self, rank: int) -> int:
        """Global NUMA-domain id of ``rank``.

        Ranks fill NUMA domains of a node round-robin by blocks: with ``d``
        domains and ``r`` ranks per node, local ranks ``0..ceil(r/d)-1`` land
        in domain 0, and so on.
        """
        node = self.node_of(rank)
        dom = self.machine.node.numa_domains
        per_dom = -(-self.ranks_per_node // dom)
        return node * dom + min(self.local_index(rank) // per_dom, dom - 1)

    def socket_of(self, rank: int) -> int:
        numa_local = self.numa_of(rank) % self.machine.node.numa_domains
        return self.node_of(rank) * self.machine.node.sockets + (
            numa_local // self.machine.node.numa_per_socket
        )

    def level(self, a: int, b: int) -> Level:
        """Locality level of the pair ``(a, b)``."""
        if a == b:
            return Level.SELF
        if self.node_of(a) != self.node_of(b):
            return Level.NETWORK
        if self.socket_of(a) != self.socket_of(b):
            return Level.NODE
        if self.numa_of(a) != self.numa_of(b):
            return Level.SOCKET
        return Level.NUMA

    # -- group-level queries ---------------------------------------------------

    def span_level(self, ranks: Sequence[int] | Iterable[int]) -> Level:
        """The widest locality level present within a group of ranks."""
        ranks = list(ranks)
        if not ranks:
            raise ValueError("span_level of empty group")
        if len(ranks) == 1:
            return Level.SELF
        nodes = {self.node_of(r) for r in ranks}
        if len(nodes) > 1:
            return Level.NETWORK
        sockets = {self.socket_of(r) for r in ranks}
        if len(sockets) > 1:
            return Level.NODE
        numas = {self.numa_of(r) for r in ranks}
        if len(numas) > 1:
            return Level.SOCKET
        return Level.NUMA

    def nodes_used(self, ranks: Sequence[int] | None = None) -> int:
        if ranks is None:
            return -(-self.nranks // self.ranks_per_node)
        return len({self.node_of(r) for r in ranks})

    def node_occupancy(self, ranks: Sequence[int]) -> int:
        """The most ranks of the group on any one node — they share its NIC."""
        nodes = np.asarray(list(ranks), dtype=np.int64) // self.ranks_per_node
        return int(np.bincount(nodes).max())

    def level_matrix(self, ranks: Sequence[int]) -> np.ndarray:
        """Dense ``len(ranks) x len(ranks)`` matrix of locality levels."""
        ranks = np.asarray(list(ranks), dtype=np.int64)
        if ranks.size and not (0 <= ranks.min() and ranks.max() < self.nranks):
            raise IndexError(f"ranks {ranks.tolist()} out of range [0, {self.nranks})")
        # numa_of / socket_of on the whole array
        nodes, local = np.divmod(ranks, self.ranks_per_node)
        node = self.machine.node
        per_dom = -(-self.ranks_per_node // node.numa_domains)
        numa_local = np.minimum(local // per_dom, node.numa_domains - 1)
        numas = nodes * node.numa_domains + numa_local
        sockets = nodes * node.sockets + numa_local // node.numa_per_socket
        out = np.full((len(ranks), len(ranks)), int(Level.NUMA), dtype=np.int8)
        out[numas[:, None] != numas[None, :]] = int(Level.SOCKET)
        out[sockets[:, None] != sockets[None, :]] = int(Level.NODE)
        out[nodes[:, None] != nodes[None, :]] = int(Level.NETWORK)
        np.fill_diagonal(out, int(Level.SELF))
        return out

    def _check(self, rank: int) -> None:
        if not 0 <= rank < self.nranks:
            raise IndexError(f"rank {rank} out of range [0, {self.nranks})")


def make_placement(
    machine: MachineSpec, nranks: int, ranks_per_node: int | None = None
) -> Placement:
    """Create a placement.

    When ``ranks_per_node`` is omitted, one rank per core is assumed, widened
    only if the ranks would not otherwise fit on the machine.
    """
    if ranks_per_node is None:
        ranks_per_node = machine.node.cores
        nodes_needed = -(-nranks // ranks_per_node)
        if nodes_needed > machine.nodes:
            ranks_per_node = -(-nranks // machine.nodes)
    return Placement(machine, nranks, ranks_per_node)
