"""Unit tests for rank placement and locality levels."""

import pytest

from repro.machine import Level, Placement, make_placement, supermuc_phase2, abstract_cluster


@pytest.fixture
def smuc():
    return supermuc_phase2(nodes=4)


class TestPlacementCoordinates:
    def test_block_by_node(self, smuc):
        pl = Placement(smuc, nranks=56, ranks_per_node=28)
        assert pl.node_of(0) == 0
        assert pl.node_of(27) == 0
        assert pl.node_of(28) == 1
        assert pl.local_index(30) == 2

    def test_numa_fill_order(self, smuc):
        pl = Placement(smuc, nranks=28, ranks_per_node=28)
        # 28 ranks over 4 domains: 7 per domain
        assert pl.numa_of(0) == 0
        assert pl.numa_of(6) == 0
        assert pl.numa_of(7) == 1
        assert pl.numa_of(27) == 3

    def test_numa_ids_globally_unique(self, smuc):
        pl = Placement(smuc, nranks=56, ranks_per_node=28)
        assert pl.numa_of(28) == 4  # first domain of node 1

    def test_socket_of(self, smuc):
        pl = Placement(smuc, nranks=28, ranks_per_node=28)
        assert pl.socket_of(0) == 0
        assert pl.socket_of(14) == 1

    def test_rank_out_of_range(self, smuc):
        pl = Placement(smuc, nranks=8, ranks_per_node=8)
        with pytest.raises(IndexError):
            pl.node_of(8)

    def test_too_many_ranks_rejected(self, smuc):
        with pytest.raises(ValueError):
            Placement(smuc, nranks=smuc.nodes * 28 + 1, ranks_per_node=28)


class TestLevels:
    def test_self_level(self, smuc):
        pl = Placement(smuc, nranks=8, ranks_per_node=4)
        assert pl.level(3, 3) == Level.SELF

    def test_network_level_across_nodes(self, smuc):
        pl = Placement(smuc, nranks=56, ranks_per_node=28)
        assert pl.level(0, 28) == Level.NETWORK

    def test_numa_level_within_domain(self, smuc):
        pl = Placement(smuc, nranks=28, ranks_per_node=28)
        assert pl.level(0, 1) == Level.NUMA

    def test_socket_level_across_domains_same_socket(self, smuc):
        pl = Placement(smuc, nranks=28, ranks_per_node=28)
        assert pl.level(0, 7) == Level.SOCKET

    def test_node_level_across_sockets(self, smuc):
        pl = Placement(smuc, nranks=28, ranks_per_node=28)
        assert pl.level(0, 20) == Level.NODE

    def test_level_symmetry(self, smuc):
        pl = Placement(smuc, nranks=56, ranks_per_node=28)
        for a, b in [(0, 1), (0, 7), (0, 20), (0, 28), (5, 45)]:
            assert pl.level(a, b) == pl.level(b, a)

    def test_span_level(self, smuc):
        pl = Placement(smuc, nranks=56, ranks_per_node=28)
        assert pl.span_level([3]) == Level.SELF
        assert pl.span_level([0, 1, 2]) == Level.NUMA
        assert pl.span_level([0, 7]) == Level.SOCKET
        assert pl.span_level([0, 20]) == Level.NODE
        assert pl.span_level([0, 28]) == Level.NETWORK

    def test_span_level_empty_raises(self, smuc):
        pl = Placement(smuc, nranks=8, ranks_per_node=8)
        with pytest.raises(ValueError):
            pl.span_level([])

    def test_level_matrix_matches_pairwise(self, smuc):
        pl = Placement(smuc, nranks=56, ranks_per_node=28)
        ranks = [0, 3, 7, 20, 28, 55]
        mat = pl.level_matrix(ranks)
        for i, a in enumerate(ranks):
            for j, b in enumerate(ranks):
                assert mat[i, j] == int(pl.level(a, b)), (a, b)

    def test_nodes_used(self, smuc):
        pl = Placement(smuc, nranks=56, ranks_per_node=28)
        assert pl.nodes_used() == 2
        assert pl.nodes_used([0, 1]) == 1
        assert pl.nodes_used([0, 28]) == 2


class TestMakePlacement:
    def test_default_one_rank_per_core(self, smuc):
        pl = make_placement(smuc, 28)
        assert pl.ranks_per_node == 28

    def test_widens_when_machine_too_small(self):
        m = abstract_cluster(2, cores_per_node=4)
        pl = make_placement(m, 16)
        assert pl.ranks_per_node == 8  # oversubscribed to fit

    def test_explicit_ranks_per_node(self, smuc):
        pl = make_placement(smuc, 32, ranks_per_node=16)
        assert pl.node_of(16) == 1
