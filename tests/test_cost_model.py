"""Unit tests for the virtual-time cost model."""

import numpy as np
import pytest

from repro.machine import (
    CostModel,
    Level,
    make_placement,
    supermuc_phase2,
    abstract_cluster,
)


@pytest.fixture
def cm():
    machine = supermuc_phase2(nodes=4)
    return CostModel(make_placement(machine, 112, ranks_per_node=28))


@pytest.fixture
def cm_one_node():
    machine = supermuc_phase2(nodes=1)
    return CostModel(make_placement(machine, 28, ranks_per_node=28))


class TestPtp:
    def test_closer_is_cheaper(self, cm):
        big = 1 << 20
        intra_numa = cm.ptp(0, 1, big)
        intra_node = cm.ptp(0, 20, big)
        inter_node = cm.ptp(0, 28, big)
        assert intra_numa < intra_node < inter_node

    def test_monotone_in_size(self, cm):
        assert cm.ptp(0, 28, 1 << 10) < cm.ptp(0, 28, 1 << 20)

    def test_self_send_is_cheap(self, cm):
        assert cm.ptp(0, 0, 1 << 10) < cm.ptp(0, 1, 1 << 10)


class TestCollectives:
    def test_allreduce_grows_with_group(self, cm):
        small = cm.allreduce(64, list(range(2)))
        large = cm.allreduce(64, list(range(112)))
        assert large > small

    def test_allreduce_intranode_cheaper(self, cm):
        intra = cm.allreduce(1 << 12, list(range(28)))
        inter = cm.allreduce(1 << 12, list(range(112)))
        assert intra < inter

    def test_allgather_bandwidth_term(self, cm):
        p = 28
        small = cm.allgather(8, list(range(p)))
        large = cm.allgather(1 << 16, list(range(p)))
        assert large > small * 10

    def test_barrier_positive(self, cm):
        assert cm.barrier(list(range(112))) > 0

    def test_single_rank_group(self, cm):
        # log2(1) = 0 rounds: only software overhead remains
        assert cm.allreduce(64, [0]) == pytest.approx(cm.software_overhead)

    def test_nic_sharing_multiplier(self):
        machine = supermuc_phase2(nodes=4)
        pl = make_placement(machine, 112, ranks_per_node=28)
        shared = CostModel(pl, nic_sharing=True)
        unshared = CostModel(pl, nic_sharing=False)
        ranks = list(range(112))
        assert shared.allreduce(1 << 16, ranks) > unshared.allreduce(1 << 16, ranks)

    def test_comm_split_linear_in_size(self, cm):
        t1 = cm.comm_split(list(range(28)))
        t2 = cm.comm_split(list(range(112)))
        assert t2 > t1


class TestAlltoallv:
    def _uniform_vols(self, p, per_pair):
        return np.full((p, p), per_pair, dtype=np.float64)

    def test_per_rank_shape(self, cm):
        vols = self._uniform_vols(112, 1024.0)
        out = cm.alltoallv_per_rank(vols, list(range(112)))
        assert out.shape == (112,)
        assert np.all(out > 0)

    def test_completion_is_max(self, cm):
        vols = self._uniform_vols(8, 1024.0)
        vols[3, :] *= 100  # rank 3 sends much more
        per = cm.alltoallv_per_rank(vols, list(range(8)))
        assert cm.alltoallv(vols, list(range(8))) == pytest.approx(per.max())
        assert per[3] == per.max()

    def test_intra_node_cheaper_than_cross(self):
        machine = supermuc_phase2(nodes=2)
        pl = make_placement(machine, 56, ranks_per_node=28)
        cm = CostModel(pl)
        vols = np.zeros((56, 56))
        vols[0, 1] = 1 << 24
        intra = cm.alltoallv(vols, list(range(56)))
        vols2 = np.zeros((56, 56))
        vols2[0, 28] = 1 << 24
        inter = cm.alltoallv(vols2, list(range(56)))
        assert intra < inter

    def test_shm_toggle_changes_intranode_price(self, cm_one_node):
        machine = supermuc_phase2(nodes=1)
        pl = make_placement(machine, 28, ranks_per_node=28)
        no_shm = CostModel(pl, use_shm=False)
        vols = np.full((28, 28), float(1 << 16))
        t_shm = cm_one_node.alltoallv(vols, list(range(28)))
        t_noshm = no_shm.alltoallv(vols, list(range(28)))
        assert t_noshm > t_shm

    def test_bad_shape_rejected(self, cm):
        with pytest.raises(ValueError):
            cm.alltoallv_per_rank(np.zeros((3, 4)), list(range(3)))

    def test_single_rank(self, cm_one_node):
        machine = supermuc_phase2(nodes=1)
        pl = make_placement(machine, 1, ranks_per_node=1)
        solo = CostModel(pl)
        out = solo.alltoallv_per_rank(np.array([[1024.0]]), [0])
        assert out.shape == (1,)

    def test_bisection_floor_engages(self):
        machine = supermuc_phase2(nodes=128)
        p = 256
        pl = make_placement(machine, p, ranks_per_node=2)
        cm = CostModel(pl)
        vols = np.full((p, p), 1e9 / p)  # ~1 GB per rank
        per = cm.alltoallv_per_rank(vols, list(range(p)))
        cross = vols.sum() * (1 - 1 / 128)
        floor = cross / machine.bisection_bandwidth
        assert np.all(per >= floor * 0.9)


class TestNicOccupancy:
    """NIC sharers are the group's ranks on one node, not ``ranks_per_node``."""

    @pytest.fixture
    def cm8x8(self):
        return CostModel(make_placement(abstract_cluster(8, cores_per_node=8), 64, 8))

    def test_sharers_are_counted_per_node(self, cm8x8):
        net = cm8x8.machine.link(Level.NETWORK).bandwidth
        one_per_node, four_plus_four = range(0, 64, 8), [0, 1, 2, 3, 8, 9, 10, 11]
        assert cm8x8._group_link(one_per_node).bandwidth == net
        assert cm8x8._group_link(four_plus_four).bandwidth == net / 4
        assert cm8x8._group_link(range(64)).bandwidth == net / 8
        assert cm8x8.allreduce(1008, one_per_node) < cm8x8.allreduce(1008, four_plus_four)

    def test_alltoallv_shares_the_nic_likewise(self, cm8x8):
        vols = np.full((8, 8), float(1 << 20))
        spread = cm8x8.alltoallv(vols, range(0, 64, 8))
        packed = cm8x8.alltoallv(vols, [0, 1, 2, 3, 8, 9, 10, 11])
        assert spread < packed

    @pytest.mark.parametrize("rpn", [1, 3, 4, 8])
    def test_full_communicators_are_priced_as_before(self, rpn):
        pl = make_placement(abstract_cluster(8, cores_per_node=8), 8 * rpn, rpn)
        for p in range(1, 8 * rpn + 1):
            assert pl.node_occupancy(range(p)) == min(rpn, p)


class TestGroupLinkMemo:
    GROUPS = (
        list(range(112)),        # every node
        list(range(28)),         # one node
        list(range(0, 112, 28)),  # one rank per node
        [3, 4],                  # one NUMA domain
        [5],
    )

    @pytest.mark.parametrize("use_shm", [True, False])
    @pytest.mark.parametrize("nic_sharing", [True, False])
    def test_every_collective_prices_the_same_cold_and_warm(self, use_shm, nic_sharing):
        machine = supermuc_phase2(nodes=4)
        pl = make_placement(machine, 112, ranks_per_node=28)
        warm = CostModel(pl, use_shm=use_shm, nic_sharing=nic_sharing)
        for ranks in self.GROUPS:
            for name in ("bcast", "reduce", "allreduce", "gather", "scatter",
                         "allgather", "scan", "alltoall"):
                cold = getattr(CostModel(pl, use_shm=use_shm, nic_sharing=nic_sharing), name)
                first = getattr(warm, name)(4096.0, ranks)
                assert first == cold(4096.0, ranks) == getattr(warm, name)(4096.0, tuple(ranks))
            for name in ("barrier", "comm_split"):
                cold = getattr(CostModel(pl, use_shm=use_shm, nic_sharing=nic_sharing), name)
                assert getattr(warm, name)(ranks) == cold(ranks) == getattr(warm, name)(ranks)
            vols = np.full((len(ranks), len(ranks)), 512.0)
            cold = CostModel(pl, use_shm=use_shm, nic_sharing=nic_sharing)
            assert warm.alltoallv(vols, ranks) == cold.alltoallv(vols, ranks)
        assert set(warm._group_links) == {tuple(g) for g in self.GROUPS}

    def test_the_group_is_walked_once(self, cm, monkeypatch):
        calls = []
        real = type(cm.placement).span_level
        monkeypatch.setattr(
            type(cm.placement), "span_level",
            lambda self, ranks: calls.append(1) or real(self, ranks),
        )
        ranks = list(range(112))
        assert cm.allreduce(64, ranks) == cm.allreduce(64, ranks)
        cm.allgather(8, ranks), cm.barrier(ranks)
        assert len(calls) == 1
