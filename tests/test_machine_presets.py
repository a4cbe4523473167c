"""Machine presets: every preset builds a valid, priceable MachineSpec."""

import numpy as np
import pytest

from repro.machine import (
    MachineSpec,
    abstract_cluster,
    laptop,
    single_node,
    supermuc_phase2,
)
from repro.machine.cost import CostModel
from repro.machine.spec import Level
from repro.machine.topology import make_placement

PRESETS = {
    "supermuc_phase2": supermuc_phase2,
    "laptop": laptop,
    "single_node": single_node,
    "abstract_cluster_4n": lambda: abstract_cluster(4),
}


@pytest.mark.parametrize("name", sorted(PRESETS))
class TestEveryPreset:
    def test_builds_valid_spec(self, name):
        m = PRESETS[name]()
        assert isinstance(m, MachineSpec)
        assert m.nodes >= 1
        assert m.total_cores >= 1
        assert m.bisection_bandwidth > 0
        if m.nodes > 1:
            assert Level.NETWORK in m.links

    def test_links_resolve_up_to_own_span(self, name):
        # every level the machine can actually contain must price
        m = PRESETS[name]()
        top = Level.NETWORK if m.nodes > 1 else Level.NODE
        for level in Level:
            if Level.SELF <= level <= top:
                spec = m.link(level)
                assert spec.latency >= 0 and spec.bandwidth > 0

    def test_priceable_by_cost_model(self, name):
        # regression: the laptop preset used to lack a NODE link and blew
        # up inside CostModel; every preset must support a small placement
        m = PRESETS[name]()
        p = min(4, m.total_cores)
        cost = CostModel(make_placement(m, p, min(p, m.node.cores)))
        assert cost.ptp(0, p - 1, 4096) > 0
        vols = np.full((p, p), 1024.0)
        assert cost.alltoallv(vols, list(range(p))) > 0

    def test_signature_stable_and_nonempty(self, name):
        m = PRESETS[name]()
        assert m.signature() == PRESETS[name]().signature()
        assert len(m.signature()) == 12


@pytest.mark.parametrize("rpn", [1, 3, 5, "cores"])
@pytest.mark.parametrize(
    "name", [*sorted(PRESETS), "two_sockets_of_three_numa"])  # sockets != NUMA per socket
def test_level_matrix_is_the_pairwise_level(name, rpn):
    m = single_node(cores_per_numa=3, numa_domains=6) if name not in PRESETS else PRESETS[name]()
    rpn = m.node.cores if rpn == "cores" else min(rpn, m.node.cores)
    pl = make_placement(m, min(m.nodes, 3) * rpn, rpn)
    rng = np.random.default_rng(rpn)
    groups = [range(pl.nranks)] + [
        rng.choice(pl.nranks, size=rng.integers(1, pl.nranks + 1), replace=False)
        for _ in range(4)
    ]
    for ranks in groups:
        want = [[int(pl.level(int(a), int(b))) for b in ranks] for a in ranks]
        assert pl.level_matrix(ranks).tolist() == want


class TestSupermucPhase2:
    def test_table1_shape(self):
        m = supermuc_phase2()
        assert m.nodes == 512
        assert m.node.cores == 28  # 2 sockets x 2 NUMA x 7 cores
        assert m.node.mem_bytes == 56 * 2**30
        assert m.bisection_bandwidth == pytest.approx(5.1e12)

    def test_nodes_argument(self):
        assert supermuc_phase2(nodes=16).nodes == 16


class TestSingleNode:
    def test_no_network_link(self):
        m = single_node()
        assert m.nodes == 1
        assert Level.NETWORK not in m.links

    def test_odd_numa_count(self):
        m = single_node(cores_per_numa=3, numa_domains=3)
        assert m.node.sockets == 1
        assert m.node.numa_per_socket == 3
        assert m.node.cores == 9


class TestAbstractCluster:
    def test_respects_arguments(self):
        m = abstract_cluster(
            8, cores_per_node=12, net_latency=5e-6, net_bandwidth=2.0e9
        )
        assert m.nodes == 8
        assert m.node.cores == 12
        assert m.total_cores == 96
        net = m.links[Level.NETWORK]
        assert net.latency == 5e-6 and net.bandwidth == 2.0e9
        assert m.bisection_bandwidth == pytest.approx(2.0e9 * 8 / 2)

    def test_distinct_shapes_distinct_signatures(self):
        assert abstract_cluster(2).signature() != abstract_cluster(4).signature()
        assert (
            abstract_cluster(2, cores_per_node=8).signature()
            != abstract_cluster(2, cores_per_node=16).signature()
        )

    def test_signature_ignores_name(self):
        import dataclasses

        m = abstract_cluster(2)
        renamed = dataclasses.replace(m, name="elsewhere")
        assert renamed.signature() == m.signature()
