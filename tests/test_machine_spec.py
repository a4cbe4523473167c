"""Unit tests for repro.machine.spec."""

import pytest

from repro.machine import (
    ComputeSpec,
    Level,
    LinkSpec,
    MachineSpec,
    NodeSpec,
    abstract_cluster,
    laptop,
    single_node,
    supermuc_phase2,
)


class TestLinkSpec:
    def test_cost_is_alpha_plus_beta(self):
        link = LinkSpec(latency=1e-6, bandwidth=1e9)
        assert link.cost(0) == pytest.approx(1e-6)
        assert link.cost(1e9) == pytest.approx(1.000001)

    def test_beta_is_inverse_bandwidth(self):
        link = LinkSpec(latency=0.0, bandwidth=4e9)
        assert link.beta == pytest.approx(0.25e-9)

    def test_rejects_negative_latency(self):
        with pytest.raises(ValueError):
            LinkSpec(latency=-1e-9, bandwidth=1e9)

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ValueError):
            LinkSpec(latency=0.0, bandwidth=0.0)


class TestNodeSpec:
    def test_core_arithmetic(self):
        node = NodeSpec(sockets=2, numa_per_socket=2, cores_per_numa=7)
        assert node.numa_domains == 4
        assert node.cores == 28
        assert node.hw_threads == 56

    def test_rejects_zero_sockets(self):
        with pytest.raises(ValueError):
            NodeSpec(sockets=0)


class TestComputeSpec:
    def test_sort_is_nlogn(self):
        c = ComputeSpec(call_overhead=0.0)
        t1 = c.sort(1 << 20)
        t2 = c.sort(1 << 21)
        assert t2 / t1 == pytest.approx(2 * 21 / 20, rel=1e-6)

    def test_sort_of_one_is_overhead_only(self):
        c = ComputeSpec()
        assert c.sort(1) == c.call_overhead
        assert c.sort(0) == c.call_overhead

    def test_kway_merge_counts_tree_passes(self):
        c = ComputeSpec(call_overhead=0.0)
        assert c.kway_merge(1000, 8) == pytest.approx(c.c_merge * 1000 * 3)
        assert c.kway_merge(1000, 1) == 0.0

    def test_search_scales_with_log_run_length(self):
        c = ComputeSpec(call_overhead=0.0)
        assert c.search(10, 2**16) == pytest.approx(c.c_search * 10 * 16)
        assert c.search(0, 100) == 0.0

    def test_memcpy_uses_bandwidth(self):
        c = ComputeSpec(call_overhead=0.0, memcpy_bandwidth=2e9)
        assert c.memcpy(2e9) == pytest.approx(1.0)

    def test_select_linear(self):
        c = ComputeSpec(call_overhead=0.0)
        assert c.select(2000) == pytest.approx(2 * c.select(1000))


class TestMachineSpec:
    def test_multi_node_requires_network_link(self):
        with pytest.raises(ValueError):
            MachineSpec(name="bad", nodes=4, links={})

    def test_single_node_ok_without_network(self):
        m = MachineSpec(
            name="ok", nodes=1, links={Level.NUMA: LinkSpec(1e-7, 1e9)}
        )
        assert m.total_cores == m.node.cores

    def test_link_inherits_from_farther_level(self):
        m = abstract_cluster(2)
        # SOCKET not defined explicitly: falls through to NETWORK
        assert m.link(Level.SOCKET) == m.link(Level.NETWORK)
        # NUMA defined explicitly
        assert m.link(Level.NUMA) != m.link(Level.NETWORK)

    def test_self_link_is_fast(self):
        m = abstract_cluster(2)
        assert m.link(Level.SELF).bandwidth > m.link(Level.NETWORK).bandwidth

    def test_with_nodes(self):
        m = supermuc_phase2(nodes=4)
        assert m.with_nodes(16).nodes == 16
        assert m.with_nodes(16).node == m.node

    def test_describe_mentions_key_facts(self):
        text = supermuc_phase2().describe()
        assert "E5-2697v3" in text
        assert "Infiniband" in text


class TestPresets:
    def test_supermuc_matches_table1(self):
        m = supermuc_phase2()
        assert m.node.cpu_model == "E5-2697v3"
        assert m.node.cores == 28
        assert m.node.numa_domains == 4
        assert m.node.mem_bytes == 56 * 2**30
        assert m.bisection_bandwidth == pytest.approx(5.1e12)
        assert m.nodes == 512

    def test_single_node_has_no_network(self):
        m = single_node()
        assert m.nodes == 1
        assert Level.NETWORK not in m.links

    def test_laptop_is_small(self):
        m = laptop(cores=4)
        assert m.total_cores == 4

    def test_abstract_cluster_sizes(self):
        m = abstract_cluster(8, cores_per_node=4)
        assert m.nodes == 8
        assert m.total_cores == 32
