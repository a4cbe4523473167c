"""Shared-memory simulator: scheduler, NUMA model, merge-sort models."""

import pytest

from repro.machine import single_node
from repro.smp import (
    NumaModel,
    Task,
    WorkStealingSimulator,
    kway_merge_time,
    parallel_mergesort_time,
)


@pytest.fixture
def machine():
    return single_node()


class TestWorkStealingSimulator:
    def _sim(self, threads=2, domains=(0, 0)):
        return WorkStealingSimulator(list(domains), lambda a, b: 1.0 if a == b else 2.0)

    def test_single_task(self):
        sim = self._sim(1, (0,))
        res = sim.run([Task(cost=1.0)])
        assert res.makespan == pytest.approx(1.0 + sim.spawn_overhead)

    def test_independent_tasks_parallelize(self):
        sim = self._sim(2, (0, 0))
        res = sim.run([Task(cost=1.0), Task(cost=1.0)])
        assert res.makespan < 1.5

    def test_chain_serializes(self):
        sim = self._sim(2, (0, 0))
        res = sim.run([Task(cost=1.0), Task(cost=1.0, deps=(0,))])
        assert res.makespan >= 2.0

    def test_diamond_dag(self):
        sim = self._sim(2, (0, 0))
        tasks = [
            Task(cost=1.0),
            Task(cost=1.0, deps=(0,)),
            Task(cost=1.0, deps=(0,)),
            Task(cost=1.0, deps=(1, 2)),
        ]
        res = sim.run(tasks)
        assert 3.0 <= res.makespan < 4.0

    def test_remote_penalty_applied(self):
        sim = WorkStealingSimulator([0], lambda a, b: 1.0 if a == b else 3.0, spawn_overhead=0.0)
        res = sim.run([Task(cost=1.0, numa=1)])
        assert res.makespan == pytest.approx(3.0)
        assert res.remote_executions == 1

    def test_locality_preference(self):
        # two ready tasks, two threads in different domains: each takes its own
        sim = WorkStealingSimulator([0, 1], lambda a, b: 1.0 if a == b else 10.0, spawn_overhead=0.0)
        res = sim.run([Task(cost=1.0, numa=1), Task(cost=1.0, numa=0)])
        assert res.remote_executions == 0
        assert res.makespan == pytest.approx(1.0)

    def test_throughput_scaling(self):
        slow = WorkStealingSimulator([0], lambda a, b: 1.0, spawn_overhead=0.0, throughput=0.5)
        res = slow.run([Task(cost=1.0)])
        assert res.makespan == pytest.approx(2.0)

    def test_cycle_detection(self):
        sim = self._sim()
        with pytest.raises(ValueError):
            sim.run([Task(cost=1.0, deps=(1,)), Task(cost=1.0, deps=(0,))])

    def test_unknown_dep(self):
        sim = self._sim()
        with pytest.raises(ValueError):
            sim.run([Task(cost=1.0, deps=(5,))])

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            Task(cost=-1.0)

    def test_empty_dag(self):
        res = self._sim().run([])
        assert res.makespan == 0.0

    def test_utilization_bounds(self):
        sim = self._sim(4, (0, 0, 0, 0))
        res = sim.run([Task(cost=1.0) for _ in range(16)])
        assert 0.5 < res.utilization <= 1.0


class TestNumaModel:
    def test_local_penalty_is_one(self, machine):
        numa = NumaModel(machine, 4)
        assert numa.penalty(2, 2) == 1.0

    def test_cross_socket_worse_than_same_socket(self, machine):
        numa = NumaModel(machine, 4)
        same_socket = numa.penalty(0, 1)
        cross_socket = numa.penalty(0, 2)
        assert 1.0 <= same_socket < cross_socket

    def test_thread_domains_fill_in_order(self, machine):
        numa = NumaModel(machine, 2)
        doms = numa.thread_domains(10, smt=1)
        assert doms[:7] == [0] * 7
        assert doms[7:] == [1] * 3

    def test_thread_domains_smt(self, machine):
        numa = NumaModel(machine, 1)
        assert len(numa.thread_domains(14, smt=2)) == 14

    def test_too_many_threads(self, machine):
        numa = NumaModel(machine, 1)
        with pytest.raises(ValueError):
            numa.thread_domains(8, smt=1)

    def test_domain_of_block(self, machine):
        numa = NumaModel(machine, 4)
        assert numa.domain_of_block(0, 8) == 0
        assert numa.domain_of_block(7, 8) == 3

    def test_active_domain_validation(self, machine):
        with pytest.raises(ValueError):
            NumaModel(machine, 5)


class TestMergesortModels:
    def test_more_cores_faster_on_one_domain_pair(self, machine):
        n = 1 << 24
        t7 = parallel_mergesort_time(machine, n, cores=7, active_domains=1).seconds
        t28 = parallel_mergesort_time(machine, n, cores=28, active_domains=4).seconds
        assert t28 < t7

    def test_openmp_slower_than_tbb(self, machine):
        n = 1 << 24
        for cores, doms in [(7, 1), (28, 4)]:
            tbb = parallel_mergesort_time(machine, n, cores=cores, active_domains=doms, runtime="tbb").seconds
            omp = parallel_mergesort_time(machine, n, cores=cores, active_domains=doms, runtime="openmp").seconds
            assert omp > tbb

    def test_numa_crossing_costs(self, machine):
        n = 1 << 24
        local = parallel_mergesort_time(machine, n, cores=14, active_domains=2).seconds
        # same cores but data over 2 domains vs hypothetical single domain at
        # 14 cores is impossible (7 cores/domain), so compare per-core rates
        one_dom = parallel_mergesort_time(machine, n, cores=7, active_domains=1).seconds
        assert local > one_dom / 2  # scaling is sub-linear across domains

    def test_invalid_runtime(self, machine):
        with pytest.raises(ValueError):
            parallel_mergesort_time(machine, 100, cores=7, active_domains=1, runtime="x")

    def test_invalid_n(self, machine):
        with pytest.raises(ValueError):
            parallel_mergesort_time(machine, 0, cores=7, active_domains=1)

    def test_kway_strategies_positive(self, machine):
        n = 1 << 22
        for strategy in ("binary_tree", "tournament", "sort"):
            run = kway_merge_time(machine, n, 16, threads=8, strategy=strategy)
            assert run.seconds > 0

    def test_kway_sort_wins_many_small_chunks_many_threads(self, machine):
        n = 1 << 30
        sort = kway_merge_time(machine, n, 1024, threads=28, strategy="sort", smt=2).seconds
        tree = kway_merge_time(machine, n, 1024, threads=28, strategy="binary_tree", smt=2).seconds
        tourney = kway_merge_time(machine, n, 1024, threads=28, strategy="tournament", smt=2).seconds
        assert sort < tree and sort < tourney

    def test_kway_merge_wins_few_large_chunks(self, machine):
        n = 1 << 30
        sort = kway_merge_time(machine, n, 4, threads=2, strategy="sort", smt=2).seconds
        tourney = kway_merge_time(machine, n, 4, threads=2, strategy="tournament", smt=2).seconds
        assert tourney < sort

    def test_kway_invalid(self, machine):
        with pytest.raises(ValueError):
            kway_merge_time(machine, 0, 4, threads=2, strategy="sort")
        with pytest.raises(ValueError):
            kway_merge_time(machine, 10, 4, threads=2, strategy="bogus")
