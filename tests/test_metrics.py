"""Metrics registry: counters, labels, the collector, non-perturbation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.harness import run_sort_trial
from repro.core import SortConfig, histogram_sort
from repro.data import make_partition
from repro.faults import CrashEvent, FaultPlan, FaultSpec
from repro.machine import abstract_cluster
from repro.metrics import MetricsRegistry, collect_runtime
from repro.mpi import StatsSnapshot
from repro.trace import combine_phases

from .conftest import spmd


def _sort_prog(comm, n, seed):
    local = make_partition("uniform_u64", n, rank=comm.rank, seed=seed)
    res = histogram_sort(comm, local)
    return {"output": res.output, "phases": res.phases, "clock": comm.clock}


class TestRegistry:
    def test_counter_monotone(self):
        reg = MetricsRegistry()
        c = reg.counter("x_total").labels()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_labels_create_children_and_validate(self):
        reg = MetricsRegistry()
        fam = reg.counter("traffic_total", labelnames=("algo", "phase"))
        fam.labels(algo="dash", phase="exchange").inc(5)
        fam.labels(algo="hss", phase="exchange").inc(7)
        assert fam.total() == 12
        with pytest.raises(ValueError):
            fam.labels(algo="dash")  # missing label
        with pytest.raises(ValueError):
            fam.labels(algo="dash", phase="x", extra="y")
        with pytest.raises(ValueError):
            fam.labels()  # labelled family has no unlabelled child

    def test_redeclaration_idempotent_but_mismatch_raises(self):
        reg = MetricsRegistry()
        a = reg.counter("n_total", labelnames=("algo",))
        b = reg.counter("n_total", labelnames=("algo",))
        assert a is b
        with pytest.raises(ValueError):
            reg.counter("n_total", labelnames=("machine",))
        with pytest.raises(ValueError):
            reg.counter("n_total")

    def test_invalid_names_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("bad name")
        with pytest.raises(ValueError):
            reg.counter("ok_total", labelnames=("bad-label",))

    def test_value_lookup(self):
        reg = MetricsRegistry()
        reg.counter("a_total", ("k",)).labels(k="x").inc(3)
        reg.counter("a_total", ("k",)).labels(k="y").inc(4)
        assert reg.value("a_total") == 7
        assert reg.get("a_total").labels(k="x").value == 3
        with pytest.raises(KeyError):
            reg.value("missing_total")


#: the families collect_runtime writes, and all a registry ever holds
FAMILIES = [
    "repro_bytes_on_wire_total",
    "repro_collective_calls_total",
    "repro_messages_total",
    "repro_p2p_bytes_total",
]


class TestCollectors:
    def test_collect_runtime_matches_stats(self):
        _, rt = spmd(8, _sort_prog, 512, 3, return_runtime=True)
        reg = MetricsRegistry()
        collect_runtime(reg, rt)
        snap = rt.stats.snapshot()
        assert [fam.name for fam in reg.collect()] == FAMILIES
        assert reg.value("repro_bytes_on_wire_total") == snap.wire_bytes
        assert reg.value("repro_p2p_bytes_total") == snap.total_bytes_sent
        assert (
            reg.value("repro_messages_total")
            == snap.total_msgs_sent + snap.total_collective_calls
        )
        calls = reg.get("repro_collective_calls_total")
        assert {lab["op"]: c.value for lab, c in calls.samples()} == {
            op: v[0] for op, v in snap.collectives.items()
        }
        assert "node_allreduce" in snap.collectives and "alltoallv" in snap.collectives

    def test_one_registry_accumulates_many_runs(self):
        reg = MetricsRegistry()
        snaps = []
        for seed in (1, 2):
            _, rt = spmd(4, _sort_prog, 256, seed, return_runtime=True)
            collect_runtime(reg, rt)
            snaps.append(rt.stats.snapshot())
        assert reg.value("repro_bytes_on_wire_total") == sum(s.wire_bytes for s in snaps)
        assert reg.value("repro_collective_calls_total") == sum(
            s.total_collective_calls for s in snaps
        )

    def test_a_crash_without_spares_counts_a_recovery_and_a_loss(self):
        # shrink-and-restart is a recovery of the one loop: it shows in the
        # same counters as a substitution, and the crashed rank's data is lost
        # op 2 of rank 1: the splitter's extreme-key bounds allreduce
        plan = FaultPlan(FaultSpec(crashes=(CrashEvent(rank=1, at_op=2),)), seed=9, size=4)

        def prog(comm):
            local = make_partition("uniform_u64", 64, rank=comm.rank, seed=3)
            return histogram_sort(comm, local, SortConfig(resilient=True)).lost

        results, rt = spmd(4, prog, faults=plan, return_runtime=True)
        assert rt.fault_stats.crashed == [1]
        assert [r for r in results if r is not None] == [(1,)] * 3
        fs = rt.fault_stats
        assert fs.recoveries >= 1
        assert fs.lost == len(fs.crashed) == 1
        assert fs.spares_used == 0
        # no checkpoints: the recovery moved no control-plane bytes
        assert "checkpoint" not in rt.stats.snapshot().control


class TestStatsSnapshot:
    def test_snapshot_is_consistent_copy(self):
        _, rt = spmd(4, _sort_prog, 256, 1, return_runtime=True)
        snap = rt.stats.snapshot()
        assert isinstance(snap, StatsSnapshot)
        assert snap.total_bytes_sent == int(rt.stats.bytes_sent.sum())
        # mutating the live stats does not leak into the snapshot
        before = snap.total_msgs_sent
        rt.stats.record_send(0, 1000)
        assert snap.total_msgs_sent == before
        assert rt.stats.snapshot().total_msgs_sent == before + 1

    def test_wire_bytes_combines_p2p_and_collectives(self):
        _, rt = spmd(4, _sort_prog, 256, 1, return_runtime=True)
        snap = rt.stats.snapshot()
        assert snap.wire_bytes == snap.total_bytes_sent + snap.total_collective_bytes
        assert snap.total_collective_bytes > 0


class TestParity:
    """Metrics collection must not perturb results or virtual time, and the
    records of one run — trial, snapshot, registry — must agree bit for bit."""

    def test_16_rank_bit_parity(self):
        machine = abstract_cluster(2, cores_per_node=8)
        trial = run_sort_trial(
            16, 600, algo="dash", seed=5, machine=machine, config=SortConfig()
        )
        observed, rt = spmd(16, _sort_prog, 600, 5, machine=machine, return_runtime=True)
        reg = MetricsRegistry()
        collect_runtime(reg, rt)
        assert rt.elapsed() == trial.total  # exact, not approx
        assert combine_phases([o["phases"] for o in observed]) == trial.phases
        snap = rt.stats.snapshot()
        np.testing.assert_array_equal(snap.bytes_sent, trial.stats.bytes_sent)
        np.testing.assert_array_equal(snap.msgs_sent, trial.stats.msgs_sent)
        assert snap.collectives == trial.stats.collectives
        # and the registry did observe the run
        assert reg.value("repro_bytes_on_wire_total") == trial.stats.wire_bytes
        assert reg.value("repro_collective_calls_total") == trial.stats.total_collective_calls

    def test_collection_leaves_runtime_untouched(self):
        results, rt = spmd(16, _sort_prog, 400, 9, return_runtime=True)
        clocks_before = rt.clocks.copy()
        snap_before = rt.stats.snapshot()
        reg = MetricsRegistry()
        collect_runtime(reg, rt)
        np.testing.assert_array_equal(rt.clocks, clocks_before)
        after = rt.stats.snapshot()
        np.testing.assert_array_equal(after.bytes_sent, snap_before.bytes_sent)
        np.testing.assert_array_equal(after.msgs_sent, snap_before.msgs_sent)
        assert after.collectives == snap_before.collectives

    def test_program_outputs_identical_with_observation(self):
        base, _ = spmd(16, _sort_prog, 400, 11, return_runtime=True)
        observed, rt = spmd(16, _sort_prog, 400, 11, return_runtime=True)
        reg = MetricsRegistry()
        collect_runtime(reg, rt)
        for b, o in zip(base, observed):
            np.testing.assert_array_equal(b["output"], o["output"])
            assert b["clock"] == o["clock"]
            assert b["phases"] == o["phases"]
