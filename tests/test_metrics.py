"""Metrics registry: types, labels, exposition, the collector, non-perturbation."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.bench.harness import run_sort_trial
from repro.core import SortConfig, histogram_sort
from repro.data import make_partition
from repro.faults import CrashEvent, FaultPlan, FaultSpec
from repro.machine import abstract_cluster
from repro.metrics import (
    BYTES_BUCKETS,
    TIME_BUCKETS,
    MetricsRegistry,
    collect_runtime,
    exponential_buckets,
    to_json,
    to_prometheus,
)
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
        c = reg.counter("x_total", "help").default()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_set_inc_dec(self):
        reg = MetricsRegistry()
        g = reg.gauge("g", "help").default()
        g.set(4.0)
        g.inc()
        g.dec(2.0)
        assert g.value == 3.0

    def test_histogram_buckets_and_overflow(self):
        reg = MetricsRegistry()
        h = reg.histogram("h_seconds", "help", buckets=(1.0, 10.0, 100.0)).default()
        for v in (0.5, 5.0, 50.0, 500.0):
            h.observe(v)
        assert h.count == 4
        assert h.sum == pytest.approx(555.5)
        cum = dict(h.cumulative())
        assert cum[1.0] == 1 and cum[10.0] == 2 and cum[100.0] == 3
        assert cum[float("inf")] == 4
        with pytest.raises(ValueError):
            h.observe(float("nan"))

    def test_exponential_buckets(self):
        buckets = exponential_buckets(1e-6, 4.0, 5)
        assert buckets == (1e-6, 4e-6, 16e-6, 64e-6, 256e-6)
        with pytest.raises(ValueError):
            exponential_buckets(0.0, 4.0, 5)
        with pytest.raises(ValueError):
            exponential_buckets(1.0, 1.0, 5)
        assert len(TIME_BUCKETS) == 17 and len(BYTES_BUCKETS) == 14

    def test_labels_create_children_and_validate(self):
        reg = MetricsRegistry()
        fam = reg.counter("traffic_total", "help", labelnames=("algo", "phase"))
        fam.labels(algo="dash", phase="exchange").inc(5)
        fam.labels(algo="hss", phase="exchange").inc(7)
        assert fam.total() == 12
        with pytest.raises(ValueError):
            fam.labels(algo="dash")  # missing label
        with pytest.raises(ValueError):
            fam.labels(algo="dash", phase="x", extra="y")
        with pytest.raises(ValueError):
            fam.default()  # labelled family has no default child

    def test_redeclaration_idempotent_but_mismatch_raises(self):
        reg = MetricsRegistry()
        a = reg.counter("n_total", "help", labelnames=("algo",))
        b = reg.counter("n_total", "help", labelnames=("algo",))
        assert a is b
        with pytest.raises(ValueError):
            reg.gauge("n_total", "help", labelnames=("algo",))
        with pytest.raises(ValueError):
            reg.counter("n_total", "other help", labelnames=("algo",))
        with pytest.raises(ValueError):
            reg.counter("n_total", "help", labelnames=("machine",))

    def test_invalid_names_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("bad name", "help")
        with pytest.raises(ValueError):
            reg.counter("ok_total", "help", labelnames=("bad-label",))

    def test_value_lookup(self):
        reg = MetricsRegistry()
        reg.counter("a_total", "h", ("k",)).labels(k="x").inc(3)
        reg.counter("a_total", "h", ("k",)).labels(k="y").inc(4)
        assert reg.value("a_total") == 7
        assert reg.value("a_total", {"k": "x"}) == 3
        with pytest.raises(KeyError):
            reg.value("missing_total")


class TestExposition:
    def _loaded(self):
        reg = MetricsRegistry()
        reg.counter("c_total", "a \"quoted\"\nhelp", ("algo",)).labels(algo="dash").inc(2)
        reg.gauge("g_seconds", "gauge", ()).default().set(1.5)
        reg.histogram("h_seconds", "hist", ("phase",), buckets=(0.1, 1.0)).labels(
            phase="exchange"
        ).observe(0.5)
        return reg

    def test_prometheus_text_shape(self):
        text = self._loaded().to_prometheus()
        assert '# TYPE c_total counter' in text
        assert 'c_total{algo="dash"} 2' in text
        assert 'g_seconds 1.5' in text
        assert 'h_seconds_bucket{phase="exchange",le="+Inf"} 1' in text
        assert 'h_seconds_sum{phase="exchange"} 0.5' in text
        assert 'h_seconds_count{phase="exchange"} 1' in text
        assert '\\n' in text  # escaped newline in help
        # families render in sorted name order
        assert text.index("c_total") < text.index("g_seconds") < text.index("h_seconds")

    def test_prometheus_deterministic(self):
        assert self._loaded().to_prometheus() == self._loaded().to_prometheus()

    def test_json_serializable_roundtrip(self):
        doc = to_json(self._loaded())
        parsed = json.loads(json.dumps(doc))
        names = [f["name"] for f in parsed["metrics"]]
        assert names == sorted(names)
        hist = next(f for f in parsed["metrics"] if f["name"] == "h_seconds")
        assert hist["samples"][0]["buckets"]["+Inf"] == 1

    def test_empty_registry_renders_empty(self):
        reg = MetricsRegistry()
        assert to_prometheus(reg) == ""
        assert to_json(reg) == {"metrics": []}


class TestCollectors:
    def test_collect_runtime_matches_stats(self):
        _, rt = spmd(8, _sort_prog, 512, 3, return_runtime=True)
        reg = MetricsRegistry()
        collect_runtime(reg, rt, labels={"algo": "dash", "machine": "abstract"})
        snap = rt.stats.snapshot()
        assert reg.value("repro_bytes_on_wire_total") == snap.wire_bytes
        assert reg.value("repro_p2p_bytes_total") == snap.total_bytes_sent
        assert (
            reg.value("repro_messages_total")
            == snap.total_msgs_sent + snap.total_collective_calls
        )
        assert reg.value("repro_makespan_seconds", {"algo": "dash", "machine": "abstract"}) == rt.elapsed()
        calls = reg.get("repro_collective_calls_total")
        ops = {lab["op"] for lab, _ in calls.samples()}
        assert "node_allreduce" in ops and "alltoallv" in ops
        hist = reg.get("repro_rank_clock_seconds").labels(algo="dash", machine="abstract")
        assert hist.count == rt.size

    def test_one_registry_accumulates_many_runs(self):
        reg = MetricsRegistry()
        for seed in (1, 2):
            _, rt = spmd(4, _sort_prog, 256, seed, return_runtime=True)
            collect_runtime(reg, rt, labels={"algo": "dash"})
        assert reg.value("repro_runs_total") == 2

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
        reg = MetricsRegistry()
        collect_runtime(reg, rt, labels={"algo": "dash"})

        def events(event):
            return reg.value("repro_fault_events_total", {"algo": "dash", "event": event})

        assert events("recoveries") >= 1
        assert events("lost") == events("crashed") == 1


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
        labels = {"algo": "dash", "machine": "abstract2"}
        collect_runtime(reg, rt, labels=labels)
        assert rt.elapsed() == trial.total  # exact, not approx
        assert combine_phases([o["phases"] for o in observed]) == trial.phases
        snap = rt.stats.snapshot()
        np.testing.assert_array_equal(snap.bytes_sent, trial.stats.bytes_sent)
        np.testing.assert_array_equal(snap.msgs_sent, trial.stats.msgs_sent)
        assert snap.collectives == trial.stats.collectives
        # and the registry did observe the run
        assert reg.value("repro_runs_total") == 1
        assert reg.value("repro_makespan_seconds", labels) == trial.total
        assert reg.value("repro_bytes_on_wire_total") == trial.stats.wire_bytes

    def test_collection_leaves_runtime_untouched(self):
        results, rt = spmd(16, _sort_prog, 400, 9, return_runtime=True)
        clocks_before = rt.clocks.copy()
        snap_before = rt.stats.snapshot()
        reg = MetricsRegistry()
        collect_runtime(reg, rt, labels={"algo": "dash"})
        np.testing.assert_array_equal(rt.clocks, clocks_before)
        after = rt.stats.snapshot()
        np.testing.assert_array_equal(after.bytes_sent, snap_before.bytes_sent)
        np.testing.assert_array_equal(after.msgs_sent, snap_before.msgs_sent)
        assert after.collectives == snap_before.collectives

    def test_program_outputs_identical_with_observation(self):
        base, _ = spmd(16, _sort_prog, 400, 11, return_runtime=True)
        observed, rt = spmd(16, _sort_prog, 400, 11, return_runtime=True)
        reg = MetricsRegistry()
        collect_runtime(reg, rt, labels={})
        for b, o in zip(base, observed):
            np.testing.assert_array_equal(b["output"], o["output"])
            assert b["clock"] == o["clock"]
            assert b["phases"] == o["phases"]
