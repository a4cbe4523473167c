"""Event tracing: recorder semantics, zero-cost parity, export, analysis, CLI."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import SortConfig, histogram_sort
from repro.data import make_partition
from repro.machine import abstract_cluster
from repro.trace import (
    TraceRecorder,
    combine_phases,
    critical_path,
    idle_fraction,
    imbalance_ratio,
    phase_breakdown,
    rank_activity,
    spans_from_chrome,
    to_chrome_json,
    traffic_matrix,
    write_chrome_trace,
)
from repro.trace.report import main as report_main
from repro.trace.report import render_report

from .conftest import spmd


def _sort_prog(comm, n, seed, config):
    local = make_partition("uniform_u64", n, rank=comm.rank, seed=seed)
    res = histogram_sort(comm, local, config=config)
    return {
        "phases": res.phases,
        "output": res.output,
        "rounds": res.rounds,
        "clock": comm.clock,
    }


def _traced_sort(p, *, n=500, seed=7, config=None, **kwargs):
    config = config or SortConfig()
    return spmd(
        p, _sort_prog, n, seed, config, trace=True, return_runtime=True, **kwargs
    )


class TestParity:
    """Tracing must not perturb results or virtual time in any way."""

    @pytest.mark.parametrize("overlap", [False, True])
    def test_traced_run_bit_identical(self, overlap):
        config = SortConfig(overlap_exchange=overlap)
        base = spmd(8, _sort_prog, 500, 7, config)
        traced, rt = _traced_sort(8, config=config)
        assert rt.trace is not None and len(rt.trace) > 0
        for b, t in zip(base, traced):
            assert b["phases"] == t["phases"]  # exact, not approx
            assert b["clock"] == t["clock"]
            assert b["rounds"] == t["rounds"]
            np.testing.assert_array_equal(b["output"], t["output"])

    def test_disabled_runtime_records_nothing(self):
        results, rt = spmd(4, _sort_prog, 200, 1, SortConfig(), return_runtime=True)
        assert rt.trace is None
        # The null tracer is shared and inert.
        from repro.trace import NULL_TRACER

        with NULL_TRACER.span("anything", k=1):
            pass
        NULL_TRACER.record("x", 0.0)
        NULL_TRACER.instant("y")

    def test_run_spmd_trace_flag_enables_recorder(self):
        results, rt = spmd(
            4, _sort_prog, 200, 1, SortConfig(), trace=True, return_runtime=True
        )
        assert isinstance(rt.trace, TraceRecorder)
        assert len(rt.trace) > 0


class TestRecorder:
    def test_span_ordering_and_nesting_per_rank(self):
        _, rt = _traced_sort(4)
        for rank in range(4):
            spans = rt.trace.rank_spans(rank)
            assert spans, f"rank {rank} recorded nothing"
            assert all(s.rank == rank for s in spans)
            assert all(s.t1 >= s.t0 for s in spans)
            # Ordered by start, enclosing-first at equal starts.
            starts = [s.t0 for s in spans]
            assert starts == sorted(starts)
            # The whole-sort span encloses every other span of the rank.
            tops = [s for s in spans if s.name == "histogram_sort"]
            assert len(tops) == 1
            top = tops[0]
            assert all(
                top.t0 <= s.t0 and s.t1 <= top.t1 + 1e-15 for s in spans
            )

    def test_expected_span_kinds_present(self):
        _, rt = _traced_sort(8)
        names = {(s.cat, s.name) for s in rt.trace.spans()}
        for phase in ("local_sort", "splitting", "exchange", "merge"):
            assert ("phase", phase) in names
        assert ("user", "histogram_round") in names
        assert ("user", "exchange_plan") in names
        assert ("user", "exchange_data") in names
        assert ("collective", "node_allreduce") in names
        assert ("collective", "node_alltoallv") in names
        assert ("compute", "compute") in names

    def test_collective_attrs(self):
        _, rt = _traced_sort(4)
        colls = [s for s in rt.trace.spans() if s.cat == "collective"]
        assert colls
        for s in colls:
            assert s.attrs["nranks"] >= 1
            assert s.attrs["bytes"] >= 0
            assert s.attrs["idle"] >= 0.0
            assert s.attrs["idle"] <= s.duration + 1e-15
            assert "comm" in s.attrs and "seq" in s.attrs
            assert s.attrs["level"] in ("self", "numa", "socket", "node", "network")
        # Every invocation is matched across exactly nranks ranks.
        by_key: dict[tuple, list] = {}
        for s in colls:
            by_key.setdefault((s.attrs["comm"], s.attrs["seq"], s.name), []).append(s)
        for key, group in by_key.items():
            assert len(group) == group[0].attrs["nranks"], key

    def test_idle_accounting_around_imbalanced_barrier(self):
        def prog(comm):
            comm.compute(1.0 * comm.rank)  # rank r works r seconds
            comm.barrier()
            return comm.clock

        _, rt = spmd(4, prog, trace=True, return_runtime=True)
        barriers = {
            s.rank: s for s in rt.trace.spans() if s.name == "barrier"
        }
        assert set(barriers) == {0, 1, 2, 3}
        # Rank 0 waits ~3s for rank 3; rank 3 (the last arriver) waits ~0.
        assert barriers[0].idle == pytest.approx(3.0, abs=1e-6)
        assert barriers[1].idle == pytest.approx(2.0, abs=1e-6)
        assert barriers[3].idle == pytest.approx(0.0, abs=1e-6)
        for s in barriers.values():
            assert s.attrs["last_arrival"] == pytest.approx(3.0, abs=1e-6)

    def test_p2p_spans_and_recv_idle(self):
        def prog(comm):
            if comm.rank == 0:
                comm.compute(1.0)
                comm.send(np.arange(10), 1, tag=5)  # spmd: ignore[TAG-COLLISION]
            elif comm.rank == 1:
                obj = comm.recv(0, tag=5)  # blocks ~1s for the sender  # spmd: ignore[TAG-COLLISION]
                assert obj.size == 10
            comm.barrier()
            return comm.clock

        _, rt = spmd(2, prog, trace=True, return_runtime=True)
        spans = rt.trace.spans()
        send = next(s for s in spans if s.name == "send")
        recv = next(s for s in spans if s.name == "recv")
        assert send.rank == 0 and send.attrs["peer"] == 1
        assert recv.rank == 1 and recv.attrs["src"] == 0
        assert send.nbytes == recv.nbytes == 80
        assert recv.idle == pytest.approx(send.attrs.get("departure", send.t1) - recv.t0)
        assert recv.idle >= 1.0 - 1e-9

    def test_wait_span_from_irecv(self):
        def prog(comm):
            if comm.rank == 0:
                comm.compute(0.5)
                comm.send(b"x", 1)
            elif comm.rank == 1:
                req = comm.irecv(0)
                req.wait()
            comm.barrier()

        _, rt = spmd(2, prog, trace=True, return_runtime=True)
        names = {s.name for s in rt.trace.spans() if s.rank == 1}
        assert "wait" in names

    def test_compute_span_coalescing(self):
        def prog(comm):
            for _ in range(5):
                comm.compute(0.1)  # back-to-back: one span
            comm.barrier()
            comm.compute(0.1)  # separated by the barrier: a second span

        _, rt = spmd(2, prog, trace=True, return_runtime=True)
        computes = [
            s for s in rt.trace.rank_spans(0) if s.cat == "compute"
        ]
        assert len(computes) == 2
        assert computes[0].duration == pytest.approx(0.5)


class TestExport:
    def test_chrome_json_schema(self, tmp_path):
        _, rt = _traced_sort(8)
        path = write_chrome_trace(tmp_path / "t.json", rt.trace)
        data = json.loads(path.read_text())
        assert isinstance(data["traceEvents"], list)
        assert data["otherData"]["ranks"] == 8
        xs = [e for e in data["traceEvents"] if e["ph"] == "X"]
        ms = [e for e in data["traceEvents"] if e["ph"] == "M"]
        assert len(xs) == len(rt.trace)
        # One named track per rank.
        tracks = {
            e["tid"] for e in ms if e["name"] == "thread_name"
        }
        assert tracks == set(range(8))
        for e in xs:
            assert e["dur"] >= 0
            assert e["ts"] >= 0
            json.dumps(e["args"])  # attrs must be JSON-clean

    def test_roundtrip_preserves_spans(self):
        _, rt = _traced_sort(4)
        original = rt.trace.spans()
        back = spans_from_chrome(to_chrome_json(rt.trace))
        assert len(back) == len(original)
        orig_sorted = sorted(original, key=lambda s: (s.rank, s.t0, -s.t1))
        for a, b in zip(orig_sorted, back):
            assert (a.rank, a.name, a.cat) == (b.rank, b.name, b.cat)
            assert a.t0 == pytest.approx(b.t0, abs=1e-15)
            assert a.duration == pytest.approx(b.duration, abs=1e-15)


class TestAnalysis:
    def test_rank_activity_sums_to_makespan(self):
        _, rt = _traced_sort(8)
        spans = rt.trace.spans()
        total = rt.trace.makespan
        for act in rank_activity(spans):
            assert act.busy + act.idle == pytest.approx(total)
            assert 0.0 <= act.idle_fraction <= 1.0
        assert 0.0 <= idle_fraction(spans) <= 1.0
        assert imbalance_ratio(spans) >= 1.0 - 1e-12

    def test_idle_fraction_detects_straggler(self):
        def prog(comm):
            comm.compute(3.0 if comm.rank == 3 else 0.1)
            comm.barrier()

        _, rt = spmd(4, prog, trace=True, return_runtime=True)
        acts = {a.rank: a for a in rank_activity(rt.trace.spans())}
        assert acts[0].idle_fraction > 0.9
        assert acts[3].idle_fraction < 0.1
        assert imbalance_ratio(rt.trace.spans()) > 2.0

    def test_phase_breakdown_matches_timer(self):
        results, rt = _traced_sort(8)
        from_trace = phase_breakdown(rt.trace.spans(), how="max")
        from_timer = combine_phases([r["phases"] for r in results], how="max")
        for name, val in from_timer.items():
            if val > 0:
                assert from_trace[name] == pytest.approx(val)

    def test_traffic_matrix_attributes_exchange(self):
        _, rt = _traced_sort(8)
        tm = traffic_matrix(rt.trace.spans())
        assert tm[("exchange", "node_alltoallv")] > 0
        assert tm[("splitting", "node_allreduce")] > 0

    def test_critical_path_covers_makespan(self):
        _, rt = _traced_sort(8)
        spans = rt.trace.spans()
        path = critical_path(spans)
        assert path
        length = sum(seg.duration for seg in path)
        # Contiguous backward chain of busy work: length ~= makespan.
        assert length == pytest.approx(rt.trace.makespan, rel=1e-6)
        for a, b in zip(path, path[1:]):
            assert b.t0 >= a.t1 - 1e-12  # time-ordered, no overlap

    def test_critical_path_follows_straggler(self):
        def prog(comm):
            comm.compute(2.0 if comm.rank == 2 else 0.1)
            comm.barrier()
            comm.compute(0.1)

        _, rt = spmd(4, prog, trace=True, return_runtime=True)
        path = critical_path(rt.trace.spans())
        # The pre-barrier stretch of the path must run on the straggler.
        pre = [seg for seg in path if seg.cat == "compute" and seg.t0 < 1.9]
        assert pre and all(seg.rank == 2 for seg in pre)


class TestReportCLI:
    def test_report_on_histogram_sort(self, tmp_path, capsys):
        _, rt = _traced_sort(8)
        path = write_chrome_trace(tmp_path / "t.json", rt.trace)
        assert report_main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "idle fraction" in out
        assert "imbalance ratio" in out
        assert "critical path" in out
        assert "splitting" in out
        assert "alltoallv" in out

    def test_report_on_overlap_exchange(self, tmp_path, capsys):
        _, rt = _traced_sort(8, config=SortConfig(overlap_exchange=True))
        names = {s.name for s in rt.trace.spans()}
        assert "overlap_round" in names
        path = write_chrome_trace(tmp_path / "t.json", rt.trace)
        assert report_main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "sendrecv" in out or "send" in out or "recv" in out

    def test_render_report_from_recorder(self):
        _, rt = _traced_sort(4)
        text = render_report(rt.trace.spans())
        assert "== trace report ==" in text
        assert "ranks: 4" in text

    def test_report_rejects_empty(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"traceEvents": []}))
        assert report_main([str(path)]) == 1


class TestSatellites:
    def test_stats_collective_participants(self):
        def prog(comm):
            comm.allreduce(comm.rank)
            sub = comm.split(comm.rank % 2, comm.rank)
            sub.allreduce(1)

        _, rt = spmd(4, prog, return_runtime=True)
        calls, nbytes, ranks = rt.stats.snapshot().collectives["allreduce"]
        # One 4-rank allreduce + two 2-rank ones (one per subgroup).
        assert calls == 3
        assert ranks == 4 + 2 + 2

    def test_traffic_snapshot_exposes_calls_and_ranks(self):
        def prog(comm):
            comm.allreduce(np.arange(4))

        _, rt = spmd(4, prog, return_runtime=True)
        snap = rt.stats.snapshot()
        calls, nbytes, ranks = snap.collectives["allreduce"]
        assert (calls, ranks) == (1, 4) and nbytes > 0
        assert snap.total_collective_calls == 1 and snap.wire_bytes == nbytes

    def test_combine_phases_sum(self):
        per_rank = [{"a": 1.0, "b": 2.0}, {"a": 3.0}]
        assert combine_phases(per_rank, how="sum") == {"a": 4.0, "b": 2.0}
        assert combine_phases(per_rank, how="max") == {"a": 3.0, "b": 2.0}
        assert combine_phases(per_rank, how="mean") == {"a": 2.0, "b": 1.0}
        with pytest.raises(ValueError):
            combine_phases(per_rank, how="median")

    def test_harness_trace_path(self, tmp_path):
        from repro.bench.harness import run_sort_trial

        path = tmp_path / "trial.json"
        trial = run_sort_trial(4, 200, trace_path=path)
        assert path.exists()
        data = json.loads(path.read_text())
        assert data["otherData"]["ranks"] == 4
        assert trial.total > 0

    def test_baseline_traces(self):
        from repro.baselines import sample_sort

        def prog(comm):
            local = make_partition("uniform_u64", 300, rank=comm.rank, seed=2)
            return sample_sort(comm, local).output

        _, rt = spmd(4, prog, trace=True, return_runtime=True)
        names = {s.name for s in rt.trace.spans()}
        assert "exchange_data" in names
        assert "alltoallv" in names


class TestAcceptance16:
    """The ISSUE's acceptance run: 16 ranks on 2 nodes, full trace."""

    def test_16_rank_trace(self, tmp_path):
        config = SortConfig()
        results, rt = spmd(
            16,
            _sort_prog,
            1000,
            11,
            config,
            machine=abstract_cluster(2, cores_per_node=8),
            trace=True,
            return_runtime=True,
        )
        rec = rt.trace
        # Spans on every rank, phase spans for all four supersteps, and
        # per-round histogram collectives inside the splitting phase.
        for rank in range(16):
            spans = rec.rank_spans(rank)
            assert spans
            phases = {s.name for s in spans if s.cat == "phase"}
            assert {"local_sort", "splitting", "exchange", "merge"} <= phases
            rounds = [s for s in spans if s.name == "histogram_round"]
            assert rounds
            split_phase = next(s for s in spans if s.name == "splitting")
            for r in rounds:
                assert split_phase.t0 - 1e-12 <= r.t0
                assert r.t1 <= split_phase.t1 + 1e-12
                inner = [
                    s
                    for s in spans
                    if s.cat == "collective" and r.t0 - 1e-15 <= s.t0 and s.t1 <= r.t1 + 1e-15
                ]
                assert inner, "histogram round without collectives"

        path = write_chrome_trace(tmp_path / "accept.json", rec)
        data = json.loads(path.read_text())
        tracks = {
            e["tid"]
            for e in data["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert tracks == set(range(16))
        nodes = {
            e["pid"]
            for e in data["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert len(nodes) == 2  # two nodes -> two Perfetto process groups
        # The modelled makespan is untouched by tracing.
        base = spmd(
            16,
            _sort_prog,
            1000,
            11,
            config,
            machine=abstract_cluster(2, cores_per_node=8),
        )
        for b, t in zip(base, results):
            assert b["clock"] == t["clock"]
