"""Perf snapshots: suite execution, schema, comparison edge cases, CLI gate."""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path

import pytest

from repro.bench.harness import repeat_sort_trials, run_sort_trial
from repro.machine import abstract_cluster
from repro.mpi import StatsSnapshot
from repro.perf import (
    SCHEMA_VERSION,
    CellSpec,
    SnapshotFormatError,
    compare_snapshots,
    latest_bench_path,
    load_snapshot,
    next_bench_path,
    run_cell,
    run_suite,
    write_snapshot,
)
from repro.perf.cli import main as perf_main
from repro.perf.snapshot import HISTORY_NAME, history_line

QUICK_CELL = "dash/uniform_u64/abstract2/p4"


@pytest.fixture(scope="module")
def quick_snapshot():
    """One quick-suite run, shared across this module's tests."""
    return run_suite("quick", repeats=2, warmup=0, seed0=100, label="base")


def _doctor(snapshot, cell_id=QUICK_CELL, factor=2.0):
    """A deep copy with one cell's measurements scaled by ``factor``."""
    doc = copy.deepcopy(snapshot)
    cell = doc["cells"][cell_id]
    for key in ("median_s", "ci_low_s", "ci_high_s"):
        cell["measured"][key] *= factor
    cell["measured"]["values_s"] = [v * factor for v in cell["measured"]["values_s"]]
    cell["phases_s"] = {k: v * factor for k, v in cell["phases_s"].items()}
    doc["label"] = "doctored"
    return doc


class TestSuite:
    def test_snapshot_document_shape(self, quick_snapshot):
        doc = quick_snapshot
        assert doc["kind"] == "repro-perf-snapshot"
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["suite"] == "quick"
        assert set(doc["cells"]) == {QUICK_CELL, "hss/uniform_u64/abstract2/p4"}
        cell = doc["cells"][QUICK_CELL]
        measured = cell["measured"]
        assert measured["ci_low_s"] <= measured["median_s"] <= measured["ci_high_s"]
        assert len(measured["values_s"]) == 2
        assert set(cell["phases_s"]) >= {"local_sort", "splitting", "exchange", "merge"}
        assert cell["rounds"] >= 1

    def test_model_attribution_present(self, quick_snapshot):
        cell = quick_snapshot["cells"][QUICK_CELL]
        assert cell["modelled"]["total_s"] > 0
        assert set(cell["modelled"]["phases_s"]) == {
            "local_sort", "splitting", "exchange", "merge", "other",
        }
        err = cell["model_error"]
        assert err["time_scale"] > 0
        assert err["per_phase_ratio"]["exchange"] > 0

    def test_traffic_is_the_mean_over_the_measured_trials(self):
        # zipf: the round count, and with it the allreduce count, varies by
        # seed, so a mean that let the warm-up seed in would read differently
        spec = CellSpec("dash", "zipf_u64", "abstract2", p=4, n_per_rank=512, ranks_per_node=2)
        cell = run_cell(spec, repeats=2, warmup=1, seed0=100)
        _, trials = repeat_sort_trials(
            spec.p, spec.n_per_rank, repeats=2, warmup=1, seed0=100, algo=spec.algo,
            dist=spec.dist, machine=spec.machine(), ranks_per_node=spec.ranks_per_node,
            config=spec.sort_config(),
        )
        stats = [t.stats for t in trials]
        assert sorted(t.total for t in trials) == cell["measured"]["values_s"]
        assert len({s.collectives["node_allreduce"][0] for s in stats}) > 1
        assert cell["traffic"] == {
            "wire_bytes_per_run": sum(s.wire_bytes for s in stats) / 2,
            "p2p_bytes_per_run": sum(s.total_bytes_sent for s in stats) / 2,
            "messages_per_run": sum(
                s.total_msgs_sent + s.total_collective_calls for s in stats
            ) / 2,
            "collective_calls_per_run": {
                op: sum(s.collectives[op][0] for s in stats) / 2
                for op in sorted(stats[0].collectives)
            },
        }

    @pytest.mark.parametrize("algo", ["sample_sort", "psrs"])
    def test_fixed_round_algorithms_count_whole_collectives(self, algo):
        spec = CellSpec(algo, "uniform_u64", "abstract2", p=4, n_per_rank=512, ranks_per_node=2)
        calls = run_cell(spec, repeats=2, warmup=1)["traffic"]["collective_calls_per_run"]
        assert calls and all(float(n).is_integer() for n in calls.values())

    def test_deterministic_measurements(self, quick_snapshot):
        again = run_suite("quick", repeats=2, warmup=0, seed0=100, label="again")
        for cell_id, cell in quick_snapshot["cells"].items():
            assert (
                again["cells"][cell_id]["measured"]["values_s"]
                == cell["measured"]["values_s"]
            )

    def test_unknown_suite_and_preset(self):
        with pytest.raises(KeyError):
            run_suite("nope")
        with pytest.raises(KeyError):
            CellSpec("dash", "uniform_u64", "nope", p=2, n_per_rank=64).machine()


class TestCommittedBaseline:
    ROOT = Path(__file__).parents[1]

    def test_default_suite_reproduces_latest_bench_exactly(self):
        # nothing in a snapshot depends on the wall clock: the committed
        # file is an exact oracle for every key of every cell, not
        # something to compare within the gate's noise tolerance
        base = load_snapshot(latest_bench_path(self.ROOT))
        new = run_suite(
            "default", repeats=base["repeats"], warmup=base["warmup"], seed0=base["seed0"]
        )
        assert set(new["cells"]) == set(base["cells"])
        for cell_id, cell in base["cells"].items():
            assert new["cells"][cell_id] == cell, cell_id

    def test_one_snapshot_and_a_history_that_ends_on_it(self):
        (only,) = sorted(self.ROOT.glob("BENCH_*.json"))
        lines = (self.ROOT / HISTORY_NAME).read_text().splitlines()
        assert json.loads(lines[-1]) == history_line(load_snapshot(only))
        labels = [json.loads(line)["label"] for line in lines]
        assert labels == sorted(set(labels))  # one line per snapshot, in order


class TestPersistence:
    def test_write_load_roundtrip(self, quick_snapshot, tmp_path):
        path = write_snapshot(quick_snapshot, tmp_path / "BENCH_0001.json")
        loaded = load_snapshot(path)
        assert loaded["label"] == "base"  # explicit label wins over stem
        assert loaded["cells"].keys() == quick_snapshot["cells"].keys()

    def test_label_defaults_to_stem(self, quick_snapshot, tmp_path):
        doc = dict(quick_snapshot, label=None)
        path = write_snapshot(doc, tmp_path / "BENCH_0042.json")
        assert load_snapshot(path)["label"] == "BENCH_0042"

    def test_missing_file(self, tmp_path):
        with pytest.raises(SnapshotFormatError, match="not found"):
            load_snapshot(tmp_path / "BENCH_9999.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "BENCH_0001.json"
        path.write_text("{not json")
        with pytest.raises(SnapshotFormatError, match="not valid JSON"):
            load_snapshot(path)

    def test_wrong_kind(self, tmp_path):
        path = tmp_path / "BENCH_0001.json"
        path.write_text(json.dumps({"kind": "something-else", "schema_version": 1}))
        with pytest.raises(SnapshotFormatError, match="kind"):
            load_snapshot(path)

    def test_schema_version_mismatch(self, quick_snapshot, tmp_path):
        doc = dict(quick_snapshot, schema_version=SCHEMA_VERSION + 1)
        path = tmp_path / "BENCH_0001.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SnapshotFormatError, match="schema_version"):
            load_snapshot(path)

    def test_bench_numbering(self, quick_snapshot, tmp_path):
        assert latest_bench_path(tmp_path) is None
        assert next_bench_path(tmp_path).name == "BENCH_0001.json"
        write_snapshot(quick_snapshot, tmp_path / "BENCH_0003.json")
        (tmp_path / "BENCH_junk.json").write_text("{}")  # ignored: bad name
        assert latest_bench_path(tmp_path).name == "BENCH_0003.json"
        assert next_bench_path(tmp_path).name == "BENCH_0004.json"


class TestCompare:
    def test_identical_snapshots_pass(self, quick_snapshot):
        comparison = compare_snapshots(quick_snapshot, quick_snapshot)
        assert comparison.ok and comparison.exit_code == 0
        assert all(d.status == "ok" for d in comparison.deltas)

    def test_synthetic_2x_slowdown_is_regression(self, quick_snapshot):
        slow = _doctor(quick_snapshot, factor=2.0)
        comparison = compare_snapshots(slow, quick_snapshot)
        assert comparison.exit_code == 1
        (reg,) = comparison.regressions
        assert reg.cell_id == QUICK_CELL
        assert reg.ratio == pytest.approx(2.0)
        # per-phase attribution: every phase doubled, so deltas are positive
        # and ordered worst-first with shares summing to ~1
        assert reg.attribution
        deltas = [d for _, d, _ in reg.attribution]
        assert deltas == sorted(deltas, reverse=True)
        assert all(d >= 0 for d in deltas)
        assert sum(share for _, _, share in reg.attribution) == pytest.approx(1.0)
        text = comparison.format()
        assert "per-phase attribution" in text and "FAIL" in text

    def test_more_wire_bytes_is_a_regression(self, quick_snapshot):
        doc = copy.deepcopy(quick_snapshot)
        doc["cells"][QUICK_CELL]["traffic"]["wire_bytes_per_run"] *= 1.2
        comparison = compare_snapshots(doc, quick_snapshot)
        (reg,) = comparison.regressions
        assert reg.cell_id == QUICK_CELL and reg.wire_ratio == pytest.approx(1.2)
        assert reg.ratio == 1.0  # the time did not move: traffic alone fails it
        assert "wire x1.200" in comparison.format() and "wire bytes" in reg.note
        # fewer bytes never fail, and the ratio is printed, not x1.000
        doc["cells"][QUICK_CELL]["traffic"]["wire_bytes_per_run"] /= 1.5
        comparison = compare_snapshots(doc, quick_snapshot, threshold=0.0)
        assert comparison.ok and "wire x0.800" in comparison.format()

    def test_improvement_detected(self, quick_snapshot):
        fast = _doctor(quick_snapshot, factor=0.4)
        comparison = compare_snapshots(fast, quick_snapshot)
        assert comparison.ok  # improvements never fail the gate
        assert [d.status for d in comparison.deltas].count("improvement") == 1

    def test_within_ci_noise_is_ok(self, quick_snapshot):
        # nudge the median to the CI edge: inside threshold -> ok
        doc = copy.deepcopy(quick_snapshot)
        cell = doc["cells"][QUICK_CELL]["measured"]
        cell["median_s"] = cell["ci_high_s"] * 1.01
        comparison = compare_snapshots(doc, quick_snapshot, threshold=0.05)
        assert comparison.ok

    def test_nan_cell_is_incomparable_and_fails(self, quick_snapshot):
        doc = copy.deepcopy(quick_snapshot)
        doc["cells"][QUICK_CELL]["measured"]["median_s"] = math.nan
        comparison = compare_snapshots(doc, quick_snapshot)
        assert comparison.exit_code == 1
        (bad,) = comparison.incomparable
        assert "NaN" in bad.note

    def test_absent_measurement_is_incomparable(self, quick_snapshot):
        doc = copy.deepcopy(quick_snapshot)
        del doc["cells"][QUICK_CELL]["measured"]
        comparison = compare_snapshots(doc, quick_snapshot)
        assert not comparison.ok

    def test_missing_cell_in_candidate_fails(self, quick_snapshot):
        doc = copy.deepcopy(quick_snapshot)
        del doc["cells"][QUICK_CELL]
        comparison = compare_snapshots(doc, quick_snapshot)
        assert comparison.exit_code == 1
        (bad,) = comparison.incomparable
        assert "missing" in bad.note

    def test_new_only_cell_is_informational(self, quick_snapshot):
        doc = copy.deepcopy(quick_snapshot)
        doc["cells"]["extra/cell/p2"] = copy.deepcopy(doc["cells"][QUICK_CELL])
        comparison = compare_snapshots(doc, quick_snapshot)
        assert comparison.ok
        assert [d.status for d in comparison.deltas].count("new-only") == 1

    def test_nan_baseline_is_incomparable(self, quick_snapshot):
        base = copy.deepcopy(quick_snapshot)
        base["cells"][QUICK_CELL]["measured"]["median_s"] = math.nan
        comparison = compare_snapshots(quick_snapshot, base)
        assert not comparison.ok

    def test_negative_threshold_rejected(self, quick_snapshot):
        with pytest.raises(ValueError):
            compare_snapshots(quick_snapshot, quick_snapshot, threshold=-0.1)


class TestCli:
    def _write(self, doc, path):
        path.write_text(json.dumps(doc))
        return str(path)

    def test_run_writes_next_bench_file(self, tmp_path, capsys):
        args = ["run", "--suite", "quick", "--dir", str(tmp_path),
                "--repeats", "2", "--warmup", "0", "--quiet"]
        assert perf_main(args) == 0
        out = capsys.readouterr().out
        assert "BENCH_0001.json" in out
        doc = load_snapshot(tmp_path / "BENCH_0001.json")
        assert doc["label"] == "BENCH_0001"
        # ... and its line of the trajectory; an --out run is off the record
        history = tmp_path / HISTORY_NAME
        assert [json.loads(x) for x in history.read_text().splitlines()] == [
            history_line(doc)
        ]
        assert perf_main(args + ["--out", str(tmp_path / "scratch.json")]) == 0
        assert len(history.read_text().splitlines()) == 1

    def test_report(self, quick_snapshot, tmp_path, capsys):
        path = self._write(quick_snapshot, tmp_path / "BENCH_0001.json")
        assert perf_main(["report", path, "--verbose"]) == 0
        out = capsys.readouterr().out
        assert QUICK_CELL in out and "model-vs-measured" in out

    def test_compare_exit_codes(self, quick_snapshot, tmp_path, capsys):
        base = self._write(quick_snapshot, tmp_path / "base.json")
        slow = self._write(_doctor(quick_snapshot), tmp_path / "slow.json")
        assert perf_main(["compare", base, base]) == 0
        capsys.readouterr()
        assert perf_main(["compare", slow, base]) == 1
        out = capsys.readouterr().out
        assert "per-phase attribution" in out

    def test_gate_against_prerecorded_candidate(self, quick_snapshot, tmp_path, capsys):
        write_snapshot(quick_snapshot, tmp_path / "BENCH_0001.json")
        slow = self._write(_doctor(quick_snapshot), tmp_path / "slow.json")
        code = perf_main(["gate", "--dir", str(tmp_path), "--new", slow, "--quiet"])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "per-phase attribution" in out

    def test_gate_fresh_run_passes(self, tmp_path, capsys):
        doc = run_suite("quick", repeats=2, warmup=0, seed0=100)
        write_snapshot(doc, tmp_path / "BENCH_0001.json")
        code = perf_main(["gate", "--dir", str(tmp_path), "--quiet"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_gate_missing_baseline_is_usage_error(self, tmp_path):
        assert perf_main(["gate", "--dir", str(tmp_path)]) == 2
        assert perf_main(["gate", "--baseline", str(tmp_path / "nope.json")]) == 2

    def test_gate_schema_mismatch_is_usage_error(self, quick_snapshot, tmp_path):
        # schema 1 averaged traffic over the warm-up seed too: refused, not compared
        for version in (1, SCHEMA_VERSION + 99):
            doc = dict(quick_snapshot, schema_version=version)
            self._write(doc, tmp_path / "BENCH_0001.json")
            assert perf_main(["gate", "--dir", str(tmp_path), "--quiet"]) == 2

    def test_unknown_suite_is_usage_error(self, tmp_path):
        assert perf_main(["run", "--suite", "nope", "--dir", str(tmp_path)]) == 2


class TestHarnessExtras:
    def test_trial_stats_is_the_runtime_snapshot(self):
        trial = run_sort_trial(
            4, 256, algo="dash", machine=abstract_cluster(1, cores_per_node=4)
        )
        assert isinstance(trial.stats, StatsSnapshot) and trial.stats.size == 4
        assert trial.stats.wire_bytes >= trial.stats.total_bytes_sent
        assert trial.stats.total_collective_calls >= 1
        assert trial.extra == {}  # no tuner: nothing copied beside it
