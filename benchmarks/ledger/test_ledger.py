"""Contract tests of the ledger (run explicitly: ``pytest benchmarks/ledger``).

Not part of the tier-1 suite (``testpaths = ["tests"]``): they drive all
four workloads at smoke size, twice, in this process.
"""

from __future__ import annotations

import copy
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for path in (ROOT / "src", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from ledgerlib import cli, compare  # noqa: E402
from ledgerlib.common import contract  # noqa: E402

SPEC = contract()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: 0 is the healthy reading of the first two; smoke-size epochs are too short
#: for jobs to queue up behind them, so nothing waits
ZERO_AT_SMOKE = (
    "bench.ops_failed_frac", "serve.queue_wait_virt_s_p50", "serve.queue_wait_virt_s_p90",
)
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def smoke_runs():
    """Two smoke runs of every workload and pass: ``runs[i][(workload, trace)]``."""
    return [
        {
            (name, trace): cli.run_workload(name, 100, 0.0, bool(trace), smoke=True)
            for name in WORKLOADS
            for trace in (0, 1)
        }
        for _ in range(2)
    ]


def test_contract_file_is_well_formed():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + WORKLOADS
    assert len(names) == len(set(names)), "names are used once"
    assert all(NAME_RE.match(n) for n in names)
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert all((ROOT / p).is_dir() for p in SPEC["paths"])


def test_every_named_metric_is_emitted_with_its_unit(smoke_runs):
    for trace, listed in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        for name in WORKLOADS:
            record = smoke_runs[0][(name, trace)]
            assert record["correct"] and record["failed"] == 0 and record["attempted"] >= 1
            assert list(record["metrics"]) == [m["name"] for m in listed]
            for m in listed:
                assert record["metrics"][m["name"]]["unit"] == m["unit"]
    # end-to-end metrics are never 0; a per-layer metric may read 0 only on
    # workloads where it has no meaning, never on all of them
    for name in WORKLOADS:
        assert all(c["value"] > 0 for c in smoke_runs[0][(name, 0)]["metrics"].values())
    for m in SPEC["per_layer"]:
        if m["name"] in ZERO_AT_SMOKE:
            continue
        assert any(
            smoke_runs[0][(name, 1)]["metrics"][m["name"]]["value"] != 0 for name in WORKLOADS
        ), f"{m['name']} is computed by no workload"


def test_virtual_time_and_counts_repeat_exactly(smoke_runs):
    first, second = smoke_runs
    checked = 0
    for key, record in first.items():
        for name, cell in record["metrics"].items():
            if compare.is_exact(name):
                assert cell["value"] == second[key]["metrics"][name]["value"], (key, name)
                checked += 1
    assert checked > 100


def test_compare_applies_the_bounds(smoke_runs, tmp_path, capsys):
    runs = list(smoke_runs[0].values())
    base = {"meta": {"seconds": 0}, "runs": runs}
    slow = copy.deepcopy(base)
    for record in slow["runs"]:
        if record["workload"] == WORKLOADS[0] and record["trace"] == 0:
            record["metrics"]["wall_s_best"]["value"] *= 1.5
            record["metrics"]["virt_s_p50"]["value"] *= 1.5
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(base))
    b.write_text(json.dumps(slow))
    assert compare.main(str(a), str(a), SPEC) == 0
    assert compare.main(str(a), str(b), SPEC) == 1
    out = capsys.readouterr().out
    assert re.search(rf"{re.escape(WORKLOADS[0])}\s+regressed", out)
    assert "[regressed] virt_s_p50 differs" in out
    assert re.search(rf"{re.escape(WORKLOADS[1])}\s+ok", out)


def test_oracle_and_parity_guard_reject_a_different_program():
    from dataclasses import replace

    from ledgerlib import sortload
    from ledgerlib.common import SpanLog

    spec = sortload.SORT_SPECS[0]
    state, tally, _ = sortload.set_up(spec, 100, smoke=True)
    assert tally.failed == 0
    res = sortload.run_op(spec, state.datasets[0])
    res.outputs[0], res.outputs[1] = res.outputs[1], res.outputs[0]  # same keys, wrong order
    assert not sortload.check_against(res, state.refs[0])
    res = sortload.run_op(spec, state.datasets[0])
    res.outputs[0] = res.outputs[0][:-1]  # a key lost
    assert not sortload.check_against(res, state.refs[0])

    log = SpanLog(spec.p)
    sortload._traced_op(state, 0, log, spec.config, state.refs[0])  # the real one passes
    drifted = replace(state.refs[0], virt=state.refs[0].virt * (1 + 1e-12))
    with pytest.raises(sortload.ParityError):
        sortload._traced_op(state, 0, log, spec.config, drifted)
