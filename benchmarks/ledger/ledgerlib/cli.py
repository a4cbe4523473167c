"""Command line of the ledger: one run, all workloads, or ``--compare``."""

from __future__ import annotations

import argparse
import gc
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from . import compare
from .common import (
    ROOT,
    SETUP_REPS,
    contract,
    end_to_end,
    host_facts,
    peak_rss_mib,
    pin_to_one_cpu,
    raw_ops_note,
)

#: cycles of the seed set a timed pass runs at least, whatever ``--seconds``
MIN_CYCLES = 2


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    smoke: bool = False,
    spans: str | None = None,
    started: float | None = None,
) -> dict[str, Any]:
    """One run of one workload, in this process; returns the result record.

    ``trace=False`` measures the end-to-end metrics with nothing
    instrumented; ``trace=True`` runs the traced pass and returns the
    per-layer metrics.  Either way the set-up is repeated ``SETUP_REPS``
    times and every op is checked against the oracle.  ``started`` is when
    the process began importing (default: now), so imports count as set-up.
    """
    if started is None:
        started = time.perf_counter()
    from . import serveload, sortload  # imports repro: part of set-up

    import_s = time.perf_counter() - started
    sort_specs = {spec.name: spec for spec in sortload.SORT_SPECS}
    if name in sort_specs:
        module = sortload
        set_up = lambda: sortload.set_up(sort_specs[name], seed, smoke)  # noqa: E731
    elif name == serveload.NAME:
        module = serveload
        set_up = lambda: serveload.set_up(seed, smoke)  # noqa: E731
    else:
        raise SystemExit(f"unknown workload {name!r}; see BENCHMARK.json")

    if smoke:
        seconds = 0.0  # one cycle of the seed set, whatever --seconds says
    setups: list[list[float]] = []
    state = tally = None
    for _ in range(1 if smoke else SETUP_REPS):
        state = None
        gc.collect()
        state, tally, steps = set_up()
        setups.append(steps)

    spec = contract()
    values: dict[str, float]
    if trace:
        try:
            out = module.traced_pass(state, seconds, smoke)
        except sortload.ParityError as exc:
            raise SystemExit(f"traced pass invalid: {exc}")
        values = out["metrics"]
        unknown = set(values) - {m["name"] for m in spec["per_layer"]}
        if unknown:
            raise SystemExit(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
        if spans and out["log"] is not None:
            out["log"].dump(spans)
        # a metric that has no meaning on this workload reads 0 (README, table 2)
        listed = spec["per_layer"]
    else:
        out = module.timed_pass(state, seconds, 1 if smoke else MIN_CYCLES)
        values = end_to_end(out)
        # Imports happen once per process.  The rest is repeated, and of each
        # step (one dataset: generate, warm-up op, oracle) the fastest repeat
        # counts, for the reason end_to_end() gives.
        values["setup_s"] = import_s + sum(min(step) for step in zip(*setups))
        values["peak_rss_mb"] = peak_rss_mib()
        listed = spec["end_to_end"]
        print(f"# {name}: {raw_ops_note(out)}; virt population: {out['virt_population']}",
              file=sys.stderr)
    # the last set-up's oracle-checked warm-up ops count like any other op
    attempted = tally.attempted + out["tally"].attempted
    failed = tally.failed + out["tally"].failed
    if trace:
        values["bench.ops_failed_frac"] = failed / attempted
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in listed
        },
    }


def print_metrics(record: dict[str, Any]) -> None:
    print(f"== {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"attempted={record['attempted']} failed={record['failed']}")
    for name, cell in record["metrics"].items():
        print(f"  {name:36s} {cell['value']:.6g} {cell['unit']}")


def run_child(name: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict[str, Any]:
    """One run in a fresh interpreter; waits for it and parses its last line."""
    cmd = [
        sys.executable, str(Path(__file__).resolve().parents[1] / "run.py"),
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace),
    ] + (["--smoke"] if smoke else [])
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    if done.returncode != 0:
        raise SystemExit(f"{name} (trace={trace}) exited with {done.returncode}")
    record = json.loads(done.stdout.strip().splitlines()[-1])
    return {"workload": name, "seed": seed, "trace": trace, **record}


def run_all(args: argparse.Namespace) -> int:
    """Every workload, both passes, each in its own child, one after another."""
    names = [w["name"] for w in contract()["workloads"]]
    runs = []
    for i in range(args.runs):
        seed = args.seed + 10 * i  # seed sets S..S+4 of different runs stay disjoint
        for name in names:
            for trace in (0, 1):
                record = run_child(name, seed, args.seconds, trace, args.smoke)
                print_metrics(record)
                runs.append(record)
    result = {
        "meta": {**host_facts(), "seconds": args.seconds, "smoke": args.smoke},
        "runs": runs,
    }
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1))
    summary = {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "workloads": sorted({r["workload"] for r in runs}),
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv: list[str] | None = None, started: float | None = None) -> int:
    spec = contract()
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]],
                    help="run this workload in-process (default: all, each in a child)")
    ap.add_argument("--seed", type=int, default=100, help="seed set is SEED..SEED+4")
    ap.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, a few ops")
    ap.add_argument("--runs", type=int, default=1, help="all-workload mode: runs per workload")
    ap.add_argument("--out", help="all-workload mode: write the result set here")
    ap.add_argument("--spans", help="single traced run: write the spans here")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = ap.parse_args(argv)

    if args.compare:
        return compare.main(args.compare[0], args.compare[1], spec)
    if args.workload is None:
        return run_all(args)
    cpu = pin_to_one_cpu()
    print(f"# pinned to cpu {cpu}", file=sys.stderr)
    record = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        smoke=args.smoke, spans=args.spans, started=started,
    )
    print_metrics(record)
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0
