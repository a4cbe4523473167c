"""``python -m repro.serve`` — replay / submit / status / stats.

Exit codes (CI contract):

* ``0`` — success; for ``replay``, every completed job matched its
  oracle (and, under ``--determinism``, both replays fingerprinted
  identically);
* ``1`` — an oracle mismatch, a failed job, a determinism divergence,
  or a broken service invariant;
* ``2`` — usage error: unknown state directory, malformed spec, bad
  arguments.

``replay`` is the scripted soak the CI ``serve`` job runs: build the
standard mixed workload (:func:`repro.serve.workload.make_workload`),
optionally arm a chaos schedule, drain the service, and verify every
result against the single-process oracle.  ``submit``/``status``/
``stats`` operate on a saved service directory (:meth:`SortService.save`)
— the persistent query tier: a later process can answer queries against
existing sorted indexes without re-sorting anything.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Sequence

from .job import AdmissionError, JobSpec
from .queue import AdmissionPolicy
from .service import ServiceError, SortService
from .workload import make_chaos, make_workload, oracle_all

__all__ = ["main"]

USAGE_ERROR = 2


def _progress(msg: str, *, quiet: bool) -> None:
    if not quiet:
        print(f"[repro.serve] {msg}", file=sys.stderr)


def _run_replay(args: argparse.Namespace) -> tuple[SortService, list[JobSpec]]:
    workload = make_workload(args.p, seed=args.seed)
    chaos = make_chaos(workload, seed=args.seed + 1) if args.chaos else None
    if chaos is not None and args.spares is not None:
        from .service import ServiceChaos

        chaos = ServiceChaos(
            crashes=chaos.crashes, spares=args.spares, seed=chaos.seed
        )
    service = SortService(
        args.p,
        policy=AdmissionPolicy(max_epoch_jobs=args.max_epoch_jobs),
        chaos=chaos,
        trace=args.trace,
        seed=args.seed,
    )
    service.replay(workload)
    return service, workload


def _check_oracle(
    service: SortService, workload: Sequence[JobSpec], *, quiet: bool
) -> int:
    expected = oracle_all(workload, service.p)
    mismatches = 0
    for job_id, want in enumerate(expected):
        job = service.jobs.get(job_id)
        if job is None or job.result is None:
            print(f"job {job_id}: no result (state={job.state if job else '?'})")
            mismatches += 1
            continue
        got = job.result.value
        if got != want:
            print(f"job {job_id} ({job.spec.kind}): got {got!r}, want {want!r}")
            mismatches += 1
    _progress(
        f"oracle: {len(expected) - mismatches}/{len(expected)} jobs match",
        quiet=quiet,
    )
    return mismatches


def _cmd_replay(args: argparse.Namespace) -> int:
    service, workload = _run_replay(args)
    failures = 0
    if not args.no_oracle:
        failures += _check_oracle(service, workload, quiet=args.quiet)
    if args.determinism:
        _progress("determinism: second replay", quiet=args.quiet)
        second, _ = _run_replay(args)
        fp1, fp2 = service.fingerprint(), second.fingerprint()
        if fp1 != fp2:
            print(f"determinism: fingerprints diverge\n  {fp1}\n  {fp2}")
            failures += 1
        else:
            _progress(f"determinism: fingerprint {fp1[:16]}… stable", quiet=args.quiet)
    stats = service.stats()
    if args.save:
        service.save(args.save)
        _progress(f"state saved to {args.save}", quiet=args.quiet)
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True, default=str))
    else:
        print(_format_stats(stats))
    return 1 if failures else 0


def _format_stats(stats: dict[str, Any]) -> str:
    lines = [
        f"clock               {stats['clock_s']:.6f} virtual s",
        f"epochs              {stats['epochs']} ({stats['sort_epochs']} sort)",
        f"jobs                " + ", ".join(f"{k}={v}" for k, v in stats["jobs"].items()),
        f"throughput          {stats['jobs_per_vsecond']:.2f} jobs/virtual-s",
        f"warm plan hits      {int(stats['warm_plan_hits'])}",
        f"planner dry runs    {int(stats['plan_dry_runs'])}",
        f"datasets            {len(stats['datasets'])}",
    ]
    latencies = {
        **{f"{kind} latency": v for kind, v in stats["time_to_result_s"].items()},
        "queue wait": stats["queue_wait_s"],
    }
    for name, dist in latencies.items():
        if dist["p50"] is not None:
            lines.append(
                f"{name:<20}p50 {dist['p50']:.6f}, p90 {dist['p90']:.6f} virtual s"
            )
    return "\n".join(lines)


def _load_state(args: argparse.Namespace) -> SortService | None:
    directory = Path(args.state)
    if not (directory / "state.json").exists():
        print(f"error: no service state in {directory}", file=sys.stderr)
        return None
    return SortService.load(directory)


def _cmd_submit(args: argparse.Namespace) -> int:
    service = _load_state(args)
    if service is None:
        return USAGE_ERROR
    try:
        raw = json.loads(args.spec)
        spec_data = dict(raw)
        if "pcts" in spec_data:
            spec_data["pcts"] = tuple(spec_data["pcts"])
        spec_data.setdefault("arrival", service.clock)
        spec = JobSpec.from_dict(spec_data)
    except (json.JSONDecodeError, TypeError) as exc:
        print(f"error: spec is not valid JSON: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except AdmissionError as exc:
        print(f"error: malformed spec: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        job = service.submit(spec)
    except AdmissionError as exc:
        print(f"rejected ({exc.reason}): {exc}", file=sys.stderr)
        return 1
    service.drain()
    service.save(args.state)
    result = service.jobs[job.job_id].result
    payload = service.jobs[job.job_id].to_dict()
    print(json.dumps(payload, indent=2, sort_keys=True, default=str))
    return 0 if result is not None else 1


def _cmd_status(args: argparse.Namespace) -> int:
    service = _load_state(args)
    if service is None:
        return USAGE_ERROR
    if args.job is not None:
        job = service.jobs.get(args.job)
        if job is None:
            print(f"error: no job {args.job}", file=sys.stderr)
            return USAGE_ERROR
        print(json.dumps(job.to_dict(), indent=2, sort_keys=True, default=str))
        return 0
    for job in sorted(service.jobs.values(), key=lambda j: j.job_id):
        ttr = (
            f"{job.result.time_to_result:.6f}s" if job.result is not None else "-"
        )
        print(
            f"{job.job_id:>5}  {job.state:<8}  {job.spec.kind:<12}"
            f"{job.spec.tenant}/{job.spec.dataset:<14}  epoch={job.epoch}  ttr={ttr}"
        )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    service = _load_state(args)
    if service is None:
        return USAGE_ERROR
    stats = service.stats()
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True, default=str))
    else:
        print(_format_stats(stats))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="The sort service: scripted replay and state inspection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_replay = sub.add_parser(
        "replay", help="run the standard mixed workload and verify oracles"
    )
    p_replay.add_argument("--p", type=int, default=4, help="service ranks")
    p_replay.add_argument("--seed", type=int, default=0, help="workload seed")
    p_replay.add_argument(
        "--chaos", action="store_true", help="inject the standard crash schedule"
    )
    p_replay.add_argument(
        "--spares", type=int, help="override warm spares for chaos epochs"
    )
    p_replay.add_argument(
        "--determinism",
        action="store_true",
        help="replay twice and require identical service fingerprints",
    )
    p_replay.add_argument("--max-epoch-jobs", type=int, default=8)
    p_replay.add_argument("--trace", action="store_true", help="record epoch spans")
    p_replay.add_argument(
        "--no-oracle", action="store_true", help="skip oracle verification"
    )
    p_replay.add_argument("--save", help="persist service state to this directory")
    p_replay.add_argument("--json", action="store_true", help="JSON stats output")
    p_replay.add_argument("--quiet", action="store_true")
    p_replay.set_defaults(fn=_cmd_replay)

    p_submit = sub.add_parser(
        "submit", help="submit one job (JSON spec) against saved service state"
    )
    p_submit.add_argument("--state", required=True, help="service state directory")
    p_submit.add_argument(
        "spec", help='JobSpec JSON, e.g. \'{"kind":"top_k","tenant":"acme",...}\''
    )
    p_submit.set_defaults(fn=_cmd_submit)

    p_status = sub.add_parser("status", help="list jobs of a saved service")
    p_status.add_argument("--state", required=True)
    p_status.add_argument("--job", type=int, help="show one job in full")
    p_status.set_defaults(fn=_cmd_status)

    p_stats = sub.add_parser("stats", help="service summary of a saved service")
    p_stats.add_argument("--state", required=True)
    p_stats.add_argument("--json", action="store_true")
    p_stats.set_defaults(fn=_cmd_stats)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ServiceError as exc:
        print(f"service invariant broken: {exc}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
