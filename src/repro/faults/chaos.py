"""Chaos harness: sweep seeded fault plans over the resilient sort.

Every case builds a deterministic :class:`FaultPlan` (seed x drop rate x
rank count), runs the fault-tolerant histogram sort under it, and asserts
the ULFM-style contract: the run ends in a **correctly sorted output of
the surviving ranks' data** or a **clean typed error** — never a hang.
A wall-clock backstop (``Runtime.run(timeout=...)``) turns any would-be
hang into a hard failure with the per-rank wait states at expiry.

Optionally every case is executed twice and the virtual-time makespan and
fault tally are compared for exact equality (``--determinism``), pinning
the schedule-independence guarantee of the fault layer.

The oracle is the same in every mode (:mod:`repro.core.resilient`): the
output multiset must equal the regenerated inputs of every initial rank
except those the result itself reports as ``lost`` — every crashed rank
without ``--checkpoint``, none with it short of an adjacent double
failure — and with enough ``--spares`` the rank count must come back
unchanged.

Usage::

    python -m repro.faults.chaos --seeds 20 --sizes 4,8 --drops 0.05,0.2 \\
        --crash-ranks 1 --determinism
    python -m repro.faults.chaos --spares 2 --checkpoint --crash-ranks 2

Exit status is non-zero if any case hangs, produces an unsorted/unverified
output, loses data it should not, escapes with an untyped error, or (with
``--determinism``) replays differently.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

import numpy as np

from ..core.config import SortConfig
from ..core.histsort import histogram_sort
from ..core.resilient import ResilientSortResult
from ..mpi import Runtime
from ..mpi.errors import DeadlockError, SPMDError
from .plan import FaultPlan, FaultSpec

__all__ = ["ChaosCase", "ChaosOutcome", "run_case", "sweep", "main"]


@dataclass(frozen=True)
class ChaosCase:
    """One point of the sweep."""

    seed: int
    size: int
    drop_rate: float
    crash_ranks: int
    n_per_rank: int
    #: warm spare ranks substituted for crashed actives
    spares: int = 0
    #: buddy-checkpoint phase boundaries and restore lost partitions
    checkpoint: bool = False

    def plan(self) -> FaultPlan:
        spec = FaultSpec(
            drop_rate=self.drop_rate,
            dup_rate=self.drop_rate / 2.0,
            delay_rate=0.1,
            degrade_links=1,
            crash_ranks=self.crash_ranks,
            # a rank's whole sort is ~10 operations, one per collective (3
            # set-up, 1-3 histogram rounds, the exact gather, 3 of the
            # exchange, the verification allgather; a checkpointed epoch adds
            # its 3 ring exchanges): from the key-range allreduce (op 1) on,
            # a trigger in range fires
            crash_op_range=(1, 9),
        )
        return FaultPlan(spec, seed=self.seed, size=self.size + self.spares)


@dataclass(frozen=True)
class ChaosOutcome:
    """Result of one case: ``kind`` is ``sorted``, ``typed-error`` or a
    failure (``hang``, ``bad-output``, ``untyped-error``)."""

    case: ChaosCase
    kind: str
    makespan: float
    detail: str
    #: error classes raised, for failing runs (sorted, deduplicated)
    cause: str = ""

    @property
    def ok(self) -> bool:
        return self.kind in ("sorted", "typed-error")

    @property
    def replay_key(self) -> tuple:
        """What an exact replay must reproduce.

        The virtual schedule (makespan), outcome kind, and — for clean
        runs — the full detail including the fault tally.  A *failing*
        run's teardown is wall-clock raced in its bookkeeping (which
        ranks' exceptions get recorded before the abort reaches them,
        trailing fault-counter increments on ranks mid-ladder), so for
        error outcomes only the error classes are compared.
        """
        stable = self.detail if self.kind in ("sorted", "bad-output") else self.cause
        return (self.kind, self.makespan, stable)


def _case_input(data_seed: int, rank: int, n_per_rank: int) -> np.ndarray:
    """Initial rank ``rank``'s input — regenerable for the loss oracle."""
    rng = np.random.default_rng(data_seed + rank)
    return rng.integers(0, 1 << 62, size=n_per_rank, dtype=np.int64)


def _sort_program(comm, n_per_rank: int, data_seed: int, cfg: SortConfig):
    local = _case_input(data_seed, comm.rank, n_per_rank)
    res = histogram_sort(comm, local, cfg)
    out = res.output
    if out.size and np.any(np.diff(out) < 0):
        raise AssertionError("locally unsorted output")
    # Return the ResilientSortResult itself: a substituted spare resumes
    # mid-sort and can only return what the sort returns, so this keeps
    # active and substitute result slots congruent for the oracle.
    return res


def _check_outputs(case: ChaosCase, rt: Runtime, results: list) -> str | None:
    """No-data-loss oracle: verify the live results against regenerated
    inputs; returns a failure description or ``None``."""
    live = [r for r in results if isinstance(r, ResilientSortResult)]
    if not live:
        return "no survivors"
    first = live[0]
    if any((r.survivors, r.failed, r.lost) !=
           (first.survivors, first.failed, first.lost) for r in live):
        return "survivor/lost sets disagree across ranks"
    if len(live) != first.comm.size:
        return f"{len(live)} results for a size-{first.comm.size} communicator"
    # Multiset conservation: everything not reported lost must come out.
    missing = set(first.lost)
    expect = np.sort(np.concatenate(
        [_case_input(1000 + case.seed, r, case.n_per_rank)
         for r in range(case.size) if r not in missing]
        or [np.empty(0, dtype=np.int64)]
    ))
    got = np.sort(np.concatenate([r.output for r in live]))
    if not np.array_equal(got, expect):
        return (f"data loss: {got.size} elements out, {expect.size} "
                f"recoverable (lost={sorted(missing)})")
    # Partition boundaries: concatenation in rank order is globally sorted.
    by_rank = sorted(live, key=lambda r: r.comm.rank)
    chain = np.concatenate([r.output for r in by_rank])
    if chain.size and np.any(np.diff(chain) < 0):
        return "partition boundaries out of order"
    # Spare substitution must keep the rank count whenever the pool was
    # deep enough to cover every crash of the run — counting crashes of
    # spares themselves (a parked spare's death drains the pool, a
    # substituted spare's death needs covering again).
    if len(rt.fault_stats.crashed) <= case.spares:
        if first.comm.size != case.size:
            return (f"p changed to {first.comm.size} although {case.spares} "
                    f"spare(s) could cover {len(rt.fault_stats.crashed)} "
                    f"crash(es)")
    return None


def run_case(case: ChaosCase, wall_timeout: float = 120.0) -> ChaosOutcome:
    """Run one chaos case; never raises for in-contract behaviour."""
    plan = case.plan()
    cfg = SortConfig(resilient=True, checkpoint=case.checkpoint)
    rt = Runtime(case.size, spares=case.spares, faults=plan)
    try:
        results = rt.run(_sort_program,
                         args=(case.n_per_rank, 1000 + case.seed, cfg),
                         timeout=wall_timeout)
    except TimeoutError as exc:  # the backstop fired: a real hang
        return ChaosOutcome(case, "hang", rt.elapsed(), str(exc))
    except (SPMDError, DeadlockError) as exc:
        inner = (exc.failures.values() if isinstance(exc, SPMDError) else (exc,))
        cause = ",".join(sorted({type(e).__name__ for e in inner}))
        # No rank list: which ranks raised before abort() reached them is
        # wall-clock raced, and the CI legs are compared run to run.
        what = min(str(e).partition("\n")[0] for e in inner)
        return ChaosOutcome(
            case, "typed-error", rt.elapsed(),
            f"{type(exc).__name__}: {cause}: {what} "
            f"[{rt.fault_stats.summary()}]", cause)
    except BaseException as exc:  # noqa: BLE001 - classified, not swallowed
        return ChaosOutcome(case, "untyped-error", rt.elapsed(),
                            f"{type(exc).__name__}: {exc}",
                            type(exc).__name__)

    bad = _check_outputs(case, rt, results)
    if bad is not None:
        return ChaosOutcome(case, "bad-output", rt.elapsed(), bad)
    live = [r for r in results if isinstance(r, ResilientSortResult)]
    first = live[0]
    return ChaosOutcome(
        case, "sorted", rt.elapsed(),
        f"attempts={first.attempts} p={first.comm.size}/{case.size} "
        f"spares={first.spares_used} lost={len(first.lost)} "
        f"[{rt.fault_stats.summary()}]",
    )


def sweep(
    cases: list[ChaosCase],
    *,
    wall_timeout: float = 120.0,
    determinism: bool = False,
    verbose: bool = True,
) -> list[ChaosOutcome]:
    """Run every case (twice with ``determinism``); returns all outcomes."""
    outcomes: list[ChaosOutcome] = []
    for case in cases:
        out = run_case(case, wall_timeout)
        if determinism and out.kind != "hang":
            replay = run_case(case, wall_timeout)
            if replay.replay_key != out.replay_key:
                out = ChaosOutcome(
                    case, "nondeterministic", out.makespan,
                    f"first={out.kind}@{out.makespan!r} "
                    f"replay={replay.kind}@{replay.makespan!r}",
                )
        outcomes.append(out)
        if verbose:
            flag = "ok " if out.ok else "FAIL"
            print(
                f"[{flag}] seed={case.seed:<3d} p={case.size:<2d} "
                f"drop={case.drop_rate:<4g} crash={case.crash_ranks} "
                f"spares={case.spares} ckpt={int(case.checkpoint)} "
                f"-> {out.kind:<11s} "
                f"t={out.makespan:.5f} {out.detail}"
            )
    return outcomes


def _parse_list(text: str, cast):
    return [cast(x) for x in text.split(",") if x]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.faults.chaos", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    ap.add_argument("--seeds", type=int, default=20,
                    help="number of fault seeds per configuration")
    ap.add_argument("--seed0", type=int, default=1, help="first seed")
    ap.add_argument("--sizes", type=str, default="4,8",
                    help="comma-separated rank counts")
    ap.add_argument("--drops", type=str, default="0.05,0.2",
                    help="comma-separated drop rates (dup rate is half)")
    ap.add_argument("--crash-ranks", type=int, default=1,
                    help="ranks the plan crashes (0 disables crashes)")
    ap.add_argument("--n", type=int, default=96, help="elements per rank")
    ap.add_argument("--spares", type=int, default=0,
                    help="warm spare ranks substituted for crashed actives")
    ap.add_argument("--checkpoint", action="store_true",
                    help="buddy-checkpoint phase boundaries (no data loss)")
    ap.add_argument("--determinism", action="store_true",
                    help="run every case twice and require identical replay")
    ap.add_argument("--wall-timeout", type=float, default=120.0,
                    help="wall-clock backstop per run (seconds)")
    args = ap.parse_args(argv)

    cases = [
        ChaosCase(seed=s, size=p, drop_rate=d, crash_ranks=args.crash_ranks,
                  n_per_rank=args.n, spares=args.spares,
                  checkpoint=args.checkpoint)
        for p in _parse_list(args.sizes, int)
        for d in _parse_list(args.drops, float)
        for s in range(args.seed0, args.seed0 + args.seeds)
    ]
    outcomes = sweep(cases, wall_timeout=args.wall_timeout,
                     determinism=args.determinism)
    bad = [o for o in outcomes if not o.ok]
    kinds = sorted({o.kind for o in outcomes})
    counts = {k: sum(1 for o in outcomes if o.kind == k) for k in kinds}
    print(f"chaos: {len(outcomes)} runs -> "
          + ", ".join(f"{k}={v}" for k, v in counts.items()))
    if bad:
        print(f"chaos: {len(bad)} FAILING case(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
