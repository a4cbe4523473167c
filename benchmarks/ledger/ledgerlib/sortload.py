"""The three sort workloads: one op = one ``run_spmd`` of ``histogram_sort``.

End-to-end numbers come from the plain op.  The traced pass runs a
*staged driver* — a rank program making the same public calls
``histogram_sort`` makes, in order, with a span around each — and refuses
to report anything if that driver's output or virtual makespan differs
from the plain op on the same dataset.
"""

from __future__ import annotations

import gc
import sys
import time
import traceback
from dataclasses import dataclass, replace
from typing import Any, Callable

import numpy as np

from repro.baselines import hss_sort, psrs_sort, sample_sort
from repro.core import (
    SortConfig,
    build_exchange_plan,
    exchange,
    exchange_merge_overlap,
    find_splitters,
    histogram_sort,
    local_merge,
)
from repro.data import make_partition
from repro.machine import abstract_cluster
from repro.model.phases import predict_histsort
from repro.mpi import copy_payload, run_spmd
from repro.seq import (
    binary_merge_tree,
    kway_merge,
    local_histogram,
    loser_tree_merge,
    merge_two_sorted,
)

from .common import (
    SEED_SET,
    SpanLog,
    Tally,
    digest,
    fastest_repeats,
    median,
    per_call,
    timed_cycles,
    traced_scale,
)

CORES_PER_NODE = 8


class ParityError(RuntimeError):
    """The staged driver is no longer the program ``histogram_sort`` runs."""


@dataclass(frozen=True)
class SortSpec:
    """One sort workload: machine shape, input shape, sort configuration."""

    name: str
    nodes: int
    n_per_rank: int
    dist: str
    config: SortConfig
    smoke_n: int
    #: clip keys to this value (benchmark-owned transform of the generator's output)
    key_cap: int | None = None
    #: traced-pass extras (ISSUE: overlap on bulk, baselines + weak scaling on zipf)
    overlap_cells: bool = False
    skew_cells: bool = False

    @property
    def p(self) -> int:
        return self.nodes * CORES_PER_NODE


# n/rank is sized so that one op costs ~0.25-0.4 s wall on one core, which
# puts >= 50 ops into the 20 s the contract measures for.
SORT_SPECS = (
    SortSpec(
        "bulk-uniform-p8", 1, 1 << 18, "uniform_u64", SortConfig(),
        smoke_n=1 << 12, overlap_cells=True,
    ),
    SortSpec(
        "merge-tournament-p8", 1, 1 << 15, "normal_f64",
        SortConfig(merge_strategy="tournament"), smoke_n=1 << 10,
    ),
    # The bisection depth of the splitter search is log2 of the key range, and
    # the one largest sample of an unbounded zipf draw sets that range: 17-31
    # rounds across seeds, 7 % of wall per op.  An 18-bit key domain keeps the
    # skew and makes every dataset take the same 18 rounds.
    SortSpec(
        "latency-zipf-p64", 8, 2048, "zipf_u64", SortConfig(),
        smoke_n=256, key_cap=(1 << 18) - 1, skew_cells=True,
    ),
)


# ------------------------------------------------------------ rank programs


def sort_program(comm, parts, config):
    """The plain op: what a user of the library runs."""
    res = histogram_sort(comm, parts[comm.rank], config=config)
    return res.output, res.rounds, res.exchanged_bytes


def staged_sort_program(comm, parts, config, log):
    """``histogram_sort``'s public calls, in order, a span around each."""
    rank = comm.rank
    log.start(rank, comm.clock)
    work = np.sort(parts[rank], kind="stable")
    comm.compute(comm.cost.compute.sort(work.size, work.dtype.itemsize))
    log.mark(rank, "local_sort", comm.clock)
    splitters = find_splitters(comm, work, eps=config.eps, config=config.splitter)
    log.mark(rank, "splitting", comm.clock)
    plan = build_exchange_plan(comm, work, splitters)
    log.mark(rank, "plan", comm.clock)
    if config.overlap_exchange:
        merged = exchange_merge_overlap(comm, work, plan).output
        log.mark(rank, "overlap", comm.clock)
    else:
        chunks = exchange(comm, work, plan)
        log.mark(rank, "exchange", comm.clock)
        merged = local_merge(comm, chunks, strategy=config.merge_strategy)
        log.mark(rank, "merge", comm.clock)
    return merged, splitters.rounds, plan.elements_received * work.dtype.itemsize


def baseline_program(comm, parts, algo):
    res = algo(comm, parts[comm.rank])
    rounds = getattr(res.info.get("diagnostics"), "rounds", 0)  # only HSS iterates
    return res.output, rounds, 0


def noop_program(comm):
    return None


def allreduce_cell(comm, wall, reps):
    payload = np.arange(16, dtype=np.int64)
    comm.barrier()
    t0 = wall()
    for _ in range(reps):
        comm.allreduce(payload)
    return (wall() - t0) / reps


def alltoallv_cell(comm, wall, parts, reps):
    local = parts[comm.rank]
    k = local.size // comm.size  # the even exchange: n/rank / p keys to every peer
    chunks = [local[d * k : (d + 1) * k] for d in range(comm.size)]
    comm.barrier()
    t0 = wall()
    for _ in range(reps):
        comm.alltoallv(chunks)
    return (wall() - t0) / reps


def sendrecv_cell(comm, wall, reps):
    payload = np.arange(16, dtype=np.int64)
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    comm.barrier()
    t0 = wall()
    for _ in range(reps):
        comm.sendrecv(payload, dest=right, source=left)
    return (wall() - t0) / reps


# ------------------------------------------------------------------- ops


@dataclass
class OpResult:
    ok: bool
    wall: float
    cpu: float
    virt: float = 0.0
    rounds: int = 0
    exchanged_bytes: int = 0
    wire_bytes: float = 0.0
    msgs: int = 0
    collective_calls: int = 0
    outputs: list[np.ndarray] | None = None


@dataclass
class Reference:
    """The oracle's output for a dataset, and the virtual makespan of the
    warm-up op that matched it."""

    digest: str
    sizes: tuple[int, ...]
    virt: float


@dataclass
class SortState:
    spec: SortSpec
    n_per_rank: int
    datasets: list[list[np.ndarray]]
    refs: list[Reference]

    @property
    def keys_per_op(self) -> int:
        return self.spec.p * self.n_per_rank


def run_op(
    spec: SortSpec,
    parts: list[np.ndarray],
    program: Callable[..., Any] = sort_program,
    args: tuple[Any, ...] | None = None,
    *,
    nodes: int | None = None,
) -> OpResult:
    """Time one ``run_spmd``; the caller checks ``outputs`` afterwards."""
    nodes = spec.nodes if nodes is None else nodes
    args = (parts, spec.config) if args is None else args
    machine = abstract_cluster(nodes, cores_per_node=CORES_PER_NODE)
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        results, rt = run_spmd(
            nodes * CORES_PER_NODE, program, *args,
            machine=machine, ranks_per_node=CORES_PER_NODE, return_runtime=True,
        )
    except Exception:  # a failed op is counted, and its time kept
        wall = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        return OpResult(False, wall, time.process_time() - cpu0)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    snap = rt.stats.snapshot()
    return OpResult(
        True, wall, cpu,
        virt=rt.elapsed(),
        rounds=int(results[0][1]),
        exchanged_bytes=int(sum(r[2] for r in results)),
        wire_bytes=snap.wire_bytes,
        msgs=snap.total_msgs_sent + snap.total_collective_calls,
        collective_calls=snap.total_collective_calls,
        outputs=[np.asarray(r[0]) for r in results],
    )


def check_against(res: OpResult, ref: Reference, *, sizes: bool = True) -> bool:
    """Digest (and exact per-rank sizes) of an op vs the verified reference."""
    if not res.ok or res.outputs is None:
        return False
    ok = digest(res.outputs) == ref.digest
    if sizes:
        ok = ok and tuple(o.size for o in res.outputs) == ref.sizes
    res.outputs = None
    res.ok = ok
    return ok


def make_dataset(spec: SortSpec, n: int, seed: int) -> list[np.ndarray]:
    """One input of the seed set: a partition per rank."""
    parts = [make_partition(spec.dist, n, rank=r, seed=seed) for r in range(spec.p)]
    if spec.key_cap is not None:
        parts = [np.minimum(part, part.dtype.type(spec.key_cap)) for part in parts]
    return parts


def oracle(parts: list[np.ndarray]) -> Reference:
    """What a correct sort of ``parts`` yields: ``np.sort`` of the concatenated
    input, cut at exactly the input sizes (eps = 0)."""
    expect = np.sort(np.concatenate(parts), kind="stable")
    return Reference(digest([expect]), tuple(part.size for part in parts), 0.0)


def set_up(spec: SortSpec, seed: int, smoke: bool) -> tuple[SortState, Tally, list[float]]:
    """Generate the seed set and run one oracle-checked op per dataset.

    Also returns the wall seconds of each dataset's step (generate, run,
    check), which is what ``setup_s`` is made of.
    """
    n = spec.smoke_n if smoke else spec.n_per_rank
    state = SortState(spec, n, [], [])
    tally = Tally()
    steps = []
    for s in range(SEED_SET):
        t0 = time.perf_counter()
        parts = make_dataset(spec, n, seed + s)
        res = run_op(spec, parts)
        ref = oracle(parts)
        tally.add(check_against(res, ref))
        state.datasets.append(parts)
        state.refs.append(replace(ref, virt=res.virt))
        steps.append(time.perf_counter() - t0)
    return state, tally, steps


# ----------------------------------------------------------- timed pass


def timed_pass(state: SortState, seconds: float, min_cycles: int) -> dict[str, Any]:
    """Closed loop, one op at a time; the oracle sits between ops, outside
    the timed region."""
    walls: list[list[float]] = [[] for _ in state.datasets]
    failed_walls: list[float] = []
    virts: list[float] = []
    tally = Tally()
    for idx in timed_cycles(seconds, min_cycles):
        res = run_op(state.spec, state.datasets[idx])
        tally.add(check_against(res, state.refs[idx]))
        if res.ok:
            walls[idx].append(res.wall)
            virts.append(res.virt)
        else:
            failed_walls.append(res.wall)
    return {
        "walls": walls,
        "failed_walls": failed_walls,
        "virts": virts or [ref.virt for ref in state.refs],
        "tally": tally,
        "keys": [state.keys_per_op] * len(state.datasets),
        "virt_population": f"{SEED_SET} makespans (one per dataset of the seed set)",
    }


# ---------------------------------------------------------- traced pass


def _traced_op(
    state: SortState, idx: int, log: SpanLog, config: SortConfig, ref: Reference
) -> OpResult:
    """One staged op; raises :class:`ParityError` if it is a different program."""
    log.op += 1
    res = run_op(
        state.spec, state.datasets[idx], staged_sort_program,
        (state.datasets[idx], config, log),
    )
    if not check_against(res, ref) or res.virt != ref.virt:
        raise ParityError(
            f"{state.spec.name}: staged driver diverged from histogram_sort on dataset "
            f"{idx} (output ok={res.ok}, virt {res.virt!r} vs {ref.virt!r})"
        )
    return res


def traced_pass(state: SortState, seconds: float, smoke: bool) -> dict[str, Any]:
    """Per-layer numbers: staged ops, then micro-cells at the workload's shape."""
    spec = state.spec
    p, n = spec.p, state.n_per_rank
    pairs, budget = traced_scale(seconds, smoke)
    extra_ops = 1 if smoke else 3
    log = SpanLog(p)
    tally = Tally()
    m: dict[str, float] = {}

    # plain and staged ops alternate, so a level shift of the box hits both
    plain: list[OpResult] = []
    staged: list[OpResult] = []
    for i in range(pairs):
        idx = i % SEED_SET
        gc.collect()
        res = run_op(spec, state.datasets[idx])
        tally.add(check_against(res, state.refs[idx]))
        plain.append(res)
        gc.collect()
        staged.append(_traced_op(state, idx, log, spec.config, state.refs[idx]))
        tally.add(True)
    phases = ("local_sort", "splitting", "plan", "exchange", "merge")
    spans = {name: [log.phase(op, name) for op in range(1, pairs + 1)] for name in phases}
    for name in phases:
        m[f"core.{name}_wall_s"] = median(w for w, _ in spans[name])
        m[f"core.{name}_virt_s"] = median(v for _, v in spans[name])
    m["core.rounds"] = median(o.rounds for o in staged)
    m["core.exchanged_bytes"] = median(o.exchanged_bytes for o in staged)
    m["mpi.wire_bytes_per_op"] = median(o.wire_bytes for o in staged)
    m["mpi.msgs_per_op"] = median(o.msgs for o in staged)
    m["mpi.collective_calls_per_op"] = median(o.collective_calls for o in staged)
    m["bench.trace_overhead_frac"] = (
        fastest_repeats([o.wall for o in staged]) / fastest_repeats([o.wall for o in plain]) - 1.0
    )
    m["bench.cpu_s_per_op"] = median(o.cpu for o in plain)
    m["bench.timed_ops"] = float(len(plain) + len(staged))

    # executed virt / closed-form model, fed the measured round count
    machine = abstract_cluster(spec.nodes, cores_per_node=CORES_PER_NODE)
    modelled = ("local_sort", "splitting", "exchange", "merge")
    ratios: dict[str, list[float]] = {name: [] for name in ("total",) + modelled}
    for op, res in enumerate(staged, start=1):
        pred = predict_histsort(
            machine, p * n, p, ranks_per_node=CORES_PER_NODE, rounds=res.rounds,
            itemsize=state.datasets[0][0].dtype.itemsize,
            merge_strategy=spec.config.merge_strategy,
        )
        ratios["total"].append(res.virt / pred.total)
        for name in modelled:
            ratios[name].append(log.phase(op, name)[1] / getattr(pred, name))
    for name, values in ratios.items():
        m[f"model.{name}_ratio"] = median(values)

    if spec.overlap_cells:
        _overlap_cells(state, log, tally, m, extra_ops)
    if spec.skew_cells:
        _skew_cells(state, tally, m, extra_ops)
    _mpi_cells(state, m, budget, reps=4 if smoke else 20)
    _seq_cells(state, m, budget)
    return {"metrics": m, "tally": tally, "log": log}


def _overlap_cells(
    state: SortState, log: SpanLog, tally: Tally, m: dict[str, float], nops: int
) -> None:
    """§VI-E.1: p2p + merge_two_sorted instead of alltoallv + merge."""
    config = state.spec.config.with_(overlap_exchange=True)
    spec = replace(state.spec, config=config)
    spans = []
    for idx in range(nops):
        gc.collect()
        plain = run_op(spec, state.datasets[idx])
        tally.add(check_against(plain, state.refs[idx]))
        gc.collect()
        _traced_op(state, idx, log, config, replace(state.refs[idx], virt=plain.virt))
        tally.add(True)
        spans.append(log.phase(log.op, "overlap"))
    m["core.overlap_wall_s"] = median(w for w, _ in spans)
    m["core.overlap_virt_s"] = median(v for _, v in spans)


def _skew_cells(state: SortState, tally: Tally, m: dict[str, float], nops: int) -> None:
    """Weak scaling in virt (counts only) and the baselines on skew."""
    spec = state.spec
    small = []
    for idx in range(SEED_SET):
        parts = state.datasets[idx][:CORES_PER_NODE]
        res = run_op(spec, parts, nodes=1)
        tally.add(check_against(res, oracle(parts)))
        small.append(res.virt)
    m["core.weak_eff_p8_to_p64"] = median(small) / median(r.virt for r in state.refs)

    for name, algo in (("hss", hss_sort), ("sample_sort", sample_sort), ("psrs", psrs_sort)):
        runs = []
        for idx in range(nops):
            gc.collect()
            res = run_op(spec, state.datasets[idx], baseline_program, (state.datasets[idx], algo))
            # baselines may leave ranks imbalanced: only the concatenation is checked
            tally.add(check_against(res, state.refs[idx], sizes=False))
            runs.append(res)
        m[f"baselines.{name}_virt_s"] = median(r.virt for r in runs)
        m[f"baselines.{name}_wall_s"] = median(r.wall for r in runs)
        if name == "hss":
            m["baselines.hss_rounds"] = median(r.rounds for r in runs)


def _mpi_cells(state: SortState, m: dict[str, float], budget: float, reps: int) -> None:
    """Runtime micro-cells at the workload's p: ``reps`` calls timed inside a rank
    program, ``budget`` seconds for the ones timed from outside."""
    spec = state.spec
    p = spec.p
    machine = abstract_cluster(spec.nodes, cores_per_node=CORES_PER_NODE)
    kwargs = {"machine": machine, "ranks_per_node": CORES_PER_NODE}
    wall = time.perf_counter

    m["mpi.spawn_wall_ms"] = 1e3 * per_call(lambda: run_spmd(p, noop_program, **kwargs), budget)
    m["mpi.allreduce_wall_us"] = 1e6 * max(run_spmd(p, allreduce_cell, wall, reps, **kwargs))
    m["mpi.sendrecv_wall_us"] = 1e6 * max(run_spmd(p, sendrecv_cell, wall, reps, **kwargs))
    m["mpi.alltoallv_wall_us"] = 1e6 * max(
        run_spmd(p, alltoallv_cell, wall, state.datasets[0], max(reps // 4, 1), **kwargs)
    )
    part = state.datasets[0][0]
    m["mpi.copy_payload_gb_per_s"] = part.nbytes / 1e9 / per_call(
        lambda: copy_payload(part), budget
    )


def _seq_cells(state: SortState, m: dict[str, float], budget: float) -> None:
    """Kernel micro-cells: single-thread calls at n/rank, k = p runs."""
    spec = state.spec
    p, n = spec.p, state.n_per_rank
    part = state.datasets[0][0]
    mkeys = n / 1e6
    m["seq.np_sort_mkeys_per_s"] = mkeys / per_call(lambda: np.sort(part, kind="stable"), budget)
    ordered = np.sort(part, kind="stable")
    probes = ordered[:: max(n // p, 1)][1:p]
    m["seq.local_histogram_us"] = 1e6 * per_call(lambda: local_histogram(ordered, probes), budget)
    # the merge a rank faces: p sorted runs of n/p keys each
    runs = [np.sort(chunk, kind="stable") for chunk in np.array_split(part, p)]
    halves = [np.sort(half, kind="stable") for half in np.array_split(part, 2)]
    m["seq.merge_two_sorted_mkeys_per_s"] = mkeys / per_call(
        lambda: merge_two_sorted(halves[0], halves[1]), budget
    )
    m["seq.binary_merge_tree_mkeys_per_s"] = mkeys / per_call(
        lambda: binary_merge_tree(runs), budget
    )
    m["seq.loser_tree_mkeys_per_s"] = mkeys / per_call(lambda: loser_tree_merge(runs), budget)
    m["seq.kway_sort_mkeys_per_s"] = mkeys / per_call(lambda: kway_merge(runs, "sort"), budget)
    m["data.make_partition_mkeys_per_s"] = mkeys / per_call(
        lambda: make_partition(spec.dist, n, rank=0, seed=1), budget
    )
