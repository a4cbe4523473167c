"""Experiment definitions for the paper's distributed-memory figures.

Every figure/table has a function returning a :class:`Series`:

* :func:`fig2a_strong_scaling` / :func:`fig2b_phase_breakdown`
* :func:`fig3a_weak_scaling` / :func:`fig3b_phase_breakdown`
* :func:`iterations_experiment` (§V-A's iteration-count claims)
* :func:`table1_machine` (Table I)

Two modes:

``execute``
    run the real algorithms in-process on a scaled-down problem; timings
    are virtual seconds from the machine model.  Rank counts follow the
    paper's layout (28 ranks/node DASH, 16 ranks/node for the Charm++ HSS
    comparator) on as many nodes as fit in a process.

``model``
    closed-form evaluation at the paper's full scale (1..128 nodes, up to
    3584 cores, 16–256 GB of keys), parameterized by convergence constants
    *measured* from execute-mode runs.  The round count is extrapolated as
    ``measured + log2(N_model / N_exec)`` capped at the key width — the
    min-gap argument behind §V-A's "iterations are bound by the key size".
"""

from __future__ import annotations

import functools
import math
import os
from typing import Sequence

import numpy as np

from ..core import find_splitters
from ..data import make_partition
from ..machine import supermuc_phase2
from ..model import predict_histsort, predict_hss
from ..mpi import run_spmd
from .harness import PAPER_CONFIG, repeat_sort_trials
from .results import Series

__all__ = [
    "DASH_RPN",
    "HSS_RPN",
    "fig2a_strong_scaling",
    "fig2b_phase_breakdown",
    "fig3a_weak_scaling",
    "fig3b_phase_breakdown",
    "WEAK_RPN",
    "iterations_experiment",
    "table1_machine",
    "bench_scale",
]

#: the figures model what they execute: Algorithm 3 on the flat ALLREDUCE
_predict_dash = functools.partial(
    predict_histsort, probe_schedule=PAPER_CONFIG.splitter.probe_schedule
)

#: ranks per node used by the paper for DASH (all 28 cores) and Charm++ (16)
DASH_RPN = 28
HSS_RPN = 16
#: the weak-scaling study allocates 2 GB/node at 128 MB/rank => 16 ranks/node
WEAK_RPN = 16

#: paper-scale parameters
MODEL_NODES = [1, 2, 4, 8, 16, 32, 64, 128]
MODEL_N_STRONG = 2**32            # 32 GB of uint64 keys, fixed for strong scaling
MODEL_N_PER_RANK_WEAK = 2**24     # 128 MB of uint64 per rank (§VI-C)
KEY_BITS_U64_1E9 = 30             # keys are uniform in [0, 1e9]


def bench_scale() -> float:
    """Execute-mode problem scale multiplier (env ``REPRO_BENCH_SCALE``)."""
    try:
        return max(float(os.environ.get("REPRO_BENCH_SCALE", "1")), 0.01)
    except ValueError:
        return 1.0


def _exec_nodes(default: Sequence[int] = (1, 2, 4)) -> list[int]:
    scale = bench_scale()
    if scale >= 4:
        return [1, 2, 4, 8]
    return list(default)


def _extrapolated_rounds(measured: int, n_exec: int, n_model: int, key_bits: int) -> int:
    grow = max(0.0, math.log2(max(n_model, 2)) - math.log2(max(n_exec, 2)))
    return int(min(key_bits, measured + round(grow)))


def _calibrate(n_per_rank: int, repeats: int, machine) -> dict:
    """Small execute runs measuring convergence constants for model mode."""
    p = 2 * DASH_RPN
    _, dash_trials = repeat_sort_trials(
        p,
        n_per_rank,
        repeats=repeats,
        warmup=0,
        algo="dash",
        dist="uniform_u64",
        machine=machine,
        ranks_per_node=DASH_RPN,
    )
    p_hss = 2 * HSS_RPN
    _, hss_trials = repeat_sort_trials(
        p_hss,
        n_per_rank,
        repeats=repeats,
        warmup=0,
        algo="hss",
        dist="uniform_u64",
        machine=machine,
        ranks_per_node=HSS_RPN,
    )
    hss_rounds = [t.rounds for t in hss_trials]
    return {
        "dash_rounds": int(np.median([t.rounds for t in dash_trials])),
        "dash_n_exec": n_per_rank * p,
        "hss_rounds_med": int(np.median(hss_rounds)),
        "hss_rounds_max": int(np.max(hss_rounds)),
        "hss_n_exec": n_per_rank * p_hss,
    }


def fig2a_strong_scaling(
    mode: str = "model",
    repeats: int = 3,
    n_per_rank_exec: int = 1 << 17,
) -> Series:
    """Fig. 2(a): strong scaling, DASH vs Charm++-style HSS.

    Fixed total problem size; 1..128 nodes.  Reports the median and 95% CI
    (execute mode) or modelled times with HSS volatility bounds (model
    mode), plus speedup and parallel efficiency relative to one node.
    """
    machine = supermuc_phase2()
    series = Series(
        experiment=f"fig2a_{mode}",
        title="Strong scaling: DASH histogram sort vs HSS (Charm++)",
        columns=[
            "nodes", "cores", "dash_s", "dash_lo", "dash_hi",
            "hss_s", "hss_lo", "hss_hi", "dash_speedup", "dash_eff", "rounds",
        ],
        params={"mode": mode},
    )

    if mode == "execute":
        n_per_rank_exec = int(n_per_rank_exec * bench_scale())
        nodes_list = _exec_nodes()
        n_total = n_per_rank_exec * DASH_RPN * nodes_list[0]
        series.params.update(n_total=n_total, repeats=repeats)
        base = None
        for nodes in nodes_list:
            p_dash = nodes * DASH_RPN
            p_hss = nodes * HSS_RPN
            dash_stats, dash_trials = repeat_sort_trials(
                p_dash, max(n_total // p_dash, 1), repeats=repeats, warmup=1,
                algo="dash", dist="uniform_u64", machine=machine, ranks_per_node=DASH_RPN,
            )
            hss_stats, _ = repeat_sort_trials(
                p_hss, max(n_total // p_hss, 1), repeats=repeats, warmup=1,
                algo="hss", dist="uniform_u64", machine=machine, ranks_per_node=HSS_RPN,
            )
            if base is None:
                base = (nodes, dash_stats.median)
            speedup = base[1] / dash_stats.median * base[0]
            series.add(
                nodes=nodes, cores=nodes * DASH_RPN,
                dash_s=dash_stats.median, dash_lo=dash_stats.ci_low, dash_hi=dash_stats.ci_high,
                hss_s=hss_stats.median, hss_lo=hss_stats.ci_low, hss_hi=hss_stats.ci_high,
                dash_speedup=speedup, dash_eff=speedup / nodes,
                rounds=int(np.median([t.rounds for t in dash_trials])),
            )
        return series

    if mode != "model":
        raise ValueError(f"unknown mode {mode!r}")

    cal = _calibrate(1 << 13, max(repeats, 3), machine)
    n_total = MODEL_N_STRONG
    series.params.update(n_total=n_total, calibration=cal)
    base = None
    for nodes in MODEL_NODES:
        p_dash = nodes * DASH_RPN
        p_hss = nodes * HSS_RPN
        rounds = _extrapolated_rounds(
            cal["dash_rounds"], cal["dash_n_exec"], n_total, KEY_BITS_U64_1E9
        )
        pred = _predict_dash(
            machine, n_total, p_dash, ranks_per_node=DASH_RPN, rounds=rounds
        )
        hss_rounds = _extrapolated_rounds(
            cal["hss_rounds_med"], cal["hss_n_exec"], n_total, KEY_BITS_U64_1E9 + 4
        )
        hss_rounds_hi = _extrapolated_rounds(
            cal["hss_rounds_max"] * 3, cal["hss_n_exec"], n_total, 2 * KEY_BITS_U64_1E9
        )
        cand = 8.0 * p_hss  # samples_per_round per rank, aggregated
        hss = predict_hss(
            machine, n_total, p_hss, ranks_per_node=HSS_RPN,
            rounds=hss_rounds, cand_per_round=cand,
        )
        hss_hi = predict_hss(
            machine, n_total, p_hss, ranks_per_node=HSS_RPN,
            rounds=hss_rounds_hi, cand_per_round=cand,
        )
        if base is None:
            base = (nodes, pred.total)
        speedup = base[1] / pred.total * base[0]
        series.add(
            nodes=nodes, cores=p_dash,
            dash_s=pred.total, dash_lo=pred.total, dash_hi=pred.total,
            hss_s=hss.total, hss_lo=hss.total, hss_hi=hss_hi.total,
            dash_speedup=speedup, dash_eff=speedup / nodes,
            rounds=rounds,
        )
    return series


def _phase_rows(series_name: str, title: str, points: list[tuple[int, int, dict]]) -> Series:
    series = Series(
        experiment=series_name,
        title=title,
        columns=[
            "nodes", "cores", "local_sort", "splitting", "exchange", "merge",
            "other", "frac_sort", "frac_split", "frac_exchange", "frac_other",
        ],
    )
    for nodes, cores, phases in points:
        total = sum(phases.values()) or 1.0
        # Figure-compatible grouping: the paper folds the final merge into
        # "local sort" work and plan preparation into "other".
        frac_sort = (phases["local_sort"] + phases["merge"]) / total
        series.add(
            nodes=nodes, cores=cores,
            local_sort=phases["local_sort"], splitting=phases["splitting"],
            exchange=phases["exchange"], merge=phases["merge"], other=phases["other"],
            frac_sort=frac_sort,
            frac_split=phases["splitting"] / total,
            frac_exchange=phases["exchange"] / total,
            frac_other=phases["other"] / total,
        )
    return series


def fig2b_phase_breakdown(mode: str = "model", repeats: int = 3) -> Series:
    """Fig. 2(b): relative phase fractions under strong scaling.

    The paper's headline: histogramming becomes the bottleneck beyond
    ~2000 ranks while the all-to-all fraction stays roughly stable.
    """
    machine = supermuc_phase2()
    points = []
    if mode == "execute":
        n_total = int((1 << 14) * bench_scale()) * DASH_RPN
        for nodes in _exec_nodes():
            p = nodes * DASH_RPN
            _, trials = repeat_sort_trials(
                p, max(n_total // p, 1), repeats=repeats, warmup=0,
                algo="dash", dist="uniform_u64", machine=machine, ranks_per_node=DASH_RPN,
            )
            phases = {k: float(np.median([t.phases[k] for t in trials])) for k in trials[0].phases}
            points.append((nodes, p, phases))
    else:
        cal = _calibrate(1 << 13, repeats, machine)
        for nodes in MODEL_NODES:
            p = nodes * DASH_RPN
            rounds = _extrapolated_rounds(
                cal["dash_rounds"], cal["dash_n_exec"], MODEL_N_STRONG, KEY_BITS_U64_1E9
            )
            pred = _predict_dash(
                machine, MODEL_N_STRONG, p, ranks_per_node=DASH_RPN, rounds=rounds
            )
            points.append((nodes, p, pred.as_dict()))
    return _phase_rows(
        f"fig2b_{mode}", "Strong-scaling phase fractions (DASH)", points
    )


def fig3a_weak_scaling(
    mode: str = "model",
    repeats: int = 3,
    n_per_rank_exec: int = 1 << 14,
) -> Series:
    """Fig. 3(a): weak scaling at 128 MB/rank; paper: 2.3 s → 4.6 s."""
    machine = supermuc_phase2()
    series = Series(
        experiment=f"fig3a_{mode}",
        title="Weak scaling: DASH vs HSS (128 MB/rank)",
        columns=[
            "nodes", "cores", "dash_s", "dash_lo", "dash_hi",
            "hss_s", "hss_lo", "hss_hi", "dash_eff", "rounds",
        ],
        params={"mode": mode},
    )
    if mode == "execute":
        n_per_rank = int(n_per_rank_exec * bench_scale())
        series.params.update(n_per_rank=n_per_rank, repeats=repeats)
        base = None
        for nodes in _exec_nodes():
            p_dash = nodes * WEAK_RPN
            dash_stats, dash_trials = repeat_sort_trials(
                p_dash, n_per_rank, repeats=repeats, warmup=1,
                algo="dash", dist="uniform_u64", machine=machine, ranks_per_node=WEAK_RPN,
            )
            hss_stats, _ = repeat_sort_trials(
                nodes * HSS_RPN, n_per_rank, repeats=repeats, warmup=1,
                algo="hss", dist="uniform_u64", machine=machine, ranks_per_node=HSS_RPN,
            )
            if base is None:
                base = dash_stats.median
            series.add(
                nodes=nodes, cores=p_dash,
                dash_s=dash_stats.median, dash_lo=dash_stats.ci_low, dash_hi=dash_stats.ci_high,
                hss_s=hss_stats.median, hss_lo=hss_stats.ci_low, hss_hi=hss_stats.ci_high,
                dash_eff=base / dash_stats.median,
                rounds=int(np.median([t.rounds for t in dash_trials])),
            )
        return series

    cal = _calibrate(1 << 13, repeats, machine)
    series.params.update(n_per_rank=MODEL_N_PER_RANK_WEAK, calibration=cal)
    base = None
    for nodes in MODEL_NODES:
        p_dash = nodes * WEAK_RPN
        p_hss = nodes * WEAK_RPN
        n_total = MODEL_N_PER_RANK_WEAK * p_dash
        rounds = _extrapolated_rounds(
            cal["dash_rounds"], cal["dash_n_exec"], n_total, KEY_BITS_U64_1E9
        )
        pred = _predict_dash(
            machine, n_total, p_dash, ranks_per_node=WEAK_RPN, rounds=rounds
        )
        n_total_hss = MODEL_N_PER_RANK_WEAK * p_hss
        hss_rounds = _extrapolated_rounds(
            cal["hss_rounds_med"], cal["hss_n_exec"], n_total_hss, KEY_BITS_U64_1E9 + 4
        )
        hss_rounds_hi = _extrapolated_rounds(
            cal["hss_rounds_max"] * 3, cal["hss_n_exec"], n_total_hss, 2 * KEY_BITS_U64_1E9
        )
        hss = predict_hss(
            machine, n_total_hss, p_hss, ranks_per_node=HSS_RPN,
            rounds=hss_rounds, cand_per_round=8.0 * p_hss,
        )
        hss_hi = predict_hss(
            machine, n_total_hss, p_hss, ranks_per_node=HSS_RPN,
            rounds=hss_rounds_hi, cand_per_round=8.0 * p_hss,
        )
        if base is None:
            base = pred.total
        series.add(
            nodes=nodes, cores=p_dash,
            dash_s=pred.total, dash_lo=pred.total, dash_hi=pred.total,
            hss_s=hss.total, hss_lo=hss.total, hss_hi=hss_hi.total,
            dash_eff=base / pred.total, rounds=rounds,
        )
    return series


def fig3b_phase_breakdown(mode: str = "model", repeats: int = 3) -> Series:
    """Fig. 3(b): weak-scaling phase fractions — local sort and the
    all-to-all dominate; histogramming stays amortized."""
    machine = supermuc_phase2()
    points = []
    if mode == "execute":
        n_per_rank = int((1 << 14) * bench_scale())
        for nodes in _exec_nodes():
            p = nodes * WEAK_RPN
            _, trials = repeat_sort_trials(
                p, n_per_rank, repeats=repeats, warmup=0,
                algo="dash", dist="uniform_u64", machine=machine, ranks_per_node=WEAK_RPN,
            )
            phases = {k: float(np.median([t.phases[k] for t in trials])) for k in trials[0].phases}
            points.append((nodes, p, phases))
    else:
        cal = _calibrate(1 << 13, repeats, machine)
        for nodes in MODEL_NODES:
            p = nodes * WEAK_RPN
            n_total = MODEL_N_PER_RANK_WEAK * p
            rounds = _extrapolated_rounds(
                cal["dash_rounds"], cal["dash_n_exec"], n_total, KEY_BITS_U64_1E9
            )
            pred = _predict_dash(
                machine, n_total, p, ranks_per_node=WEAK_RPN, rounds=rounds
            )
            points.append((nodes, p, pred.as_dict()))
    return _phase_rows(
        f"fig3b_{mode}", "Weak-scaling phase fractions (DASH)", points
    )


def _iteration_program(comm, dist: str, n_per_rank: int, seed: int):
    local = np.sort(make_partition(dist, n_per_rank, rank=comm.rank, seed=seed))
    res = find_splitters(comm, local, config=PAPER_CONFIG.splitter)
    return res.rounds


def iterations_experiment(repeats: int = 3, n_per_rank: int = 1 << 13) -> Series:
    """§V-A iteration-count claims.

    Expected shape: rounds track the key *width* (more precisely
    ``min(key_bits, ~2 log2 N)`` by the min-gap argument), and are
    independent of the processor count.  The paper reports 60–64 for
    64-bit floats, 25–35 for 32-bit floats, ~30 for uint64 in [0, 1e9].
    """
    n_per_rank = int(n_per_rank * bench_scale())
    series = Series(
        experiment="iterations",
        title="Histogramming iterations by key type and rank count",
        columns=["dist", "p", "n_total", "rounds_med", "rounds_min", "rounds_max"],
        params={"repeats": repeats, "n_per_rank": n_per_rank},
        notes=(
            "paper: f64 60-64, f32 25-35, u64[0,1e9] ~30 iterations; "
            "independent of P (paper N ~ 2^31; rounds grow ~1 per doubling of N)"
        ),
    )
    n_total = 16 * n_per_rank
    for dist in ["normal_f64", "normal_f32", "uniform_u64"]:
        for p in [4, 16, 64]:
            # Fixed total N across rank counts: the SV-A claim is that the
            # round count tracks key width / N, not the processor count.
            rounds = []
            for rep in range(repeats):
                out = run_spmd(p, _iteration_program, dist, max(n_total // p, 1), 500 + rep)
                rounds.append(out[0])
            series.add(
                dist=dist, p=p, n_total=n_total,
                rounds_med=int(np.median(rounds)),
                rounds_min=int(np.min(rounds)), rounds_max=int(np.max(rounds)),
            )
    return series


def table1_machine() -> Series:
    """Table I: the SuperMUC Phase 2 node specification (as a preset)."""
    machine = supermuc_phase2()
    series = Series(
        experiment="table1",
        title="Table I: SuperMUC Phase 2 single-node specification",
        columns=["item", "value"],
    )
    series.add(item="CPU", value=f"2 x {machine.node.cpu_model}")
    series.add(item="Cores/node", value=machine.node.cores)
    series.add(item="NUMA domains", value=machine.node.numa_domains)
    series.add(item="Memory", value=f"{machine.node.mem_bytes / 2**30:.0f}GB usable")
    series.add(item="Network", value=machine.network_name)
    series.add(item="Bisection BW", value=f"{machine.bisection_bandwidth / 1e12:.1f} TB/s")
    series.add(item="Compiler / MPI", value="(simulated runtime: repro.mpi)")
    return series
