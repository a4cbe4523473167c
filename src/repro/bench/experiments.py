"""Experiment definitions for the paper's distributed-memory figures.

Every figure/table has a function returning a :class:`Series`:

* :func:`fig2a_strong_scaling` / :func:`fig2b_phase_breakdown`
* :func:`fig3a_weak_scaling` / :func:`fig3b_phase_breakdown` — all four
  read one scaling study, run strong or weak
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
import numpy as np

from ..core import find_splitters
from ..data import make_partition
from ..machine import supermuc_phase2
from ..model import predict_histsort, predict_hss
from ..mpi import run_spmd
from .harness import PAPER_CONFIG, _phase_median, repeat_sort_trials
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

#: execute-mode keys per rank (before ``REPRO_BENCH_SCALE``): Fig. 2(a)
#: splits 28 ranks' worth over every node count, Fig. 3(a) keeps it per
#: rank, and both phase breakdowns run the smaller size
_STRONG_N_PER_RANK_EXEC = 1 << 17
_WEAK_N_PER_RANK_EXEC = 1 << 14
_PHASES_N_PER_RANK_EXEC = 1 << 14
#: keys per rank of the execute runs that calibrate model mode
_CALIBRATION_N_PER_RANK = 1 << 13


def bench_scale() -> float:
    """Execute-mode problem scale multiplier (env ``REPRO_BENCH_SCALE``)."""
    try:
        return max(float(os.environ.get("REPRO_BENCH_SCALE", "1")), 0.01)
    except ValueError:
        return 1.0


def _exec_nodes() -> list[int]:
    return [1, 2, 4, 8] if bench_scale() >= 4 else [1, 2, 4]


def _extrapolated_rounds(measured: int, n_exec: int, n_model: int, key_bits: int) -> int:
    grow = max(0.0, math.log2(max(n_model, 2)) - math.log2(max(n_exec, 2)))
    return int(min(key_bits, measured + round(grow)))


def _calibrate(repeats: int, machine) -> dict:
    """Small execute runs measuring convergence constants for model mode."""
    rounds = {}
    for algo, rpn in (("dash", DASH_RPN), ("hss", HSS_RPN)):
        _, trials = repeat_sort_trials(
            2 * rpn, _CALIBRATION_N_PER_RANK, repeats=repeats, warmup=0,
            algo=algo, dist="uniform_u64", machine=machine, ranks_per_node=rpn,
        )
        rounds[algo] = [t.rounds for t in trials]
    return {
        "dash_rounds": int(np.median(rounds["dash"])),
        "dash_n_exec": _CALIBRATION_N_PER_RANK * 2 * DASH_RPN,
        "hss_rounds_med": int(np.median(rounds["hss"])),
        "hss_rounds_max": int(np.max(rounds["hss"])),
        "hss_n_exec": _CALIBRATION_N_PER_RANK * 2 * HSS_RPN,
    }


# ---------------------------------------------------------------- the study
#
# Figs. 2 and 3 are one experiment run two ways.  ``study`` is "strong"
# (Fig. 2: 28 DASH ranks/node, the total key count held fixed) or "weak"
# (Fig. 3: 16 DASH ranks/node, the keys per rank held fixed); HSS always
# runs 16 ranks/node.  ``size`` is the quantity the study holds fixed.

_STUDY_RPN = {"strong": DASH_RPN, "weak": WEAK_RPN}


def _total(study: str, size: int, p: int) -> int:
    """Keys over all ``p`` ranks."""
    return size if study == "strong" else size * p


def _executed(study: str, n_per_rank: int, repeats: int, *, warmup: int, hss: bool):
    """Execute the study with ``n_per_rank`` keys per rank on one node;
    strong scaling splits that one-node total over every node count.

    Returns ``(size, points)``; each point is ``(nodes, p, dash_stats,
    dash_trials, hss_stats)`` (``hss_stats`` is None unless ``hss``).
    """
    machine = supermuc_phase2()
    rpn = _STUDY_RPN[study]
    n = int(n_per_rank * bench_scale())
    size = n * rpn if study == "strong" else n

    def run(algo: str, p: int, ranks_per_node: int):
        return repeat_sort_trials(
            p, max(_total(study, size, p) // p, 1), repeats=repeats, warmup=warmup,
            algo=algo, dist="uniform_u64", machine=machine, ranks_per_node=ranks_per_node,
        )

    points = []
    for nodes in _exec_nodes():
        dash_stats, dash_trials = run("dash", nodes * rpn, rpn)
        hss_stats = run("hss", nodes * HSS_RPN, HSS_RPN)[0] if hss else None
        points.append((nodes, nodes * rpn, dash_stats, dash_trials, hss_stats))
    return size, points


def _modelled(study: str, calibration_repeats: int):
    """Model the study at paper scale, calibrated by small execute runs.

    Returns ``(size, calibration, points)``; each point is ``(nodes, p,
    dash, rounds, hss, hss_hi)``: the DASH prediction and its extrapolated
    round count, the HSS prediction and its volatility bound.
    """
    machine = supermuc_phase2()
    rpn = _STUDY_RPN[study]
    size = MODEL_N_STRONG if study == "strong" else MODEL_N_PER_RANK_WEAK
    cal = _calibrate(calibration_repeats, machine)
    points = []
    for nodes in MODEL_NODES:
        p, p_hss = nodes * rpn, nodes * HSS_RPN
        n, n_hss = _total(study, size, p), _total(study, size, p_hss)
        rounds = _extrapolated_rounds(
            cal["dash_rounds"], cal["dash_n_exec"], n, KEY_BITS_U64_1E9
        )
        hss_rounds = _extrapolated_rounds(
            cal["hss_rounds_med"], cal["hss_n_exec"], n_hss, KEY_BITS_U64_1E9 + 4
        )
        hss_rounds_hi = _extrapolated_rounds(
            cal["hss_rounds_max"] * 3, cal["hss_n_exec"], n_hss, 2 * KEY_BITS_U64_1E9
        )
        hss, hss_hi = (
            predict_hss(
                machine, n_hss, p_hss, ranks_per_node=HSS_RPN, rounds=r,
                cand_per_round=8.0 * p_hss,  # samples_per_round per rank, aggregated
            )
            for r in (hss_rounds, hss_rounds_hi)
        )
        dash = _predict_dash(machine, n, p, ranks_per_node=rpn, rounds=rounds)
        points.append((nodes, p, dash, rounds, hss, hss_hi))
    return size, cal, points


def _scaling(study: str, mode: str, repeats: int, *, experiment: str, title: str,
             calibration_repeats: int) -> Series:
    """Figs. 2(a)/3(a): DASH against HSS per node count, with DASH's
    parallel efficiency and, under strong scaling, its speedup."""
    strong = study == "strong"
    derived = ["dash_speedup", "dash_eff"] if strong else ["dash_eff"]
    series = Series(
        experiment=experiment,
        title=title,
        columns=[
            "nodes", "cores", "dash_s", "dash_lo", "dash_hi",
            "hss_s", "hss_lo", "hss_hi", *derived, "rounds",
        ],
        params={"mode": mode},
    )
    size_key = "n_total" if strong else "n_per_rank"
    if mode == "execute":
        n_per_rank = _STRONG_N_PER_RANK_EXEC if strong else _WEAK_N_PER_RANK_EXEC
        size, executed = _executed(study, n_per_rank, repeats, warmup=1, hss=True)
        series.params.update({size_key: size, "repeats": repeats})
        points = [
            (dict(nodes=nodes, cores=p,
                  dash_s=dash.median, dash_lo=dash.ci_low, dash_hi=dash.ci_high,
                  hss_s=hss.median, hss_lo=hss.ci_low, hss_hi=hss.ci_high),
             int(np.median([t.rounds for t in trials])))
            for nodes, p, dash, trials, hss in executed
        ]
    elif mode == "model":
        size, cal, modelled = _modelled(study, calibration_repeats)
        series.params.update({size_key: size, "calibration": cal})
        points = [
            (dict(nodes=nodes, cores=p,
                  dash_s=dash.total, dash_lo=dash.total, dash_hi=dash.total,
                  hss_s=hss.total, hss_lo=hss.total, hss_hi=hss_hi.total),
             rounds)
            for nodes, p, dash, rounds, hss, hss_hi in modelled
        ]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    base_nodes, base_s = points[0][0]["nodes"], points[0][0]["dash_s"]
    for row, rounds in points:
        if strong:
            speedup = base_s / row["dash_s"] * base_nodes
            row.update(dash_speedup=speedup, dash_eff=speedup / row["nodes"])
        else:
            row.update(dash_eff=base_s / row["dash_s"])
        series.add(**row, rounds=rounds)
    return series


def _phases(study: str, mode: str, repeats: int, *, experiment: str, title: str) -> Series:
    """Figs. 2(b)/3(b): DASH's per-phase times and their fractions."""
    if mode == "execute":
        _, executed = _executed(study, _PHASES_N_PER_RANK_EXEC, repeats, warmup=0, hss=False)
        points = [(nodes, p, _phase_median(trials)) for nodes, p, _, trials, _ in executed]
    else:
        _, _, modelled = _modelled(study, repeats)
        points = [(nodes, p, dash.as_dict()) for nodes, p, dash, *_ in modelled]
    series = Series(
        experiment=experiment,
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


def fig2a_strong_scaling(mode: str = "model", repeats: int = 3) -> Series:
    """Fig. 2(a): strong scaling, DASH vs Charm++-style HSS.

    Fixed total problem size; 1..128 nodes.  Reports the median and 95% CI
    (execute mode) or modelled times with HSS volatility bounds (model
    mode), plus speedup and parallel efficiency relative to one node.
    """
    return _scaling(
        "strong", mode, repeats,
        experiment=f"fig2a_{mode}",
        title="Strong scaling: DASH histogram sort vs HSS (Charm++)",
        calibration_repeats=max(repeats, 3),
    )


def fig2b_phase_breakdown(mode: str = "model", repeats: int = 3) -> Series:
    """Fig. 2(b): relative phase fractions under strong scaling.

    The paper's headline: histogramming becomes the bottleneck beyond
    ~2000 ranks while the all-to-all fraction stays roughly stable.
    """
    return _phases(
        "strong", mode, repeats,
        experiment=f"fig2b_{mode}", title="Strong-scaling phase fractions (DASH)",
    )


def fig3a_weak_scaling(mode: str = "model", repeats: int = 3) -> Series:
    """Fig. 3(a): weak scaling at 128 MB/rank; paper: 2.3 s → 4.6 s."""
    return _scaling(
        "weak", mode, repeats,
        experiment=f"fig3a_{mode}",
        title="Weak scaling: DASH vs HSS (128 MB/rank)",
        calibration_repeats=repeats,
    )


def fig3b_phase_breakdown(mode: str = "model", repeats: int = 3) -> Series:
    """Fig. 3(b): weak-scaling phase fractions — local sort and the
    all-to-all dominate; histogramming stays amortized."""
    return _phases(
        "weak", mode, repeats,
        experiment=f"fig3b_{mode}", title="Weak-scaling phase fractions (DASH)",
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
