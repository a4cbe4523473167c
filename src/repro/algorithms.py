"""The one algorithm table: name → how to run it and how to model it.

The benchmark harness, :func:`repro.core.api.autosort`, the tuner's dry
runs and model scoring, and the perf snapshots all look algorithms up
here instead of dispatching on the name themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

from .baselines import hss_sort, psrs_sort, sample_sort
from .core.histsort import histogram_sort
from .model.phases import (
    PhasePrediction,
    predict_histsort,
    predict_hss,
    predict_samplesort,
)

__all__ = ["Algorithm", "ALGORITHMS"]


@dataclass(frozen=True)
class Algorithm:
    """One row of :data:`ALGORITHMS`.

    ``run(comm, local, config, seed=None)`` executes the sort and returns
    its result (``output``, ``phases``, ``rounds``, ``exchanged_bytes``).
    ``seed`` is the planner seed when the run is a tuner candidate (dry
    run or :func:`~repro.core.api.autosort`) and ``None`` for the
    paper-comparison defaults the harness measures.

    ``predict(machine, n_total, p, *, rounds, merge_strategy,
    ranks_per_node, itemsize)`` is the closed-form phase model
    (``None``: not modelled) and ``prior_rounds(fingerprint, config)`` the
    round count to evaluate it with before any run has been measured.
    """

    run: Callable[..., Any]
    predict: Callable[..., PhasePrediction] | None = None
    prior_rounds: Callable[..., int] = lambda fp, config: 1


def _run_dash(comm, local, config, seed=None):
    return histogram_sort(comm, local, config=config)


def _run_hss(comm, local, config, seed=None):
    if seed is None:
        # the paper's comparator: volatile global sampling
        return hss_sort(comm, local, eps=config.eps)
    # the tuner's candidate: idealized interval sampling
    return hss_sort(comm, local, eps=config.eps, sampling="interval", seed=seed)


def _run_sample_sort(comm, local, config, seed=None):
    return sample_sort(comm, local)


def _run_psrs(comm, local, config, seed=None):
    return psrs_sort(comm, local)


def _predict_hss(machine, n_total, p, *, rounds, merge_strategy, **common):
    return predict_hss(
        machine, n_total, p, rounds=rounds, cand_per_round=12.0 * p, **common
    )


def _predict_samplesort(machine, n_total, p, *, rounds, merge_strategy, **common):
    return predict_samplesort(machine, n_total, p, **common)


def _dash_prior_rounds(fp, config) -> int:
    """A-priori histogramming rounds: the §V-A min-gap bound.

    Bisection (``"midpoint"``) takes ``min(key_bits, ~log2 N + c)`` rounds.
    The ``"shared"`` schedule spends round 1 on ``p - 1`` equally spaced
    probes, which resolves ``floor(log2 p)`` of those bits at once; the
    rounds after it can only do better than bisection.  ``"squeeze"`` starts
    the same way, then leaves ~sqrt of a bracket's ``n / p`` keys per round
    on a smooth input — ``log2 log2 (n / p)`` rounds — and gathers the rest;
    on a heavy tail it is the shared schedule.
    """
    schedule = config.splitter.probe_schedule
    base = min(fp.key_bits, int(math.log2(max(fp.n_total, 2))) + 2)
    if schedule != "midpoint":
        base -= int(math.log2(max(fp.p, 1))) - 1
    if schedule == "squeeze":
        per_rank = max(fp.n_total / max(fp.p, 1), 4.0)
        base = min(base, 2 + math.ceil(math.log2(math.log2(per_rank))))
    return max(base, 1)


def _hss_prior_rounds(fp, config) -> int:
    return min(2 * fp.key_bits, 24)


ALGORITHMS: dict[str, Algorithm] = {
    "dash": Algorithm(_run_dash, predict_histsort, _dash_prior_rounds),
    "hss": Algorithm(_run_hss, _predict_hss, _hss_prior_rounds),
    "sample_sort": Algorithm(_run_sample_sort, _predict_samplesort),
    "psrs": Algorithm(_run_psrs),
}
