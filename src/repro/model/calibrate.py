"""Calibration: fit the closed-form model against executed runs.

The analytic model and the executing runtime share one cost model, so at
any scale both can run they should agree closely.  :func:`fit_round_count`
extracts the histogramming round count (a key-width property) from small
executed runs so paper-scale predictions use measured convergence
behaviour rather than an assumption; :func:`fit_time_scale` is the robust
residual correction.
"""

from __future__ import annotations

import math
from typing import Protocol, Sequence

import numpy as np

__all__ = ["RoundsLike", "fit_round_count", "fit_time_scale"]


class RoundsLike(Protocol):
    """Anything carrying executed-run diagnostics the calibrators consume.

    Both :class:`repro.core.histsort.SortResult` (direct execution) and
    :class:`repro.bench.harness.TrialResult` (harness output) satisfy it,
    so calibration can be fed straight from ``repeat_sort_trials``.
    """

    rounds: int
    phases: dict[str, float]


def fit_round_count(results: Sequence[RoundsLike]) -> int:
    """Median histogramming round count over executed runs.

    Accepts :class:`SortResult` or harness :class:`TrialResult` records —
    anything with a ``rounds`` attribute.  For an even number of results the
    median falls on a half-integer; the convention is **round half up** (a
    median of 2.5 rounds fits as 3), so the fitted model never under-prices
    the splitting phase on a tie.
    """
    rounds = [r.rounds for r in results]
    if not rounds:
        raise ValueError("no results to fit")
    return int(math.floor(float(np.median(rounds)) + 0.5))


def fit_time_scale(observed: Sequence[float], predicted: Sequence[float]) -> float:
    """Robust multiplicative correction mapping predictions onto observations.

    The median of per-run ``observed / predicted`` ratios: multiply a
    prediction by it to de-bias the closed-form model against executed
    makespans.  Used by :mod:`repro.tune.feedback` to fold residuals of
    tuned runs back into future plan scoring.
    """
    if len(observed) != len(predicted):
        raise ValueError("observed and predicted must have equal length")
    ratios = [
        o / p for o, p in zip(observed, predicted) if p > 0 and o > 0 and math.isfinite(o / p)
    ]
    if not ratios:
        raise ValueError("no usable (observed, predicted) pairs")
    return float(np.median(ratios))

