"""The online feedback loop: executed makespans vs the plan's prediction.

After every tuned sort, :func:`record_feedback` compares the observed
virtual-clock makespan against the plan's ``predicted_s``:

* the ratio joins the cache entry's trailing window,
* a robust correction factor (median ratio, via
  :func:`repro.model.calibrate.fit_time_scale`) is refitted so ``explain``
  can report the de-biased prediction, and
* when the fitted correction drifts outside
  ``[1/DEMOTE_RATIO, DEMOTE_RATIO]`` with at least :data:`MIN_SAMPLES`
  observations, the entry is **demoted**: the next ``autosort`` of that
  fingerprint replans from scratch instead of trusting a model that
  reality keeps contradicting.

Everything here runs on virtual time carried in from the runtime — the
loop never reads a wall clock.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..model.calibrate import fit_time_scale
from .cache import PlanCache
from .planner import SortPlan

__all__ = ["FeedbackRecord", "record_feedback", "DEMOTE_RATIO", "MIN_SAMPLES"]

#: demote when the fitted observed/predicted correction leaves this band
DEMOTE_RATIO = 4.0

#: never demote on fewer observations than this
MIN_SAMPLES = 3


@dataclass(frozen=True)
class FeedbackRecord:
    """What one executed run taught the tuner."""

    plan_id: str
    observed_s: float
    predicted_s: float
    ratio: float
    correction: float
    demoted: bool


def record_feedback(
    cache: PlanCache | None,
    plan: SortPlan,
    observed_s: float,
) -> FeedbackRecord:
    """Fold one executed makespan into the plan's cache entry.

    Works without a cache too (``cache=None``): the record is still
    computed and returned, it just isn't persisted anywhere.
    """
    if observed_s < 0 or plan.predicted_s <= 0:
        raise ValueError("need observed_s >= 0 and a positive prediction")
    ratio = observed_s / plan.predicted_s
    correction = ratio
    demoted = False
    if cache is not None:
        entry = cache.entry(plan.key)
        if entry is not None and entry.plan.plan_id == plan.plan_id:
            history = entry.feedback + [ratio]
            correction = fit_time_scale(
                observed=history, predicted=[1.0] * len(history)
            )
            demoted = len(history) >= MIN_SAMPLES and not (
                1.0 / DEMOTE_RATIO <= correction <= DEMOTE_RATIO
            )
            cache.record_feedback(
                plan.key, ratio, correction=correction, demote=demoted
            )
    return FeedbackRecord(
        plan_id=plan.plan_id,
        observed_s=float(observed_s),
        predicted_s=float(plan.predicted_s),
        ratio=float(ratio),
        correction=float(correction),
        demoted=demoted,
    )
