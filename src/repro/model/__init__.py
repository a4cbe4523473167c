"""Analytic phase models and calibration against executed runs."""

from .calibrate import RoundsLike, fit_round_count, fit_time_scale
from .phases import (
    MODEL_VERSION,
    PhasePrediction,
    predict_histsort,
    predict_hss,
    predict_samplesort,
)

__all__ = [
    "MODEL_VERSION",
    "PhasePrediction",
    "RoundsLike",
    "fit_round_count",
    "fit_time_scale",
    "predict_histsort",
    "predict_hss",
    "predict_samplesort",
]
