"""Analysis layer: theoretical bounds, curve fitting and comparison tables.

The experiments report measured quantities next to the paper's predictions.
This subpackage holds the reference curves the reports print
(:mod:`repro.analysis.bounds`; the Theorem 5, 7 and 8 formulas live in
:mod:`repro.core.lifetime` and :mod:`repro.core.price_of_randomness`), the
fitting code that extracts the leading constant of ``c·log n`` /
``c·(a/n)·log n`` laws from measurements (:mod:`repro.analysis.fitting`),
threshold estimators (:mod:`repro.analysis.thresholds`) and the
paper-vs-measured comparison helpers used to build EXPERIMENTS.md
(:mod:`repro.analysis.comparison`).
"""

from .bounds import (
    expected_direct_wait,
    phone_call_rounds_prediction,
    temporal_diameter_prediction,
)
from .fitting import FitResult, fit_log_model, fit_power_model, fit_scaled_log_model
from .thresholds import estimate_probability_threshold, monotone_threshold_index
from .comparison import ComparisonRow, build_comparison_table

__all__ = [
    "temporal_diameter_prediction",
    "expected_direct_wait",
    "phone_call_rounds_prediction",
    "FitResult",
    "fit_log_model",
    "fit_scaled_log_model",
    "fit_power_model",
    "estimate_probability_threshold",
    "monotone_threshold_index",
    "ComparisonRow",
    "build_comparison_table",
]
