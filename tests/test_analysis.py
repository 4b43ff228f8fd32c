"""Tests for the analysis layer: bounds, fitting, thresholds, comparison."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.analysis.bounds import (
    expected_direct_wait,
    phone_call_rounds_prediction,
    temporal_diameter_prediction,
)
from repro.analysis.comparison import ComparisonRow, build_comparison_table
from repro.analysis.fitting import fit_log_model, fit_power_model, fit_scaled_log_model
from repro.analysis.thresholds import estimate_probability_threshold, monotone_threshold_index


class TestBounds:
    def test_temporal_diameter_prediction(self):
        assert temporal_diameter_prediction(100) == pytest.approx(math.log(100))
        assert temporal_diameter_prediction(100, gamma=3.0) == pytest.approx(3 * math.log(100))

    def test_direct_wait(self):
        assert expected_direct_wait(99) == pytest.approx(50.0)

    def test_phone_call_prediction(self):
        assert phone_call_rounds_prediction(1) == 0.0
        assert phone_call_rounds_prediction(256) == pytest.approx(8 + math.log(256))


class TestFitting:
    def test_log_model_recovers_coefficients(self):
        x = [16, 32, 64, 128, 256, 512]
        y = [3.0 * math.log(v) + 2.0 for v in x]
        fit = fit_log_model(x, y)
        assert fit.coefficients[0] == pytest.approx(3.0, abs=1e-9)
        assert fit.coefficients[1] == pytest.approx(2.0, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0)
        assert fit.predict(1024) == pytest.approx(3.0 * math.log(1024) + 2.0)

    def test_log_model_with_noise(self):
        rng = np.random.default_rng(0)
        x = np.asarray([2**k for k in range(4, 12)], dtype=float)
        y = 2.5 * np.log(x) + rng.normal(scale=0.1, size=x.size)
        fit = fit_log_model(x, y)
        assert fit.coefficients[0] == pytest.approx(2.5, abs=0.2)
        assert fit.r_squared > 0.98

    def test_scaled_model(self):
        x = [1.0, 2.0, 4.0, 8.0]
        y = [0.9 * v + 0.5 for v in x]
        fit = fit_scaled_log_model(x, y)
        assert fit.coefficients[0] == pytest.approx(0.9)
        assert fit.predict(16.0) == pytest.approx(0.9 * 16 + 0.5)

    def test_power_model(self):
        x = [2.0, 4.0, 8.0, 16.0]
        y = [3.0 * v**1.5 for v in x]
        fit = fit_power_model(x, y)
        assert fit.coefficients[0] == pytest.approx(3.0, rel=1e-6)
        assert fit.coefficients[1] == pytest.approx(1.5, rel=1e-6)

    def test_power_model_distinguishes_log_from_linear(self):
        x = np.asarray([2**k for k in range(4, 12)], dtype=float)
        log_fit = fit_power_model(x, np.log(x))
        linear_fit = fit_power_model(x, x / 2.0)
        assert log_fit.coefficients[1] < 0.5
        assert linear_fit.coefficients[1] == pytest.approx(1.0, abs=1e-6)

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            fit_log_model([1.0], [2.0])
        with pytest.raises(ValueError):
            fit_log_model([1.0, 2.0], [1.0])
        with pytest.raises(ValueError):
            fit_log_model([0.0, 1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            fit_power_model([1.0, 2.0], [0.0, 1.0])

    def test_unknown_model_cannot_predict(self):
        from repro.analysis.fitting import FitResult

        bogus = FitResult(model="y = weird", coefficients=(1.0,), r_squared=1.0)
        with pytest.raises(ValueError):
            bogus.predict(2.0)


class TestThresholds:
    def test_monotone_index(self):
        assert monotone_threshold_index([0.0, 0.2, 0.6, 0.9], 0.5) == 2
        assert monotone_threshold_index([0.0, 0.1], 0.5) is None
        assert monotone_threshold_index([], 0.5) is None

    def test_non_monotone_dips_smoothed(self):
        # The dip at index 2 should not matter once the curve has crossed.
        assert monotone_threshold_index([0.1, 0.6, 0.4, 0.8], 0.5) == 1

    def test_estimate_with_interpolation(self):
        grid = [1.0, 2.0, 3.0, 4.0]
        probabilities = [0.0, 0.25, 0.75, 1.0]
        estimate = estimate_probability_threshold(grid, probabilities, target=0.5)
        assert estimate == pytest.approx(2.5)

    def test_estimate_without_interpolation(self):
        grid = [1.0, 2.0, 3.0]
        probabilities = [0.1, 0.4, 0.9]
        estimate = estimate_probability_threshold(
            grid, probabilities, target=0.5, interpolate=False
        )
        assert estimate == 3.0

    def test_estimate_never_crossing(self):
        assert estimate_probability_threshold([1.0, 2.0], [0.1, 0.2], target=0.9) is None

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            estimate_probability_threshold([1.0, 1.0], [0.1, 0.9])
        with pytest.raises(ValueError):
            estimate_probability_threshold([1.0, 2.0], [0.1])


class TestComparison:
    def test_row_markdown(self):
        row = ComparisonRow("TD", "Θ(log n)", "3.9·log n", True, note="fits")
        rendered = row.as_markdown()
        assert rendered.startswith("| TD |")
        assert "yes" in rendered

    def test_failed_row_flagged(self):
        row = ComparisonRow("TD", "Θ(log n)", "n/2", False)
        assert "NO" in row.as_markdown()

    def test_table_structure(self):
        table = build_comparison_table(
            [ComparisonRow("a", "1", "1", True), ComparisonRow("b", "2", "3", False)]
        )
        lines = table.splitlines()
        assert lines[0].startswith("| Quantity")
        assert len(lines) == 4

    def test_empty_table_is_header_only(self):
        assert build_comparison_table([]).count("\n") == 1
