"""Tests for repro.montecarlo.statistics."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repro.montecarlo.statistics import normal_confidence_interval, summarize


class TestSummarize:
    def test_basic_statistics(self):
        stats = summarize([1.0, 2.0, 3.0, 4.0])
        assert stats.count == 4
        assert stats.mean == pytest.approx(2.5)
        assert stats.median == pytest.approx(2.5)
        assert stats.minimum == 1.0 and stats.maximum == 4.0
        assert stats.std == pytest.approx(np.std([1, 2, 3, 4], ddof=1))

    def test_single_sample(self):
        stats = summarize([7.0])
        assert stats.std == 0.0
        assert stats.ci_low == stats.ci_high == 7.0
        assert stats.half_width == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_ci_contains_mean(self):
        stats = summarize(np.random.default_rng(0).normal(size=100))
        assert stats.ci_low <= stats.mean <= stats.ci_high

    def test_relative_half_width(self):
        stats = summarize([10.0, 10.0, 10.0])
        assert stats.relative_half_width == 0.0
        zero_mean = summarize([-1.0, 1.0])
        assert math.isinf(zero_mean.relative_half_width)

    def test_relative_half_width_degenerate_zero_is_nan(self):
        # zero mean with a zero-width interval: the ratio is undefined, not inf
        assert math.isnan(summarize([0.0]).relative_half_width)
        assert math.isnan(summarize([0.0, 0.0, 0.0]).relative_half_width)

    def test_as_dict_keys(self):
        record = summarize([1.0, 2.0]).as_dict()
        assert set(record) == {
            "count",
            "mean",
            "std",
            "min",
            "max",
            "median",
            "ci_low",
            "ci_high",
        }


class TestNormalCI:
    def test_width_shrinks_with_samples(self):
        rng = np.random.default_rng(1)
        small = normal_confidence_interval(rng.normal(size=20))
        large = normal_confidence_interval(rng.normal(size=2000))
        assert (large[1] - large[0]) < (small[1] - small[0])

    def test_higher_confidence_is_wider(self):
        data = np.random.default_rng(2).normal(size=50)
        narrow = normal_confidence_interval(data, confidence=0.8)
        wide = normal_confidence_interval(data, confidence=0.99)
        assert (wide[1] - wide[0]) > (narrow[1] - narrow[0])

    def test_coverage_is_approximately_nominal(self):
        rng = np.random.default_rng(3)
        covered = 0
        repetitions = 300
        for _ in range(repetitions):
            sample = rng.normal(loc=5.0, size=30)
            low, high = normal_confidence_interval(sample, confidence=0.9)
            covered += int(low <= 5.0 <= high)
        assert covered / repetitions == pytest.approx(0.9, abs=0.07)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            normal_confidence_interval([])

    def test_single_value_degenerates(self):
        assert normal_confidence_interval([3.0]) == (3.0, 3.0)

    @pytest.mark.parametrize("values", [[3.0], [1.0, 2.0, 4.0]])
    def test_invalid_confidence_rejected(self, values):
        with pytest.raises(ValueError):
            normal_confidence_interval(values, confidence=1.5)

    def test_interval_is_mean_plus_minus_z_standard_errors(self):
        data = np.random.default_rng(6).normal(size=25)
        low, high = normal_confidence_interval(data, confidence=0.9)
        half = (
            float(scipy_stats.norm.ppf(0.95))
            * float(np.std(data, ddof=1))
            / math.sqrt(data.size)
        )
        assert low == pytest.approx(float(np.mean(data)) - half, rel=1e-12)
        assert high == pytest.approx(float(np.mean(data)) + half, rel=1e-12)
