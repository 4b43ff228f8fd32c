"""Integration tests: every registered experiment runs end-to-end at quick scale."""

from __future__ import annotations

import math

import pytest

from repro.experiments.registry import (
    DESCRIPTIONS,
    EXPERIMENTS,
    get_experiment,
    run_experiment,
    run_experiments,
)
from repro.experiments.reporting import ExperimentReport, write_experiments_markdown
from repro.exceptions import ConfigurationError


class TestRegistry:
    def test_all_ids_registered(self):
        assert sorted(EXPERIMENTS) == [
            "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9",
        ]
        assert sorted(DESCRIPTIONS) == sorted(EXPERIMENTS)

    def test_lookup_is_case_insensitive(self):
        assert get_experiment("e3") is EXPERIMENTS["E3"]

    def test_unknown_id_rejected(self):
        with pytest.raises(ConfigurationError):
            get_experiment("E99")


@pytest.mark.parametrize("experiment_id", sorted(EXPERIMENTS))
class TestExperimentRuns:
    def test_quick_run_produces_consistent_report(self, experiment_id):
        report = run_experiment(experiment_id, "quick", seed=1)
        assert isinstance(report, ExperimentReport)
        assert report.experiment_id == experiment_id
        assert report.records, "every experiment must produce a measurement table"
        assert report.comparison, "every experiment must compare against the paper"
        assert report.consistent, (
            f"{experiment_id} reported an inconsistency with the paper: "
            + "; ".join(
                f"{row.quantity} (paper={row.paper}, measured={row.measured})"
                for row in report.comparison
                if not row.matches
            )
        )

    def test_markdown_rendering(self, experiment_id):
        report = run_experiment(experiment_id, "quick", seed=2)
        markdown = report.to_markdown()
        assert markdown.startswith(f"## {experiment_id}")
        assert "Paper claim" in markdown
        text = report.to_text()
        assert experiment_id in text


class TestSpecificClaims:
    """Spot checks that the quick-scale measurements show the paper's shapes."""

    def test_e1_temporal_diameter_is_logarithmic(self):
        report = run_experiment("E1", "quick", seed=11)
        for record in report.records:
            n = record["n"]
            assert record["mean_temporal_diameter"] >= math.log(n) - 1
            # labels live in {1, …, n}, so TD ≤ n always; the asymptotic gap to
            # the n/2 direct-wait baseline only opens up beyond small n
            assert record["mean_temporal_diameter"] <= n
            if n >= 64:
                assert record["mean_temporal_diameter"] <= n / 2

    def test_e2_diameter_increases_with_lifetime(self):
        report = run_experiment("E2", "quick", seed=12)
        diameters = [record["mean_temporal_diameter"] for record in report.records]
        assert diameters[-1] > diameters[0]

    def test_e5_single_label_fails_on_star(self):
        report = run_experiment("E5", "quick", seed=13)
        for record in report.records:
            assert record["prob_r=1"] <= 0.1
            assert record["prob_r=max"] >= 0.8

    def test_e7_threshold_ordering(self):
        report = run_experiment("E7", "quick", seed=14)
        records = sorted(report.records, key=lambda r: r["p_over_critical"])
        assert records[0]["P[connected]"] <= records[-1]["P[connected]"]

    def test_e9_extra_labels_speed_up_dissemination(self):
        report = run_experiment("E9", "quick", seed=15)
        records = sorted(report.records, key=lambda r: r["labels_per_edge_r"])
        assert records[-1]["mean_temporal_diameter"] <= records[0]["mean_temporal_diameter"]

    def test_e8_covers_all_distributions(self):
        report = run_experiment("E8", "quick", seed=16)
        assert {record["distribution"] for record in report.records} == {
            "uniform",
            "geometric",
            "zipf",
        }


class TestRunExperimentsAndReportFile:
    def test_run_subset_and_write_markdown(self, tmp_path):
        reports = run_experiments(["E1", "E7"], scale="quick", seed=3)
        assert [report.experiment_id for report in reports] == ["E1", "E7"]
        path = write_experiments_markdown(reports, tmp_path / "EXPERIMENTS.md")
        content = path.read_text(encoding="utf-8")
        assert "## E1" in content and "## E7" in content
        assert "Paper vs. measured" in content
