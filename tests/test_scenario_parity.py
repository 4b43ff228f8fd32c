"""Experiment ↔ scenario parity: a report is its scenario's run, reported.

:func:`repro.experiments.registry.run_experiment` must produce exactly the
same report as running the scenario registered under the experiment's id
through the generic :func:`repro.scenarios.run_scenario` pipeline and handing
the result to the experiment module's ``build_report`` — bit-identical under
``jobs=2`` too, and at the scenario's ``default_seed`` when no seed is given.
This pins the contract that let the nine bespoke experiment modules become
thin report builders without changing a single published number.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.experiments import (
    exp_dissemination,
    exp_er_connectivity,
    exp_expansion,
    exp_fcase,
    exp_general_por,
    exp_lifetime,
    exp_multilabel,
    exp_star_por,
    exp_temporal_diameter,
)
from repro.experiments.registry import DESCRIPTIONS, EXPERIMENTS, run_experiment
from repro.scenarios import experiment_scenarios, get_scenario, run_scenario

MODULES = {
    "E1": exp_temporal_diameter,
    "E2": exp_lifetime,
    "E3": exp_expansion,
    "E4": exp_dissemination,
    "E5": exp_star_por,
    "E6": exp_general_por,
    "E7": exp_er_connectivity,
    "E8": exp_fcase,
    "E9": exp_multilabel,
}

SEED = 1


def _fingerprint(report):
    """Everything numeric/textual a report publishes, as comparable data."""
    return {
        "records": [dict(record) for record in report.records],
        "comparison": [dataclasses.asdict(row) for row in report.comparison],
        "notes": report.notes,
        "claim": report.claim,
        "title": report.title,
        "scale": report.scale,
        "experiment_id": report.experiment_id,
    }


class TestRegistryDrift:
    """A new experiment cannot land without a description and a scenario."""

    def test_experiments_descriptions_and_scenarios_share_one_key_set(self):
        assert set(EXPERIMENTS) == set(DESCRIPTIONS) == set(MODULES), (
            "EXPERIMENTS and DESCRIPTIONS drifted apart"
        )
        assert set(EXPERIMENTS) == set(experiment_scenarios()), (
            "the experiment registry and the scenario registry drifted apart: "
            "every E<N> needs a registered scenario and vice versa"
        )


@pytest.mark.parametrize("experiment_id", sorted(MODULES))
class TestScenarioParity:
    def test_run_experiment_matches_scenario_pipeline_bit_for_bit(self, experiment_id):
        report = run_experiment(experiment_id, "quick", seed=SEED)
        scenario_result = run_scenario(
            get_scenario(experiment_id), scale="quick", seed=SEED
        )
        rebuilt = MODULES[experiment_id].build_report(scenario_result)
        assert _fingerprint(report) == _fingerprint(rebuilt)

    def test_jobs2_is_bit_identical_to_serial(self, experiment_id):
        serial = run_experiment(experiment_id, "quick", seed=SEED)
        parallel = run_experiment(experiment_id, "quick", seed=SEED, jobs=2)
        assert _fingerprint(serial) == _fingerprint(parallel)

    def test_no_seed_runs_at_the_scenarios_default_seed(self, experiment_id):
        default_seed = get_scenario(experiment_id).default_seed
        assert _fingerprint(run_experiment(experiment_id, "quick")) == _fingerprint(
            run_experiment(experiment_id, "quick", seed=default_seed)
        )
