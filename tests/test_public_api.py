"""Tests for the top-level public API surface."""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

import repro
import repro.analysis_api

API_DOC = Path(__file__).resolve().parent.parent / "docs" / "api.md"


def _section(heading_fragment: str) -> str:
    """The ``## <heading>`` section of docs/api.md containing the fragment."""
    text = API_DOC.read_text(encoding="utf-8")
    sections = re.split(r"^## ", text, flags=re.MULTILINE)
    for section in sections:
        if heading_fragment in section.splitlines()[0]:
            return section
    raise AssertionError(f"docs/api.md has no '## …{heading_fragment}…' section")


def _documented_names(heading_fragment: str) -> set[str]:
    """Backticked bullet names under the ``## <heading>`` containing the fragment."""
    section = _section(heading_fragment)
    return set(re.findall(r"^- `([A-Za-z_][A-Za-z0-9_]*)`", section, re.MULTILINE))


def test_version_is_exposed():
    assert repro.__version__ == "1.0.0"


def test_all_names_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.__all__ lists {name} but it is missing"


class TestApiDocDrift:
    """`__all__` must exactly match the surface documented in docs/api.md."""

    def test_api_doc_exists(self):
        assert API_DOC.is_file(), "docs/api.md is the documented public surface"

    def test_top_level_all_matches_documented_surface(self):
        documented = _documented_names("Top-level exports")
        actual = set(repro.__all__)
        assert documented == actual, (
            f"docs/api.md and repro.__all__ drifted apart; "
            f"undocumented: {sorted(actual - documented)}; "
            f"stale in docs: {sorted(documented - actual)}"
        )

    def test_analysis_api_all_matches_documented_surface(self):
        documented = _documented_names("Analysis-handle exports")
        actual = set(repro.analysis_api.__all__)
        assert documented == actual, (
            f"docs/api.md and repro.analysis_api.__all__ drifted apart; "
            f"undocumented: {sorted(actual - documented)}; "
            f"stale in docs: {sorted(documented - actual)}"
        )

    def test_analysis_api_all_names_resolve(self):
        for name in repro.analysis_api.__all__:
            assert hasattr(repro.analysis_api, name)
            assert hasattr(repro, name), (
                f"analysis_api export {name} must also be re-exported at top level"
            )

    def test_kernels_all_matches_documented_surface(self):
        import repro.core.kernels

        documented = _documented_names("Kernel backends")
        actual = set(repro.core.kernels.__all__)
        assert documented == actual, (
            f"docs/api.md and repro.core.kernels.__all__ drifted apart; "
            f"undocumented: {sorted(actual - documented)}; "
            f"stale in docs: {sorted(documented - actual)}"
        )

    def test_service_all_matches_documented_surface(self):
        import repro.service

        documented = _documented_names("Service exports")
        actual = set(repro.service.__all__)
        assert documented == actual, (
            f"docs/api.md and repro.service.__all__ drifted apart; "
            f"undocumented: {sorted(actual - documented)}; "
            f"stale in docs: {sorted(documented - actual)}"
        )

    def test_service_all_names_resolve(self):
        import repro.service

        for name in repro.service.__all__:
            assert hasattr(repro.service, name), (
                f"repro.service.__all__ lists {name} but it is missing"
            )


def test_quickstart_snippet_from_docstring():
    clique = repro.complete_graph(32, directed=True)
    network = repro.normalized_urtn(clique, seed=0)
    assert repro.NetworkAnalysis(network).diameter <= 32
    assert repro.is_temporally_connected(network)


def test_subpackages_importable():
    for module in (
        "repro.core",
        "repro.graphs",
        "repro.randomness",
        "repro.erdosrenyi",
        "repro.montecarlo",
        "repro.engine",
        "repro.analysis",
        "repro.io",
        "repro.experiments",
        "repro.utils",
    ):
        assert importlib.import_module(module) is not None


def test_subpackage_all_exports_resolve():
    for module_name in (
        "repro.core",
        "repro.graphs",
        "repro.randomness",
        "repro.erdosrenyi",
        "repro.montecarlo",
        "repro.engine",
        "repro.analysis",
        "repro.io",
        "repro.experiments",
    ):
        module = importlib.import_module(module_name)
        for name in module.__all__:
            assert hasattr(module, name), f"{module_name}.__all__ lists missing {name}"


def test_exceptions_reachable_from_top_level():
    with pytest.raises(repro.ReproError):
        raise repro.LabelingError("bad labels")


def test_star_por_helpers_consistent():
    n = 40
    star = repro.star_graph(n)
    por = repro.price_of_randomness(star, 8, opt=repro.opt_labels_star(n, lifetime=2))
    assert por == pytest.approx(4.0)
    assert repro.por_upper_bound_theorem8(n, star.m, 2) > por


def test_never_sentinel_pinned():
    """NEVER sits below every real departure the way UNREACHABLE sits above
    every real arrival; both are part of the serialized-data contract."""
    assert repro.NEVER == 0
    assert repro.NEVER < 1 <= repro.UNREACHABLE


def test_reverse_sweep_surface_resolves():
    network = repro.normalized_urtn(repro.complete_graph(8, directed=True), seed=0)
    departures = repro.latest_departure_matrix(network)
    assert departures.shape == (8, 8)
    assert repro.latest_departure_times(network, 2)[2] == network.lifetime + 1
    analysis = repro.NetworkAnalysis(network)
    assert analysis.latest_departure(0, 2) == departures[2, 0]
    assert set(analysis.reverse_reachable_set(2).tolist()) <= set(range(8))
    for measure in (
        analysis.closeness,
        analysis.harmonic_closeness,
        analysis.influence_counts,
        analysis.reach_counts,
    ):
        assert measure().shape == (8,)


def _removed_names() -> list[str]:
    """The first column of docs/api.md's table of removed free functions."""
    section = _section("Removed free functions")
    return list(dict.fromkeys(re.findall(r"^\| `([A-Za-z_.]+)\(", section, re.MULTILINE)))


@pytest.mark.parametrize("name", _removed_names())
def test_removed_free_functions_stay_removed(name):
    """Each per-instance quantity has one public entry point, the handle."""
    owner, _, attribute = name.rpartition(".")
    if owner:
        assert not hasattr(getattr(repro, owner), attribute)
        return
    for module_name in (
        "repro",
        "repro.core",
        "repro.core.blocked_sweeps",
        "repro.core.centrality",
        "repro.core.distances",
        "repro.core.journeys",
        "repro.core.reachability",
        "repro.core.reverse_journeys",
    ):
        assert not hasattr(importlib.import_module(module_name), name), module_name
