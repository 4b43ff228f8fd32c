"""The deterministic label models and ``none``, sampled as a scenario does.

Scenario documents can name the ``box``, ``tree_broadcast`` and ``none``
label models.  These pins read each model from its document form and sample
it with :func:`repro.scenarios.labelmodels.sample_labels` over every
registered graph family the construction accepts: ``box`` and
``tree_broadcast`` must build exactly the network of
:func:`repro.core.labeling.box_assignment` and
:func:`repro.core.labeling.tree_broadcast_assignment`, and ``none`` samples
nothing, so a metric that needs a network fails with a clear error.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.labeling import box_assignment, tree_broadcast_assignment
from repro.exceptions import ConfigurationError, GraphError
from repro.scenarios import (
    GRAPH_FAMILIES,
    GraphFamilySpec,
    LabelModelSpec,
    MetricSuite,
    Scenario,
    ScenarioScale,
    ScenarioTrial,
    SweepBlock,
)
from repro.scenarios.families import build_graph
from repro.scenarios.labelmodels import sample_labels

#: One connected instance of every registered family (two for the families
#: with a directed form).
CONNECTED = [
    ("clique", {"n": 6}),
    ("clique", {"n": 5, "directed": True}),
    ("star", {"n": 7}),
    ("path", {"n": 6}),
    ("cycle", {"n": 7}),
    ("grid", {"rows": 3, "cols": 4}),
    ("hypercube", {"dimension": 3}),
    ("complete_bipartite", {"a": 2, "b": 3}),
    ("binary_tree", {"depth": 2}),
    ("wheel", {"n": 6}),
    ("barbell", {"clique_size": 3, "bridge_length": 1}),
    ("lollipop", {"clique_size": 3, "path_length": 2}),
    ("erdos_renyi", {"n": 10, "p": 0.5}),
    ("erdos_renyi", {"n": 8, "p": 0.6, "directed": True}),
    ("gnp_supercritical", {"n": 16}),
]
#: The tree construction labels both arcs of each tree edge, so it needs
#: every arc's reverse: a digraph qualifies only when it is symmetric.
TREE_FAMILIES = [
    (family, params)
    for family, params in CONNECTED
    if not (family == "erdos_renyi" and params.get("directed"))
]
#: A G(n, p) draw below the threshold: 5 edges on 10 vertices.
DISCONNECTED = ("erdos_renyi", {"n": 10, "p": 0.05})


def _ids(cases):
    return [
        family + ("-directed" if params.get("directed") else "")
        for family, params in cases
    ]


def _graph(family, params):
    return build_graph(GraphFamilySpec(family, params), {})


def _model(model, **options):
    """The label model as a scenario document spells it."""
    return LabelModelSpec.from_dict(
        {"model": model, "lifetime": "2 * graph_n", "options": options}
    )


def test_every_registered_family_is_covered():
    assert {family for family, _ in CONNECTED} == set(GRAPH_FAMILIES)


@pytest.mark.parametrize("mode", ["first", "random"])
@pytest.mark.parametrize("family, params", CONNECTED, ids=_ids(CONNECTED))
def test_box_model_builds_the_box_assignment(family, params, mode):
    graph = _graph(family, params)
    network, extras = sample_labels(
        _model("box", mode=mode), graph, {}, np.random.default_rng(5)
    )
    expected = box_assignment(
        graph, lifetime=2 * graph.n, mode=mode, seed=np.random.default_rng(5)
    )
    assert network == expected
    assert extras == {}
    if mode == "random":
        # The mode reaches the construction: boxes of two or more labels
        # give a random draw that the first-label placement does not.
        assert network != box_assignment(graph, lifetime=2 * graph.n, mode="first")


@pytest.mark.parametrize("family, params", TREE_FAMILIES, ids=_ids(TREE_FAMILIES))
def test_tree_broadcast_model_builds_the_tree_assignment(family, params):
    graph = _graph(family, params)
    network, extras = sample_labels(
        _model("tree_broadcast", root=1), graph, {}, np.random.default_rng(5)
    )
    assert network == tree_broadcast_assignment(graph, root=1, lifetime=2 * graph.n)
    assert extras == {}


def test_tree_broadcast_root_option_reaches_the_construction():
    graph = _graph("star", {"n": 7})
    rooted_at_leaf, _ = sample_labels(
        _model("tree_broadcast", root=1), graph, {}, np.random.default_rng(0)
    )
    rooted_at_centre, _ = sample_labels(
        _model("tree_broadcast"), graph, {}, np.random.default_rng(0)
    )
    assert rooted_at_centre == tree_broadcast_assignment(graph, lifetime=14)
    assert rooted_at_leaf != rooted_at_centre


@pytest.mark.parametrize(
    "spec", [_model("box"), _model("tree_broadcast")], ids=["box", "tree_broadcast"]
)
def test_deterministic_models_reject_a_disconnected_graph(spec):
    graph = _graph(*DISCONNECTED)
    with pytest.raises(GraphError, match="requires a connected graph"):
        sample_labels(spec, graph, {}, np.random.default_rng(0))


def test_none_model_on_a_real_graph_samples_no_network():
    graph = _graph("clique", {"n": 6})
    spec = LabelModelSpec.from_dict({"model": "none"})
    assert sample_labels(spec, graph, {}, np.random.default_rng(0)) == (None, {})


def test_metric_needing_a_network_rejects_the_none_model_on_a_real_graph():
    scenario = Scenario(
        name="clique-without-labels",
        title="",
        description="",
        graph=GraphFamilySpec("clique", {"n": "n"}),
        labels=LabelModelSpec(model="none"),
        metrics=MetricSuite.of("distance_summary"),
        scales={"quick": ScenarioScale(1, (SweepBlock(axes={"n": [6]}),))},
    )
    with pytest.raises(ConfigurationError, match="needs a sampled temporal network"):
        ScenarioTrial(scenario)({"n": 6}, np.random.default_rng(0))
