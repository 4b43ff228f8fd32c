"""Label model registry: how a scenario's graph receives its time labels.

A :class:`~repro.scenarios.specs.LabelModelSpec` is resolved against the sweep
point (plus the implicit ``graph_n`` / ``graph_m`` parameters of the built
graph) and sampled with the trial's generator.  Sampling returns the network
and an *extras* mapping — side objects such as the resolved
:class:`~repro.randomness.distributions.LabelDistribution` that downstream
metrics may want (e.g. E8 reports the distribution's mean label).

The ``"uniform"`` model routes through
:func:`repro.core.labeling.uniform_random_labels`, which uses the vectorised
direct-to-CSR sampling fast path: the draw matrix becomes the network's
stored edge-major ``(edge, label)`` arrays by a row sort, with no per-edge
Python work.  The RNG consumption is exactly one ``(m, labels_per_edge)``
draw, identical to the historical per-experiment trial functions.

Only ``"uniform"`` also has a *draw form* (:data:`LABEL_DRAWS`): that draw
matrix with no network, for the suites decided in stacks from their draws.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Mapping

import numpy as np

from ..core.labeling import (
    box_assignment,
    tree_broadcast_assignment,
    uniform_label_draws,
    uniform_random_labels,
)
from ..core.temporal_graph import TemporalGraph
from ..exceptions import ConfigurationError
from ..graphs.static_graph import StaticGraph
from ..randomness.distributions import LabelDistribution, distribution_from_name
from .specs import LabelModelSpec, eval_param_expr

__all__ = [
    "LABEL_MODELS", "LABEL_DRAWS", "register_label_model", "resolve_distribution", "sample_labels"
]

#: Sampler signature: ``(spec, graph, params, rng) -> (network, extras)``.
LabelSampler = Callable[
    [LabelModelSpec, StaticGraph, Mapping[str, Any], np.random.Generator],
    tuple[TemporalGraph | None, dict[str, Any]],
]


def resolve_distribution(
    spec: Mapping[str, Any] | None,
    params: Mapping[str, Any],
    lifetime: int,
) -> LabelDistribution | None:
    """Resolve a label-model ``distribution`` entry to a concrete distribution.

    Two shapes are accepted:

    * ``{"name": "geometric", "kwargs": {"q": 0.05}}`` — a fixed distribution;
    * ``{"param": "distribution", "kwargs_by_name": {...}}`` — the sweep
      parameter named by ``param`` selects the distribution name, with
      per-name constructor kwargs (the E8 pattern).
    """
    if spec is None:
        return None
    if "param" in spec:
        name = str(params[str(spec["param"])])
        kwargs = dict(spec.get("kwargs_by_name", {}).get(name, {}))
    elif "name" in spec:
        name = str(spec["name"])
        kwargs = dict(spec.get("kwargs", {}))
    else:
        raise ConfigurationError(
            f"distribution spec needs a 'name' or a 'param' key, got {dict(spec)!r}"
        )
    return distribution_from_name(name, lifetime, **kwargs)


def _resolved_lifetime(
    spec: LabelModelSpec, graph: StaticGraph, params: Mapping[str, Any]
) -> int | None:
    merged = dict(params)
    merged["graph_n"] = graph.n
    merged["graph_m"] = graph.m
    if spec.lifetime is None:
        return None
    return int(eval_param_expr(spec.lifetime, merged))


def _uniform_point(
    spec: LabelModelSpec, graph: StaticGraph, params: Mapping[str, Any]
) -> dict[str, Any]:
    """The uniform model's arguments at a sweep point, the lifetime resolved."""
    r = int(eval_param_expr(spec.labels_per_edge, params))
    lifetime = _resolved_lifetime(spec, graph, params)
    if lifetime is None:
        lifetime = graph.n
    return {
        "labels_per_edge": r,
        "lifetime": lifetime,
        "distribution": resolve_distribution(spec.distribution, params, lifetime),
    }


def _sample_uniform(
    spec: LabelModelSpec,
    graph: StaticGraph,
    params: Mapping[str, Any],
    rng: np.random.Generator,
) -> tuple[TemporalGraph, dict[str, Any]]:
    point = _uniform_point(spec, graph, params)
    network = uniform_random_labels(graph, seed=rng, **point)
    distribution = point["distribution"]
    return network, {} if distribution is None else {"distribution": distribution}


def _draw_uniform(
    spec: LabelModelSpec, graph: StaticGraph, params: Mapping[str, Any]
) -> tuple[Callable[..., np.ndarray], int]:
    point = _uniform_point(spec, graph, params)
    return partial(uniform_label_draws, graph, **point), point["lifetime"]


def _sample_box(
    spec: LabelModelSpec,
    graph: StaticGraph,
    params: Mapping[str, Any],
    rng: np.random.Generator,
) -> tuple[TemporalGraph, dict[str, Any]]:
    lifetime = _resolved_lifetime(spec, graph, params)
    mode = str(spec.options.get("mode", "first"))
    return (
        box_assignment(graph, lifetime=lifetime, mode=mode, seed=rng),
        {},
    )


def _sample_tree_broadcast(
    spec: LabelModelSpec,
    graph: StaticGraph,
    params: Mapping[str, Any],
    rng: np.random.Generator,
) -> tuple[TemporalGraph, dict[str, Any]]:
    del rng  # deterministic construction
    lifetime = _resolved_lifetime(spec, graph, params)
    root = int(spec.options.get("root", 0))
    return tree_broadcast_assignment(graph, root=root, lifetime=lifetime), {}


def _sample_none(
    spec: LabelModelSpec,
    graph: StaticGraph,
    params: Mapping[str, Any],
    rng: np.random.Generator,
) -> tuple[None, dict[str, Any]]:
    del spec, graph, params, rng
    return None, {}


LABEL_MODELS: dict[str, LabelSampler] = {
    "uniform": _sample_uniform,
    "box": _sample_box,
    "tree_broadcast": _sample_tree_broadcast,
    "none": _sample_none,
}


#: Draw forms, ``(spec, graph, params) -> (draw, lifetime)``: ``draw(seed=rng)``
#: returns the ``(m, r)`` label draws from which ``from_label_matrix(graph,
#: draws, lifetime=lifetime)`` builds the network the model's sampler would.
#: A registered model has none, so its trials run one by one.
LABEL_DRAWS: dict[str, Callable[..., tuple[Callable[..., np.ndarray], int]]] = {
    "uniform": _draw_uniform
}


def register_label_model(name: str, sampler: LabelSampler) -> None:
    """Register a custom label model under ``name`` (must be unused)."""
    if name in LABEL_MODELS:
        raise ConfigurationError(f"label model {name!r} is already registered")
    LABEL_MODELS[name] = sampler


def sample_labels(
    spec: LabelModelSpec,
    graph: StaticGraph | None,
    params: Mapping[str, Any],
    rng: np.random.Generator,
) -> tuple[TemporalGraph | None, dict[str, Any]]:
    """Sample the label model over the built graph.

    Returns ``(network, extras)``; the network is ``None`` for the
    ``"none"`` model or when the scenario built no graph.
    """
    if spec.model not in LABEL_MODELS:
        raise ConfigurationError(
            f"unknown label model {spec.model!r}; available: {sorted(LABEL_MODELS)}"
        )
    if graph is None:
        if spec.model != "none":
            raise ConfigurationError(
                f"label model {spec.model!r} needs a graph, but the scenario's "
                "graph family is 'none'"
            )
        return None, {}
    return LABEL_MODELS[spec.model](spec, graph, params, rng)
