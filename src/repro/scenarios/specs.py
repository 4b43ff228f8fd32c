"""Declarative scenario specifications.

A *scenario* is one point (or sweep) on the paper's workload grid: an
underlying **graph family** × a **label model** × a **metric suite**, plus the
parameter sweep and the trial budget per scale preset.  Scenarios are plain
data — every field is built from JSON-compatible values and round-trips
through :meth:`Scenario.to_json` / :meth:`Scenario.from_json` — so a new
workload is a registry entry (or a JSON file), not a new experiment module.

Parameter expressions
---------------------
Spec fields that depend on the sweep point (a lifetime of ``"multiplier * n"``,
a label count of ``"r"``) are written as *parameter expressions*: a product of
integer literals and parameter names separated by ``*``.  They are evaluated
against the sweep point's parameters by :func:`eval_param_expr`; label models
additionally see the implicit parameters ``graph_n`` / ``graph_m`` (the built
graph's vertex / edge count), which is how a scenario says "normalized
lifetime" for families whose size is not itself a sweep parameter.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping, Sequence

from ..exceptions import ConfigurationError

__all__ = [
    "eval_param_expr",
    "normalize_param_expr",
    "GraphFamilySpec",
    "LabelModelSpec",
    "MetricSpec",
    "MetricSuite",
    "SweepBlock",
    "ScenarioScale",
    "Scenario",
]

#: Execution modes of the generic pipeline (see ``pipeline.run_scenario``).
SCENARIO_MODES = ("montecarlo", "direct")


def eval_param_expr(expr: Any, params: Mapping[str, Any]) -> Any:
    """Evaluate a parameter expression against a sweep point.

    Non-string values pass through unchanged.  Strings are interpreted as a
    ``*``-separated product whose factors are integer/float literals or
    parameter names; a single bare name resolves to the parameter value
    itself (preserving its type).

    >>> eval_param_expr("multiplier * n", {"multiplier": 4, "n": 64})
    256
    """
    if not isinstance(expr, str):
        return expr
    tokens = [token.strip() for token in expr.split("*")]
    if not tokens or any(not token for token in tokens):
        raise ConfigurationError(f"malformed parameter expression {expr!r}")
    values = []
    for token in tokens:
        try:
            values.append(int(token))
            continue
        except ValueError:
            pass
        try:
            values.append(float(token))
            continue
        except ValueError:
            pass
        if token not in params:
            raise ConfigurationError(
                f"parameter expression {expr!r} references {token!r}, which is "
                f"not a sweep parameter; available: {sorted(map(str, params))}"
            )
        values.append(params[token])
    if len(values) == 1:
        return values[0]
    product: Any = 1
    for value in values:
        product = product * value
    return product


def normalize_param_expr(expr: Any) -> Any:
    """Canonical form of a parameter expression (for fingerprinting).

    ``"multiplier*n"``, ``"multiplier * n"`` and ``" multiplier  *  n "``
    evaluate identically, so they must fingerprint identically too.  Factor
    *order* is preserved — float products are evaluated left to right and
    reordering could change the last ulp.  Non-string values pass through
    unchanged; numeric literal tokens are normalised through ``int``/``float``
    round-trips (``"04"`` → ``"4"``).
    """
    if not isinstance(expr, str):
        return expr
    tokens = [token.strip() for token in expr.split("*")]
    if not tokens or any(not token for token in tokens):
        raise ConfigurationError(f"malformed parameter expression {expr!r}")
    canonical = []
    for token in tokens:
        try:
            canonical.append(repr(int(token)))
            continue
        except ValueError:
            pass
        try:
            canonical.append(repr(float(token)))
            continue
        except ValueError:
            pass
        canonical.append(token)
    return " * ".join(canonical)


def _plain(mapping: Mapping[str, Any]) -> dict[str, Any]:
    """Defensive shallow copy used by the ``to_dict`` serialisers."""
    return {str(key): value for key, value in mapping.items()}


@dataclass(frozen=True)
class GraphFamilySpec:
    """Which underlying static graph a scenario builds, and from what.

    ``family`` names an entry of the family registry
    (:data:`repro.scenarios.families.GRAPH_FAMILIES`); ``params`` maps the
    builder's keyword arguments to literals or parameter expressions.  The
    special family ``"none"`` skips graph construction entirely (for
    scenarios whose metric samples its own substrate, e.g. raw G(n, p)
    connectivity).
    """

    family: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {"family": self.family, "params": _plain(self.params)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "GraphFamilySpec":
        return cls(family=str(data["family"]), params=dict(data.get("params", {})))


@dataclass(frozen=True)
class LabelModelSpec:
    """How the built graph's edges receive time labels.

    Models (see :mod:`repro.scenarios.labelmodels`):

    * ``"uniform"`` — the paper's random model: ``labels_per_edge``
      independent draws per edge, uniform over ``{1, …, lifetime}`` unless a
      ``distribution`` is given (F-CASE).  Uses the vectorised direct-to-CSR
      sampling fast path automatically: a row sort of the draw matrix gives
      the network's stored edge-major ``(edge, label)`` arrays.
    * ``"box"`` / ``"tree_broadcast"`` — the deterministic Section 5
      constructions.
    * ``"none"`` — no labelling stage.

    ``labels_per_edge`` and ``lifetime`` are parameter expressions;
    ``distribution`` is ``None`` or a mapping with either a fixed ``name``
    (plus ``kwargs``) or a ``param`` whose sweep value selects the name, with
    per-name ``kwargs_by_name``.
    """

    model: str = "uniform"
    labels_per_edge: Any = 1
    lifetime: Any = None
    distribution: Mapping[str, Any] | None = None
    options: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "model": self.model,
            "labels_per_edge": self.labels_per_edge,
            "lifetime": self.lifetime,
            "distribution": (
                _plain(self.distribution) if self.distribution is not None else None
            ),
            "options": _plain(self.options),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "LabelModelSpec":
        distribution = data.get("distribution")
        return cls(
            model=str(data.get("model", "uniform")),
            labels_per_edge=data.get("labels_per_edge", 1),
            lifetime=data.get("lifetime"),
            distribution=dict(distribution) if distribution is not None else None,
            options=dict(data.get("options", {})),
        )


@dataclass(frozen=True)
class MetricSpec:
    """One named metric of a suite, with free-form options."""

    metric: str
    options: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {"metric": self.metric, "options": _plain(self.options)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MetricSpec":
        return cls(metric=str(data["metric"]), options=dict(data.get("options", {})))


@dataclass(frozen=True)
class MetricSuite:
    """An ordered collection of metrics evaluated per trial.

    Order matters twice: metrics may consume the trial's RNG (so reordering
    changes the stream) and later metrics may read the values earlier ones
    produced (derived metrics such as ``ratio_to_log_n``).
    """

    metrics: tuple[MetricSpec, ...] = ()

    @classmethod
    def of(cls, *metrics: str | MetricSpec) -> "MetricSuite":
        """Build a suite from metric names and/or fully-specified entries."""
        return cls(
            tuple(
                metric if isinstance(metric, MetricSpec) else MetricSpec(metric)
                for metric in metrics
            )
        )

    def __iter__(self) -> Iterator[MetricSpec]:
        return iter(self.metrics)

    def __len__(self) -> int:
        return len(self.metrics)

    def to_list(self) -> list[dict[str, Any]]:
        return [spec.to_dict() for spec in self.metrics]

    @classmethod
    def from_list(cls, data: Sequence[Mapping[str, Any]]) -> "MetricSuite":
        return cls(tuple(MetricSpec.from_dict(item) for item in data))


@dataclass(frozen=True)
class SweepBlock:
    """One cartesian sub-sweep: axes × constants.

    Most scenarios have a single block; scenarios whose grid depends on
    another parameter (E5's per-``n`` label-count grid) enumerate one block
    per group.  Each block becomes one
    :class:`~repro.montecarlo.sweep.ParameterSweep` run.
    """

    axes: Mapping[str, Sequence[Any]]
    constants: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "axes": {str(key): list(values) for key, values in self.axes.items()},
            "constants": _plain(self.constants),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepBlock":
        return cls(
            axes={str(k): list(v) for k, v in dict(data["axes"]).items()},
            constants=dict(data.get("constants", {})),
        )

    def points(self) -> list[dict[str, Any]]:
        """Enumerate the block's parameter points (axes product × constants)."""
        from itertools import product

        names = list(self.axes)
        out = []
        for combo in product(*(self.axes[name] for name in names)):
            point = dict(self.constants)
            point.update(zip(names, combo))
            out.append(point)
        return out


@dataclass(frozen=True)
class ScenarioScale:
    """The sweep and trial budget of one scale preset (quick/default/full).

    ``extras`` carries scale-level values that are not sweep parameters but
    that report builders want (e.g. E3's layer-trace size or E5's threshold
    target); the pipeline itself never reads them.
    """

    repetitions: int
    blocks: tuple[SweepBlock, ...]
    extras: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "repetitions": self.repetitions,
            "blocks": [block.to_dict() for block in self.blocks],
            "extras": _plain(self.extras),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioScale":
        return cls(
            repetitions=int(data["repetitions"]),
            blocks=tuple(SweepBlock.from_dict(b) for b in data["blocks"]),
            extras=dict(data.get("extras", {})),
        )


@dataclass(frozen=True)
class Scenario:
    """A complete declarative workload: graph × labels × metrics × sweep.

    Attributes
    ----------
    name:
        Registry key (``"E1"`` … ``"E9"`` for the experiment-backed
        scenarios, free-form slugs for registry-only workloads).
    title / description:
        Human-readable one-liners for listings and reports.
    graph / labels / metrics:
        The three grid coordinates.
    scales:
        Scale preset → :class:`ScenarioScale`.
    mode:
        ``"montecarlo"`` (default — trials through the parallel engine) or
        ``"direct"`` (one evaluation per sweep point with a fixed quota of
        pre-spawned RNG streams; for audit-style workloads like E6).
    experiment_name:
        Name given to the :class:`~repro.montecarlo.experiment.Experiment`
        (defaults to ``name``).
    default_seed:
        Seed used when the caller passes none.
    rngs_per_point:
        Direct mode only: independent generators handed to each point.
    """

    name: str
    title: str
    description: str
    graph: GraphFamilySpec
    labels: LabelModelSpec
    metrics: MetricSuite
    scales: Mapping[str, ScenarioScale]
    mode: str = "montecarlo"
    experiment_name: str = ""
    default_seed: int | None = None
    rngs_per_point: int = 1

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("a scenario needs a non-empty name")
        if self.mode not in SCENARIO_MODES:
            raise ConfigurationError(
                f"scenario {self.name!r}: mode must be one of {SCENARIO_MODES}, "
                f"got {self.mode!r}"
            )
        if not self.scales:
            raise ConfigurationError(
                f"scenario {self.name!r} declares no scale presets"
            )
        if not self.metrics:
            raise ConfigurationError(
                f"scenario {self.name!r} declares no metrics"
            )
        if self.mode == "direct" and len(self.metrics) != 1:
            raise ConfigurationError(
                f"direct-mode scenario {self.name!r} must declare exactly one "
                f"metric (it owns the point's whole RNG quota), got "
                f"{len(self.metrics)}"
            )

    @property
    def scale_names(self) -> list[str]:
        """Available scale presets, sorted."""
        return sorted(self.scales)

    def scale(self, name: str) -> ScenarioScale:
        """Look up one scale preset, with a helpful error."""
        if name not in self.scales:
            raise ConfigurationError(
                f"scenario {self.name!r} has no scale {name!r}; "
                f"available: {self.scale_names}"
            )
        return self.scales[name]

    def with_axes(self, overrides: Mapping[str, Sequence[Any]], *, scale: str) -> "Scenario":
        """Return a copy whose ``scale`` preset sweeps the given axis values.

        Existing axes are replaced; names currently held constant move into
        the axes; unknown names become new axes.  This is what backs the
        ``repro-experiments scenario sweep --set axis=v1,v2`` CLI.
        """
        base = self.scale(scale)
        new_blocks = []
        for block in base.blocks:
            axes = {k: list(v) for k, v in block.axes.items()}
            constants = dict(block.constants)
            for key, values in overrides.items():
                constants.pop(key, None)
                axes[str(key)] = list(values)
            new_blocks.append(SweepBlock(axes=axes, constants=constants))
        scales = dict(self.scales)
        scales[scale] = ScenarioScale(
            repetitions=base.repetitions, blocks=tuple(new_blocks), extras=base.extras
        )
        return Scenario(
            name=self.name,
            title=self.title,
            description=self.description,
            graph=self.graph,
            labels=self.labels,
            metrics=self.metrics,
            scales=scales,
            mode=self.mode,
            experiment_name=self.experiment_name,
            default_seed=self.default_seed,
            rngs_per_point=self.rngs_per_point,
        )

    # ------------------------------------------------------------------ #
    # identity
    # ------------------------------------------------------------------ #
    def fingerprint_payload(self) -> dict[str, Any]:
        """The pure-data identity this scenario fingerprints over.

        Covers everything that shapes the *results*: the effective experiment
        name, the three grid coordinates (with parameter expressions
        normalised via :func:`normalize_param_expr`), the scale presets, the
        mode, the default seed and the direct-mode RNG quota.  ``title`` and
        ``description`` are cosmetic and deliberately excluded — rewording a
        docstring must not orphan stored results.
        """
        return {
            "kind": "scenario-v1",
            "experiment": self.experiment_name or self.name,
            "graph": {
                "family": self.graph.family,
                "params": {
                    str(key): normalize_param_expr(value)
                    for key, value in self.graph.params.items()
                },
            },
            "labels": {
                "model": self.labels.model,
                "labels_per_edge": normalize_param_expr(self.labels.labels_per_edge),
                "lifetime": normalize_param_expr(self.labels.lifetime),
                "distribution": (
                    _plain(self.labels.distribution)
                    if self.labels.distribution is not None
                    else None
                ),
                "options": _plain(self.labels.options),
            },
            "metrics": self.metrics.to_list(),
            "scales": {key: value.to_dict() for key, value in self.scales.items()},
            "mode": self.mode,
            "default_seed": self.default_seed,
            "rngs_per_point": self.rngs_per_point,
        }

    def fingerprint(self) -> str:
        """Canonical hex digest of this workload (see :meth:`fingerprint_payload`).

        Stable across dict-key insertion order, JSON round-trips and parameter
        -expression whitespace — the artifact-store/cache key primitive.
        """
        from ..utils.fingerprint import fingerprint as _digest

        return _digest(self.fingerprint_payload())

    # ------------------------------------------------------------------ #
    # serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible representation (inverse of :meth:`from_dict`)."""
        return {
            "name": self.name,
            "title": self.title,
            "description": self.description,
            "graph": self.graph.to_dict(),
            "labels": self.labels.to_dict(),
            "metrics": self.metrics.to_list(),
            "scales": {key: value.to_dict() for key, value in self.scales.items()},
            "mode": self.mode,
            "experiment_name": self.experiment_name,
            "default_seed": self.default_seed,
            "rngs_per_point": self.rngs_per_point,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Scenario":
        """Inverse of :meth:`to_dict`.

        A missing or ill-typed key raises
        :class:`~repro.exceptions.ConfigurationError` naming the key.
        """
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"a scenario document must be a mapping, got {type(data).__name__}"
            )

        def parse(key: str, convert: Callable[[Any], Any], *default: Any) -> Any:
            if key not in data and not default:
                raise ConfigurationError(f"scenario document is missing key {key!r}")
            try:
                return convert(data.get(key, *default))
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise ConfigurationError(
                    f"scenario key {key!r} is malformed: {exc!r}"
                ) from exc

        def scales(value: Any) -> dict[str, ScenarioScale]:
            return {
                str(key): ScenarioScale.from_dict(scale)
                for key, scale in dict(value).items()
            }

        name = parse("name", str)
        return cls(
            name=name,
            title=parse("title", str, name),
            description=parse("description", str, ""),
            graph=parse("graph", GraphFamilySpec.from_dict),
            labels=parse("labels", LabelModelSpec.from_dict),
            metrics=parse("metrics", MetricSuite.from_list),
            scales=parse("scales", scales),
            mode=parse("mode", str, "montecarlo"),
            experiment_name=parse("experiment_name", str, ""),
            default_seed=data.get("default_seed"),
            rngs_per_point=parse("rngs_per_point", int, 1),
        )

    def to_json(self, *, indent: int | None = 2) -> str:
        """Serialise to a JSON string."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        """Rebuild a scenario from :meth:`to_json` output."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"invalid scenario JSON: {exc}") from exc
        return cls.from_dict(data)
