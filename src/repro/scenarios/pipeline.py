"""The generic scenario pipeline: one runner for every declarative workload.

:func:`run_scenario` is the single execution path behind all nine experiment
entry points *and* every registry-only scenario:

* **montecarlo mode** — each sweep block becomes a
  :class:`~repro.montecarlo.sweep.ParameterSweep` executed by a
  :class:`~repro.montecarlo.runner.MonteCarloRunner`, which delegates every
  fixed budget to the parallel engine.  The engine options pass straight
  through: ``jobs``/``executor`` fan trials out over worker processes and
  ``checkpoint_dir`` enables crash/resume, with results bit-identical
  across all of them.
* **direct mode** — each sweep point is evaluated once by the scenario's
  single direct metric with a fixed quota of pre-spawned generators.  Every
  point is a :class:`DirectPoint` unit run on the engine's executor, so
  ``jobs=N`` maps points over worker processes with results identical to
  the serial order and per-point telemetry merged home like the shards'.

The per-trial work is :class:`ScenarioTrial` — a picklable callable built
from the scenario's declarative specs: build (or reuse) the graph, sample the
label model with the trial generator, evaluate the metric suite in order.
The engine hands it a shard's trials together (:meth:`ScenarioTrial.batch`);
a suite of metrics with a batch form, such as ``strong_reachability``, over
a label model with a draw form decides them straight from their label
draws, in stacks of :func:`~repro.core.reachability.stack_height` trials
with one sweep per stack, and :func:`run_scenario` runs each point of such
a suite as one shard.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Iterable, Iterator, Mapping

import numpy as np

from .. import telemetry
from ..core.reachability import draw_stacks
from ..engine.driver import ProgressCallback
from ..engine.executors import Executor, RunContext, merge_telemetry, resolve_executor
from ..exceptions import ConfigurationError
from ..graphs.static_graph import StaticGraph
from ..montecarlo.experiment import Experiment
from ..montecarlo.results import SweepResult, TrialResult
from ..montecarlo.runner import MonteCarloRunner
from ..montecarlo.sweep import ParameterSweep
from ..utils.logging import get_logger
from ..utils.seeding import SeedLike, spawn_rngs
from .families import build_graph
from .labelmodels import LABEL_DRAWS, sample_labels
from .metrics import (
    BATCH_METRICS,
    DIRECT_METRICS,
    METRICS,
    BatchMetricFunction,
    TrialContext,
)
from .specs import MetricSpec, Scenario

__all__ = ["ScenarioTrial", "ScenarioRun", "DirectPoint", "run_scenario"]

_LOGGER = get_logger("scenarios.pipeline")


def _batch_forms(scenario: Scenario) -> list[BatchMetricFunction] | None:
    """The suite's batch forms in order, or ``None`` unless its trials stack.

    They stack when every metric has a batch form and the label model draws
    on a graph (:data:`~repro.scenarios.labelmodels.LABEL_DRAWS`).
    """
    forms = [BATCH_METRICS.get(spec.metric) for spec in scenario.metrics]
    draws = scenario.labels.model in LABEL_DRAWS and scenario.graph.family != "none"
    return forms if forms and None not in forms and draws else None


class ScenarioTrial:
    """Picklable trial callable generated from a scenario's declarative specs.

    Instances satisfy the :data:`~repro.montecarlo.experiment.TrialFunction`
    protocol, so they can be handed to :class:`Experiment` directly — the
    multiprocess executor pickles the scenario (plain data) rather than a
    closure.
    """

    __slots__ = ("scenario",)

    def __init__(self, scenario: Scenario) -> None:
        self.scenario = scenario

    def __call__(
        self, params: Mapping[str, Any], rng: np.random.Generator
    ) -> dict[str, float]:
        with telemetry.span("scenario.trial", scenario=self.scenario.name):
            graph = self._graph(params)
            sample = partial(sample_labels, self.scenario.labels, graph, params)
            [(network, extras)] = self._sampled([rng], sample)
            ctx = TrialContext(
                graph=graph, network=network, params=params, rng=rng, extras=extras
            )
            for spec in self.scenario.metrics:
                fn = METRICS.get(spec.metric)
                if fn is None:
                    raise ConfigurationError(
                        f"scenario {self.scenario.name!r} references unknown metric "
                        f"{spec.metric!r}; available: {sorted(METRICS)}"
                    )
                with telemetry.span(f"scenario.metric.{spec.metric}"):
                    ctx.metrics.update(fn(ctx, spec.options))
            return dict(ctx.metrics)

    def batch(
        self, params: Mapping[str, Any], rngs: Iterable[np.random.Generator]
    ) -> list[dict[str, float]]:
        """Run one trial per generator, in order: a shard's trials at once.

        A suite made up wholly of metrics with a batch form
        (:data:`~repro.scenarios.metrics.BATCH_METRICS`), over a label model
        with a draw form, draws the trials' label matrices over the point's
        graph one by one and hands them to each metric's batch form a stack
        at a time, cut by :func:`~repro.core.reachability.draw_stacks`, so
        ``strong_reachability`` decides a stack with one sweep, builds no
        network, and at most one stack's draws are alive.  Any other suite
        runs the trials one by one.  Either way each trial draws from its
        own generator alone, so every value equals the per-trial call's,
        and counts as one ``scenario.trials``.
        """
        forms = _batch_forms(self.scenario)
        if forms is None:
            return [self(params, rng) for rng in rngs]
        graph = self._graph(params)
        draw, lifetime = LABEL_DRAWS[self.scenario.labels.model](
            self.scenario.labels, graph, params
        )
        draws = self._sampled(rngs, lambda rng: draw(seed=rng))
        results: list[dict[str, float]] = []
        for stack in draw_stacks(graph, draws, lifetime):
            results.extend(self._run_stack(graph, stack, lifetime, forms))
            # Release this stack's draws before the next one is drawn.
            del stack
        return results

    def _run_stack(
        self,
        graph: StaticGraph,
        stack: list[np.ndarray],
        lifetime: int,
        forms: list[BatchMetricFunction],
    ) -> list[dict[str, float]]:
        """Evaluate the suite's batch forms on one stack of trials' draws."""
        results: list[dict[str, float]] = [{} for _ in stack]
        with telemetry.span("scenario.stack", scenario=self.scenario.name):
            for spec, form in zip(self.scenario.metrics, forms):
                with telemetry.span(f"scenario.metric.{spec.metric}"):
                    for result, values in zip(
                        results, form(graph, stack, lifetime, spec.options)
                    ):
                        result.update(values)
        return results

    def _graph(self, params: Mapping[str, Any]) -> StaticGraph | None:
        """Build (or reuse) the point's graph, timed as ``scenario.graph_build_ms``."""
        recs = telemetry.active()
        stamp = time.perf_counter() if recs else 0.0
        graph = build_graph(self.scenario.graph, params)
        if recs:
            now = time.perf_counter()
            for rec in recs:
                rec.observe_ms("scenario.graph_build_ms", (now - stamp) * 1e3)
        return graph

    @staticmethod
    def _sampled(
        rngs: Iterable[np.random.Generator], sample: Callable[[np.random.Generator], Any]
    ) -> Iterator[Any]:
        """``sample(rng)`` per generator as the caller asks: one ``scenario.trials``, timed.

        Each draw is timed as ``scenario.label_sampling_ms``.
        """
        recs = telemetry.active()
        for rng in rngs:
            stamp = time.perf_counter() if recs else 0.0
            sampled = sample(rng)
            if recs:
                now = time.perf_counter()
                for rec in recs:
                    rec.counter("scenario.trials")
                    rec.observe_ms("scenario.label_sampling_ms", (now - stamp) * 1e3)
            yield sampled

    def __getstate__(self) -> Scenario:
        return self.scenario

    def __setstate__(self, state: Scenario) -> None:
        self.scenario = state

    def __repr__(self) -> str:
        return f"ScenarioTrial({self.scenario.name!r})"


@dataclass
class ScenarioRun:
    """Everything one :func:`run_scenario` call produced.

    ``sweeps`` holds one :class:`~repro.montecarlo.results.SweepResult` per
    sweep block in montecarlo mode; ``records`` holds one mapping per sweep
    point in direct mode.  :meth:`to_records` flattens either shape into the
    flat-record form the :mod:`repro.io` serialisers and the CLI table
    renderer consume.
    """

    scenario: Scenario
    scale: str
    seed: SeedLike
    sweeps: list[SweepResult] = field(default_factory=list)
    records: list[dict[str, Any]] = field(default_factory=list)

    @property
    def sweep(self) -> SweepResult:
        """The single sweep result of a one-block montecarlo scenario."""
        if len(self.sweeps) != 1:
            raise ConfigurationError(
                f"scenario {self.scenario.name!r} produced {len(self.sweeps)} "
                "sweep blocks; index .sweeps explicitly"
            )
        return self.sweeps[0]

    def points(self) -> Iterator[TrialResult]:
        """Iterate every trial result across all sweep blocks, in order."""
        for sweep in self.sweeps:
            yield from sweep

    def to_records(self) -> list[dict[str, Any]]:
        """Flat records: parameters plus per-metric summary statistics."""
        if self.scenario.mode == "direct":
            return [dict(record) for record in self.records]
        return [point.as_record() for point in self.points()]


def _block_checkpoint_dir(
    checkpoint_dir: str | os.PathLike[str] | None, index: int, total: int
) -> str | os.PathLike[str] | None:
    if checkpoint_dir is None or total == 1:
        return checkpoint_dir
    return os.path.join(os.fspath(checkpoint_dir), f"block-{index:02d}")


@dataclass(frozen=True)
class DirectPoint:
    """One direct-mode sweep point: the engine unit that evaluates it.

    The point owns a pre-spawned slice of generators, so running it in any
    process and in any order cannot change its record.
    """

    index: int
    spec: MetricSpec
    point: dict[str, Any]
    rngs: list[np.random.Generator]

    def run(self) -> dict[str, Any]:
        """Evaluate the direct metric at this point and return its record."""
        # Looked up per call, so a registry entry wrapped after import (by a
        # profiler, say) is the one that runs.
        metric = DIRECT_METRICS[self.spec.metric]
        with telemetry.span(f"scenario.metric.{self.spec.metric}"):
            return metric(self.point, self.rngs, self.spec.options)


def _run_direct(
    scenario: Scenario, scale: str, seed: SeedLike, executor: Executor
) -> ScenarioRun:
    scale_cfg = scenario.scale(scale)
    points: list[dict[str, Any]] = []
    for block in scale_cfg.blocks:
        points.extend(block.points())
    spec = scenario.metrics.metrics[0]
    if spec.metric not in DIRECT_METRICS:
        raise ConfigurationError(
            f"scenario {scenario.name!r} references unknown direct metric "
            f"{spec.metric!r}; available: {sorted(DIRECT_METRICS)}"
        )
    quota = scenario.rngs_per_point
    rngs = spawn_rngs(seed, quota * len(points))
    units = [
        DirectPoint(index, spec, point, rngs[index * quota : (index + 1) * quota])
        for index, point in enumerate(points)
    ]
    context = RunContext.snapshot()
    with telemetry.span(
        "scenario.run", scenario=scenario.name, scale=scale, mode="direct"
    ):
        results = sorted(executor.map(units, context), key=lambda r: r.index)
        merge_telemetry(result.telemetry_state for result in results)
        telemetry.counter("scenario.direct_points", len(units))
    records = [result.value for result in results]
    return ScenarioRun(scenario=scenario, scale=scale, seed=seed, records=records)


def run_scenario(
    scenario: Scenario,
    *,
    scale: str = "default",
    seed: SeedLike = None,
    jobs: int | None = None,
    executor: Executor | None = None,
    shard_size: int | None = None,
    checkpoint_dir: str | os.PathLike[str] | None = None,
    progress: ProgressCallback | None = None,
) -> ScenarioRun:
    """Run a scenario at a scale preset through the generic pipeline.

    Parameters mirror :class:`~repro.montecarlo.runner.MonteCarloRunner`:
    ``jobs=N`` (or an explicit ``executor``) fans work out over worker
    processes with bit-identical results, ``checkpoint_dir`` persists
    completed shards for crash/resume.  ``seed=None`` falls back to the
    scenario's ``default_seed``.  With no ``shard_size``, a suite decided in
    stacks (:meth:`ScenarioTrial.batch`) runs each point as one shard, so no
    shard boundary cuts a stack short; any other suite gets the engine's
    default plan.

    Returns
    -------
    ScenarioRun
        Sweep results (montecarlo mode) or point records (direct mode).
    """
    if seed is None:
        seed = scenario.default_seed
    shared_executor = resolve_executor(executor, jobs)
    if scenario.mode == "direct":
        montecarlo_only = []
        if shard_size is not None:
            montecarlo_only.append("shard_size")
        if checkpoint_dir is not None:
            montecarlo_only.append("checkpoint_dir")
        if progress is not None:
            montecarlo_only.append("progress")
        if montecarlo_only:
            raise ConfigurationError(
                f"{', '.join(montecarlo_only)} apply to montecarlo-mode "
                f"scenarios; {scenario.name!r} runs in direct mode"
            )
        return _run_direct(scenario, scale, seed, shared_executor)

    scale_cfg = scenario.scale(scale)
    if shard_size is None and _batch_forms(scenario) is not None:
        shard_size = scale_cfg.repetitions
    experiment = Experiment(
        name=scenario.experiment_name or scenario.name,
        trial=ScenarioTrial(scenario),
        description=scenario.description,
    )
    run = ScenarioRun(scenario=scenario, scale=scale, seed=seed)
    total_blocks = len(scale_cfg.blocks)
    # One set of workers for every block and point, released on return.
    with shared_executor, telemetry.span(
        "scenario.run", scenario=scenario.name, scale=scale, mode="montecarlo"
    ):
        for index, block in enumerate(scale_cfg.blocks):
            runner = MonteCarloRunner(
                repetitions=scale_cfg.repetitions,
                seed=seed,
                executor=shared_executor,
                shard_size=shard_size,
                checkpoint_dir=_block_checkpoint_dir(
                    checkpoint_dir, index, total_blocks
                ),
                progress=progress,
            )
            sweep = ParameterSweep(
                {key: list(values) for key, values in block.axes.items()},
                constants=dict(block.constants),
            )
            with telemetry.span("scenario.block", index=index):
                run.sweeps.append(runner.run_sweep(experiment, sweep))
            _LOGGER.debug(
                "scenario %s: finished block %d/%d",
                scenario.name,
                index + 1,
                total_blocks,
            )
    return run
