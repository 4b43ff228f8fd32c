"""Monte-Carlo experiment engine.

The paper's quantities of interest (temporal diameter, reachability
probability, broadcast time, …) are expectations or probabilities over random
label assignments; this subpackage provides the machinery to estimate them:

* :class:`Experiment` — a named trial function plus its parameters;
* :class:`MonteCarloRunner` — runs a fixed budget of independent trials with
  spawned RNG streams and aggregates the metrics; runs execute on the
  parallel engine (:mod:`repro.engine`), so ``jobs=N`` fans trials out over
  worker processes with bit-identical results;
* :mod:`repro.montecarlo.statistics` — summary statistics and confidence
  intervals;
* :class:`ParameterSweep` — cartesian grids over experiment parameters;
* result containers that flatten a sweep into records.
"""

from .experiment import Experiment, TrialFunction
from .runner import MonteCarloRunner, run_trials
from .statistics import (
    SummaryStatistics,
    normal_confidence_interval,
    summarize,
)
from .sweep import ParameterSweep, sweep_grid
from .results import SweepResult, TrialResult, results_to_records

__all__ = [
    "Experiment",
    "TrialFunction",
    "MonteCarloRunner",
    "run_trials",
    "SummaryStatistics",
    "summarize",
    "normal_confidence_interval",
    "ParameterSweep",
    "sweep_grid",
    "TrialResult",
    "SweepResult",
    "results_to_records",
]
