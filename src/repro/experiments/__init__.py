"""Reproduction experiments — one module per claim of the paper.

Every experiment module exposes a ``run(scale=..., seed=...)`` function that
returns an :class:`~repro.experiments.reporting.ExperimentReport`; the
registry maps experiment identifiers (E1 … E7, matching DESIGN.md §4) to those
functions and provides the ``repro-experiments`` command-line entry point.
"""

from .reporting import ExperimentReport, write_experiments_markdown

__all__ = [
    "ExperimentReport",
    "write_experiments_markdown",
    "EXPERIMENTS",
    "get_experiment",
    "run_experiments",
    "main",
]

#: Names served from :mod:`repro.experiments.registry` on first access.  The
#: registry is not imported eagerly: ``python -m repro.experiments.registry``
#: would otherwise find its own module already imported, and runpy warns.
_REGISTRY_NAMES = frozenset(
    {"EXPERIMENTS", "get_experiment", "main", "run_experiments"}
)


def __getattr__(name: str):
    if name in _REGISTRY_NAMES:
        from . import registry

        return getattr(registry, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
