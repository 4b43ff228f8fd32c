"""The scenario registry: name → :class:`~repro.scenarios.specs.Scenario`.

The registry is the single catalogue of runnable workloads.  The nine
experiment-backed scenarios (``E1`` … ``E9``) are registered by
:mod:`repro.scenarios.library` at import time, alongside the registry-only
scenarios that have no experiment module at all; user code can add more with
:func:`register_scenario` (see ``examples/custom_scenario.py``).
"""

from __future__ import annotations

import re

from ..exceptions import ConfigurationError
from .specs import Scenario

__all__ = [
    "register_scenario",
    "get_scenario",
    "scenario_names",
    "iter_scenarios",
    "experiment_scenarios",
]

_REGISTRY: dict[str, Scenario] = {}

#: Names of the scenarios that back an experiment id (E1 … E9).
_EXPERIMENT_ID = re.compile(r"^E\d+$")


def register_scenario(scenario: Scenario, *, replace: bool = False) -> Scenario:
    """Add a scenario to the registry (and return it, for chaining).

    Names are case-sensitive as stored but looked up case-insensitively, so
    two scenarios may not differ only in case.
    """
    key = scenario.name
    clash = _lookup_key(key)
    if clash is not None and not replace:
        raise ConfigurationError(
            f"scenario {key!r} is already registered (as {clash!r}); "
            "pass replace=True to override"
        )
    if clash is not None and clash != key:
        del _REGISTRY[clash]
    _REGISTRY[key] = scenario
    return scenario


def _lookup_key(name: str) -> str | None:
    if name in _REGISTRY:
        return name
    folded = name.strip().lower()
    for key in _REGISTRY:
        if key.lower() == folded:
            return key
    return None


def get_scenario(name: str) -> Scenario:
    """Look up a scenario by name (case-insensitive)."""
    key = _lookup_key(name)
    if key is None:
        raise ConfigurationError(
            f"unknown scenario {name!r}; available: {scenario_names()}"
        )
    return _REGISTRY[key]


def scenario_names() -> list[str]:
    """All registered scenario names, sorted."""
    return sorted(_REGISTRY)


def iter_scenarios() -> list[Scenario]:
    """All registered scenarios, sorted by name."""
    return [_REGISTRY[name] for name in scenario_names()]


def experiment_scenarios() -> dict[str, Scenario]:
    """The experiment-backed subset: scenarios named like ``E<number>``."""
    return {
        name: scenario
        for name, scenario in sorted(_REGISTRY.items())
        if _EXPERIMENT_ID.match(name)
    }
