"""Persist experiment records — and scenario definitions — as JSON.

Records are flat mappings (the output of
:func:`repro.montecarlo.results_to_records` or
:meth:`repro.scenarios.ScenarioRun.to_records`); ``scenario run --records``
writes them with :func:`write_records_json`.

Scenario definitions (:class:`repro.scenarios.Scenario`) are pure data and
round-trip losslessly: :func:`write_scenario_json` /
:func:`read_scenario_json` let a workload live in a versioned JSON file
instead of Python code.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from ..exceptions import SerializationError

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..scenarios.specs import Scenario

__all__ = [
    "write_records_json",
    "read_records_json",
    "write_scenario_json",
    "read_scenario_json",
]


def write_records_json(records: Sequence[Mapping[str, Any]], path: str | Path) -> Path:
    """Write records to a JSON file (a list of objects) and return the path."""
    path = Path(path)
    try:
        with path.open("w", encoding="utf-8") as handle:
            json.dump([dict(record) for record in records], handle, indent=2, sort_keys=True)
            handle.write("\n")
    except (OSError, TypeError) as exc:
        raise SerializationError(f"could not write JSON to {path}: {exc}") from exc
    return path


def read_records_json(path: str | Path) -> list[dict[str, Any]]:
    """Read records from a JSON file written by :func:`write_records_json`."""
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise SerializationError(f"could not read JSON from {path}: {exc}") from exc
    if not isinstance(data, list):
        raise SerializationError(f"expected a list of records in {path}, got {type(data).__name__}")
    return [dict(record) for record in data]


def write_scenario_json(scenario: "Scenario", path: str | Path) -> Path:
    """Serialise a scenario definition to a JSON file and return the path."""
    path = Path(path)
    try:
        path.write_text(scenario.to_json() + "\n", encoding="utf-8")
    except OSError as exc:
        raise SerializationError(f"could not write scenario to {path}: {exc}") from exc
    return path


def read_scenario_json(path: str | Path) -> "Scenario":
    """Rebuild a scenario definition from a :func:`write_scenario_json` file."""
    from ..scenarios.specs import Scenario

    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise SerializationError(f"could not read scenario from {path}: {exc}") from exc
    try:
        return Scenario.from_json(text)
    except Exception as exc:
        raise SerializationError(
            f"{path} does not contain a valid scenario definition: {exc}"
        ) from exc
