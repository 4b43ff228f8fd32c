"""Parameter sweeps: cartesian grids over experiment parameters."""

from __future__ import annotations

from itertools import product
from typing import Any, Iterator, Mapping, Sequence

from ..exceptions import ConfigurationError

__all__ = ["ParameterSweep", "sweep_grid"]


class ParameterSweep:
    """A cartesian product of parameter values.

    Parameters
    ----------
    grid:
        Mapping from parameter name to the sequence of values it sweeps over.
        Scalars are treated as single-value sequences.
    constants:
        Parameters held fixed across the whole sweep (merged into each point).

    Example
    -------
    >>> sweep = ParameterSweep({"n": [16, 32], "r": [1, 2, 3]})
    >>> len(sweep)
    6
    """

    def __init__(
        self,
        grid: Mapping[str, Sequence[Any] | Any],
        *,
        constants: Mapping[str, Any] | None = None,
    ) -> None:
        if not grid:
            raise ConfigurationError("a sweep needs at least one swept parameter")
        self._grid: dict[str, list[Any]] = {}
        for key, values in grid.items():
            if isinstance(values, (str, bytes)) or not isinstance(values, Sequence):
                values = [values]
            values = list(values)
            if not values:
                raise ConfigurationError(f"parameter {key!r} has no values to sweep")
            self._grid[str(key)] = values
        self._constants = dict(constants or {})
        overlap = set(self._grid) & set(self._constants)
        if overlap:
            raise ConfigurationError(
                f"parameters {sorted(overlap)} appear both in the grid and in constants"
            )

    @property
    def parameter_names(self) -> list[str]:
        """Names of the swept parameters (insertion order)."""
        return list(self._grid)

    @property
    def constants(self) -> dict[str, Any]:
        """The fixed parameters merged into every point."""
        return dict(self._constants)

    def __len__(self) -> int:
        total = 1
        for values in self._grid.values():
            total *= len(values)
        return total

    def points(self) -> Iterator[dict[str, Any]]:
        """Iterate over all parameter points (grid values merged with constants)."""
        names = list(self._grid)
        for combination in product(*(self._grid[name] for name in names)):
            point = dict(self._constants)
            point.update(dict(zip(names, combination)))
            yield point

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return self.points()

    def restrict(self, **subset: Sequence[Any]) -> "ParameterSweep":
        """Return a new sweep with some parameters restricted to the given values."""
        new_grid: dict[str, Sequence[Any]] = dict(self._grid)
        for key, values in subset.items():
            if key not in new_grid:
                raise ConfigurationError(f"parameter {key!r} is not part of the sweep")
            new_grid[key] = list(values)
        return ParameterSweep(new_grid, constants=self._constants)

    def __repr__(self) -> str:
        sizes = ", ".join(f"{k}×{len(v)}" for k, v in self._grid.items())
        return f"ParameterSweep({sizes}, points={len(self)})"


def sweep_grid(**grid: Sequence[Any] | Any) -> ParameterSweep:
    """Keyword-argument convenience constructor for :class:`ParameterSweep`."""
    return ParameterSweep(grid)
