"""Exception hierarchy for the :mod:`repro` library.

Every exception raised intentionally by the library derives from
:class:`ReproError`, so downstream users can catch library failures with a
single ``except`` clause without accidentally swallowing unrelated errors.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "GraphError",
    "InvalidVertexError",
    "InvalidEdgeError",
    "LabelingError",
    "LifetimeError",
    "JourneyError",
    "UnreachableVertexError",
    "ExperimentError",
    "ConfigurationError",
    "SerializationError",
    "CheckpointError",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class GraphError(ReproError):
    """Raised for structural problems with a static or temporal graph."""


class InvalidVertexError(GraphError, IndexError):
    """Raised when a vertex index is outside ``range(n)`` for the graph."""

    def __init__(self, vertex: int, n: int) -> None:
        super().__init__(
            f"vertex {vertex!r} is not a valid vertex index for a graph with "
            f"{n} vertices (expected an integer in [0, {n - 1}])"
        )
        self.vertex = vertex
        self.n = n


class InvalidEdgeError(GraphError, KeyError):
    """Raised when an edge is referenced that does not exist in the graph."""

    def __init__(self, edge: tuple[int, int]) -> None:
        super().__init__(f"edge {edge!r} does not exist in the graph")
        self.edge = edge


class LabelingError(ReproError):
    """Raised when a temporal label assignment is invalid or inconsistent."""


class LifetimeError(LabelingError, ValueError):
    """Raised when labels fall outside the network lifetime ``{1, …, a}``."""

    def __init__(self, label: int, lifetime: int) -> None:
        super().__init__(
            f"label {label} is outside the network lifetime interval "
            f"[1, {lifetime}]"
        )
        self.label = label
        self.lifetime = lifetime


class JourneyError(ReproError):
    """Raised for invalid journey constructions (non-increasing labels, …)."""


class UnreachableVertexError(JourneyError):
    """Raised when a journey is requested between temporally unreachable vertices."""

    def __init__(self, source: int, target: int) -> None:
        super().__init__(
            f"no temporal journey exists from vertex {source} to vertex {target}"
        )
        self.source = source
        self.target = target


class ExperimentError(ReproError):
    """Raised when a Monte-Carlo experiment is misconfigured or fails."""


class ConfigurationError(ExperimentError, ValueError):
    """Raised for invalid experiment or sweep configuration values."""


class SerializationError(ReproError):
    """Raised when experiment results cannot be persisted or reloaded."""


class CheckpointError(SerializationError):
    """Raised when an engine checkpoint is corrupt or belongs to another run."""
