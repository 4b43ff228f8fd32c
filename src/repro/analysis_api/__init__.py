"""The public per-instance compute API: the :class:`NetworkAnalysis` handle.

This package is the one entry point for computing quantities of a single
temporal-network instance.  Construct a :class:`NetworkAnalysis` from a
:class:`~repro.core.temporal_graph.TemporalGraph` and read any derived
quantity — the shared artifacts (arrival matrix, eccentricities, reachability
mask, distance summary, expansion traces, PoR audits) are computed lazily and
memoized, so however many views you read, each underlying sweep runs at most
once.

The handle only memoizes plain :mod:`repro.core` reductions
(:class:`DistanceSummary` lives in :mod:`repro.core.distances`); each
per-instance quantity has no other public entry point.  ``docs/api.md``
documents the full surface and the removed free functions' replacements.

Cache behaviour is observable: :func:`compute_events` opens a scoped probe
over artifact computations and cache hits (built on :mod:`repro.telemetry`).
"""

from .handle import (
    ComputeEvents,
    DistanceSummary,
    NetworkAnalysis,
    PorAudit,
    compute_events,
)

__all__ = [
    "ComputeEvents",
    "DistanceSummary",
    "NetworkAnalysis",
    "PorAudit",
    "compute_events",
]
