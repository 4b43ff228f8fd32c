"""The transport-agnostic analysis service application.

:class:`ServiceApp` wires the persistent :class:`~repro.service.store.ArtifactStore`,
the :class:`~repro.service.cache.AnalysisCache` of live analysis handles and
the :class:`~repro.service.jobs.JobManager` into one object whose methods are
plain ``payload-in, payload-out`` handlers.  The transport stays thin: the
stdlib :mod:`http.server` daemon (:mod:`repro.service.http_stdlib`) only
parses requests, routes them into these handler methods and serialises the
results, so the test suite pins behaviour here, below any transport.

Handler errors raise :class:`ServiceError` with an HTTP status code; anything
else escaping a handler is a 500.  Every handler bumps ``service.requests``
plus a per-endpoint counter on the app's own telemetry recorder, which
``GET /stats`` serves back.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from ..core import kernels
from ..exceptions import ConfigurationError
from ..scenarios import (
    GraphFamilySpec,
    LabelModelSpec,
    Scenario,
    get_scenario,
)
from ..scenarios.families import build_graph
from ..scenarios.labelmodels import sample_labels
from ..telemetry import TelemetryRecorder
from ..utils.fingerprint import fingerprint
from ..utils.logging import get_logger
from .cache import DEFAULT_CACHE_CAPACITY, AnalysisCache
from .jobs import JobManager
from .store import ArtifactStore

__all__ = ["ServiceApp", "ServiceError", "QUERY_OPS", "CENTRALITY_MEASURES"]

_LOGGER = get_logger("service.app")

#: Operations ``POST /query`` dispatches on.
QUERY_OPS = (
    "distances_from",
    "distances_to",
    "latest_departure",
    "reverse_reachable_set",
    "centrality",
)

#: Centrality measures the ``centrality`` op accepts.
CENTRALITY_MEASURES = ("closeness", "harmonic", "influence", "reach")


class ServiceError(Exception):
    """A handler-level error carrying the HTTP status it maps to."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message

    def to_payload(self) -> dict[str, Any]:
        return {"error": self.message, "status": self.status}


def _require(payload: Mapping[str, Any], key: str) -> Any:
    value = payload.get(key)
    if value is None:
        raise ServiceError(400, f"request is missing required field {key!r}")
    return value


def _vertex(payload: Mapping[str, Any], key: str, n: int) -> int:
    value = _require(payload, key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ServiceError(400, f"field {key!r} must be an integer vertex id")
    if not 0 <= value < n:
        raise ServiceError(
            400, f"field {key!r} must be a vertex id in [0, {n - 1}], got {value}"
        )
    return value


def _object(key: str, value: Any) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise ServiceError(400, f"field {key!r} must be a JSON object")
    return value


def _spec(payload: Mapping[str, Any], key: str, spec_type: Any) -> Any:
    """``spec_type.from_dict`` of the required JSON object ``payload[key]``."""
    data = _object(key, _require(payload, key))
    try:
        return spec_type.from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise ServiceError(400, f"field {key!r} is malformed: {exc!r}") from exc


def _params(payload: Mapping[str, Any]) -> dict[str, Any]:
    return dict(_object("params", payload.get("params", {})))


class ServiceApp:
    """The analysis service: submission, results, live queries, stats.

    Parameters
    ----------
    data_dir:
        Root of all persistent state: ``store.sqlite3`` plus per-run engine
        checkpoint directories under ``checkpoints/<fingerprint>/``.
    cache_capacity:
        Bound on live :class:`~repro.analysis_api.NetworkAnalysis` handles.
    engine_jobs:
        Worker processes per scenario run (``None`` = serial engine).
    """

    def __init__(
        self,
        *,
        data_dir: str | Path,
        cache_capacity: int = DEFAULT_CACHE_CAPACITY,
        engine_jobs: int | None = None,
    ) -> None:
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.recorder = TelemetryRecorder()
        self.store = ArtifactStore(self.data_dir / "store.sqlite3")
        self.cache = AnalysisCache(cache_capacity)
        self.jobs = JobManager(
            self.store,
            data_dir=self.data_dir,
            engine_jobs=engine_jobs,
            recorder=self.recorder,
        )
        self.started_at = time.time()

    def close(self) -> None:
        """Stop the job worker (idempotent); persisted state stays on disk."""
        self.jobs.shutdown()

    def _count(self, endpoint: str) -> None:
        self.recorder.counter("service.requests")
        self.recorder.counter(f"service.requests.{endpoint}")

    # ------------------------------------------------------------------ #
    # POST /scenarios
    # ------------------------------------------------------------------ #
    def submit_scenario(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        """Submit a scenario run; returns the job snapshot.

        ``payload["scenario"]`` is either a registry name or an inline
        scenario document (the :meth:`~repro.scenarios.Scenario.to_dict`
        shape); ``scale`` and ``seed`` are optional.
        """
        self._count("scenarios")
        spec = _require(payload, "scenario")
        try:
            if isinstance(spec, str):
                scenario = get_scenario(spec)
            elif isinstance(spec, Mapping):
                scenario = Scenario.from_dict(spec)
            else:
                raise ServiceError(
                    400, "field 'scenario' must be a registry name or a document"
                )
            scale = str(payload.get("scale", "default"))
            seed = payload.get("seed")
            if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
                raise ServiceError(400, "field 'seed' must be an integer")
            return self.jobs.submit(scenario, scale=scale, seed=seed)
        except ConfigurationError as exc:
            raise ServiceError(400, str(exc)) from exc

    # ------------------------------------------------------------------ #
    # GET /jobs/{id} and GET /results/{fingerprint}
    # ------------------------------------------------------------------ #
    def job_status(self, job_id: str) -> dict[str, Any]:
        """Snapshot of one job (404 for unknown ids)."""
        self._count("jobs")
        snapshot = self.jobs.status(job_id)
        if snapshot is None:
            raise ServiceError(404, f"unknown job {job_id!r}")
        return snapshot

    def cancel_job(self, job_id: str) -> dict[str, Any]:
        """Request cooperative cancellation of one job."""
        self._count("jobs_cancel")
        try:
            return self.jobs.cancel(job_id)
        except ConfigurationError as exc:
            raise ServiceError(404, str(exc)) from exc

    def result(self, fingerprint: str) -> dict[str, Any]:
        """The persisted run record of one fingerprint (404 when absent)."""
        self._count("results")
        record = self.store.get_run(fingerprint)
        if record is None:
            raise ServiceError(404, f"no stored run for fingerprint {fingerprint!r}")
        return record.to_payload()

    # ------------------------------------------------------------------ #
    # POST /query
    # ------------------------------------------------------------------ #
    def _query_spec_key(self, payload: Mapping[str, Any]) -> str:
        """Canonical fingerprint of the network *request* (not the instance).

        Round-tripping through the spec dataclasses normalises defaults, so
        two spellings of the same request share a key.  The key is registered
        as a cache alias of the instance fingerprint it produces: a repeat
        query resolves spec → handle without rebuilding the network.
        """
        graph_spec = _spec(payload, "graph", GraphFamilySpec)
        labels_spec = _spec(payload, "labels", LabelModelSpec)
        seed = _require(payload, "seed")
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ServiceError(400, "field 'seed' must be an integer")
        return fingerprint(
            {
                "kind": "query-network-v1",
                "graph": graph_spec.to_dict(),
                "labels": labels_spec.to_dict(),
                "params": _params(payload),
                "seed": seed,
            }
        )

    def _build_network(self, payload: Mapping[str, Any]):
        graph_spec = _spec(payload, "graph", GraphFamilySpec)
        labels_spec = _spec(payload, "labels", LabelModelSpec)
        seed = _require(payload, "seed")
        params = _params(payload)
        try:
            graph = build_graph(graph_spec, params)
            rng = np.random.default_rng(seed)
            network, _extras = sample_labels(labels_spec, graph, params, rng)
        except (ConfigurationError, TypeError, KeyError, ValueError) as exc:
            raise ServiceError(
                400, f"query graph/labels specs are invalid: {exc}"
            ) from exc
        if network is None:
            raise ServiceError(
                400, "query graph/labels specs describe no temporal network"
            )
        return network

    def query(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        """Answer one analytical query against a cached analysis handle.

        A spec whose handle is resident resolves through its alias without
        a rebuild.  Otherwise the temporal network is rebuilt
        deterministically from ``(graph, labels, params, seed)`` — cheap
        relative to any sweep — and the cache files it under the instance key
        the spec already names, fingerprinting only a spec it has never seen;
        repeat queries against the same network hit the same live handle and
        therefore its memoized artifacts.
        """
        self._count("query")
        op = str(_require(payload, "op"))
        if op not in QUERY_OPS:
            raise ServiceError(
                400, f"unknown op {op!r}; expected one of {', '.join(QUERY_OPS)}"
            )
        try:
            spec_key = self._query_spec_key(payload)
            aliased = self.cache.get_by_alias(spec_key)
            if aliased is not None:
                key, handle = aliased
                hit = True
            else:
                key, handle, hit = self.cache.get_or_create(
                    self._build_network(payload),
                    alias=spec_key,
                    factory=self._handle_factory,
                )
            start = time.perf_counter()
            n = handle.n
            if op == "distances_from":
                source = _vertex(payload, "source", n)
                result: Any = handle.distances_from([source])[0].tolist()
            elif op == "distances_to":
                target = _vertex(payload, "target", n)
                result = handle.distances_to([target])[0].tolist()
            elif op == "latest_departure":
                result = handle.latest_departure(
                    _vertex(payload, "source", n), _vertex(payload, "target", n)
                )
            elif op == "reverse_reachable_set":
                result = handle.reverse_reachable_set(
                    _vertex(payload, "target", n)
                ).tolist()
            else:  # centrality
                measure = str(payload.get("measure", "closeness"))
                if measure not in CENTRALITY_MEASURES:
                    raise ServiceError(
                        400,
                        f"unknown centrality measure {measure!r}; expected one "
                        f"of {', '.join(CENTRALITY_MEASURES)}",
                    )
                arrays = {
                    "closeness": handle.closeness,
                    "harmonic": handle.harmonic_closeness,
                    "influence": handle.influence_counts,
                    "reach": handle.reach_counts,
                }
                result = arrays[measure]().tolist()
            self.recorder.observe_ms(
                "service.query_ms", (time.perf_counter() - start) * 1e3
            )
        except ConfigurationError as exc:
            raise ServiceError(400, str(exc)) from exc
        return {
            "op": op,
            "graph_fingerprint": key,
            "cache_hit": hit,
            "n": handle.n,
            "lifetime": handle.network.lifetime,
            "result": result,
        }

    def _handle_factory(self, network):
        from ..analysis_api import NetworkAnalysis

        return NetworkAnalysis(network)

    # ------------------------------------------------------------------ #
    # GET /healthz and GET /stats
    # ------------------------------------------------------------------ #
    def healthz(self) -> dict[str, Any]:
        """Liveness: identity and configuration, cheap enough to poll."""
        self._count("healthz")
        return {
            "status": "ok",
            "schema_version": self.store.migrated_version,
            "uptime_s": time.time() - self.started_at,
            "kernel_backend": kernels.default_backend(),
            "engine_jobs": self.jobs.engine_jobs,
        }

    def stats(self) -> dict[str, Any]:
        """Operational snapshot: store, cache, jobs and telemetry counters."""
        self._count("stats")
        return {
            "store": self.store.counts(),
            "cache": self.cache.stats(),
            "jobs": self.jobs.counts(),
            "counters": dict(self.recorder.counters),
        }

    def __repr__(self) -> str:
        return f"ServiceApp(data_dir={str(self.data_dir)!r})"
