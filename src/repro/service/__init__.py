"""The analysis service: a long-lived serving layer over the memoized engine.

Everything below the HTTP surface is a plain library — usable without any
server at all:

* :mod:`repro.service.store` — :class:`ArtifactStore`, a SQLite (WAL)
  results/artifact store keyed by run fingerprints, idempotent per
  fingerprint, schema-versioned with in-place migration.
* :mod:`repro.service.cache` — :class:`AnalysisCache`, a bounded LRU of live
  :class:`~repro.analysis_api.NetworkAnalysis` handles keyed by canonical
  graph fingerprints.
* :mod:`repro.service.jobs` — :class:`JobManager`, asynchronous scenario runs
  through the checkpointing parallel engine: progress, cancellation,
  store-hit dedup and crash-resume.
* :mod:`repro.service.app` — :class:`ServiceApp`, the transport-agnostic
  handlers; the stdlib daemon in :mod:`repro.service.http_stdlib` exposes
  them over HTTP.

Start a server with the CLI (``repro-experiments serve``) or in-process::

    from repro.service import serve

    with serve(data_dir="./service-data") as server:
        print(server.url)       # ephemeral port by default
"""

from .app import CENTRALITY_MEASURES, QUERY_OPS, ServiceApp, ServiceError
from .cache import DEFAULT_CACHE_CAPACITY, AnalysisCache
from .http_stdlib import ServiceHTTPServer, serve
from .jobs import JobCancelled, JobManager
from .store import ArtifactStore, RunRecord, run_fingerprint

__all__ = [
    "ArtifactStore",
    "RunRecord",
    "run_fingerprint",
    "AnalysisCache",
    "DEFAULT_CACHE_CAPACITY",
    "JobManager",
    "JobCancelled",
    "ServiceApp",
    "ServiceError",
    "QUERY_OPS",
    "CENTRALITY_MEASURES",
    "ServiceHTTPServer",
    "serve",
]
