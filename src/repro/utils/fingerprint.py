"""Canonical fingerprints shared by checkpoints, the artifact store and caches.

Three layers of the repo need a stable identity for "the same computation":

* the engine's :class:`~repro.engine.checkpoint.CheckpointStore` must refuse
  to resume a run whose budget/seed/experiment differ from the shards on
  disk;
* the service's :class:`~repro.service.store.ArtifactStore` keys persisted
  results by run fingerprint so a repeated submission is a row lookup instead
  of a recompute;
* the service's :class:`~repro.service.cache.AnalysisCache` keys live
  :class:`~repro.analysis_api.NetworkAnalysis` handles by the *instance* they
  wrap so repeated queries hit memoized artifacts.

This module is the single home of that identity logic: canonical JSON (sorted
keys, compact separators — so two structurally equal payloads serialise to
the same bytes regardless of insertion order) hashed with ``blake2b``, plus
the exact legacy digest formats the pre-existing checkpoint metadata used
(kept byte-identical so old checkpoint directories stay resumable —
``tests/test_fingerprint.py`` pins this).
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING, Any, Mapping

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..core.temporal_graph import TemporalGraph

__all__ = [
    "canonical_json",
    "fingerprint",
    "parameters_digest",
    "seed_fingerprint",
    "checkpoint_fingerprint",
    "graph_fingerprint",
]

#: blake2b digest size (bytes) of every hex fingerprint this module mints.
DIGEST_SIZE = 16


def _jsonable(value: Any) -> Any:
    """Coerce the few non-JSON types fingerprint payloads legitimately carry."""
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, tuple):
        return list(value)
    raise TypeError(
        f"object of type {type(value).__name__} is not fingerprintable: {value!r}"
    )


def canonical_json(payload: Any) -> str:
    """Serialise ``payload`` to canonical JSON.

    Keys are sorted and separators are compact, so two payloads that compare
    equal as nested dicts/lists produce identical bytes no matter how they
    were built.  Tuples serialise as lists; numpy scalars as their Python
    equivalents; anything else non-JSON raises :class:`TypeError` rather than
    silently hashing a ``repr``.
    """
    return json.dumps(
        payload,
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=True,
        allow_nan=False,
        default=_jsonable,
    )


def fingerprint(payload: Any) -> str:
    """Hex blake2b digest of the canonical JSON form of ``payload``."""
    encoded = canonical_json(payload).encode("utf-8")
    return hashlib.blake2b(encoded, digest_size=DIGEST_SIZE).hexdigest()


# --------------------------------------------------------------------- #
# the engine's checkpoint fingerprint (legacy formats, kept byte-identical)
# --------------------------------------------------------------------- #
def parameters_digest(parameters: Mapping[str, object]) -> str:
    """Stable, human-readable identity of a parameter point.

    Part of the checkpoint fingerprint: two runs of the same-named experiment
    at different parameter points must never share a checkpoint.  The format
    predates this module and is pinned — changing it would orphan every
    existing checkpoint directory.
    """
    return repr(sorted((str(key), repr(value)) for key, value in parameters.items()))


def seed_fingerprint(entropy: object, spawn_key: tuple[int, ...]) -> str:
    """Stable identifier of a master seed (entropy + spawn key).

    Same byte-for-byte format :meth:`repro.engine.sharding.SeedPlan.fingerprint`
    has always written into checkpoint metadata.
    """
    return f"entropy={entropy!r};spawn_key={spawn_key!r}"


def checkpoint_fingerprint(
    *,
    experiment: str,
    parameters: Mapping[str, object],
    budget: int,
    shard_size: int,
    num_shards: int,
    seed: str,
) -> dict[str, Any]:
    """The engine run identity the checkpoint store verifies on resume.

    Key order matters: ``meta.json`` is written with insertion order
    preserved, and existing checkpoint directories must keep verifying.
    ``seed`` is a pre-formatted :func:`seed_fingerprint` string.
    ``collect_values`` and ``reservoir_capacity`` are constants: they named
    options of a streaming mode that no longer exists, and keeping their
    values keeps ``meta.json`` byte-identical.
    """
    return {
        "experiment": experiment,
        "parameters": parameters_digest(parameters),
        "budget": budget,
        "shard_size": shard_size,
        "num_shards": num_shards,
        "collect_values": True,
        "reservoir_capacity": 1024,
        "seed": seed,
    }


# --------------------------------------------------------------------- #
# temporal-network instance fingerprints (the analysis-cache key)
# --------------------------------------------------------------------- #
def graph_fingerprint(network: "TemporalGraph") -> str:
    """Canonical fingerprint of one temporal-network instance.

    Hashes the structural identity a sweep actually consumes — vertex/edge
    counts, directedness, lifetime and the flat time-arc arrays — so two
    instances built through different constructors (mapping vs. label matrix)
    but describing the same network fingerprint identically, while any
    differing label lands a different digest.
    """
    digest = hashlib.blake2b(digest_size=DIGEST_SIZE)
    header = canonical_json(
        {
            "kind": "temporal-graph-v1",
            "n": network.n,
            "m": network.m,
            "directed": network.directed,
            "lifetime": network.lifetime,
            "num_time_arcs": network.num_time_arcs,
        }
    )
    digest.update(header.encode("utf-8"))
    for array in (
        network.time_arc_tails,
        network.time_arc_heads,
        network.time_arc_labels,
    ):
        digest.update(np.ascontiguousarray(array, dtype=np.int64).tobytes())
    return digest.hexdigest()
