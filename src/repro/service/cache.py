"""A bounded LRU of live :class:`~repro.analysis_api.NetworkAnalysis` handles.

The handle layer (PR 4) already memoizes every artifact *within* one handle —
arrival matrix, reverse columns, centrality — so the expensive thing left to
share across service requests is the handle itself.  This cache keys handles
by the canonical instance fingerprint
(:func:`repro.utils.fingerprint.graph_fingerprint`), so two requests that
describe the same temporal network — even through different spec spellings —
land on the same handle and its already-computed artifacts: a repeated
single-target query costs a dictionary lookup instead of a reverse sweep.

Eviction is strict LRU under a fixed capacity.  Evicting a handle only drops
cached artifacts (they recompute on the next miss), never correctness.  All
operations are thread-safe; the HTTP layer calls into the cache from
concurrent request threads.

Alias layer
-----------
Instance fingerprints require the instance — and *building* the instance
(sampling tens of thousands of labels) costs far more than any memoized
query against it.  The alias map short-circuits that: the service registers
the canonical fingerprint of the **request spec** (graph family, label
model, params, seed) as an alias of the instance fingerprint it produced, so
a repeat query resolves spec → handle with two dictionary lookups and never
rebuilds the network.  Aliases are a bounded LRU of strings.  An alias
whose handle was evicted misses; the service rebuilds the network and
:meth:`AnalysisCache.get_or_create` files it under the key the alias
already names, without hashing it again: a seeded spec fixes its instance.
Only a spec the cache has never seen pays :func:`graph_fingerprint`, so that
two spellings of one instance still meet on one handle; ``fingerprints``
counts those calls.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Callable

from .. import telemetry
from ..utils.fingerprint import graph_fingerprint
from ..utils.validation import check_positive_int

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analysis_api import NetworkAnalysis
    from ..core.temporal_graph import TemporalGraph

__all__ = ["AnalysisCache", "DEFAULT_CACHE_CAPACITY"]

#: Default number of live handles kept resident.  Each handle can pin up to
#: O(n²) of arrival/departure matrices, so the bound is deliberately modest.
DEFAULT_CACHE_CAPACITY = 32


def _counter(name: str, value: int = 1) -> None:
    for rec in telemetry.active():
        rec.counter(name, value)


class AnalysisCache:
    """Bounded, thread-safe LRU: graph fingerprint → analysis handle."""

    #: Aliases kept per handle slot; aliases are tiny (two hex strings), so
    #: the map may comfortably outnumber the handles it points at.
    ALIASES_PER_SLOT = 8

    def __init__(self, capacity: int = DEFAULT_CACHE_CAPACITY) -> None:
        self._capacity = check_positive_int(capacity, "capacity")
        self._entries: "OrderedDict[str, NetworkAnalysis]" = OrderedDict()
        self._aliases: "OrderedDict[str, str]" = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.fingerprints = 0

    @property
    def capacity(self) -> int:
        """Maximum number of resident handles."""
        return self._capacity

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self) -> list[str]:
        """Resident fingerprints, least- to most-recently used."""
        with self._lock:
            return list(self._entries)

    # ------------------------------------------------------------------ #
    # lookup / insert
    # ------------------------------------------------------------------ #
    def get(self, key: str) -> "NetworkAnalysis | None":
        """The handle cached under ``key``, refreshed to most-recently-used."""
        with self._lock:
            handle = self._entries.get(key)
            if handle is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                _counter("service.cache.hit")
                return handle
            self.misses += 1
            _counter("service.cache.miss")
            return None

    def put(self, key: str, handle: "NetworkAnalysis") -> None:
        """Insert (or refresh) a handle, evicting the LRU entry past capacity."""
        with self._lock:
            self._entries[key] = handle
            self._entries.move_to_end(key)
            while len(self._entries) > self._capacity:
                evicted, _ = self._entries.popitem(last=False)
                self.evictions += 1
                _counter("service.cache.evict")
                del evicted

    # ------------------------------------------------------------------ #
    # spec aliases
    # ------------------------------------------------------------------ #
    def get_by_alias(self, alias: str) -> "tuple[str, NetworkAnalysis] | None":
        """Resolve a registered alias straight to ``(key, handle)``.

        Returns ``None`` — without touching the hit/miss statistics — when
        the alias is unknown or its handle has been evicted; the caller then
        rebuilds through :meth:`get_or_create`, which records the miss.
        """
        with self._lock:
            key = self._aliases.get(alias)
            if key is None:
                return None
            handle = self._entries.get(key)
            if handle is None:
                return None
            self._aliases.move_to_end(alias)
            self._entries.move_to_end(key)
            self.hits += 1
            _counter("service.cache.hit")
            return key, handle

    def alias(self, alias: str, key: str) -> None:
        """Register ``alias`` as another name of the handle cached at ``key``."""
        with self._lock:
            self._aliases[alias] = key
            self._aliases.move_to_end(alias)
            while len(self._aliases) > self._capacity * self.ALIASES_PER_SLOT:
                self._aliases.popitem(last=False)

    def get_or_create(
        self,
        network: "TemporalGraph",
        *,
        alias: str | None = None,
        factory: Callable[["TemporalGraph"], "NetworkAnalysis"] | None = None,
    ) -> tuple[str, "NetworkAnalysis", bool]:
        """Key ``network`` and return ``(key, handle, hit)``.

        The key is the instance key that ``alias`` already names, if any, and
        otherwise :func:`graph_fingerprint` of ``network`` (counted in
        :attr:`fingerprints`).  The fingerprint-then-lookup is what lets a
        *rebuilt* instance of the same network — same graph spec, same label
        model, same seed — hit the handle, and therefore the memoized
        artifacts, of an earlier request.  ``alias`` must name the spec that
        ``network`` was built from, so that the key it names is ``network``'s
        own; it is registered for the key in the same call.

        On a miss a fresh handle is built (``factory`` defaults to the plain
        :class:`~repro.analysis_api.NetworkAnalysis` constructor) and cached.
        """
        with self._lock:
            key = None if alias is None else self._aliases.get(alias)
        if key is None:
            key = graph_fingerprint(network)
            with self._lock:
                self.fingerprints += 1
                _counter("service.cache.fingerprint")
        with self._lock:
            handle = self.get(key)
            hit = handle is not None
            if not hit:
                if factory is None:
                    from ..analysis_api import NetworkAnalysis

                    handle = NetworkAnalysis(network)
                else:
                    handle = factory(network)
                self.put(key, handle)
            if alias is not None:
                self.alias(alias, key)
            return key, handle, hit

    # ------------------------------------------------------------------ #
    # maintenance
    # ------------------------------------------------------------------ #
    def clear(self) -> None:
        """Drop every resident handle and alias (they rebuild on next use)."""
        with self._lock:
            self._entries.clear()
            self._aliases.clear()

    def stats(self) -> dict[str, Any]:
        """Hit/miss/eviction/fingerprint counts and the hit rate (the /stats payload)."""
        with self._lock:
            lookups = self.hits + self.misses
            return {
                "size": len(self._entries),
                "capacity": self._capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "fingerprints": self.fingerprints,
                "hit_rate": (self.hits / lookups) if lookups else 0.0,
            }

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"AnalysisCache(size={len(self._entries)}, "
                f"capacity={self._capacity}, hits={self.hits}, "
                f"misses={self.misses})"
            )
