"""Pluggable compiled kernel backends for the time-arc sweeps.

Every quantity the framework computes — temporal distances, diameter,
reachability, the Theorem 5 audits, the centrality family — bottoms out in
the per-label-group advance loop of
:func:`repro.core.journeys.earliest_arrival_matrix`.  Its reverse twin
:func:`repro.core.reverse_journeys.latest_departure_matrix` runs the same
loop over the time-reversed layout (arcs flipped, labels ``l → a + 1 − l``),
so there is one loop to make fast.  This package makes it pluggable: a
backend implements the :class:`SweepKernelBackend` protocol (advance a
packed ``(n, ⌈width/64⌉)`` ``reached`` bitset over the label groups of a CSR
layout, emitting only the outputs the caller asks for) and registers itself
here; the sweep entry points resolve a backend per call and delegate the hot
loop to it.

Registered backends
-------------------
``numpy``
    The vectorised reference implementation (packed-bit segment-OR,
    saturation early-exit) — always available, and the bit-exactness
    baseline every other backend is pinned against.
``numba``
    The scalar loops of :mod:`repro.core.kernels._loops` JIT-compiled with
    ``numba.njit(cache=True)``.  Preferred automatically when numba is
    importable and the warm-up compilation succeeds.
``python``
    The scalar loops run *interpreted*.  Orders of magnitude slower than
    ``numpy`` and therefore never auto-selected (negative priority), but it
    keeps the exact loop logic the compiled backends execute under test in
    environments without a compiler.

Selection order (first match wins)
----------------------------------
1. the per-call ``backend=`` keyword of the sweep entry points;
2. the process default installed with :func:`set_default_backend` (the
   ``--kernel-backend`` CLI flag sets this);
3. the ``REPRO_KERNEL_BACKEND`` environment variable;
4. automatic: the highest-priority backend that is importable *and* passes
   its warm-up (compilation) — ``numba`` where installed, else ``numpy``.

Fallback rules: an **explicit** request (per-call keyword,
:func:`set_default_backend`) for a backend that is missing or fails to JIT
raises :class:`~repro.exceptions.ConfigurationError` — you asked for it by
name, silently computing on another backend would be a lie.  The **ambient**
paths (environment variable, automatic selection) degrade gracefully: a
``RuntimeWarning`` is emitted once per backend name and resolution falls
through to the next candidate, so NumPy-only environments run everything
unchanged.

Warm-up: a backend's :meth:`~SweepKernelBackend.warm_up` performs any
one-time compilation on a tiny throwaway instance.  The registry calls it at
most once per process (``numba`` additionally persists machine code across
processes via its on-disk cache), and the benchmarks call it explicitly so
JIT time never pollutes a timing.
"""

from __future__ import annotations

import os
import warnings
from contextlib import contextmanager
from typing import Iterator, Protocol, runtime_checkable

import numpy as np

from ...exceptions import ConfigurationError

__all__ = [
    "ENV_VAR",
    "SweepKernelBackend",
    "available_backends",
    "backend_names",
    "backend_scope",
    "backend_unavailable_reason",
    "default_backend",
    "get_backend",
    "register_backend",
    "resolve_backend",
    "set_default_backend",
]

#: Environment variable consulted when no per-call or process default is set.
ENV_VAR = "REPRO_KERNEL_BACKEND"

#: Reserved name meaning "pick the best available backend".
AUTO = "auto"


@runtime_checkable
class SweepKernelBackend(Protocol):
    """What a sweep kernel backend must provide.

    A backend advances the packed ``reached`` bitset over the label groups
    of a :class:`~repro.core.timearc_csr.TimeArcCSR`, ascending from
    ``first_group``, and reports ``(groups_scanned, saturated)`` for the
    telemetry record.  ``reached`` is an ``(n, ⌈width/64⌉)`` ``uint64``
    array, one row per vertex and one bit per column (the sources in
    flight; ``width == 1`` is the single-source case).  Column ``s`` is bit
    ``7 − s % 8`` of byte ``s // 8`` of the row's ``uint8`` view, the
    ``np.packbits`` order.  The caller sets each column's start bit and
    leaves the padding bits clear, so the columns are the bits set at the
    start.  An entry *settles* at the label group where the sweep first
    reaches it.  The optional outputs are computed only when passed:

    ``arrivals``
        ``(n, width)`` ``int64`` earliest arrivals, set to each settling
        group's label (dense matrices, journeys, service queries, spills);
    ``settled``
        ``(G,)`` ``int64`` zeros; ``settled[g]`` counts the entries group
        ``g`` settles (blocked summaries);
    ``last``
        ``(width,)`` ``int64``; ``last[s]`` becomes the label of the last
        group that settled anything in column ``s`` (blocked summaries).

    With none of them the final bitset is the answer (reachability).
    Results must be bit-identical to the ``numpy`` reference backend for
    every input (pinned by the oracle cross-check and parity suites).

    A reverse (latest-departure) sweep is the same advance over the
    time-reversed layout :attr:`TemporalGraph.reverse_timearc_csr`, whose
    columns are the targets.  ``reverse_sweep`` keeps its own name so that
    telemetry and profilers can tell the two directions apart; every
    built-in backend binds it to the same function
    (``reverse_sweep = forward_sweep``).

    Precondition: every column starts below the first scanned label — its
    start value (``start_time`` forward, the mirrored deadline
    ``a − deadline`` reverse, which is negative for a deadline beyond the
    lifetime) — and every other entry starts unreached
    (:data:`~repro.types.UNREACHABLE` in ``arrivals``).  The four sweep
    entry points (``earliest_arrival_times`` / ``_matrix``,
    ``latest_departure_times`` / ``_matrix``) guarantee it; the ``numpy``
    backend relies on it to detect saturation by counting settled entries.
    """

    #: Unique registry key (also the value of the ``backend=`` kwarg,
    #: ``--kernel-backend`` flag and :data:`ENV_VAR`).
    name: str
    #: Automatic-selection rank: highest available wins.  Backends with a
    #: negative priority are never auto-selected (testing-only backends).
    priority: int

    def availability(self) -> str | None:
        """``None`` when the backend can run here, else a human-readable reason."""

    def warm_up(self) -> None:
        """Perform any one-time (JIT) compilation; idempotent."""

    def forward_sweep(
        self,
        csr,
        reached: np.ndarray,
        first_group: int,
        *,
        arrivals: np.ndarray | None = None,
        settled: np.ndarray | None = None,
        last: np.ndarray | None = None,
    ) -> tuple[int, bool]:
        """Advance ``reached`` over groups ``first_group ...`` ascending."""

    def reverse_sweep(
        self,
        csr,
        reached: np.ndarray,
        first_group: int,
        *,
        arrivals: np.ndarray | None = None,
        settled: np.ndarray | None = None,
        last: np.ndarray | None = None,
    ) -> tuple[int, bool]:
        """:meth:`forward_sweep` over the time-reversed layout."""


_REGISTRY: dict[str, SweepKernelBackend] = {}
#: Backends whose warm-up has already succeeded this process.
_ready: set[str] = set()
#: Backend name → reason, for backends whose warm-up failed this process.
_failed: dict[str, str] = {}
#: Backend names an ambient-path fallback warning was already emitted for.
_warned: set[str] = set()
#: The process default installed by :func:`set_default_backend` (None = unset).
_default_name: str | None = None
#: Memoized ambient resolution: (effective request name, backend).
_cached_ambient: tuple[str, SweepKernelBackend] | None = None


def register_backend(backend: SweepKernelBackend, *, replace: bool = False) -> None:
    """Register a backend under ``backend.name``.

    Third-party backends only need to satisfy :class:`SweepKernelBackend`
    and call this; they become selectable by name everywhere (kwarg, CLI,
    environment variable) and are picked up by the cross-validation suites.
    """
    global _cached_ambient
    name = backend.name
    if not name or name == AUTO:
        raise ConfigurationError(f"invalid kernel backend name {name!r}")
    if name in _REGISTRY and not replace:
        raise ConfigurationError(
            f"kernel backend {name!r} is already registered; pass replace=True "
            "to override it"
        )
    _REGISTRY[name] = backend
    _ready.discard(name)
    _failed.pop(name, None)
    _warned.discard(name)
    _cached_ambient = None


def backend_names() -> tuple[str, ...]:
    """Names of every registered backend, best automatic priority first."""
    return tuple(
        sorted(_REGISTRY, key=lambda name: (-_REGISTRY[name].priority, name))
    )


def get_backend(name: str) -> SweepKernelBackend:
    """The registered backend called ``name`` (no availability check)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown kernel backend {name!r}; registered: {list(backend_names())}"
        ) from None


def backend_unavailable_reason(name: str) -> str | None:
    """Why ``name`` cannot run here (``None`` when it can).

    Combines the backend's own :meth:`~SweepKernelBackend.availability`
    answer with any warm-up failure recorded earlier in this process.
    """
    backend = get_backend(name)
    if name in _failed:
        return _failed[name]
    return backend.availability()


def available_backends() -> tuple[str, ...]:
    """Names of the registered backends that can run here, best first."""
    return tuple(
        name for name in backend_names() if backend_unavailable_reason(name) is None
    )


def _ensure_ready(backend: SweepKernelBackend) -> str | None:
    """Warm the backend up once; return ``None`` on success, else the reason."""
    name = backend.name
    if name in _ready:
        return None
    reason = backend_unavailable_reason(name)
    if reason is not None:
        return reason
    try:
        backend.warm_up()
    except Exception as exc:  # noqa: BLE001 - any compile failure must not crash
        reason = f"warm-up (JIT compilation) failed: {exc!r}"
        _failed[name] = reason
        return reason
    _ready.add(name)
    return None


def _auto_backend() -> SweepKernelBackend:
    """Highest-priority backend that warms up; ``numpy`` is the guaranteed floor."""
    for name in backend_names():
        backend = _REGISTRY[name]
        if backend.priority < 0:
            continue
        if _ensure_ready(backend) is None:
            return backend
    raise ConfigurationError(
        "no usable kernel backend is registered (the built-in numpy reference "
        "backend is missing — was the registry tampered with?)"
    )


def _resolve_strict(name: str) -> SweepKernelBackend:
    if name == AUTO:
        return _auto_backend()
    backend = get_backend(name)
    reason = _ensure_ready(backend)
    if reason is not None:
        raise ConfigurationError(
            f"kernel backend {name!r} is not usable here: {reason}"
        )
    return backend


def resolve_backend(name: str | None = None) -> SweepKernelBackend:
    """Resolve the backend one sweep call should use.

    ``name`` is the per-call request (strict: unknown or unusable names
    raise).  With ``name=None`` the ambient selection order applies —
    process default, then :data:`ENV_VAR`, then automatic — and unusable
    ambient requests fall back gracefully with a one-time
    ``RuntimeWarning``.
    """
    global _cached_ambient
    if name is not None:
        return _resolve_strict(name)
    requested = _default_name or os.environ.get(ENV_VAR) or AUTO
    if _cached_ambient is not None and _cached_ambient[0] == requested:
        return _cached_ambient[1]
    if requested == AUTO:
        backend = _auto_backend()
    else:
        try:
            backend = _resolve_strict(requested)
        except ConfigurationError as exc:
            if requested not in _warned:
                _warned.add(requested)
                warnings.warn(
                    f"{exc}; falling back to automatic kernel backend selection",
                    RuntimeWarning,
                    stacklevel=2,
                )
            backend = _auto_backend()
    _cached_ambient = (requested, backend)
    return backend


def default_backend() -> str:
    """Name of the backend an unqualified sweep call would use right now."""
    return resolve_backend(None).name


def set_default_backend(name: str | None) -> str | None:
    """Install ``name`` as the process-wide default; returns the previous one.

    The name is validated (and warmed up) eagerly, so a typo or a missing
    compiled backend fails at configuration time rather than mid-run.
    ``None`` clears the default, restoring environment-variable/automatic
    selection.  ``"auto"`` is accepted and pins automatic selection,
    shadowing the environment variable.
    """
    global _default_name, _cached_ambient
    if name is not None:
        _resolve_strict(name)
    previous = _default_name
    _default_name = name
    _cached_ambient = None
    return previous


@contextmanager
def backend_scope(name: str | None, *, strict: bool = True) -> Iterator[None]:
    """Temporarily install ``name`` as the process default.

    With ``strict=False`` an unusable name degrades to a one-time
    ``RuntimeWarning`` plus automatic selection instead of raising — the
    mode the parallel engine's workers use, so a shard shipped to a machine
    without the parent's compiled backend still runs (bit-identically, on
    the fallback backend) rather than dying.
    """
    global _default_name, _cached_ambient
    if name is not None and strict:
        _resolve_strict(name)
    elif name is not None and name != AUTO:
        try:
            _resolve_strict(name)
        except ConfigurationError as exc:
            if name not in _warned:
                _warned.add(name)
                warnings.warn(
                    f"{exc}; falling back to automatic kernel backend selection",
                    RuntimeWarning,
                    stacklevel=3,
                )
            name = AUTO
    previous = _default_name
    _default_name = name
    _cached_ambient = None
    try:
        yield
    finally:
        _default_name = previous
        _cached_ambient = None


def _register_builtin_backends() -> None:
    from .numba_backend import NumbaBackend
    from .numpy_backend import NumpyBackend
    from .python_backend import PythonLoopBackend

    register_backend(NumpyBackend())
    register_backend(NumbaBackend())
    register_backend(PythonLoopBackend())


_register_builtin_backends()
