"""The sweep kernel behind every time-arc sweep.

Every quantity the framework computes — temporal distances, diameter,
reachability, the Theorem 5 audits, the centrality family — bottoms out in
the per-label-group advance loop of
:func:`repro.core.journeys.earliest_arrival_matrix`.  Its reverse twin
:func:`repro.core.reverse_journeys.latest_departure_matrix` runs the same
loop over the time-reversed layout (arcs flipped, labels ``l → a + 1 − l``),
so there is one packed loop, whose contract
:meth:`NumpyBackend.forward_sweep` states, beside one single-column loop
that serves both directions over the forward layout
(:meth:`NumpyBackend.reverse_sweep`).

:func:`set_default_backend` and :func:`default_backend` remain for callers
that pin or report the kernel by name (``serve --kernel-backend`` and its
``/healthz`` field); the one name they know is ``"numpy"``.
"""

from __future__ import annotations

from ...exceptions import ConfigurationError
from .numpy_backend import NumpyBackend

__all__ = ["NumpyBackend", "default_backend", "set_default_backend"]

#: The name of the one sweep kernel.
_NAME = "numpy"


def default_backend() -> str:
    """Name of the kernel every sweep runs on: always ``"numpy"``."""
    return _NAME


def set_default_backend(name: str) -> None:
    """Check that ``name`` is the one kernel, ``"numpy"``.

    Any other name raises :class:`~repro.exceptions.ConfigurationError`
    naming it, so a script that asks for another kernel fails instead of
    silently running this one.
    """
    if name != _NAME:
        raise ConfigurationError(
            f"unknown kernel backend {name!r}; the only kernel is {_NAME!r}"
        )
