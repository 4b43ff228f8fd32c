"""Shared telemetry emit helper for the CSR sweep kernels.

The sweep shared by both directions (``repro.core.journeys._sweep``, behind
:mod:`repro.core.journeys` and :mod:`repro.core.reverse_journeys`) checks
:func:`repro.telemetry.active` exactly once per call; when no recorder is
attached the only cost is that check plus a handful of scalar assignments, so
the disabled path stays indistinguishable from the uninstrumented kernels
(pinned by ``benchmarks/bench_telemetry.py``).  When recorders are active,
:func:`record_sweep` emits the per-sweep counters and the wall-clock timing in
one place so the forward and reverse sweeps report symmetric names
(``kernel.forward.*`` / ``kernel.reverse.*``).
"""

from __future__ import annotations

import time
from typing import Sequence

from ..telemetry import TelemetryRecorder, active

__all__ = ["active", "record_sweep"]


def record_sweep(
    recs: Sequence[TelemetryRecorder],
    prefix: str,
    *,
    start: float,
    tile_name: str,
    tile: int,
    groups: int,
    saturated: bool,
    backend: str,
) -> None:
    """Record one finished label-group sweep on every active recorder.

    Emits ``<prefix>.sweeps`` (one per kernel call), ``<prefix>.<tile_name>``
    (the batch width — sources or targets in flight), ``<prefix>.groups_scanned``
    (label groups actually visited before completion or early exit),
    ``<prefix>.saturation_exits`` (only when the sweep terminated early via the
    saturation check), ``<prefix>.backend.<backend>`` (which kernel backend ran
    the sweep — see :mod:`repro.core.kernels`) and the ``<prefix>.sweep_ms``
    wall-clock timing.
    """
    duration_ms = (time.perf_counter() - start) * 1e3
    for rec in recs:
        rec.counter(f"{prefix}.sweeps")
        rec.counter(f"{prefix}.{tile_name}", tile)
        rec.counter(f"{prefix}.groups_scanned", groups)
        if saturated:
            rec.counter(f"{prefix}.saturation_exits")
        rec.counter(f"{prefix}.backend.{backend}")
        rec.observe_ms(f"{prefix}.sweep_ms", duration_ms)
