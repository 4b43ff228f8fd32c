"""Time-reversed CSR layout: the forward layout of the mirrored time arcs.

Labels are drawn from ``{1, …, a}``, and a latest-departure sweep towards a
target is an earliest-arrival sweep from it over the time-reversed network:
every arc flipped, every label ``l`` mirrored to ``a + 1 − l``.  The reverse
kernels therefore run the forward kernels over an ordinary
:class:`~repro.core.timearc_csr.TimeArcCSR` of the mirrored arcs, cached as
:attr:`TemporalGraph.reverse_timearc_csr` next to the forward layout.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .timearc_csr import TimeArcCSR, _build_layout

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .temporal_graph import TemporalGraph

__all__ = ["build_reverse_timearc_csr"]


def build_reverse_timearc_csr(network: "TemporalGraph") -> TimeArcCSR:
    """The forward layout of ``network``'s arcs flipped, labels ``l → a + 1 − l``.

    Labels and their mirrors both lie in ``[1, a]``, so the mirrored column
    is written straight into the narrowest unsigned type that holds ``a``
    instead of a fresh ``int64`` column; the layout builder narrows it
    further only when no arc carries label 1.  A network with one label per
    edge starts from the tail order its graph keeps.
    """
    a = network.lifetime
    keys = network.time_arc_labels.astype(np.min_scalar_type(a))
    np.subtract(keys.dtype.type(a), keys, out=keys)
    keys += 1
    arcs = network._shared_arcs
    return _build_layout(
        network.n,
        a,
        network.time_arc_heads,
        network.time_arc_tails,
        keys,
        None if arcs is None else arcs.tail_order,
    )
