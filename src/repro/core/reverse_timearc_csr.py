"""Time-reversed CSR layout: the forward layout of the mirrored time arcs.

Labels are drawn from ``{1, …, a}``, and a latest-departure sweep towards a
target is an earliest-arrival sweep from it over the time-reversed network:
every arc flipped, every label ``l`` mirrored to ``a + 1 − l``.  Every reverse
sweep therefore runs the forward kernel over an ordinary
:class:`~repro.core.timearc_csr.TimeArcCSR` of the mirrored arcs, cached on
the network next to the forward layout and, like it, built through a label
bound that the sweep grows on demand.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .timearc_csr import TimeArcCSR, _build_layout

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .temporal_graph import TemporalGraph

__all__ = ["build_reverse_timearc_csr"]


def build_reverse_timearc_csr(
    network: "TemporalGraph", through: int | None = None
) -> TimeArcCSR:
    """The forward layout of ``network``'s arcs flipped, labels ``l → a + 1 − l``.

    No mirrored label column is built: the builder sorts the keys
    ``max − l``, which order the mirrored labels as they do, in the
    narrowest unsigned type that holds the label span.  A network with one
    label per edge starts from the tail order its graph keeps.  With
    ``through`` it lays out only the arcs whose mirrored label is at most
    ``through`` (those labelled at least ``a + 1 − through``): the first
    groups of the whole time-reversed layout.
    """
    arcs = network._shared_arcs
    return _build_layout(
        network.n,
        network.lifetime,
        network.time_arc_heads,
        network.time_arc_tails,
        network.time_arc_labels,
        None if arcs is None else arcs.tail_order,
        mirrored=True,
        through=through,
    )
