"""Latest-departure journeys: the reverse sweeps, run as forward ones.

The forward kernels (:mod:`repro.core.journeys`) answer "departing ``s`` at
``start_time``, when does each vertex first hear the message?".  This module
answers the mirrored single-*target* questions in one sweep each:

* **latest departure** — for a target ``t`` and a deadline ``D`` (defaulting
  to the lifetime), the latest label at which a journey may leave each vertex
  and still reach ``t`` using labels ``<= D``;
* **reverse reachability** — which vertices can reach ``t`` at all, i.e. the
  support of the latest-departure vector
  (:meth:`repro.analysis_api.NetworkAnalysis.reverse_reachable_set`).

The latest departure of one journey ``u → t`` by deadline ``D`` is
``latest_departure_times(network, t, deadline=D)[u]``; by the lifetime it is
also ``NetworkAnalysis(network).latest_departure(u, t)``.

Labels lie in ``{1, …, a}`` (``a`` the lifetime), a range the time reversal
``M(x) = a + 1 − x`` maps onto itself.  A journey ``v → t`` with labels
``l_1 < … < l_k <= D`` is a journey ``t → v`` in the arc-flipped network
with labels ``M(l_k) < … < M(l_1)``, all above ``M(D + 1) = a − D``; its
arrival there is ``M(l_1)``, so

``latest_departure_times(G, t, deadline=D)[v] ==
M(earliest_arrival_times(reverse(G), t, start_time=a − D)[v])``

entry for entry, with :data:`~repro.types.UNREACHABLE` mapped to
:data:`~repro.types.NEVER` ``= 0`` (:meth:`TemporalGraph.time_reversed`
builds ``reverse(G)``, and ``tests/test_reverse_sweep.py`` pins the identity
bit for bit).  The target itself reports ``D + 1``, the mirror of the
source's ``start_time`` arrival.

So there is no reverse kernel: every sweep here is the forward sweep of
:mod:`repro.core.journeys` from the targets over the time-reversed network,
started at ``a − D``.  Every one reads the network's cached time-reversed
layout, or a prefix of it that the sweep grows on demand, so single-target
queries never build the forward layout.  The start is negative for a
deadline beyond the lifetime, which the kernel precondition allows (it lies
below every label).  The resulting state is mapped back to
departures in place.  These sweeps record their telemetry under
``kernel.reverse.*``.  The scalar reference that walks the labels
downwards, used to cross-validate them, lives with the tests
(``tests/oracles.py``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..types import NEVER, UNREACHABLE
from ..utils.validation import check_non_negative_int
from .journeys import _sweep
from .temporal_graph import TemporalGraph

__all__ = [
    "latest_departure_times",
    "latest_departure_matrix",
]


def _resolve_deadline(network: TemporalGraph, deadline: int | None) -> int:
    if deadline is None:
        return network.lifetime
    return check_non_negative_int(deadline, "deadline")


def latest_departure_times(
    network: TemporalGraph,
    target: int,
    *,
    deadline: int | None = None,
) -> np.ndarray:
    """Latest departure time at every vertex for journeys reaching ``target``.

    Parameters
    ----------
    network:
        The temporal network.
    target:
        Target vertex.
    deadline:
        Journeys must arrive by this time; only arcs with labels at most
        ``deadline`` may be used.  Defaults to the network's lifetime (no
        restriction), the mirror of the forward kernels' ``start_time = 0``.

    Returns
    -------
    numpy.ndarray
        ``int64`` array of length ``n``; entry ``v`` is the largest label a
        journey ``v → target`` can start with (its departure time), or
        :data:`~repro.types.NEVER` when no journey exists.  The target itself
        reports ``deadline + 1``.
    """
    target = int(target)
    if not 0 <= target < network.n:
        raise ValueError(
            f"target {target} is not a vertex of a graph with {network.n} vertices"
        )
    deadline = _resolve_deadline(network, deadline)
    state = _sweep(
        network, (target,), network.lifetime - deadline, reverse=True
    ).arrivals
    return _to_departures(state, network.lifetime)[:, 0]


def latest_departure_matrix(
    network: TemporalGraph,
    targets: Sequence[int] | None = None,
    *,
    deadline: int | None = None,
) -> np.ndarray:
    """Batched latest departures: one label-group sweep for many targets.

    :func:`repro.core.journeys.earliest_arrival_matrix` from the targets
    over the time-reversed layout: the whole state advances one label group
    at a time, a handful of vectorised operations per label value regardless
    of how many targets are in flight, and is mapped back to departures in
    place.

    Parameters
    ----------
    network:
        The temporal network.
    targets:
        Targets to compute rows for; defaults to all vertices (the all-pairs
        case).
    deadline:
        Arrive-by time shared by every target; defaults to the lifetime.

    Returns
    -------
    numpy.ndarray
        ``(len(targets), n)`` ``int64`` matrix; entry ``[i, v]`` is the
        latest departure from ``v`` towards ``targets[i]``
        (``deadline + 1`` on the target column,
        :data:`~repro.types.NEVER` when no journey exists).

    See Also
    --------
    latest_departure_times : the single-target specialisation.
    """
    deadline = _resolve_deadline(network, deadline)
    state = _sweep(network, targets, network.lifetime - deadline, reverse=True).arrivals
    return np.ascontiguousarray(_to_departures(state, network.lifetime).T)


def _to_departures(state: np.ndarray, lifetime: int) -> np.ndarray:
    """Map a time-reversed arrival state back to departures, in place.

    An arrival ``x`` over the mirrored labels is the departure
    ``lifetime + 1 − x``; :data:`~repro.types.UNREACHABLE` becomes
    :data:`~repro.types.NEVER`.
    """
    unreached = state == UNREACHABLE
    np.subtract(lifetime + 1, state, out=state)
    np.putmask(state, unreached, NEVER)
    return state
