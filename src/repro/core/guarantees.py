"""Empirical reachability guarantees: estimating the paper's ``r(n)``.

Definition 7: an experiment assigning ``r(n)`` independent uniform labels per
edge *strongly guarantees temporal reachability whp* when the property
``T_reach`` holds with probability at least ``1 − n^{−a}`` for some ``a ≥ 1``.
Definition 8 defines ``r(n)`` as the smallest such number of labels.

At laptop scale we estimate the reachability probability by Monte Carlo and
locate the empirical ``r(n)`` for a (configurable, less extreme) target
probability.  Because the reachability probability is monotone non-decreasing
in ``r`` (adding labels can only create journeys), a doubling search followed
by a binary search finds the threshold with ``O(log r)`` probability
estimates.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ConfigurationError
from ..graphs.static_graph import StaticGraph
from ..randomness.distributions import LabelDistribution
from ..utils.seeding import SeedLike, spawn_rngs
from ..utils.validation import check_positive_int, check_probability
from .labeling import uniform_random_labels
from .reachability import preserves_reachability_stacked

__all__ = [
    "reachability_probability",
    "minimal_labels_for_reachability",
    "two_split_journey_probability",
    "two_split_journey_probability_analytic",
]


def reachability_probability(
    graph: StaticGraph,
    labels_per_edge: int,
    *,
    lifetime: int | None = None,
    trials: int = 50,
    distribution: LabelDistribution | None = None,
    seed: SeedLike = None,
) -> float:
    """Estimate ``P[T_reach]`` for ``r`` uniform labels per edge by Monte Carlo.

    Parameters
    ----------
    graph:
        The underlying graph.
    labels_per_edge:
        The number of independent labels per edge, the paper's ``r``.
    lifetime:
        Label range ``a`` (defaults to ``n``, the normalized case).
    trials:
        Number of independent instances sampled.
    distribution:
        Optional non-uniform label distribution (F-CASE).
    seed:
        RNG seed.

    The trials are decided :data:`~repro.core.reachability.STACK_HEIGHT` at
    a time, one sweep per stack
    (:func:`~repro.core.reachability.preserves_reachability_stacked`).
    """
    trials = check_positive_int(trials, "trials")
    # Trial i draws from child i of the seed; the generator hands the
    # stacked decision one stack of networks at a time.
    networks = (
        uniform_random_labels(
            graph,
            labels_per_edge=labels_per_edge,
            lifetime=lifetime,
            distribution=distribution,
            seed=rng,
        )
        for rng in spawn_rngs(seed, trials)
    )
    return sum(preserves_reachability_stacked(networks)) / trials


def minimal_labels_for_reachability(
    graph: StaticGraph,
    *,
    target_probability: float = 0.9,
    lifetime: int | None = None,
    trials: int = 30,
    r_max: int | None = None,
    seed: SeedLike = None,
) -> int:
    """Empirical ``r(n)``: smallest ``r`` whose estimated ``P[T_reach]`` meets the target.

    A doubling phase finds an upper bracket, then binary search narrows it
    down.  Both phases reuse fresh independent trials for every probed ``r``
    (the estimates are noisy; with the default 30 trials the returned value is
    an estimate of the threshold, which is what the experiments report).

    Raises
    ------
    ConfigurationError
        If no ``r <= r_max`` reaches the target probability.
    """
    target_probability = check_probability(target_probability, "target_probability")
    a = lifetime if lifetime is not None else graph.n
    if r_max is None:
        r_max = max(4 * a, 16)
    r_max = check_positive_int(r_max, "r_max")
    rngs = iter(spawn_rngs(seed, 2 * (int(np.log2(r_max)) + 4)))

    def estimate(r: int) -> float:
        return reachability_probability(
            graph, r, lifetime=lifetime, trials=trials, seed=next(rngs)
        )

    # Doubling phase.
    r = 1
    while r <= r_max:
        if estimate(r) >= target_probability:
            break
        r *= 2
    else:
        raise ConfigurationError(
            f"no r <= {r_max} reached the target reachability probability "
            f"{target_probability}"
        )
    if r == 1:
        return 1

    # Binary search between the last failing value (r // 2) and r.
    low, high = r // 2, r
    while high - low > 1:
        mid = (low + high) // 2
        if estimate(mid) >= target_probability:
            high = mid
        else:
            low = mid
    return high


def two_split_journey_probability(
    n: int,
    labels_per_edge: int,
    *,
    trials: int = 2000,
    seed: SeedLike = None,
) -> float:
    """Monte-Carlo estimate of the 2-split journey probability on the star.

    Theorem 6(a) considers two fixed leaves ``u₁, u₂`` of the star whose two
    incident edges each receive ``r`` uniform labels from ``{1, …, n}``, and a
    *2-split journey*: first hop labelled in ``(0, n/2)``, second hop labelled
    in ``(n/2, n)`` (Figure 2).  Only the two incident edges matter, so the
    estimate samples just those ``2·r`` labels per trial, vectorised over all
    trials.
    """
    n = check_positive_int(n, "n")
    r = check_positive_int(labels_per_edge, "labels_per_edge")
    trials = check_positive_int(trials, "trials")
    [rng] = spawn_rngs(seed, 1)
    half = n / 2.0
    first_edge = rng.integers(1, n + 1, size=(trials, r))
    second_edge = rng.integers(1, n + 1, size=(trials, r))
    has_early = (first_edge < half).any(axis=1)
    has_late = (second_edge > half).any(axis=1)
    return float(np.mean(has_early & has_late))


def two_split_journey_probability_analytic(n: int, labels_per_edge: int) -> float:
    """Exact probability of a 2-split journey for uniform labels on ``{1, …, n}``.

    ``P = (1 − P[no label < n/2])·(1 − P[no label > n/2])`` with each factor a
    product of ``r`` independent uniform draws.  Used to cross-check the
    Monte-Carlo estimate and to draw the analytic curve in the E5 experiment.
    """
    n = check_positive_int(n, "n")
    r = check_positive_int(labels_per_edge, "labels_per_edge")
    labels = np.arange(1, n + 1)
    p_early = float(np.mean(labels < n / 2.0))
    p_late = float(np.mean(labels > n / 2.0))
    return (1.0 - (1.0 - p_early) ** r) * (1.0 - (1.0 - p_late) ** r)
