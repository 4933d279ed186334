"""Small worked instances used by the demos, the docs and the test suite."""

from __future__ import annotations

from collections.abc import Sequence

from .exact import _refuse_non_int
from .graphs import Multigraph, build_graph


def complete_ghz_k4() -> Multigraph:
    """K4 with its three perfect matchings coloured 0, 1, 2, all weights 1.

    Every perfect matching of K4 is one of the three pairings, so each is
    monochromatic with weight 1 and no non-monochromatic colouring is
    feasible: a GHZ graph of dimension 3, the maximum on four vertices.
    """
    return build_graph(
        4,
        [
            (0, 1, 0, 0, 1),
            (2, 3, 0, 0, 1),
            (0, 2, 1, 1, 1),
            (1, 3, 1, 1, 1),
            (0, 3, 2, 2, 1),
            (1, 2, 2, 2, 1),
        ],
        colours=range(3),
    )


def parallel_ghz_k2(t: int) -> Multigraph:
    """Two vertices joined by t parallel edges of distinct colours.

    Each edge alone is a perfect matching, so the graph is GHZ with
    dimension t.
    """
    t = _refuse_non_int(t, "t")
    if t < 1:
        raise ValueError("need at least one edge")
    return build_graph(2, [(0, 1, c, c, 1) for c in range(t)], colours=range(t))


def cycle_ghz_on(order: Sequence[int], weights: Sequence | None = None) -> Multigraph:
    """A two-coloured cycle through the given vertices, alternating colours.

    Edge k joins order[k] to order[k+1] (cyclically) and carries colour
    k % 2 on both halves.  For an even cycle the two perfect matchings are
    the even-position and odd-position edges; with the default unit weights
    each is monochromatic with weight 1, giving a GHZ graph of dimension 2.
    Custom ``weights`` (one per edge, in the same order) stay GHZ exactly
    when each colour class's product is 1.
    """
    n = len(order)
    if n < 4 or n % 2:
        raise ValueError("need an even cycle on at least four vertices")
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of 0..n-1")
    if weights is None:
        weights = [1] * n
    if len(weights) != n:
        raise ValueError(f"need {n} weights, got {len(weights)}")
    specs = [
        (order[k], order[(k + 1) % n], k % 2, k % 2, weights[k])
        for k in range(n)
    ]
    return build_graph(n, specs, colours=range(2))


def cycle_ghz(n: int) -> Multigraph:
    """The plain even cycle 0-1-...-(n-1)-0 with alternating colours."""
    return cycle_ghz_on(range(_refuse_non_int(n, "n")))


def cancelling_square() -> Multigraph:
    """Four vertices whose two all-0 matchings cancel to total weight 0.

    The matchings {01, 23} and {02, 13} have weights +1 and -1, so the all-0
    colouring is feasible yet weighs exactly 0: the strict GHZ property
    fails (0 != 1) while the generalized one is untouched.
    """
    return build_graph(
        4,
        [
            (0, 1, 0, 0, 1),
            (2, 3, 0, 0, 1),
            (0, 2, 0, 0, 1),
            (1, 3, 0, 0, -1),
        ],
        colours=range(1),
    )


def octahedron() -> Multigraph:
    """K_{2,2,2}: six vertices, all pairs adjacent except three antipodal
    ones.  Vertex connectivity 4, so no cut of size at most 3 exists."""
    missing = {(0, 3), (1, 4), (2, 5)}
    specs = [
        (u, v, 0, 0, 1)
        for u in range(6)
        for v in range(u + 1, 6)
        if (u, v) not in missing
    ]
    return build_graph(6, specs, colours=range(1))
