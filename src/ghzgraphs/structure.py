"""Structural analysis: matching cover, vertex connectivity, small cuts,
and the coloured-square decomposition across a 2-cut.

The square decomposition is the engine behind the connectivity bound mu <= 2
for graphs with a cut of size at most two: for a 2-cut {u, v} separating A
from B, the weight of any colouring that is constant on A, on B and on the
cut vertices splits as H + V, a "horizontal" and a "vertical" product of two
block weights each.  On a GHZ graph every non-monochromatic square colouring
has H = -V.
"""

from __future__ import annotations

import itertools
from collections import deque, namedtuple

from .graphs import (
    Colour,
    InducedSubgraph,
    Multigraph,
    adjacency_sets,
    induced_subgraph,
    skeleton,
)
from .matchings import colouring_weight, colouring_weight_table

# ---------------------------------------------------------------------------
# matching-covered graph


def mcg(g: Multigraph) -> Multigraph:
    """Drop exactly the edges that lie in no perfect matching.

    Perfect matchings, their weights and the whole colouring-weight table
    are unchanged; the result is a fixpoint of the operation.  If g has no
    perfect matching the result has no edges.  An edge u-v lies in some
    perfect matching iff G - u - v has one, which the weight kernel answers
    on the skeleton without listing matchings; parallel edges can stand in
    for each other, so one check per vertex pair decides them all.
    """
    base = skeleton(g)
    vertices = set(range(g.n))
    live = {
        (e.u, e.v)
        for e in base.edges
        if colouring_weight_table(induced_subgraph(base, vertices - {e.u, e.v}).graph)
    }
    kept = tuple(e for e in g.edges if (e.u, e.v) in live)
    return Multigraph(g.n, kept, g.colour_universe)


# ---------------------------------------------------------------------------
# vertex connectivity (Menger via unit-capacity max flow on the split graph)


def _local_connectivity(adj: list[set[int]], s: int, t: int) -> int:
    """Max number of internally vertex-disjoint s-t paths (s, t non-adjacent)."""
    n = len(adj)
    # split vertex x into x_in = 2x and x_out = 2x + 1
    INF = n * n + 1
    cap: dict[tuple[int, int], int] = {}
    for x in range(n):
        cap[(2 * x, 2 * x + 1)] = 1 if x not in (s, t) else INF
        cap[(2 * x + 1, 2 * x)] = 0
    for x in range(n):
        for y in adj[x]:
            cap[(2 * x + 1, 2 * y)] = INF
            cap[(2 * y, 2 * x + 1)] = cap.get((2 * y, 2 * x + 1), 0)
    out: list[list[int]] = [[] for _ in range(2 * n)]
    for (a, b) in cap:
        out[a].append(b)
    source, sink = 2 * s + 1, 2 * t
    flow = 0
    while True:
        parent = {source: source}
        queue = deque([source])
        while queue and sink not in parent:
            a = queue.popleft()
            for b in out[a]:
                if b not in parent and cap[(a, b)] > 0:
                    parent[b] = a
                    queue.append(b)
        if sink not in parent:
            return flow
        b = sink
        while b != source:
            a = parent[b]
            cap[(a, b)] -= 1
            cap[(b, a)] += 1
            b = a
        flow += 1


def vertex_connectivity(g: Multigraph) -> int:
    """Connectivity of the underlying simple graph.

    0 for disconnected (or trivially small) graphs, n - 1 for complete ones,
    otherwise the minimum over non-adjacent pairs of the max-flow bound.
    Only pairs whose lower vertex s is at most kappa need a flow (Even,
    SIAM J. Comput. 4, 1975): the lowest vertex s outside a minimum
    separator S is among 0..kappa, and every vertex in another component
    of G - S is higher than s.
    """
    n = g.n
    if n <= 1:
        return 0
    adj = adjacency_sets(g)
    if all(len(adj[x]) == n - 1 for x in range(n)):
        return n - 1
    best = n - 2  # the other n - 2 vertices separate any non-adjacent pair
    for s in range(n):
        if s > best:
            break
        for t in range(s + 1, n):
            if t in adj[s]:
                continue
            best = min(best, _local_connectivity(adj, s, t))
            if best == 0:
                return 0
    return best


# ---------------------------------------------------------------------------
# small vertex cuts


class CutSpec(namedtuple("CutSpec", "s v1 v2")):
    """A vertex cut S with a two-block partition of the remaining vertices.

    No edge joins v1 and v2.  For cuts feeding the 3-cut reduction, v1 is
    the odd-size block (``parity == "odd"``).  Each block is stored sorted.
    """

    __slots__ = ()

    def __new__(cls, s, v1, v2):
        return tuple.__new__(cls, (tuple(sorted(s)), tuple(sorted(v1)), tuple(sorted(v2))))

    @property
    def parity(self) -> str:
        """Parity of |v1|: "odd" or "even"."""
        return "odd" if len(self.v1) % 2 else "even"

    def __repr__(self):
        # the parity stays in the repr, so printed cuts and digests of them read as before
        return f"CutSpec(s={self.s!r}, v1={self.v1!r}, v2={self.v2!r}, parity={self.parity!r})"


def make_cut(g: Multigraph, s, v1, v2) -> CutSpec:
    """Validate and package an explicit cut (partition, no v1-v2 edges)."""
    s, v1, v2 = tuple(s), tuple(v1), tuple(v2)
    if sorted(s + v1 + v2) != list(range(g.n)):
        raise ValueError("s, v1, v2 must partition the vertex set")
    s, v1, v2 = set(s), set(v1), set(v2)
    if not v1 or not v2:
        raise ValueError("both sides of the cut must be non-empty")
    for e in g.edges:
        if (e.u in v1 and e.v in v2) or (e.u in v2 and e.v in v1):
            raise ValueError(f"edge {e.u}-{e.v} crosses the cut")
    return CutSpec(tuple(s), tuple(v1), tuple(v2))


def _components(adj: list[set[int]], removed: set[int], n: int) -> list[tuple[int, ...]]:
    seen = set(removed)
    comps = []
    for start in range(n):
        if start in seen:
            continue
        stack = [start]
        seen.add(start)
        comp = []
        while stack:
            x = stack.pop()
            comp.append(x)
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        comps.append(tuple(sorted(comp)))
    return comps


def iter_cuts(g: Multigraph, size: int):
    """Yield every valid CutSpec of the given size, deterministically.

    Candidate sets S are enumerated in lexicographic order.  When removing S
    leaves several components they are grouped into two blocks: for size <= 2
    the block containing the smallest remaining vertex versus the rest; for
    size 3 every bipartition with an odd first block is tried,
    lexicographically smallest odd block first (falling back to the
    smallest-vertex grouping when no odd block exists).
    """
    if size < 0:
        raise ValueError(f"cut size must be at least 0, got {size}")
    if g.n < size + 2:
        return
    adj = adjacency_sets(g)
    for s in itertools.combinations(range(g.n), size):
        comps = _components(adj, set(s), g.n)
        if len(comps) < 2:
            continue
        odd_sides = set()
        if size >= 3:
            for r in range(1, len(comps)):
                for pick in itertools.combinations(range(len(comps)), r):
                    side = tuple(sorted(v for i in pick for v in comps[i]))
                    if len(side) % 2:
                        odd_sides.add(side)
        if odd_sides:
            for v1 in sorted(odd_sides):
                v2 = tuple(sorted(set(range(g.n)) - set(s) - set(v1)))
                yield CutSpec(s, v1, v2)
        else:
            v1 = comps[0]
            v2 = tuple(sorted(v for c in comps[1:] for v in c))
            yield CutSpec(s, v1, v2)


def find_cut(g: Multigraph, size: int) -> CutSpec | None:
    """First cut of the given size in the deterministic order, if any."""
    for cut in iter_cuts(g, size):
        return cut
    return None


# ---------------------------------------------------------------------------
# coloured squares across a 2-cut


class SquareDecomposition(namedtuple("SquareDecomposition", "v_left v_right h_top h_bottom")):
    """The four block weights of a square colouring across a 2-cut.

    ``total`` reproduces the colouring weight on the whole graph;
    the square is solid when all four factors are non-zero.
    """

    __slots__ = ()

    @property
    def vertical(self):
        return self.v_left * self.v_right

    @property
    def horizontal(self):
        return self.h_top * self.h_bottom

    @property
    def total(self):
        return self.horizontal + self.vertical

    @property
    def is_solid(self) -> bool:
        zero = 0 * self.v_left
        return all(w != zero for w in (self.v_left, self.v_right, self.h_top, self.h_bottom))


def _cut_block(g: Multigraph, vertices, cut_vertices=()) -> InducedSubgraph:
    """G[vertices] without the edges joining two vertices of ``cut_vertices``.

    Relabelled and returned with its original labels as by
    ``induced_subgraph``.  Every block of the 2-cut squares and of the 3-cut
    type decomposition is formed here.
    """
    sub, kept = induced_subgraph(g, vertices)
    inner = {r for r, x in enumerate(kept) if x in cut_vertices}
    if len(inner) < 2:
        return InducedSubgraph(sub, kept)
    edges = tuple(e for e in sub.edges if e.u not in inner or e.v not in inner)
    return InducedSubgraph(Multigraph(sub.n, edges, sub.colour_universe), kept)


def _block_weight(g: Multigraph, vertices, colour_of, cut_vertices=()) -> object:
    """The weight on ``_cut_block(g, vertices, cut_vertices)`` of the
    colouring that paints each original vertex x with ``colour_of(x)``."""
    sub, kept = _cut_block(g, vertices, cut_vertices)
    return colouring_weight(sub, tuple(colour_of(x) for x in kept))


def _check_two_cut(g: Multigraph, u: int, v: int, a_side, b_side) -> tuple[set, set]:
    if u == v:
        raise ValueError("cut vertices must be distinct")
    cut = make_cut(g, (u, v), a_side, b_side)
    return set(cut.v1), set(cut.v2)


def square_decomposition_odd(
    g: Multigraph, u: int, v: int, a_side, b_side, colours: tuple[Colour, Colour, Colour, Colour]
) -> SquareDecomposition:
    """Blocks for odd-size sides: colours = (i on A, j on B, k on u, l on v).

    V_left = w(i_A k_u) on G[A + u],   V_right = w(j_B l_v) on G[B + v],
    H_top  = w(j_B k_u) on G[B + u],   H_bottom = w(i_A l_v) on G[A + v],
    and total = H_top*H_bottom + V_left*V_right equals the weight of the
    square colouring on g.
    """
    a, b = _check_two_cut(g, u, v, a_side, b_side)
    if len(a) % 2 == 0:
        raise ValueError("odd-case decomposition needs odd-size sides")
    i, j, k, l = colours

    def paint(side: set, side_colour: Colour, cut_colour: Colour):
        return lambda x: side_colour if x in side else cut_colour

    return SquareDecomposition(
        v_left=_block_weight(g, a | {u}, paint(a, i, k)),
        v_right=_block_weight(g, b | {v}, paint(b, j, l)),
        h_top=_block_weight(g, b | {u}, paint(b, j, k)),
        h_bottom=_block_weight(g, a | {v}, paint(a, i, l)),
    )


def square_decomposition_even(
    g: Multigraph, u: int, v: int, a_side, b_side, colours: tuple[Colour, Colour, Colour]
) -> SquareDecomposition:
    """Blocks for even-size sides: colours = (i on A, j on B, k on both u, v).

    V_left = w(i_A k_U) on G[A + u + v] without the direct u-v edges,
    V_right = w(j_B) on G[B], H_top = w(j_B k_U) on G[B + u + v] with the
    direct u-v edges, H_bottom = w(i_A) on G[A]; total again reproduces the
    square colouring's weight on g.
    """
    a, b = _check_two_cut(g, u, v, a_side, b_side)
    if len(a) % 2:
        raise ValueError("even-case decomposition needs even-size sides")
    i, j, k = colours
    cut = {u, v}

    def paint(side_colour: Colour):
        return lambda x: k if x in cut else side_colour

    return SquareDecomposition(
        v_left=_block_weight(g, a | cut, paint(i), cut),
        v_right=_block_weight(g, b, paint(j)),
        h_top=_block_weight(g, b | cut, paint(j)),
        h_bottom=_block_weight(g, a, paint(i)),
    )
