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

from .graphs import Colour, Multigraph, _as_vertices, _refuse_non_int, adjacency_sets, skeleton
from .matchings import _block_weights, _weight_table

# ---------------------------------------------------------------------------
# matching-covered graph


def mcg(g: Multigraph) -> Multigraph:
    """Drop exactly the edges that lie in no perfect matching.

    Perfect matchings, their weights and the whole colouring-weight table
    are unchanged; the result is a fixpoint of the operation.  If g has no
    perfect matching the result has no edges.  An edge u-v lies in some
    perfect matching iff G - u - v has one, which the weight kernel answers
    on the skeleton with u and v masked out, without listing matchings;
    parallel edges can stand in for each other, so one check per vertex
    pair decides them all.
    """
    base = skeleton(g)
    live = {(e.u, e.v) for e in base.edges if _weight_table(base, ~(1 << e.u | 1 << e.v))}
    kept = tuple(e for e in g.edges if (e.u, e.v) in live)
    return Multigraph(g.n, kept, g.colour_universe)


# ---------------------------------------------------------------------------
# vertex connectivity (a depth-first search below 3, else Menger via
# unit-capacity max flow on the split graph)


def _local_connectivity(adj: list[set[int]], s: int, t: int, cap: int) -> int:
    """Max number of internally vertex-disjoint s-t paths (s, t non-adjacent),
    or ``cap`` if there are at least that many.

    A unit-capacity max flow from s_out to t_in on the split graph: vertex x
    is the arc x_in -> x_out (nodes 2x and 2x + 1), edge xy the two arcs
    x_out -> y_in and y_out -> x_in.  One unit per arc is enough: an in-node
    other than t_in has one outgoing arc, so at most one unit passes it, and
    t_in is entered only from out-nodes of vertices other than s (s and t are
    non-adjacent), each fed by one in-node.  No arc has a reverse twin, so
    the residual graph is one set of arc heads per node, and an augmenting
    path flips every arc it uses: b leaves res[a] and a joins res[b].  Once
    the flow reaches ``cap`` no further path is searched for, which saves
    the last search, a failing one over the whole residual graph; a cap of
    0 returns before the residual graph is built.
    """
    if not cap:
        return 0
    res: list[set[int]] = []
    for x, ys in enumerate(adj):
        res += ({2 * x + 1}, {2 * y for y in ys})  # x_in's one arc, then x_out's arcs
    source, sink = 2 * s + 1, 2 * t
    flow = 0
    while flow < cap:
        parent = {source: source}
        queue = deque([source])
        while queue and sink not in parent:
            a = queue.popleft()
            for b in res[a]:
                if b not in parent:
                    parent[b] = a
                    queue.append(b)
        if sink not in parent:
            return flow
        b = sink
        while b != source:
            a = parent[b]
            res[a].remove(b)
            res[b].add(a)
            b = a
        flow += 1
    return flow


def _biconnectivity(adj: list[set[int]]) -> int:
    """0 if the graph is disconnected, 1 if it has a cut vertex, else 2.

    One iterative depth-first search from vertex 0 (Hopcroft and Tarjan,
    CACM 16, 1973).  ``low[x]`` is the earliest discovery time reachable
    from x's subtree by one back edge; a vertex p other than the root cuts
    when a child x of it has ``low[x] >= disc[p]`` (the edge back to p
    itself counts, so that is ``==``), and the root cuts when it has two
    children.
    """
    n = len(adj)
    disc, low = [0] * n, [0] * n  # discovery times from 1; 0 is unvisited
    disc[0] = low[0] = time = 1
    cut, root_children = False, 0
    stack = [(0, iter(adj[0]))]
    while stack:
        x, ys = stack[-1]
        for y in ys:
            if not disc[y]:
                time += 1
                disc[y] = low[y] = time
                stack.append((y, iter(adj[y])))
                break
            if disc[y] < low[x]:
                low[x] = disc[y]
        else:
            stack.pop()
            if stack:
                p = stack[-1][0]
                if p == 0:
                    root_children += 1
                elif low[x] >= disc[p]:
                    cut = True
                if low[x] < low[p]:
                    low[p] = low[x]
    return 0 if time < n else 1 if cut or root_children > 1 else 2


def vertex_connectivity(g: Multigraph) -> int:
    """Connectivity of the underlying simple graph.

    0 for disconnected (or trivially small) graphs, n - 1 for complete ones.
    When the minimum degree delta is at most 2, kappa is 0, 1 or 2, and it
    is min(delta, ``_biconnectivity``): one depth-first search, no flow.
    Otherwise it is min(delta, the flows below), after Esfahanian and Hakimi
    (Networks 14, 1984).  Take v of minimum degree delta.  A minimum
    separator S either misses v, and then separates v from a non-neighbour,
    or contains v, and then, being minimal, leaves neighbours of v in two
    components of G - S, which it separates.  So flows run only from v to
    its non-neighbours and between non-adjacent neighbours of v, each
    capped at the best found so far.  Neither end needs a case of its own: a
    complete graph leaves no pair, so delta = n - 1 stands, and once a flow
    finds 0 each later flow, capped at 0, returns 0 at once, before it
    builds its residual graph.
    """
    n = g.n
    if n <= 1:
        return 0
    adj = adjacency_sets(g)
    v = min(range(n), key=lambda x: len(adj[x]))
    best = len(adj[v])
    if best <= 2:
        return min(best, _biconnectivity(adj))
    pairs = [(v, t) for t in range(n) if t != v and t not in adj[v]]
    pairs += [(x, y) for x, y in itertools.combinations(sorted(adj[v]), 2) if y not in adj[x]]
    for s, t in pairs:
        best = _local_connectivity(adj, s, t, best)
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
    """Validate and package an explicit cut (partition, no v1-v2 edges).

    Each vertex is stored as a plain int: numpy's integers convert, while a
    bool or a float raises ``ValueError``.
    """
    s, v1, v2 = _as_vertices(s), _as_vertices(v1), _as_vertices(v2)
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
    smallest-vertex grouping when no odd block exists).  The size is read
    by ``_refuse_non_int``.
    """
    size = _refuse_non_int(size, "size")
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


def square_decomposition_odd(
    g: Multigraph, u: int, v: int, a_side, b_side, colours: tuple[Colour, Colour, Colour, Colour]
) -> SquareDecomposition:
    """Blocks for odd-size sides: colours = (i on A, j on B, k on u, l on v).

    V_left = w(i_A k_u) on G[A + u],   V_right = w(j_B l_v) on G[B + v],
    H_top  = w(j_B k_u) on G[B + u],   H_bottom = w(i_A l_v) on G[A + v],
    and total = H_top*H_bottom + V_left*V_right equals the weight of the
    square colouring on g.  The square colouring is built once, and its four
    blocks are read on g in place through the kernel's colouring mask
    (``_block_weights``): no block is copied.
    """
    u, v = _as_vertices((u, v))  # read here: the CutSpec below sorts u and v
    _, a, b = map(set, make_cut(g, (u, v), a_side, b_side))
    if len(a) % 2 == 0:
        raise ValueError("odd-case decomposition needs odd-size sides")
    i, j, k, l = colours
    vc = tuple(i if x in a else j if x in b else k if x == u else l for x in range(g.n))
    return SquareDecomposition(*_block_weights(
        g, vc, [(a | {u}, ()), (b | {v}, ()), (b | {u}, ()), (a | {v}, ())]
    ))


def square_decomposition_even(
    g: Multigraph, u: int, v: int, a_side, b_side, colours: tuple[Colour, Colour, Colour]
) -> SquareDecomposition:
    """Blocks for even-size sides: colours = (i on A, j on B, k on both u, v).

    V_left = w(i_A k_U) on G[A + u + v] without the direct u-v edges,
    V_right = w(j_B) on G[B], H_top = w(j_B k_U) on G[B + u + v] with the
    direct u-v edges, H_bottom = w(i_A) on G[A]; total again reproduces the
    square colouring's weight on g.  The blocks are read as the odd case
    reads them.
    """
    u, v = _as_vertices((u, v))  # read here: the CutSpec below sorts u and v
    _, a, b = map(set, make_cut(g, (u, v), a_side, b_side))
    if len(a) % 2:
        raise ValueError("even-case decomposition needs even-size sides")
    i, j, k = colours
    cut = {u, v}
    vc = tuple(i if x in a else j if x in b else k for x in range(g.n))
    return SquareDecomposition(*_block_weights(
        g, vc, [(a | cut, cut), (b, ()), (b | cut, ()), (a, ())]
    ))
