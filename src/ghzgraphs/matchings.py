"""Perfect matchings and the colouring-weight bookkeeping on top of them.

A perfect matching is stored as a sorted tuple of edge indices into the
graph's edge list.  Everything downstream -- graph weight, vertex-colouring
weights, the induced-colouring partition -- is a finite sum of matching
weights, evaluated exactly for GaussianRational graphs and in complex floats
for scaled ones.

Those sums come from one kernel, ``_weight_table``: a subset DP over the
covered vertices that adds up matching weights per induced colouring without
listing the matchings.  Its one scan of the graph's edges applies three
masks, so no query copies the graph: a vertex mask and a cut mask give a cut
block's table, G[X] without the edges inside a cut, and a colouring mask
keeps only the edges that agree with one colouring.  So ``colouring_weight``
and ``is_feasible`` read one colouring on g in place, and ``_block_weights``
reads it on several blocks of g: the 2-cut squares and the 3-cut type
weights.  ``filter_graph`` builds its copy from the same agreement test.  Float
weights go through the DP as complex numbers; exact weights as the raw
(re, im, den) int triples of ``GaussianRational``, with its product and sum
written out in the loop, so an exact entry becomes a ``GaussianRational``
only once, when the table is read out.  Arithmetic never reduces a value, so
the DP does no normalisation, and its table entries are put in lowest terms
only when they are read.  Most of ``reduce``'s blocks have tables of no or
one entry, so the kernel's fixed cost per call is kept to what the block
needs: digit places and edge lists for the kept vertices only, one decode
for a table of one entry, and no reference cycle left for the collector.  A
larger table is read out in one pass over its sorted int keys, in one of two
ways: a table with at least as many entries as there are key halves (the
dense tables of ``verify``) reads each key as two halves from one list of
every half, and a sparser one (most of ``reduce``'s) decodes each key digit
by digit, as the one-entry table decodes its key.
``_iter_perfect_matchings`` yields the matchings one at a time by a search of
the same shape, so a caller can stop at the one it wants (the Bogdanov
witness does); ``enumerate_perfect_matchings`` lists them all.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from itertools import product
from math import gcd
from types import MappingProxyType

from .exact import _make
from .graphs import _EXACT_ONE, _FLOAT_ONE, Multigraph, VertexColouring, _refuse_non_int

PerfectMatching = tuple[int, ...]


def enumerate_perfect_matchings(g: Multigraph) -> list[PerfectMatching]:
    """All perfect matchings, in deterministic search order.

    The search always branches on the lowest-index uncovered vertex, trying
    the edges to its higher partners (the lower ones are all covered) in
    storage order.  Each returned matching is the sorted tuple of its edge
    indices.
    """
    return list(_iter_perfect_matchings(g))


def _iter_perfect_matchings(g: Multigraph) -> Iterator[PerfectMatching]:
    """``enumerate_perfect_matchings`` one at a time, edges under their lower endpoint."""
    n = g.n
    below: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    touched = 0
    for i, e in enumerate(g.edges):
        below[e.u].append((i, 1 << e.v))
        touched |= 1 << e.u | 1 << e.v
    full = (1 << n) - 1
    if n % 2 or touched != full:
        return  # odd, or an isolated vertex
    chosen: list[int] = []

    def extend(covered: int) -> Iterator[PerfectMatching]:
        if covered == full:
            yield tuple(sorted(chosen))
            return
        low = ~covered & (covered + 1)  # bit of the lowest uncovered vertex
        for i, bit in below[low.bit_length() - 1]:
            if covered & bit:
                continue
            chosen.append(i)
            yield from extend(covered | low | bit)
            chosen.pop()

    try:
        yield from extend(0)
    finally:
        del extend  # it refers to itself: a cycle the collector would have to free


def _check_matching(g: Multigraph, m: PerfectMatching) -> None:
    covered = 0
    for i in m:
        i = _refuse_non_int(i, "edge index")
        if not 0 <= i < len(g.edges):
            raise ValueError(f"edge index {i} out of range")
        e = g.edges[i]
        mask = 1 << e.u | 1 << e.v
        if covered & mask:
            raise ValueError(f"matching covers a vertex of edge {e.u}-{e.v} twice")
        covered |= mask
    if covered != (1 << g.n) - 1:
        raise ValueError("matching does not cover every vertex")


def matching_weight(g: Multigraph, m: PerfectMatching):
    """Product of the matching's edge weights (1 for the empty matching)."""
    _check_matching(g, m)
    w = g.one
    for i in m:
        w = w * g.edges[i].weight
    return w


def induced_colouring(g: Multigraph, m: PerfectMatching) -> VertexColouring:
    """The vertex colouring a perfect matching stamps onto the graph."""
    _check_matching(g, m)
    colours = [0] * g.n
    for i in m:
        e = g.edges[i]
        colours[e.u] = e.cu
        colours[e.v] = e.cv
    return tuple(colours)


def _check_colouring(g: Multigraph, vc: VertexColouring) -> None:
    if len(vc) != g.n:
        raise ValueError(f"colouring has {len(vc)} entries for {g.n} vertices")
    universe = g.colour_universe
    for c in vc:
        c = _refuse_non_int(c, "colour")
        if c not in universe:
            raise ValueError(f"colour {c} outside universe {sorted(universe)}")


def _agreeing_edges(g: Multigraph, vc: VertexColouring):
    """g's edges whose half-colours agree with vc at both ends, lazily; the
    caller has checked vc against g."""
    return (e for e in g.edges if e.cu == vc[e.u] and e.cv == vc[e.v])


def filter_graph(g: Multigraph, vc: VertexColouring) -> Multigraph:
    """Keep exactly the edges whose half-colours agree with vc at both ends."""
    _check_colouring(g, vc)
    return Multigraph(g.n, _agreeing_edges(g, vc), g.colour_universe)


def _weight_table(g: Multigraph, vertices: int = -1, cut: int = 0,
                  colouring: VertexColouring | None = None) -> dict[VertexColouring, object]:
    """Total matching weight per induced colouring of G[vertices] without the
    edges joining two vertices of ``cut``, by a subset DP on g in place;
    given a ``colouring``, only the edges that agree with it at both ends.

    ``vertices`` and ``cut`` are bit masks, bit v for vertex v; the defaults
    keep every vertex and edge, so a whole-graph call is unchanged by them.
    The one scan of g's edges applies all three masks: vertices outside
    ``vertices`` start covered, edges touching them, joining two cut
    vertices or disagreeing with ``colouring`` are skipped, and keys are the
    colours of the kept vertices in increasing order.  With a colouring the
    table has at most one entry, that colouring on the kept vertices; the
    caller checks the colouring against g (``_check_colouring``).
    Parallel edges of one colour class are merged by summing their weights;
    a merged edge whose weights cancel to 0 is kept, so its colourings stay
    feasible with weight 0.  A state is
    the set of covered vertices; it branches on its lowest uncovered vertex,
    whose partners are all higher, so each edge is listed under its lower
    endpoint only.  A state's table is keyed by the colours of its uncovered
    vertices, held as the digits of one integer in base (largest colour of
    the universe + 1) with the lowest kept vertex most significant: an edge's
    two half-colours are spliced in by adding their digits, and integer order
    is the order of the colour tuples.  The values are the enumeration's
    sums, regrouped: identical in exact mode.  Digit places and edge lists
    exist for the kept vertices only, so a small block of a large graph
    pays for its own vertices; only the scan of g's edges is per graph.

    A table of at most one entry is read with one decode of its key.  A
    larger table is read in one pass over its sorted int keys, and each
    exact value is wrapped in that same pass.  When the table has at least
    ``base ** half`` entries, a key is read as two halves of ``half``
    digits, every half decoded up front into one list indexed by
    ``key // split`` and ``key % split``; a sparser table decodes each key
    digit by digit, as the one-entry table does, so it never builds a list
    longer than itself (decoding each distinct half once instead measured
    no faster on the benchmark's passes).  The read-out follows the table's
    size alone, and both give the same keys in the same order.  ``solve``
    refers to itself, so it is deleted once it has run: the call then
    leaves no reference cycle, and its memo is freed when it returns
    instead of at the next cyclic collection.

    Exact weights keep their own denominators (no graph-wide common
    denominator, whose size grows with every distinct denominator), and the
    entries are left unreduced, as all ``GaussianRational`` arithmetic is.
    For exact graphs ``solve`` runs on each value's (re, im, den) triple with
    ``GaussianRational``'s own * and + rules written inline: the same
    integers in the same order, so the same unreduced entries, each wrapped
    once at read-out.  This second ``solve`` exists because operator
    dispatch, not the DP, was the cost: a Python-level call and a new object
    per product and per sum took more of an exact table's time than the
    DP's own bookkeeping.  Float graphs keep the ``solve`` on complex
    numbers.  The inline sum keeps a branch for equal denominators, which
    ``GaussianRational.__add__`` does without (both give the same triple):
    here it skips a gcd on every sum it takes, about one in six of a
    ``tables`` benchmark pass, and that pass ran about 1% slower in process
    without it (Python 3.11, 2-core Xeon); the operators see a few hundred
    sums a pass, where no such branch pays.
    """
    n = g.n
    full = (1 << n) - 1
    outside = full & ~vertices
    merged: dict[tuple[int, int, int, int], object] = {}
    touched = outside
    for e in g.edges if colouring is None else _agreeing_edges(g, colouring):
        ends = 1 << e.u | 1 << e.v
        if ends & outside or ends & cut == ends:
            continue
        edge_class = (e.u, e.v, e.cu, e.cv)
        merged[edge_class] = merged[edge_class] + e.weight if edge_class in merged else e.weight
        touched |= ends
    count = (full & vertices).bit_count()
    if count % 2 or touched != full:
        return {}  # odd, or an isolated vertex: before the digit places' O(n^2) bits
    base = 1 + max(g.colour_universe, default=0)  # above every edge colour
    # each kept vertex, lowest first, gets its digit place (the lowest vertex
    # the most significant) and the list of the edges under it, keyed by its bit
    places: list[int] = []
    place: dict[int, int] = {}
    below: dict[int, list[tuple[int, int, object]]] = {}
    power = base**count
    rest = full & vertices
    while rest:
        low = rest & -rest
        rest ^= low
        power //= base
        places.append(power)
        place[low.bit_length() - 1] = power
        below[low] = []
    exact = g.is_exact
    for (u, v, cu, cv), w in merged.items():
        below[1 << u].append((1 << v, cu * place[u] + cv * place[v], w._v if exact else w))
    memo: dict[int, dict[int, object]] = {full: {0: _EXACT_ONE._v if exact else _FLOAT_ONE}}

    if exact:
        def solve(covered: int) -> dict[int, tuple[int, int, int]]:
            table = memo.get(covered)
            if table is not None:
                return table
            low = ~covered & (covered + 1)
            table = {}
            for bit, digits, (a, b, p) in below[low]:
                if covered & bit:
                    continue
                for key, (c, d, q) in solve(covered | low | bit).items():
                    key += digits
                    prev = table.get(key)
                    if prev is None:
                        table[key] = (a * c - b * d, a * d + b * c, p * q)
                        continue
                    e, f, r = prev
                    q *= p
                    if r == q:
                        table[key] = (e + a * c - b * d, f + a * d + b * c, r)
                    else:
                        k = gcd(r, q)
                        s, t = q // k, r // k  # r * s == q * t == lcm(r, q)
                        table[key] = (e * s + (a * c - b * d) * t, f * s + (a * d + b * c) * t, r * s)
            memo[covered] = table
            return table
    else:
        def solve(covered: int) -> dict[int, object]:
            table = memo.get(covered)
            if table is not None:
                return table
            low = ~covered & (covered + 1)  # bit of the lowest uncovered vertex
            table = {}
            for bit, digits, w in below[low]:
                if covered & bit:
                    continue
                for key, sub in solve(covered | low | bit).items():
                    key += digits
                    prev = table.get(key)
                    table[key] = w * sub if prev is None else prev + w * sub
            memo[covered] = table
            return table

    table = solve(outside)
    del solve  # it refers to itself: a cycle the collector would have to free
    if len(table) < 2:  # nothing to sort: one decode at most
        for key, w in table.items():
            return {_digits(key, places): _make(w) if exact else w}
        return {}
    # One pass over the sorted keys, which also wraps each exact entry as a
    # GaussianRational, the only time it is wrapped.  A dense table reads a
    # key as two halves of equal length (kept vertices are even in number).
    half = count // 2
    split = base**half
    out: dict[VertexColouring, object] = {}
    if split <= len(table):  # no more halves than entries: decode every half up front
        halves = list(product(range(base), repeat=half))
        for key in sorted(table):
            w = table[key]
            out[halves[key // split] + halves[key % split]] = _make(w) if exact else w
        return out
    for key in sorted(table):  # a sparser table: each key decoded digit by digit
        w = table[key]
        out[_digits(key, places)] = _make(w) if exact else w
    return out


def _bits(vertices) -> int:
    """The bit mask of a vertex set, bit v for vertex v."""
    return sum(1 << x for x in vertices)


def _block_weights(g: Multigraph, vc: VertexColouring, blocks) -> tuple:
    """The weight of vc on each block (vertices, cut vertices), G[vertices]
    without the edges joining two cut vertices, each read on g in place with
    vc as the kernel's colouring mask, vc checked once for all blocks."""
    _check_colouring(g, vc)
    zero = g.zero
    return tuple(next(iter(_weight_table(g, _bits(vertices), _bits(cut), vc).values()), zero)
                 for vertices, cut in blocks)


def _digits(key: int, places: list[int]) -> VertexColouring:
    """The digits of key at the given place values, most significant first."""
    colours = []
    for p in places:
        c, key = divmod(key, p)
        colours.append(c)
    return tuple(colours)


def graph_weight(g: Multigraph):
    """Sum of all perfect-matching weights; 1 for the empty graph, 0 if none."""
    return sum(colouring_weight_table(g).values(), g.zero)


def colouring_weight(g: Multigraph, vc: VertexColouring):
    """Total weight of the perfect matchings inducing vc; g's zero if none."""
    _check_colouring(g, vc)
    return next(iter(_weight_table(g, colouring=vc).values()), g.zero)


def is_feasible(g: Multigraph, vc: VertexColouring) -> bool:
    """Whether at least one perfect matching induces vc (its weight may be 0)."""
    _check_colouring(g, vc)
    return bool(_weight_table(g, colouring=vc))


def colouring_weight_table(g: Multigraph) -> Mapping[VertexColouring, object]:
    """Total matching weight per induced colouring, as a read-only mapping.

    Only feasible colourings appear (possibly with weight 0 after
    cancellation); the values sum to the graph weight because the matchings
    partition by induced colouring.  Keys are sorted for deterministic
    iteration.  The table is built once per graph object and memoised on it,
    so every later call on the same object returns the same mapping; an
    equal graph, a copy or an unpickled graph builds its own.
    """
    table = g._table
    if table is None:
        table = MappingProxyType(_weight_table(g))
        object.__setattr__(g, "_table", table)  # past Multigraph's immutability guard
    return table
