"""Half-edge-coloured, complex-weighted multigraphs.

An edge carries one colour per endpoint half (cu at u, cv at v) plus a
weight, which is either a GaussianRational (exact mode) or a Python complex
(float mode, produced by scaling and search).  A multigraph never mixes the
two kinds.  Edges are canonicalized so the lower endpoint comes first;
parallel edges are allowed and distinguished by their half-colour pair,
self-loops are not.

The colour universe is stored explicitly rather than inferred from the
edges: monochromatic-colouring enumeration and the C1/C2 classification in
the reduction must range over the intended palette even when some colour
happens to appear on no edge.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from operator import attrgetter

from .exact import GaussianRational, _as_index, _is_fraction, _refuse_non_int

Colour = int
VertexColouring = tuple[Colour, ...]

# shared by every graph: both kinds of weight are immutable
_EXACT_ZERO, _EXACT_ONE = GaussianRational(0), GaussianRational(1)
_FLOAT_ZERO, _FLOAT_ONE = complex(0), complex(1)


def _as_weight(w):
    if isinstance(w, (GaussianRational, complex)):
        return w
    if isinstance(w, int) or _is_fraction(w):
        return GaussianRational(w)
    if isinstance(w, float):
        return complex(w)
    raise TypeError(f"unsupported weight type {type(w).__name__}")


def _as_vertices(values) -> tuple[int, ...]:
    """values as a tuple of plain-int vertices, each read by ``_refuse_non_int``."""
    return tuple(_refuse_non_int(x, "vertex") for x in values)


def _as_universe(colours: Iterable[Colour]) -> frozenset:
    """A colour universe as plain ints, its entries read in the order given
    before any is deduplicated, or ``ValueError`` at the first entry that is
    not a non-negative int by ``_as_index``'s rule."""
    plain = []
    for c in colours:
        try:
            i = _as_index(c, "colour")
        except TypeError:
            i = -1
        if i < 0:
            raise ValueError(f"colour universe entry {c!r} is not a non-negative int")
        plain.append(i)
    return frozenset(plain)


class _Record:
    """Value semantics for a slotted record, read from its class's ``_fields``.

    An instance equals only an instance of the same class with equal fields
    (so never a tuple), hashes as the tuple of its fields, refuses every
    assignment after ``__init__``, and is copied and pickled by calling its
    class on its fields, so ``__init__`` validates every rebuilt instance.
    A slot outside ``_fields`` takes no part in any of this.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._values = staticmethod(attrgetter(*cls._fields))
        cls.__match_args__ = cls._fields

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return (type(self), self._values(self))


_setattr = object.__setattr__  # writes a slot past the immutability guard


class Edge(_Record):
    """One edge of a multigraph, canonicalized so that u < v."""

    __slots__ = _fields = ("u", "v", "cu", "cv", "weight")

    def __init__(self, u: int, v: int, cu: Colour, cv: Colour, weight):
        if u.__class__ is not int or v.__class__ is not int:  # plain ints need no call
            u, v = _as_index(u, "vertex index"), _as_index(v, "vertex index")
        if u == v:
            raise ValueError(f"self-loop at vertex {u} is not allowed")
        if u < 0 or v < 0:
            raise ValueError("vertex indices must be non-negative")
        if cu.__class__ is not int or cv.__class__ is not int:
            cu, cv = _as_index(cu, "colour"), _as_index(cv, "colour")
        if cu < 0 or cv < 0:
            raise ValueError("colours must be non-negative")
        weight = _as_weight(weight)
        if u > v:
            u, v, cu, cv = v, u, cv, cu
        _setattr(self, "u", u)
        _setattr(self, "v", v)
        _setattr(self, "cu", cu)
        _setattr(self, "cv", cv)
        _setattr(self, "weight", weight)


class Multigraph(_Record):
    """Vertices 0..n-1 with a tuple of coloured weighted edges."""

    _fields = ("n", "edges", "colour_universe")
    # _table: the colouring-weight table memoised by matchings, or None;
    # outside _fields, so no copy, pickle or equal graph shares it
    __slots__ = _fields + ("_table",)

    def __init__(self, n: int, edges: Iterable[Edge], colour_universe: Iterable[Colour]):
        edges = tuple(edges)
        if n.__class__ is not int:
            n = _as_index(n, "vertex count")
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        if colour_universe.__class__ is not frozenset:
            colour_universe = _as_universe(colour_universe)
        for c in colour_universe:
            if c.__class__ is not int or c < 0:  # plain non-negative ints need no call
                colour_universe = _as_universe(colour_universe)
                break
        exact = None
        for e in edges:
            if not isinstance(e, Edge):
                raise TypeError("edges must be Edge instances")
            if e.v >= n:
                raise ValueError(f"edge {e.u}-{e.v} exceeds vertex range 0..{n - 1}")
            if e.cu not in colour_universe or e.cv not in colour_universe:
                raise ValueError(
                    f"edge {e.u}-{e.v} uses colour outside the universe {sorted(colour_universe)}"
                )
            kind = isinstance(e.weight, GaussianRational)
            if exact is None:
                exact = kind
            elif exact != kind:
                raise ValueError("cannot mix exact and float weights in one graph")
        _setattr(self, "n", n)
        _setattr(self, "edges", edges)
        _setattr(self, "colour_universe", colour_universe)
        _setattr(self, "_table", None)

    @property
    def is_exact(self) -> bool:
        """True when weights are GaussianRational (an edgeless graph counts)."""
        for e in self.edges:
            return isinstance(e.weight, GaussianRational)
        return True

    @property
    def one(self):
        return _EXACT_ONE if self.is_exact else _FLOAT_ONE

    @property
    def zero(self):
        return _EXACT_ZERO if self.is_exact else _FLOAT_ZERO


class InducedSubgraph(namedtuple("InducedSubgraph", "graph vertices")):
    """An induced subgraph together with its vertex relabelling.

    ``vertices[i]`` is the original label of new vertex i; retained vertices
    are relabelled to 0..k-1 in increasing original order.
    """

    __slots__ = ()


def build_graph(n: int, edge_specs: Iterable[tuple], colours: Iterable[Colour] | None = None) -> Multigraph:
    """Convenience constructor from (u, v, cu, cv, weight) tuples.

    The colour universe defaults to the colours actually present; pass
    ``colours`` to widen (or pin) it.
    """
    edges = tuple(Edge(u, v, cu, cv, w) for u, v, cu, cv, w in edge_specs)
    if colours is None:
        colours = frozenset(c for e in edges for c in (e.cu, e.cv))
    return Multigraph(n, edges, colours)


def mono_colouring(n: int, colour: Colour) -> VertexColouring:
    """The colouring of n vertices that all have ``colour``; both are read by
    ``_refuse_non_int``."""
    n, colour = _refuse_non_int(n, "n"), _refuse_non_int(colour, "colour")
    return (colour,) * n


def merge_parallel_edges(g: Multigraph) -> Multigraph:
    """Sum weights of edges sharing endpoints and both half-colours.

    Keeps first-occurrence order, so the operation is idempotent and
    deterministic.
    """
    merged: dict[tuple[int, int, Colour, Colour], Edge] = {}
    for e in g.edges:
        key = (e.u, e.v, e.cu, e.cv)
        first = merged.get(key)
        merged[key] = e if first is None else Edge(*key, first.weight + e.weight)
    return Multigraph(g.n, tuple(merged.values()), g.colour_universe)


def drop_zero_edges(g: Multigraph) -> Multigraph:
    """Remove edges whose weight is exactly zero (a weight-0 edge is no edge);
    a graph without one is returned as it is."""
    zero = g.zero
    kept = tuple(e for e in g.edges if e.weight != zero)
    if len(kept) == len(g.edges):
        return g
    return Multigraph(g.n, kept, g.colour_universe)


def induced_subgraph(g: Multigraph, vertices: Iterable[int]) -> InducedSubgraph:
    """Subgraph on a vertex subset, relabelled to a dense 0..k-1 range."""
    kept = sorted(set(_as_vertices(vertices)))
    for v in kept:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} outside 0..{g.n - 1}")
    relabel = {v: i for i, v in enumerate(kept)}
    members = set(kept)
    edges = tuple(
        Edge(relabel[e.u], relabel[e.v], e.cu, e.cv, e.weight)
        for e in g.edges
        if e.u in members and e.v in members
    )
    return InducedSubgraph(Multigraph(len(kept), edges, g.colour_universe), tuple(kept))


def skeleton(g: Multigraph) -> Multigraph:
    """The simple graph underneath: one uncoloured unit edge per adjacent pair."""
    pairs = sorted({(e.u, e.v) for e in g.edges})
    edges = tuple(Edge(u, v, 0, 0, GaussianRational(1)) for u, v in pairs)
    return Multigraph(g.n, edges, frozenset({0}))


def adjacency_sets(g: Multigraph) -> list[set[int]]:
    """Neighbour sets of the underlying simple graph."""
    adj: list[set[int]] = [set() for _ in range(g.n)]
    for e in g.edges:
        adj[e.u].add(e.v)
        adj[e.v].add(e.u)
    return adj
