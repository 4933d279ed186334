"""Cut-based reduction: shrink a graph across a 3-cut while preserving the
number of monochromatic colourings with non-zero weight.

Fix a cut S = {u1, u2, u3} separating an odd block V1 from an even block V2
(no V1-V2 edges).  Because |V1| is odd, every perfect matching sends either
all three cut vertices into V1 (type 0) or exactly one, u_i (type i), and
the weight of any colouring vc splits into four products of block weights:

    w(vc) = sum_t  W_t(vc) * W_t'(vc),        t in {0, 1, 2, 3}

with W_0 over G[V1+S] minus the S-internal edges, W_i over G[V1+u_i],
W_0' over G[V2] and W_i' over G[V2 + S - u_i] (direct edges between the two
remaining cut vertices included).

Colours split into C1 = {c : the all-c colouring of G[V2] has non-zero
weight}, taken as empty when no type-0 matching has non-zero grouped weight,
and C2 = the rest.  One reduction covers both cases.  It keeps V1 + S,
contracting V1 to a single vertex when C1 is empty ("easy" case, four
vertices) and keeping it otherwise ("hard" case), eliminates V2 and
resynthesizes the edges inside S from block weights.  With

    f_c = 1 / (|C1| * W(c_V2))  for c in C1,      f_c = 1  otherwise,

W(c_V2) the all-c weight of G[V2], every colouring vc' of the result obeys

    w'(vc') = sum_c  f_c * w(vc'(c)),

where vc'(c) paints V2 in c and every other vertex as vc' paints the
reduced vertex standing for it.  In the easy case every f_c is 1.  The
identity is re-checked against the colouring-weight table of the input
unless disabled.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import InvariantViolation, IrreducibleError, WrongCaseError
from .ghz import GhzVerdict, scale_to_ghz, verify
from .graphs import (
    Colour,
    Edge,
    Multigraph,
    VertexColouring,
    drop_zero_edges,
    induced_subgraph,
    merge_parallel_edges,
    restrict_colouring,
)
from .matchings import colouring_weight, colouring_weight_table
from .structure import CutSpec, iter_cuts, vertex_connectivity


@dataclass(frozen=True)
class TypeWeights:
    """Block weights (W_0..W_3, W_0'..W_3') of one colouring at a 3-cut."""

    v1_side: tuple
    v2_side: tuple

    @property
    def total(self):
        parts = [a * b for a, b in zip(self.v1_side, self.v2_side)]
        return parts[0] + parts[1] + parts[2] + parts[3]


@dataclass(frozen=True)
class ColourClassification:
    """The C1/C2 colour split at a 3-cut, plus the data it was derived from."""

    c1: frozenset[Colour]
    c2: frozenset[Colour]
    has_type0: bool
    v2_mono_weights: dict  # colour -> weight of the all-colour colouring of G[V2]


def _check_three_cut(cut: CutSpec) -> None:
    if len(cut.s) != 3:
        raise ValueError(f"need a cut of size 3, got {len(cut.s)}")
    if len(cut.v1) % 2 == 0:
        raise ValueError("v1 must have odd size for the type decomposition")


def _type0_graph(g: Multigraph, cut: CutSpec):
    """G[V1+S] with the S-internal edges removed, plus its relabel map."""
    sub, kept = induced_subgraph(g, set(cut.v1) | set(cut.s))
    pos = {orig: idx for idx, orig in enumerate(kept)}
    s_new = {pos[x] for x in cut.s}
    pruned = Multigraph(
        sub.n,
        tuple(e for e in sub.edges if e.u not in s_new or e.v not in s_new),
        sub.colour_universe,
    )
    return pruned, kept


def type_weights(g: Multigraph, cut: CutSpec, vc: VertexColouring) -> TypeWeights:
    """The eight block weights of vc at the cut; ``.total`` equals w(vc)."""
    _check_three_cut(cut)
    if len(vc) != g.n:
        raise ValueError(f"colouring has {len(vc)} entries for {g.n} vertices")
    h0, h0_vertices = _type0_graph(g, cut)
    u1, u2, u3 = cut.s

    def block(vertices) -> object:
        sub, kept = induced_subgraph(g, vertices)
        return colouring_weight(sub, restrict_colouring(vc, kept))

    v1_set, v2_set, s_set = set(cut.v1), set(cut.v2), set(cut.s)
    w0 = colouring_weight(h0, restrict_colouring(vc, h0_vertices))
    v1_side = (w0, block(v1_set | {u1}), block(v1_set | {u2}), block(v1_set | {u3}))
    v2_side = (
        block(v2_set),
        block(v2_set | (s_set - {u1})),
        block(v2_set | (s_set - {u2})),
        block(v2_set | (s_set - {u3})),
    )
    return TypeWeights(v1_side, v2_side)


def classify_colours(g: Multigraph, cut: CutSpec) -> ColourClassification:
    """Split the universe into C1/C2 at the cut.

    C1 is empty whenever no type-0 matching carries non-zero grouped weight;
    otherwise it collects the colours whose monochromatic weight on G[V2] is
    non-zero.
    """
    _check_three_cut(cut)
    h0, _ = _type0_graph(g, cut)
    has_type0 = any(w != g.zero for w in colouring_weight_table(h0).values())
    v2 = induced_subgraph(g, cut.v2).graph
    v2_weights = {
        colour: colouring_weight(v2, (colour,) * v2.n)
        for colour in sorted(g.colour_universe)
    }
    if has_type0:
        c1 = frozenset(c for c, w in v2_weights.items() if w != g.zero)
    else:
        c1 = frozenset()
    c2 = frozenset(g.colour_universe) - c1
    return ColourClassification(c1, c2, has_type0, v2_weights)


def _v2_sum(table: dict, vc: list, cls: ColourClassification, zero):
    """sum_c f_c * w(vc with V2 painted c), the vertices of V2 marked None in vc.

    f_c * w is written w / W(c_V2) / |C1| for c in C1 and w otherwise; w is
    read from ``table``, the colouring-weight table of vc's graph.
    """
    total = zero
    for c, w_v2 in cls.v2_mono_weights.items():
        w = table.get(tuple(c if x is None else x for x in vc), zero)
        total = total + (w / w_v2 / len(cls.c1) if c in cls.c1 else w)
    return total


def _vertex_map(cut: CutSpec, cls: ColourClassification) -> tuple:
    """The original vertices behind each reduced vertex (``ReductionReport.vertex_map``)."""
    if not cls.c1:
        return (cut.v1,) + cut.s
    return tuple(sorted(set(cut.v1) | set(cut.s)))


def _reduce(g: Multigraph, cut: CutSpec, cls: ColourClassification, check: bool) -> Multigraph:
    """Build the reduced graph of either case and, unless ``check`` is off,
    re-check the identity w'(vc') = sum_c f_c * w(vc'(c)) against one
    colouring-weight table of g.

    Reduced vertex r stands for the original vertices ``_vertex_map(...)[r]``.
    The edges touching V1 are contracted into v0 (easy case) or copied (hard
    case).  Every cut pair (a, b) and class (p, q) gets one edge weighing
    sum_c f_c * w(c on V2, p at a, q at b) on G[V2 + {a, b}].
    """
    universe = sorted(g.colour_universe)
    vertex_map = _vertex_map(cut, cls)
    pos = {x: r for r, orig in enumerate(vertex_map)
           for x in (orig if isinstance(orig, tuple) else (orig,))}
    v1_set = set(cut.v1)

    edges: list[Edge] = []
    if not cls.c1:
        for i, u_i in enumerate(cut.s, start=1):
            sub, kept = induced_subgraph(g, v1_set | {u_i})
            for p, q in itertools.product(universe, repeat=2):
                vc = tuple(q if x == u_i else p for x in kept)
                edges.append(Edge(0, i, p, q, colouring_weight(sub, vc)))
    else:
        for e in g.edges:
            if e.u in v1_set or e.v in v1_set:
                edges.append(Edge(pos[e.u], pos[e.v], e.cu, e.cv, e.weight))
    for a, b in itertools.combinations(cut.s, 2):
        sub, kept = induced_subgraph(g, set(cut.v2) | {a, b})
        table = colouring_weight_table(sub)
        for p, q in itertools.product(universe, repeat=2):
            vc = [p if x == a else q if x == b else None for x in kept]
            edges.append(Edge(pos[a], pos[b], p, q, _v2_sum(table, vc, cls, g.zero)))

    reduced = Multigraph(len(vertex_map), tuple(edges), g.colour_universe)
    if check:
        owner = [pos.get(x) for x in range(g.n)]
        table = colouring_weight_table(g)
        reduced_table = colouring_weight_table(reduced)
        for vc_r in itertools.product(universe, repeat=reduced.n):
            total = _v2_sum(table, [None if r is None else vc_r[r] for r in owner], cls, g.zero)
            if reduced_table.get(vc_r, g.zero) != total:
                raise InvariantViolation(
                    f"{'hard' if cls.c1 else 'easy'}-case identity failed at {vc_r}: "
                    f"reduced {reduced_table.get(vc_r, g.zero)} vs {total}"
                )
    return drop_zero_edges(merge_parallel_edges(reduced))


def reduce_easy(g: Multigraph, cut: CutSpec, check: bool = True) -> Multigraph:
    """Contract V1 to a single vertex; valid when C1 is empty.

    The result lives on vertices (v0, v1, v2, v3) = (V1 block, u1, u2, u3).
    """
    cls = classify_colours(g, cut)
    if cls.c1:
        raise WrongCaseError(f"easy case inapplicable: C1 = {sorted(cls.c1)} is non-empty")
    return _reduce(g, cut, cls, check)


def reduce_hard(g: Multigraph, cut: CutSpec, check: bool = True) -> Multigraph:
    """Eliminate V2, resynthesizing the edges inside S; needs C1 non-empty.

    The result lives on V1 + S, relabelled densely in increasing order.
    """
    cls = classify_colours(g, cut)
    if not cls.c1:
        raise WrongCaseError("hard case inapplicable: C1 is empty")
    return _reduce(g, cut, cls, check)


@dataclass(frozen=True)
class ReductionReport:
    """Everything reduce() learned: the reduced graph and its provenance.

    ``vertex_map`` ties reduced vertices back to the input: for the hard
    case a tuple of original labels, for the easy case the tuple
    (V1 block, u1, u2, u3) whose first entry is itself a tuple.
    ``mu_bound`` is 2 whenever kappa <= 2, independently of whether a
    reduced graph was also constructed; the connectivity-bound case carries
    the bound alone.
    """

    case: str  # "connectivity-bound" | "easy" | "hard"
    kappa: int
    input_verdict: GhzVerdict
    mu_bound: int | None = None
    cut: CutSpec | None = None
    classification: ColourClassification | None = None
    graph: Multigraph | None = None
    scaled: Multigraph | None = None
    vertex_map: tuple | None = None
    output_verdict: GhzVerdict | None = None


def _finish(kappa, mu_bound, cut, cls, reduced, input_verdict) -> ReductionReport:
    output_verdict = verify(reduced)
    scaled = None
    if input_verdict.is_g_ghz:
        if not output_verdict.is_g_ghz:
            raise InvariantViolation("reduction broke the g-GHZ property")
        if output_verdict.dimension < input_verdict.dimension:
            raise InvariantViolation(
                f"reduction lost dimension: {input_verdict.dimension} -> {output_verdict.dimension}"
            )
        scaled = scale_to_ghz(reduced)
    return ReductionReport(
        case="hard" if cls.c1 else "easy",
        kappa=kappa,
        input_verdict=input_verdict,
        mu_bound=mu_bound,
        cut=cut,
        classification=cls,
        graph=reduced,
        scaled=scaled,
        vertex_map=_vertex_map(cut, cls),
        output_verdict=output_verdict,
    )


def reduce(g: Multigraph, all_cuts: bool = False, check: bool = True) -> ReductionReport:
    """Shrink g across a size-3 cut, or bound its dimension via connectivity.

    The first size-3 cut with an odd block is used (all of them when
    ``all_cuts``, keeping the smallest result).  A graph with no such cut is
    either answered with the connectivity bound mu <= 2 (kappa <= 2, no
    reduced graph) or rejected as 4-connected.  Reports always carry kappa,
    and ``mu_bound = 2`` whenever kappa <= 2 -- the bound holds whether or
    not a reduced graph was also built.  When the input is g-GHZ the report
    additionally carries a float rescaling of the result to a strict GHZ
    graph, and the dimension never decreases.
    """
    if g.n <= 4:
        raise ValueError("reduction needs more than four vertices")
    if not g.is_exact:
        raise ValueError("reduction expects an exact-weighted graph")
    input_verdict = verify(g)
    kappa = vertex_connectivity(g)
    mu_bound = 2 if kappa <= 2 else None

    # any_cut tells "every 3-cut is even" from "no 3-cut" when no odd cut is kept
    any_cut = False
    candidates = []
    for cut in iter_cuts(g, 3):
        any_cut = True
        if cut.parity == "odd":
            candidates.append(cut)
            if not all_cuts:
                break
    if not candidates:
        if kappa <= 2:
            return ReductionReport(
                case="connectivity-bound", kappa=kappa, input_verdict=input_verdict, mu_bound=2
            )
        if any_cut:
            raise ValueError("no size-3 cut admits an odd block; cannot reduce")
        raise IrreducibleError("irreducible: 4-connected (no vertex cut of size 3)")

    best: ReductionReport | None = None
    for cut in candidates:
        cls = classify_colours(g, cut)
        reduced = (reduce_hard if cls.c1 else reduce_easy)(g, cut, check)
        report = _finish(kappa, mu_bound, cut, cls, reduced, input_verdict)
        if best is None or (report.graph.n, len(report.graph.edges)) < (
            best.graph.n,
            len(best.graph.edges),
        ):
            best = report
    return best
