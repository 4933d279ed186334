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
reduced vertex standing for it.  In the easy case every f_c is 1.  Every
block and the input are read through one projection of their tables onto
the reduced vertices, and unless disabled the identity is re-checked on it.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from operator import itemgetter

from .errors import InvariantViolation, IrreducibleError, WrongCaseError
from .ghz import DEFAULT_EPSILON, _classify, _scale_to_ghz
from .graphs import (
    Edge,
    Multigraph,
    VertexColouring,
    drop_zero_edges,
    merge_parallel_edges,
)
from .matchings import colouring_weight, colouring_weight_table
from .structure import CutSpec, _block_weight, _cut_block, iter_cuts, make_cut, vertex_connectivity


class TypeWeights(namedtuple("TypeWeights", "v1_side v2_side")):
    """Block weights (W_0..W_3, W_0'..W_3') of one colouring at a 3-cut."""

    __slots__ = ()

    @property
    def total(self):
        parts = [a * b for a, b in zip(self.v1_side, self.v2_side)]
        return parts[0] + parts[1] + parts[2] + parts[3]


class ColourClassification(namedtuple("ColourClassification", "c1 c2 has_type0 v2_mono_weights")):
    """The C1/C2 colour split at a 3-cut, plus the data it was derived from.

    ``c1`` and ``c2`` are frozensets of colours; ``v2_mono_weights`` maps each
    colour to the weight of the all-colour colouring of G[V2].
    """

    __slots__ = ()


def _check_three_cut(g: Multigraph, cut: CutSpec) -> None:
    if len(cut.s) != 3:
        raise ValueError(f"need a cut of size 3, got {len(cut.s)}")
    if len(cut.v1) % 2 == 0:
        raise ValueError("v1 must have odd size for the type decomposition")
    make_cut(g, cut.s, cut.v1, cut.v2)


def type_weights(g: Multigraph, cut: CutSpec, vc: VertexColouring) -> TypeWeights:
    """The eight block weights of vc at the cut; ``.total`` equals w(vc)."""
    _check_three_cut(g, cut)
    if len(vc) != g.n:
        raise ValueError(f"colouring has {len(vc)} entries for {g.n} vertices")
    v1, v2, s, paint = set(cut.v1), set(cut.v2), set(cut.s), vc.__getitem__
    return TypeWeights(
        (_block_weight(g, v1 | s, paint, s),)
        + tuple(_block_weight(g, v1 | {u}, paint) for u in cut.s),
        (_block_weight(g, v2, paint),)
        + tuple(_block_weight(g, v2 | (s - {u}), paint) for u in cut.s),
    )


def classify_colours(g: Multigraph, cut: CutSpec) -> ColourClassification:
    """Split the universe into C1/C2 at the cut.

    C1 is empty whenever no type-0 matching carries non-zero grouped weight;
    otherwise it collects the colours whose monochromatic weight on G[V2] is
    non-zero.
    """
    _check_three_cut(g, cut)
    zero = g.zero
    h0 = _cut_block(g, set(cut.v1) | set(cut.s), cut.s).graph
    has_type0 = any(w != zero for w in colouring_weight_table(h0).values())
    v2 = _cut_block(g, cut.v2).graph
    v2_weights = {
        colour: colouring_weight(v2, (colour,) * v2.n)
        for colour in sorted(g.colour_universe)
    }
    if has_type0:
        c1 = frozenset(c for c, w in v2_weights.items() if w != zero)
    else:
        c1 = frozenset()
    c2 = frozenset(g.colour_universe) - c1
    return ColourClassification(c1, c2, has_type0, v2_weights)


def _project(table: dict, owner: list, factors: dict, zero) -> dict:
    """sum_c f_c * w over the entries of ``table`` whose V2 part is all c.

    ``owner[j]`` is the reduced vertex standing for table vertex j, or None
    for a vertex of V2; ``factors`` maps c to f_c, and a table without V2
    vertices is summed unweighted.  Entries in which two vertices of one
    reduced vertex differ are skipped.  Sums are keyed by the colours of the
    reduced vertices, in increasing order.
    """
    first = {r: owner.index(r) for r in set(owner)}
    # both getters read two or more positions, so they return tuples
    spread = itemgetter(*(first[r] for r in owner))
    key_of = itemgetter(*(first[r] for r in sorted(first.keys() - {None})))
    v2 = first.get(None)
    sums: dict = {}
    for vc, w in table.items():
        if spread(vc) == vc:
            key = key_of(vc)
            sums[key] = sums.get(key, zero) + (w if v2 is None else w * factors[vc[v2]])
    return sums


def _vertex_map(cut: CutSpec, cls: ColourClassification) -> tuple:
    """The original vertices behind each reduced vertex (``ReductionReport.vertex_map``)."""
    if not cls.c1:
        return (cut.v1,) + cut.s
    return tuple(sorted(set(cut.v1) | set(cut.s)))


def _reduce(g: Multigraph, cut: CutSpec, cls: ColourClassification, g_table: dict | None):
    """The reduced graph of either case, with its colouring-weight table.

    Reduced vertex r stands for the original vertices ``_vertex_map(...)[r]``.
    In the hard case the edges touching V1 are copied.  Every block, G[V1 +
    u_i] in the easy case and G[V2 + {a, b}] per cut pair, gives one edge per
    class (p, q) between its two reduced vertices, read from one projection
    of its table.  Parallel edges are merged and zero edges dropped.  Given
    ``g_table``, g's colouring-weight table, the identity w'(vc') = sum_c
    f_c * w(vc'(c)) is checked over the colourings either side has; None
    skips the check.
    """
    universe = sorted(g.colour_universe)
    one, zero = g.one, g.zero
    factors = {c: one / (w * len(cls.c1)) if c in cls.c1 else one
               for c, w in cls.v2_mono_weights.items()}
    vertex_map = _vertex_map(cut, cls)
    pos = {x: r for r, orig in enumerate(vertex_map)
           for x in (orig if isinstance(orig, tuple) else (orig,))}
    v1_set, v2_set = set(cut.v1), set(cut.v2)
    edges = [Edge(pos[e.u], pos[e.v], e.cu, e.cv, e.weight)
             for e in g.edges if e.u in v1_set or e.v in v1_set] if cls.c1 else []
    blocks = [] if cls.c1 else [v1_set | {u} for u in cut.s]
    for block in blocks + [v2_set | {a, b} for a, b in itertools.combinations(cut.s, 2)]:
        sub, kept = _cut_block(g, block)
        owner = [pos.get(x) for x in kept]
        weights = _project(colouring_weight_table(sub), owner, factors, zero)
        ra, rb = sorted(set(owner) - {None})
        for p, q in itertools.product(universe, repeat=2):
            edges.append(Edge(ra, rb, p, q, weights.get((p, q), zero)))

    reduced = drop_zero_edges(merge_parallel_edges(
        Multigraph(len(vertex_map), tuple(edges), g.colour_universe)
    ))
    reduced_table = colouring_weight_table(reduced)
    if g_table is not None:
        lifted = _project(g_table, [pos.get(x) for x in range(g.n)], factors, zero)
        for vc_r in sorted(lifted.keys() | reduced_table.keys()):
            if reduced_table.get(vc_r, zero) != lifted.get(vc_r, zero):
                raise InvariantViolation(
                    f"{'hard' if cls.c1 else 'easy'}-case identity failed at {vc_r}: "
                    f"reduced {reduced_table.get(vc_r, zero)} vs {lifted.get(vc_r, zero)}"
                )
    return reduced, reduced_table


def reduce_easy(g: Multigraph, cut: CutSpec, check: bool = True) -> Multigraph:
    """Contract V1 to a single vertex; valid when C1 is empty.

    The result lives on vertices (v0, v1, v2, v3) = (V1 block, u1, u2, u3).
    """
    cls = classify_colours(g, cut)
    if cls.c1:
        raise WrongCaseError(f"easy case inapplicable: C1 = {sorted(cls.c1)} is non-empty")
    return _reduce(g, cut, cls, colouring_weight_table(g) if check else None)[0]


def reduce_hard(g: Multigraph, cut: CutSpec, check: bool = True) -> Multigraph:
    """Eliminate V2, resynthesizing the edges inside S; needs C1 non-empty.

    The result lives on V1 + S, relabelled densely in increasing order.
    """
    cls = classify_colours(g, cut)
    if not cls.c1:
        raise WrongCaseError("hard case inapplicable: C1 is empty")
    return _reduce(g, cut, cls, colouring_weight_table(g) if check else None)[0]


class ReductionReport(
    namedtuple(
        "ReductionReport",
        "case kappa input_verdict cut classification graph vertex_map output_verdict mu_bound scaled",
        defaults=(None, None),
    )
):
    """Everything reduce() learned: the reduced graph and its provenance.

    ``case`` is "easy" or "hard".  Every report carries the cut used, its
    colour classification, the reduced graph, its vertex map and both
    verdicts.  ``vertex_map`` ties reduced vertices back to the input: for
    the hard case a tuple of original labels, for the easy case the tuple
    (V1 block, u1, u2, u3) whose first entry is itself a tuple.  Only two
    fields are optional:
    ``mu_bound`` is 2 whenever kappa <= 2 (the connectivity bound mu <= 2)
    and None otherwise, and ``scaled``, the float rescaling of the reduced
    graph to a strict GHZ graph, is None unless the input is g-GHZ.
    """

    __slots__ = ()


def reduce(g: Multigraph, all_cuts: bool = False, check: bool = True) -> ReductionReport:
    """Shrink g across a size-3 cut with an odd block.

    The first such cut is used (all of them when ``all_cuts``, keeping the
    smallest result); a graph without one is rejected.  g's colouring-weight
    table is built once, for the input verdict and every identity check.
    Reports carry kappa, and ``mu_bound = 2`` whenever kappa <= 2.  When the
    input is g-GHZ the report also carries a float rescaling of the result
    to a strict GHZ graph, and the dimension never decreases.  The identity
    check and the g-GHZ and dimension checks run on every cut reduced, but
    only the returned graph is rescaled: with ``all_cuts`` a discarded cut
    whose reduced graph cannot be rescaled raises nothing.

    kappa <= 2 implies an odd 3-cut.  Take a minimum separator S, one
    component A of G - S (a = |A|) and the rest B (b = |B|).  Moving j
    vertices of A and 3 - kappa - j of B into S leaves both sides non-empty
    for lo = max(0, 4 - kappa - b) <= j <= hi = min(3 - kappa, a - 1), and
    lo <= hi as a + b = n - kappa >= 5 - kappa.  For even n the n - 3
    vertices left are odd in number, so some component is odd.  For odd n,
    a j with a - j odd leaves an odd component inside A: lo < hi gives both
    parities; lo = hi = a - 1 gives a - j = 1; else lo = hi = 3 - kappa > 0
    forces b = 1 and a - j = n - 4.
    """
    if g.n <= 4:
        raise ValueError("reduction needs more than four vertices")
    if not g.is_exact:
        raise ValueError("reduction expects an exact-weighted graph")
    g_table = colouring_weight_table(g)
    input_verdict = _classify(g, g_table, DEFAULT_EPSILON)

    # any_cut tells "every 3-cut is even" from "no 3-cut" when no odd cut is found
    any_cut = False
    best = None  # (cut, classification, reduced graph, its table, output verdict)
    for cut in iter_cuts(g, 3):
        any_cut = True
        if cut.parity != "odd":
            continue
        cls = classify_colours(g, cut)
        reduced, reduced_table = _reduce(g, cut, cls, g_table if check else None)
        output_verdict = _classify(reduced, reduced_table, DEFAULT_EPSILON)
        if input_verdict.is_g_ghz:
            if not output_verdict.is_g_ghz:
                raise InvariantViolation("reduction broke the g-GHZ property")
            if output_verdict.dimension < input_verdict.dimension:
                raise InvariantViolation(
                    f"reduction lost dimension: {input_verdict.dimension} -> {output_verdict.dimension}"
                )
        if best is None or (reduced.n, len(reduced.edges)) < (best[2].n, len(best[2].edges)):
            best = (cut, cls, reduced, reduced_table, output_verdict)
        if not all_cuts:
            break
    if best is None:
        if any_cut:
            raise ValueError("no size-3 cut admits an odd block; cannot reduce")
        raise IrreducibleError("irreducible: 4-connected (no vertex cut of size 3)")
    cut, cls, reduced, reduced_table, output_verdict = best
    kappa = vertex_connectivity(g)
    return ReductionReport(
        case="hard" if cls.c1 else "easy",
        kappa=kappa,
        input_verdict=input_verdict,
        mu_bound=2 if kappa <= 2 else None,
        cut=cut,
        classification=cls,
        graph=reduced,
        scaled=(_scale_to_ghz(reduced, reduced_table, output_verdict, DEFAULT_EPSILON)
                if input_verdict.is_g_ghz else None),
        vertex_map=_vertex_map(cut, cls),
        output_verdict=output_verdict,
    )
