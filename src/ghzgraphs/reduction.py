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
reduced vertex standing for it.  In the easy case every f_c is 1.  A block
is a vertex set, not a graph: the weight kernel reads its table on the input
in place, through a vertex mask and a cut mask, and the cuts of one
``reduce`` call share each block's table.  Every block and the input are
read through one projection of their tables onto the reduced vertices, one
pass over each table.  One more pass sums the resulting edges, parallel ones
merged and exact zeros dropped, into the reduced graph, and unless disabled
the identity is re-checked on it.

A reduction of a g-GHZ graph of dimension k must keep that dimension, and
each of its k colours needs a perfect matching of its own, so a reduced
graph on n vertices has at least k * n / 2 edges, and every reduced graph
has at least 4 vertices.  ``reduce`` with ``all_cuts`` reduces only the
cuts whose least result could beat the best graph so far, and stops its
scan once the best graph meets the least result of all, (4, 2k).
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from operator import itemgetter

from .errors import InvariantViolation, IrreducibleError, WrongCaseError
from .ghz import scale_to_ghz, verify
from .graphs import Edge, Multigraph, VertexColouring, _as_vertices
from .matchings import _bits, _block_weights, _weight_table, colouring_weight_table
from .structure import CutSpec, iter_cuts, make_cut, vertex_connectivity


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


def _check_three_cut(g: Multigraph, cut: CutSpec) -> CutSpec:
    """cut, checked to be a 3-cut of g with an odd v1, with plain-int vertices.

    Each side keeps its order, which a cut built by ``_make`` or ``_replace``
    need not have sorted: ``type_weights`` and the reductions read the cut
    vertices in that order.
    """
    if len(cut.s) != 3:
        raise ValueError(f"need a cut of size 3, got {len(cut.s)}")
    if len(cut.v1) % 2 == 0:
        raise ValueError("v1 must have odd size for the type decomposition")
    make_cut(g, cut.s, cut.v1, cut.v2)
    return CutSpec._make(map(_as_vertices, (cut.s, cut.v1, cut.v2)))


def type_weights(g: Multigraph, cut: CutSpec, vc: VertexColouring) -> TypeWeights:
    """The eight block weights of vc at the cut, each read on g in place;
    ``.total`` equals w(vc)."""
    cut = _check_three_cut(g, cut)
    v1, v2, s = set(cut.v1), set(cut.v2), set(cut.s)
    weights = _block_weights(
        g, vc,
        [(v1 | s, s)] + [(v1 | {u}, ()) for u in cut.s]
        + [(v2, ())] + [(v2 | (s - {u}), ()) for u in cut.s],
    )
    return TypeWeights(weights[:4], weights[4:])


def classify_colours(g: Multigraph, cut: CutSpec) -> ColourClassification:
    """Split the universe into C1/C2 at the cut.

    C1 is empty whenever no type-0 matching carries non-zero grouped weight;
    otherwise it collects the colours whose monochromatic weight on G[V2] is
    non-zero.
    """
    return _classify(g, _check_three_cut(g, cut), {})


def _block(blocks: dict, g: Multigraph, vertices: int, cut: int = 0) -> tuple:
    """The sorted vertices and the weight table of G[vertices] without the
    edges joining two vertices of ``cut``, built once per ``blocks``.

    ``vertices`` and ``cut`` are the kernel's two bit masks, ``cut`` inside
    ``vertices``.  They are all the block depends on and its key, so every
    cut that asks for a block gets the table built first.
    """
    key = vertices, cut
    block = blocks.get(key)
    if block is None:
        kept = tuple(x for x in range(g.n) if vertices >> x & 1)
        block = blocks[key] = (kept, _weight_table(g, vertices, cut))
    return block


def _classify(g: Multigraph, cut: CutSpec, blocks: dict) -> ColourClassification:
    """``classify_colours`` of a valid 3-cut, its blocks taken from ``blocks``."""
    zero = g.zero
    s = _bits(cut.s)
    _, h0 = _block(blocks, g, _bits(cut.v1) | s, s)
    has_type0 = any(w != zero for w in h0.values())
    _, v2 = _block(blocks, g, _bits(cut.v2))
    v2_weights = {c: v2.get((c,) * len(cut.v2), zero) for c in sorted(g.colour_universe)}
    if has_type0:
        c1 = frozenset(c for c, w in v2_weights.items() if w != zero)
    else:
        c1 = frozenset()
    c2 = frozenset(g.colour_universe) - c1
    return ColourClassification(c1, c2, has_type0, v2_weights)


def _project(table: dict, owner: list, factors: dict) -> dict:
    """sum_c f_c * w over the entries of ``table`` whose V2 part is all c.

    ``owner[j]`` is the reduced vertex standing for table vertex j, or None
    for a vertex of V2; ``factors`` maps c to f_c, and a table without V2
    vertices is summed unweighted.  Entries in which two vertices of one
    reduced vertex differ are skipped.  Sums are keyed by the colours of the
    reduced vertices, in increasing order, and start at a key's first entry,
    so an empty table gives {} and no sum adds a zero.
    """
    if not table:
        return {}
    first: dict = {}
    firsts = []  # the first position of each position's reduced vertex
    for j, r in enumerate(owner):
        firsts.append(first.setdefault(r, j))
    # both getters read two or more positions, so they return tuples
    spread = itemgetter(*firsts)
    v2 = first.pop(None, None)
    key_of = itemgetter(*[first[r] for r in sorted(first)])
    sums: dict = {}
    for vc, w in table.items():
        if spread(vc) == vc:
            key = key_of(vc)
            if v2 is not None:
                w = w * factors[vc[v2]]
            sums[key] = sums[key] + w if key in sums else w
    return sums


def _vertex_map(cut: CutSpec, cls: ColourClassification) -> tuple:
    """The original vertices behind each reduced vertex (``ReductionReport.vertex_map``)."""
    if not cls.c1:
        return (cut.v1,) + cut.s
    return tuple(sorted(set(cut.v1) | set(cut.s)))


def _reduce(g: Multigraph, cut: CutSpec, cls: ColourClassification, check: bool, blocks: dict) -> Multigraph:
    """The reduced graph of either case.

    Reduced vertex r stands for the original vertices ``_vertex_map(...)[r]``.
    In the hard case the edges touching V1 are copied.  Every block, G[V1 +
    u_i] in the easy case and G[V2 + {a, b}] per cut pair, gives one edge per
    class (p, q) of one projection of its table, between its two reduced
    vertices; the blocks come from ``blocks``.  One pass sums parallel
    edges in first-occurrence order and drops exact zeros, as
    ``drop_zero_edges(merge_parallel_edges(...))`` would, and builds one
    graph.  With ``check`` the identity w'(vc') = sum_c f_c * w(vc'(c)) is
    checked over the colourings either side has.
    """
    one, zero = g.one, g.zero
    factors = {c: one / (w * len(cls.c1)) if c in cls.c1 else one
               for c, w in cls.v2_mono_weights.items()}
    vertex_map = _vertex_map(cut, cls)
    pos = {x: r for r, orig in enumerate(vertex_map)
           for x in (orig if isinstance(orig, tuple) else (orig,))}
    v1_set = set(cut.v1)
    # (u, v, cu, cv) and weight of each edge; vertex_map is sorted in the
    # hard case, so pos keeps u < v on the copied edges, as on the block edges
    parts = [((pos[e.u], pos[e.v], e.cu, e.cv), e.weight)
             for e in g.edges if e.u in v1_set or e.v in v1_set] if cls.c1 else []
    v1, v2 = _bits(cut.v1), _bits(cut.v2)
    sides = [] if cls.c1 else [v1 | 1 << u for u in cut.s]
    for side in sides + [v2 | 1 << a | 1 << b for a, b in itertools.combinations(cut.s, 2)]:
        kept, table = _block(blocks, g, side)
        owner = [pos.get(x) for x in kept]
        weights = _project(table, owner, factors)
        ra, rb = sorted(set(owner) - {None})
        parts += [((ra, rb, p, q), w) for (p, q), w in sorted(weights.items())]
    sums: dict = {}  # parallel edges merged in first-occurrence order
    for key, w in parts:
        sums[key] = sums[key] + w if key in sums else w
    reduced = Multigraph(
        len(vertex_map), [Edge(*key, w) for key, w in sums.items() if w != zero], g.colour_universe
    )
    if check:
        reduced_table = colouring_weight_table(reduced)
        lifted = _project(colouring_weight_table(g), [pos.get(x) for x in range(g.n)], factors)
        wrong = [vc_r for vc_r in lifted.keys() | reduced_table.keys()
                 if reduced_table.get(vc_r, zero) != lifted.get(vc_r, zero)]
        if wrong:  # named by the smallest, the first a sorted scan would meet
            vc_r = min(wrong)
            raise InvariantViolation(
                f"{'hard' if cls.c1 else 'easy'}-case identity failed at {vc_r}: "
                f"reduced {reduced_table.get(vc_r, zero)} vs {lifted.get(vc_r, zero)}"
            )
    return reduced


def reduce_easy(g: Multigraph, cut: CutSpec, check: bool = True) -> Multigraph:
    """Contract V1 to a single vertex; valid when C1 is empty.

    The result lives on vertices (v0, v1, v2, v3) = (V1 block, u1, u2, u3).
    """
    cut = _check_three_cut(g, cut)
    cls = _classify(g, cut, {})
    if cls.c1:
        raise WrongCaseError(f"easy case inapplicable: C1 = {sorted(cls.c1)} is non-empty")
    return _reduce(g, cut, cls, check, {})


def reduce_hard(g: Multigraph, cut: CutSpec, check: bool = True) -> Multigraph:
    """Eliminate V2, resynthesizing the edges inside S; needs C1 non-empty.

    The result lives on V1 + S, relabelled densely in increasing order.
    """
    cut = _check_three_cut(g, cut)
    cls = _classify(g, cut, {})
    if not cls.c1:
        raise WrongCaseError("hard case inapplicable: C1 is empty")
    return _reduce(g, cut, cls, check, {})


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

    The first such cut is used; with ``all_cuts`` the smallest result is
    kept: fewest vertices, then fewest edges, the earlier cut on a tie.  A
    graph without an odd 3-cut is rejected.  Reports carry kappa, and
    ``mu_bound = 2`` whenever kappa <= 2.  When the input is g-GHZ the
    report also carries a float rescaling of the result to a strict GHZ
    graph, and the dimension never decreases.

    With ``all_cuts`` the scan skips what cannot win.  Let k be the input's
    dimension if it is g-GHZ, and 0 otherwise.  A cut is classified before
    it is reduced, and the classification fixes the reduced vertex count n,
    which is even; a reduced graph of dimension k needs a perfect matching
    per colour, so the cut gives at least k * n / 2 edges.  A cut is reduced
    and checked only if (n, k * n / 2) is strictly below the best graph so
    far, and as no cut gives fewer than 4 vertices, the scan stops, leaving
    later cuts unclassified, once the best graph has 4 vertices and 2k
    edges.  Neither rule can change the report.  The identity check and the
    g-GHZ and dimension checks run on every cut reduced, but a cut that is
    skipped or never reached raises nothing, ``InvariantViolation``
    included, and only the returned graph is rescaled: a discarded cut
    whose reduced graph cannot be rescaled raises nothing either.  The cuts
    of one call share their blocks: a block is a weight table read on g in
    place, built once per call for its vertex set and the cut vertices
    inside it, and freed when the call returns.

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
    input_verdict = verify(g)

    # a cut giving n vertices gives at least k * n / 2 edges (see above)
    k = input_verdict.dimension if input_verdict.is_g_ghz else 0
    # any_cut tells "every 3-cut is even" from "no 3-cut" when no odd cut is found
    any_cut = False
    blocks: dict = {}  # every cut's blocks, shared across the cuts of this call
    best = None  # ((vertices, edges), cut, classification, reduced graph, output verdict)
    for cut in iter_cuts(g, 3):
        any_cut = True
        if cut.parity != "odd":
            continue
        cls = _classify(g, cut, blocks)
        n = len(_vertex_map(cut, cls))  # even, so k * n // 2 is exact
        if best is not None and (n, k * n // 2) >= best[0]:
            continue  # it cannot beat the best
        reduced = _reduce(g, cut, cls, check, blocks)
        output_verdict = verify(reduced)
        if input_verdict.is_g_ghz:
            if not output_verdict.is_g_ghz:
                raise InvariantViolation("reduction broke the g-GHZ property")
            if output_verdict.dimension < input_verdict.dimension:
                raise InvariantViolation(
                    f"reduction lost dimension: {input_verdict.dimension} -> {output_verdict.dimension}"
                )
        size = reduced.n, len(reduced.edges)
        if best is None or size < best[0]:
            best = (size, cut, cls, reduced, output_verdict)
        if not all_cuts or best[0] == (4, 2 * k):  # no cut gives fewer than 4 vertices
            break
    if best is None:
        if any_cut:
            raise ValueError("no size-3 cut admits an odd block; cannot reduce")
        raise IrreducibleError("irreducible: 4-connected (no vertex cut of size 3)")
    _, cut, cls, reduced, output_verdict = best
    kappa = vertex_connectivity(g)
    return ReductionReport(
        case="hard" if cls.c1 else "easy",
        kappa=kappa,
        input_verdict=input_verdict,
        mu_bound=2 if kappa <= 2 else None,
        cut=cut,
        classification=cls,
        graph=reduced,
        scaled=scale_to_ghz(reduced) if input_verdict.is_g_ghz else None,
        vertex_map=_vertex_map(cut, cls),
        output_verdict=output_verdict,
    )
