"""Type weights at a 3-cut, colour classification, both reductions and the
pipeline around them."""

import copy
import itertools
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ghzgraphs.matchings
import ghzgraphs.reduction
from ghzgraphs import (
    ColourClassification,
    CutSpec,
    Edge,
    GaussianRational,
    GhzGraphError,
    InvariantViolation,
    IrreducibleError,
    Multigraph,
    TypeWeights,
    UnscalableColourError,
    WrongCaseError,
    build_graph,
    classify_colours,
    colouring_weight,
    colouring_weight_table,
    complete_ghz_k4,
    cycle_ghz,
    cycle_ghz_on,
    drop_zero_edges,
    induced_subgraph,
    iter_cuts,
    make_cut,
    merge_parallel_edges,
    mono_weights,
    octahedron,
    reduce,
    reduce_easy,
    reduce_hard,
    scale_to_ghz,
    type_weights,
    verify,
)
from ghzgraphs.matchings import _weight_table

from conftest import (
    HARD_ORDER,
    as_float,
    bits,
    bogdanov_corpus,
    cycle_cases,
    enumeration_corpus,
    ghz_corpus,
    hard_family,
    hard_family_member,
    planted_cut_corpus,
    planted_cut_instance,
    random_corpus,
    scale_corpus,
    slow_block_weight,
    slow_cut_block,
    slow_project,
    small_rational,
    weight_bits,
    weighted_cycle,
)


def eight_vertex_ladder(universe=1):
    """V1 = {0,1,2} matched straight into S = {3,4,5}; V2 = {6,7} paired.

    Exactly one perfect matching, all of type 0.
    """
    specs = [
        (3, 0, 0, 0, 1),
        (4, 1, 0, 0, 1),
        (5, 2, 0, 0, 1),
        (6, 7, 0, 0, 1),
    ]
    g = build_graph(8, specs, colours=range(universe))
    return g, make_cut(g, (3, 4, 5), (0, 1, 2), (6, 7))


# ---------------------------------------------------------------------------
# type weights


def test_type_weights_on_the_ladder():
    g, cut = eight_vertex_ladder()
    tw = type_weights(g, cut, (0,) * 8)
    assert tw.v1_side[0] == 1   # the straight matching into V1
    assert tw.v2_side[0] == 1   # the 6-7 edge
    assert tw.v1_side[1:] == (GaussianRational(0),) * 3
    assert tw.total == 1


def test_type0_weight_vanishes_on_c6_cut():
    # with V1 = {0} and S = {1, 3, 5}, vertex 3 is isolated inside G[V1+S]
    c6 = cycle_ghz(6)
    cut = make_cut(c6, (1, 3, 5), (0,), (2, 4))
    for vc in itertools.product(range(2), repeat=6):
        assert type_weights(c6, cut, vc).v1_side[0] == 0


@pytest.mark.parametrize("seed", range(25))
def test_four_term_split_for_arbitrary_colourings(seed):
    g, cut = planted_cut_instance(seed)
    rng = random.Random(f"vc-{seed}")
    universe = sorted(g.colour_universe)
    for _ in range(12):
        vc = tuple(rng.choice(universe) for _ in range(g.n))
        assert type_weights(g, cut, vc).total == colouring_weight(g, vc)


def slow_type_weights(g, cut, vc):
    """``type_weights`` as it was before one filtered copy of g served its
    eight blocks: each block read by ``slow_block_weight``."""
    v1, v2, s, paint = set(cut.v1), set(cut.v2), set(cut.s), vc.__getitem__
    return TypeWeights(
        (slow_block_weight(g, v1 | s, paint, s),)
        + tuple(slow_block_weight(g, v1 | {u}, paint) for u in cut.s),
        (slow_block_weight(g, v2, paint),)
        + tuple(slow_block_weight(g, v2 | (s - {u}), paint) for u in cut.s),
    )


TYPE_WEIGHT_CASES = hard_family() + planted_cut_corpus() + [
    (g, cut) for g in cycle_cases() for cut in iter_cuts(g, 3) if cut.parity == "odd"
]


@pytest.mark.parametrize("convert", [lambda g: g, as_float], ids=["exact", "float"])
def test_type_weights_are_the_per_block_reads(convert):
    for k, (g, cut) in enumerate(TYPE_WEIGHT_CASES):
        g = convert(g)
        rng = random.Random(f"type-weights-{k}")
        universe = sorted(g.colour_universe)
        colourings = [(c,) * g.n for c in universe]
        colourings += [tuple(rng.choice(universe) for _ in range(g.n)) for _ in range(2)]
        for vc in colourings:
            fast, slow = type_weights(g, cut, vc), slow_type_weights(g, cut, vc)
            assert type(fast.v1_side) is type(fast.v2_side) is tuple
            assert list(map(weight_bits, fast.v1_side + fast.v2_side)) == list(
                map(weight_bits, slow.v1_side + slow.v2_side)
            )


def test_type_weights_where_no_edge_agrees_are_the_graphs_zeros():
    # no edge of the alternately coloured 6-cycle agrees with the alternating
    # colouring, so the filtered copy is edgeless and exact: its zero is not g's
    g, vc = as_float(cycle_ghz(6)), (0, 1, 0, 1, 0, 1)
    tw = type_weights(g, CutSpec((0, 1, 3), (2,), (4, 5)), vc)
    assert [(type(w), w) for w in tw.v1_side + tw.v2_side] == [(complex, 0j)] * 8
    assert type(tw.total) is complex
    assert tw.total == colouring_weight(g, vc)


def test_type_weights_rejects_bad_cuts():
    c6 = cycle_ghz(6)
    two = make_cut(c6, (0, 2), (1,), (3, 4, 5))
    with pytest.raises(ValueError):
        type_weights(c6, two, (0,) * 6)
    with pytest.raises(ValueError):
        type_weights(c6, make_cut(c6, (1, 3, 5), (0,), (2, 4)), (0,) * 5)


CUT_TAKERS = {
    "classify_colours": lambda g, cut: classify_colours(g, cut),
    "type_weights": lambda g, cut: type_weights(g, cut, (0,) * g.n),
    "reduce_easy": lambda g, cut: reduce_easy(g, cut),
    "reduce_easy unchecked": lambda g, cut: reduce_easy(g, cut, check=False),
    "reduce_hard": lambda g, cut: reduce_hard(g, cut),
    "reduce_hard unchecked": lambda g, cut: reduce_hard(g, cut, check=False),
}


@pytest.mark.parametrize("take", CUT_TAKERS.values(), ids=CUT_TAKERS.keys())
def test_a_cut_that_is_not_one_of_the_graph_is_refused(take):
    c8 = cycle_ghz(8)
    with pytest.raises(ValueError, match="edge 3-4 crosses the cut"):
        take(c8, CutSpec((0, 1, 2), (3,), (4, 5, 6, 7)))
    with pytest.raises(ValueError, match="must partition the vertex set"):
        take(c8, CutSpec((0, 1, 2), (3,), (5, 6, 7)))  # vertex 4 left out
    with pytest.raises(ValueError, match="must partition the vertex set"):
        take(cycle_ghz(6), CutSpec((1, 3, 5), (0, 0, 0), (2, 4)))  # vertex 0 thrice


@pytest.mark.parametrize("take", CUT_TAKERS.values(), ids=CUT_TAKERS.keys())
@pytest.mark.parametrize("cut", [
    CutSpec((0.0, 2, 4), (1,), (3, 5)),
    CutSpec((0, 2, 4), (True,), (3, 5)),
    CutSpec((0, 2, 4), (1,), (3, np.float64(5))),
], ids=["float", "bool", "numpy-float"])
def test_a_cut_vertex_that_is_not_an_int_is_refused(take, cut):
    # each stand-in equals the vertex it replaces; unchecked it reached the
    # weight kernel's bit masks, which raised a bare TypeError
    with pytest.raises(ValueError, match="vertex must be an int"):
        take(cycle_ghz(6), cut)


def test_a_cut_of_numpy_vertices_reads_as_the_plain_cut():
    c6 = cycle_ghz(6)
    plain = CutSpec((0, 2, 4), (1,), (3, 5))
    numpy_cut = CutSpec((np.int64(0), 2, np.int32(4)), (np.int64(1),), (3, np.uint8(5)))
    assert classify_colours(c6, numpy_cut) == classify_colours(c6, plain)
    assert type_weights(c6, numpy_cut, (0,) * 6) == type_weights(c6, plain, (0,) * 6)
    assert reduce_easy(c6, numpy_cut) == reduce_easy(c6, plain)


@pytest.mark.parametrize("g, cut", [
    (cycle_ghz(6), CutSpec((0, 2, 4), (1,), (3, 5))),
    hard_family_member(0),
], ids=["easy", "hard"])
def test_the_cut_takers_read_the_cut_in_the_order_given(g, cut):
    # type_weights orders its blocks by cut.s, and the reduced graphs their
    # vertices and edges; _replace builds a cut that CutSpec has not sorted
    vc = (0,) * g.n
    for s in itertools.permutations(cut.s):
        shuffled = cut._replace(s=s, v1=cut.v1[::-1], v2=cut.v2[::-1])
        assert type_weights(g, shuffled, vc) == slow_type_weights(g, shuffled, vc)
        if classify_colours(g, shuffled).c1:
            assert reduce_hard(g, shuffled) == slow_reduce_hard(g, shuffled)
        else:
            assert reduce_easy(g, shuffled) == slow_reduce_easy(g, shuffled)


# ---------------------------------------------------------------------------
# colour classification


def test_classification_examples():
    c6 = cycle_ghz(6)
    cls = classify_colours(c6, make_cut(c6, (1, 3, 5), (0,), (2, 4)))
    assert cls.c1 == frozenset()
    assert cls.c2 == frozenset({0, 1})
    assert not cls.has_type0

    g, cut = eight_vertex_ladder()
    cls = classify_colours(g, cut)
    assert cls.has_type0
    assert cls.c1 == frozenset({0})

    g2, cut2 = eight_vertex_ladder(universe=2)
    cls2 = classify_colours(g2, cut2)
    assert cls2.c1 == frozenset({0})
    assert cls2.c2 == frozenset({1})
    assert cls2.v2_mono_weights[1] == 0


def test_hard_family_classification():
    for seed in range(6):
        g, cut = hard_family_member(seed)
        cls = classify_colours(g, cut)
        assert cls.c1 == frozenset({0})
        assert cls.c2 == frozenset({1})


# ---------------------------------------------------------------------------
# easy case


def test_reduce_easy_on_c6_gives_the_four_cycle():
    c6 = cycle_ghz(6)
    cut = make_cut(c6, (1, 3, 5), (0,), (2, 4))
    reduced = reduce_easy(c6, cut)
    assert reduced.n == 4
    assert sorted((e.u, e.v, e.cu, e.cv, e.weight) for e in reduced.edges) == [
        (0, 1, 0, 0, GaussianRational(1)),
        (0, 3, 1, 1, GaussianRational(1)),
        (1, 2, 1, 1, GaussianRational(1)),
        (2, 3, 0, 0, GaussianRational(1)),
    ]
    v = verify(reduced)
    assert v.is_ghz and v.dimension == 2


def test_easy_identity_recomputed_from_scratch():
    # w'(vc') must equal sum over c of w(original colouring with V2 = c)
    c6 = cycle_ghz(6)
    cut = make_cut(c6, (1, 3, 5), (0,), (2, 4))
    reduced = reduce_easy(c6, cut, check=False)
    for vc_r in itertools.product(range(2), repeat=4):
        total = GaussianRational(0)
        for c in range(2):
            vc = [0] * 6
            vc[0] = vc_r[0]
            for slot, ui in enumerate((1, 3, 5), start=1):
                vc[ui] = vc_r[slot]
            vc[2] = vc[4] = c
            total = total + colouring_weight(c6, tuple(vc))
        assert colouring_weight(reduced, vc_r) == total


def test_reduce_easy_refuses_the_hard_case():
    g, cut = hard_family_member(0)
    with pytest.raises(WrongCaseError):
        reduce_easy(g, cut)


# ---------------------------------------------------------------------------
# hard case


def test_reduce_hard_shape_and_mono_weights():
    g, cut = hard_family_member(0)
    reduced = reduce_hard(g, cut)
    assert reduced.n == 6  # V1 + S survive
    v = verify(reduced)
    assert v.is_g_ghz and v.dimension == 2
    # colour 1 sits in C2 -> mono weight 1; colour 0 in C1 -> 1/(1 * W(0 on V2))
    w_v2 = classify_colours(g, cut).v2_mono_weights[0]
    assert mono_weights(reduced) == {
        0: GaussianRational(1) / w_v2,
        1: GaussianRational(1),
    }


def test_hard_identity_recomputed_from_scratch():
    g, cut = hard_family_member(1)
    cls = classify_colours(g, cut)
    reduced = reduce_hard(g, cut, check=False)
    kept = sorted(set(cut.v1) | set(cut.s))
    for vc_r in itertools.product(range(2), repeat=len(kept)):
        total = GaussianRational(0)
        for c in range(2):
            vc = [c] * g.n
            for orig, colour in zip(kept, vc_r):
                vc[orig] = colour
            w = colouring_weight(g, tuple(vc))
            if c in cls.c1:
                w = w / cls.v2_mono_weights[c] / len(cls.c1)
            total = total + w
        assert colouring_weight(reduced, vc_r) == total


def test_reduce_hard_refuses_the_easy_case():
    c6 = cycle_ghz(6)
    with pytest.raises(WrongCaseError):
        reduce_hard(c6, make_cut(c6, (1, 3, 5), (0,), (2, 4)))


def test_parallel_split_member_reduces_identically():
    plain = hard_family_member(2, split=False)
    split = hard_family_member(2, split=True)
    # the torn edge changes the edge list but no colouring weight
    assert verify(split[0]).is_ghz
    r_plain = reduce_hard(*plain)
    r_split = reduce_hard(*split)
    assert mono_weights(r_plain) == mono_weights(r_split)


# ---------------------------------------------------------------------------
# the pipeline


def test_pipeline_on_c6_constructs_the_easy_reduction():
    report = reduce(cycle_ghz(6))
    assert report.case == "easy"
    assert report.kappa == 2
    assert report.mu_bound == 2
    assert report.graph.n == 4
    assert report.output_verdict.is_ghz
    assert report.output_verdict.dimension == 2
    assert report.scaled is not None and not report.scaled.is_exact
    assert verify(report.scaled).is_ghz
    assert report.vertex_map[0] == report.cut.v1


def test_pipeline_hard_dispatch():
    g, cut = hard_family_member(0)
    cls = classify_colours(g, cut)
    report = reduce(g, all_cuts=True)
    assert report.mu_bound == 2
    assert report.output_verdict.dimension >= 2
    # the preferred cut may differ from the family's canonical one, but the
    # explicit-cut route must agree with the pipeline's dimension guarantee
    assert verify(reduce_hard(g, cut)).dimension >= verify(g).dimension
    assert cls.c1 == frozenset({0})


def test_pipeline_rejections():
    with pytest.raises(ValueError):
        reduce(complete_ghz_k4())  # too few vertices
    with pytest.raises(IrreducibleError):
        reduce(octahedron())
    float_c6 = build_graph(6, [
        (k, (k + 1) % 6, k % 2, k % 2, 1.0) for k in range(6)
    ], colours=range(2))
    with pytest.raises(ValueError):
        reduce(float_c6)


def test_pipeline_twisted_cycle_stays_dimension_two():
    g = cycle_ghz_on(HARD_ORDER)
    report = reduce(g)
    assert report.kappa == 2 and report.mu_bound == 2
    assert report.output_verdict.dimension == 2


def test_pipeline_reduces_a_graph_that_cannot_be_scaled():
    """Colour 0 is dead and its all-0 colouring feasible with weight 0, so g
    cannot be scaled; the reduced graph drops the zero edges that kept that
    colouring feasible, so it can."""
    g = build_graph(6, [
        (0, 2, 0, 0, GaussianRational("1/3")),
        (1, 2, 0, 0, GaussianRational("-2/3", 1)),
        (0, 3, 0, 0, 0),
        (2, 3, 0, 0, 0),
        (1, 2, 0, 0, 0),
        (4, 5, 0, 0, 1),
    ])
    with pytest.raises(UnscalableColourError, match="colour 0: its monochromatic colouring"):
        scale_to_ghz(g)
    report = reduce(g)
    assert report.input_verdict.is_g_ghz and report.input_verdict.dimension == 0
    assert all(e.weight != 0 for e in report.graph.edges)
    assert report.output_verdict.is_ghz and report.output_verdict.dimension == 0
    assert verify(report.scaled).is_ghz


# ---------------------------------------------------------------------------
# one builder for both cases, against the two per-case builders it replaced


def slow_pair_weight(g, cut, a, b, p, q, colours, transform=None):
    sub, kept = induced_subgraph(g, set(cut.v2) | {a, b})
    total = g.zero
    for c in colours:
        vc = tuple(p if x == a else q if x == b else c for x in kept)
        w = colouring_weight(sub, vc)
        total = total + (w if transform is None else transform(c, w))
    return total


def slow_reduce_easy(g, cut):
    universe = sorted(g.colour_universe)
    edges = []
    for i, u_i in enumerate(cut.s, start=1):
        sub, kept = induced_subgraph(g, set(cut.v1) | {u_i})
        for p, q in itertools.product(universe, repeat=2):
            vc = tuple(q if x == u_i else p for x in kept)
            edges.append(Edge(0, i, p, q, colouring_weight(sub, vc)))
    for (i, a), (j, b) in itertools.combinations(enumerate(cut.s, start=1), 2):
        for p, q in itertools.product(universe, repeat=2):
            edges.append(Edge(i, j, p, q, slow_pair_weight(g, cut, a, b, p, q, universe)))
    reduced = Multigraph(4, tuple(edges), g.colour_universe)
    return drop_zero_edges(merge_parallel_edges(reduced))


def slow_reduce_hard(g, cut):
    cls = classify_colours(g, cut)
    universe = sorted(g.colour_universe)
    kept = sorted(set(cut.v1) | set(cut.s))
    pos = {orig: idx for idx, orig in enumerate(kept)}
    v1_set = set(cut.v1)
    edges = []
    for e in g.edges:
        if e.u in v1_set or e.v in v1_set:
            edges.append(Edge(pos[e.u], pos[e.v], e.cu, e.cv, e.weight))

    def summand(c, w):
        if c in cls.c1:
            return w / cls.v2_mono_weights[c] / len(cls.c1)
        return w

    for a, b in itertools.combinations(cut.s, 2):
        for p, q in itertools.product(universe, repeat=2):
            w = slow_pair_weight(g, cut, a, b, p, q, universe, transform=summand)
            edges.append(Edge(pos[a], pos[b], p, q, w))
    reduced = Multigraph(len(kept), tuple(edges), g.colour_universe)
    return drop_zero_edges(merge_parallel_edges(reduced))


def odd_three_cuts(g):
    return [(g, cut) for cut in iter_cuts(g, 3) if cut.parity == "odd"]


def two_colours_in_c1(seed):
    """A hard-family member plus a colour-1 edge inside V2, so C1 = {0, 1}."""
    g, cut = hard_family_member(seed)
    specs = [(e.u, e.v, e.cu, e.cv, e.weight) for e in g.edges]
    specs.append((6, 7, 1, 1, small_rational(random.Random(f"c1-{seed}"))))
    return build_graph(g.n, specs, colours=g.colour_universe), cut


DIFFERENTIAL_CASES = (
    [hard_family_member(seed, split) for seed in range(12) for split in (False, True)]
    + [two_colours_in_c1(seed) for seed in range(4)]
    + planted_cut_corpus(50)
    + odd_three_cuts(cycle_ghz(6))
    + odd_three_cuts(cycle_ghz_on(HARD_ORDER))
)


@pytest.mark.parametrize("case", range(len(DIFFERENTIAL_CASES)))
def test_one_builder_matches_the_per_case_builders(case):
    g, cut = DIFFERENTIAL_CASES[case]
    if classify_colours(g, cut).c1:
        fast, slow, wrong = reduce_hard, slow_reduce_hard, reduce_easy
    else:
        fast, slow, wrong = reduce_easy, slow_reduce_easy, reduce_hard
    expected = slow(g, cut)
    for check in (True, False):
        got = fast(g, cut, check)
        # same edges in the same order, exact weights of the same type
        assert got == expected
        assert [type(e.weight) for e in got.edges] == [type(e.weight) for e in expected.edges]
    with pytest.raises(WrongCaseError):
        wrong(g, cut)


def test_differential_cases_cover_every_size_of_c1():
    sizes = {len(classify_colours(g, cut).c1) for g, cut in DIFFERENTIAL_CASES}
    assert sizes == {0, 1, 2}


# ---------------------------------------------------------------------------
# the identity check fires


def perturb_table_of(monkeypatch, g):
    """Make the reduction read g's table with the all-0 entry off by one.

    Every cut reads that entry: it is the lift of the all-0 reduced
    colouring with V2 painted 0, and its factor f_0 is non-zero.
    """
    real = ghzgraphs.reduction.colouring_weight_table

    def perturbed(h):
        table = dict(real(h))
        if h is g:
            key = (0,) * g.n
            table[key] = table.get(key, g.zero) + 1
        return table

    monkeypatch.setattr(ghzgraphs.reduction, "colouring_weight_table", perturbed)


def test_identity_check_fires_in_the_easy_case(monkeypatch):
    c6 = cycle_ghz(6)
    cut = make_cut(c6, (1, 3, 5), (0,), (2, 4))
    perturb_table_of(monkeypatch, c6)
    with pytest.raises(InvariantViolation, match="easy-case identity failed"):
        reduce_easy(c6, cut)
    with pytest.raises(InvariantViolation, match="easy-case identity failed"):
        reduce(c6)
    reduce_easy(c6, cut, check=False)
    reduce(c6, check=False)


def test_identity_check_fires_in_the_hard_case(monkeypatch):
    g, cut = hard_family_member(0)
    perturb_table_of(monkeypatch, g)
    with pytest.raises(InvariantViolation, match="hard-case identity failed"):
        reduce_hard(g, cut)
    with pytest.raises(InvariantViolation, match="identity failed"):
        reduce(g, all_cuts=True)
    reduce_hard(g, cut, check=False)
    reduce(g, all_cuts=True, check=False)


# ---------------------------------------------------------------------------
# the table projection, against the lookups and enumeration it replaced


def slow_v2_sum(table, vc, factors, zero):
    """sum_c f_c * w(vc with its None entries painted c), one lookup per c."""
    total = zero
    for c, f in factors.items():
        w = table.get(tuple(c if x is None else x for x in vc))
        if w is not None:
            total = total + w * f
    return total


def slow_reduce(g, cut, cls, g_table, table_of=colouring_weight_table):
    """_reduce as it was: filtered lookups for the easy-case edges, one
    lookup per colour for the pair edges, and an identity check over every
    reduced colouring."""
    universe = sorted(g.colour_universe)
    one, zero = g.one, g.zero
    factors = {c: one / (w * len(cls.c1)) if c in cls.c1 else one
               for c, w in cls.v2_mono_weights.items()}
    vertex_map = ghzgraphs.reduction._vertex_map(cut, cls)
    pos = {x: r for r, orig in enumerate(vertex_map)
           for x in (orig if isinstance(orig, tuple) else (orig,))}
    v1_set = set(cut.v1)
    edges = []
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
        table = table_of(sub)
        for p, q in itertools.product(universe, repeat=2):
            vc = [p if x == a else q if x == b else None for x in kept]
            edges.append(Edge(pos[a], pos[b], p, q, slow_v2_sum(table, vc, factors, zero)))
    reduced = drop_zero_edges(merge_parallel_edges(
        Multigraph(len(vertex_map), tuple(edges), g.colour_universe)
    ))
    reduced_table = table_of(reduced)
    if g_table is not None:
        owner = [pos.get(x) for x in range(g.n)]
        for vc_r in itertools.product(universe, repeat=reduced.n):
            total = slow_v2_sum(g_table, [None if r is None else vc_r[r] for r in owner], factors, zero)
            if reduced_table.get(vc_r, zero) != total:
                raise InvariantViolation(
                    f"{'hard' if cls.c1 else 'easy'}-case identity failed at {vc_r}: "
                    f"reduced {reduced_table.get(vc_r, zero)} vs {total}"
                )
    return reduced, reduced_table


def dense_cut_graph(v1, s, v2, d, seed):
    """About 70% of the d * d colour classes on every pair not joining V1 to V2."""
    rng = random.Random(f"dense-cut-{seed}")
    n = len(v1) + len(s) + len(v2)
    specs = [
        (u, v, p, q, small_rational(rng))
        for u, v in itertools.combinations(range(n), 2)
        if not {u, v} & set(v1) or not {u, v} & set(v2)
        for p, q in itertools.product(range(d), repeat=2)
        if rng.random() < 0.7
    ]
    g = build_graph(n, specs, colours=range(d))
    return g, make_cut(g, s, v1, v2)


DENSE_EASY = dense_cut_graph((0,), (1, 2, 3), (4, 5, 6, 7), 3, 0)
DENSE_HARD = dense_cut_graph((0, 1, 2), (3, 4, 5), (6, 7), 3, 1)
PROJECTION_CASES = (
    planted_cut_corpus(50)
    + [hard_family_member(seed, split) for seed in range(12) for split in (False, True)]
    + odd_three_cuts(cycle_ghz(6))
    + odd_three_cuts(cycle_ghz(8))
    + [DENSE_EASY, DENSE_HARD]
    # the first odd cut of this graph, the one reduce picks, has projections
    # whose keys do not come out in sorted order
    + odd_three_cuts(planted_cut_corpus(12)[11][0])[:1]
)


def test_dense_cases_cover_both_cases():
    assert not classify_colours(*DENSE_EASY).c1
    assert classify_colours(*DENSE_HARD).c1


@pytest.mark.parametrize("case", range(len(PROJECTION_CASES)))
def test_projected_reduction_matches_the_lookup_reduction(case):
    g, cut = PROJECTION_CASES[case]
    cls = classify_colours(g, cut)
    expected, expected_table = slow_reduce(g, cut, cls, colouring_weight_table(g))
    for check in (True, False):
        got = ghzgraphs.reduction._reduce(g, cut, cls, check, {})
        # same edges in the same order, exact weights of the same type
        assert got == expected and colouring_weight_table(got) == expected_table
        assert [type(e.weight) for e in got.edges] == [type(e.weight) for e in expected.edges]


# ---------------------------------------------------------------------------
# one pass per projection and per reduced graph, against the slow paths


def factors_and_positions(g, cut, cls):
    """The f_c of the reduction at the cut, and each original vertex's reduced vertex."""
    one = g.one
    factors = {c: one / (w * len(cls.c1)) if c in cls.c1 else one
               for c, w in cls.v2_mono_weights.items()}
    vertex_map = ghzgraphs.reduction._vertex_map(cut, cls)
    pos = {x: r for r, orig in enumerate(vertex_map)
           for x in (orig if isinstance(orig, tuple) else (orig,))}
    return factors, pos


def block_sides(cut, easy):
    """The blocks _reduce projects: G[V1 + u_i] in the easy case, then G[V2 + {a, b}]."""
    sides = [set(cut.v1) | {u} for u in cut.s] if easy else []
    return sides + [set(cut.v2) | {a, b} for a, b in itertools.combinations(cut.s, 2)]


def every_odd_three_cut(graphs):
    return [(g, cut) for g in graphs for cut in iter_cuts(g, 3) if cut.parity == "odd"]


ONE_PASS_PROJECTION_CASES = every_odd_three_cut(
    [g for g, _ in hard_family()] + [g for g, _ in planted_cut_corpus()]
    + cycle_cases() + [cycle_ghz(12), weighted_cycle("cycle-12", range(12))]
)


def test_one_pass_projection_is_the_slow_projection():
    project = ghzgraphs.reduction._project
    seen = {"easy": 0, "hard": 0, "empty": 0, "summed": 0}
    for g, cut in ONE_PASS_PROJECTION_CASES:
        cls = classify_colours(g, cut)
        factors, pos = factors_and_positions(g, cut, cls)
        seen["hard" if cls.c1 else "easy"] += 1
        # every block of either case, and g's whole table as the identity check reads it
        tables = [(_weight_table(g, bits(side)), sorted(side)) for side in block_sides(cut, True)]
        tables.append((colouring_weight_table(g), range(g.n)))
        for table, kept in tables:
            owner = [pos.get(x) for x in kept]
            fast = project(table, owner, factors)
            slow = slow_project(table, owner, factors, g.zero)
            # same keys in the same order, exact values of the same type
            assert [(k, weight_bits(w)) for k, w in fast.items()] == \
                [(k, weight_bits(w)) for k, w in slow.items()], (g, cut, kept)
            seen["empty" if not table else "summed"] += 1
    assert all(seen.values()), seen


def v1_parallel_and_cancelling(seed):
    """A hard-family member with one V1 edge split into two parallel edges
    and a pair w, -w of a colour class new to another V1 edge's ends:
    tables and C1 are unchanged."""
    g, cut = hard_family_member(seed)
    rng = random.Random(f"v1-parallel-{seed}")
    specs = [(e.u, e.v, e.cu, e.cv, e.weight) for e in g.edges]
    touching = [k for k, e in enumerate(g.edges) if set(cut.v1) & {e.u, e.v}]
    split, beside = rng.sample(touching, 2)
    u, v, cu, cv, w = specs[split]
    a = small_rational(rng)
    specs[split] = (u, v, cu, cv, a)
    specs.append((u, v, cu, cv, w - a))
    u, v, cu, cv, _ = specs[beside]
    b = small_rational(rng)
    specs += [(u, v, cu, 1 - cv, b), (u, v, cu, 1 - cv, -b)]
    g = build_graph(g.n, specs, colours=g.colour_universe)
    return g, make_cut(g, cut.s, cut.v1, cut.v2)


def reduced_edge_list(g, cut, cls):
    """The edges _reduce sums, in its order, as Edge objects: the copied V1
    edges in the hard case, then each block's projected edges in key order."""
    factors, pos = factors_and_positions(g, cut, cls)
    v1 = set(cut.v1)
    edges = [Edge(pos[e.u], pos[e.v], e.cu, e.cv, e.weight)
             for e in g.edges if {e.u, e.v} & v1] if cls.c1 else []
    for side in block_sides(cut, not cls.c1):
        kept = sorted(side)
        owner = [pos.get(x) for x in kept]
        weights = slow_project(_weight_table(g, bits(kept)), owner, factors, g.zero)
        ra, rb = sorted(set(owner) - {None})
        edges += [Edge(ra, rb, p, q, w) for (p, q), w in sorted(weights.items())]
    return edges


REDUCED_GRAPH_CASES = (
    [v1_parallel_and_cancelling(seed) for seed in range(8)]
    + [hard_family_member(seed, split) for seed in range(6) for split in (False, True)]
    + planted_cut_corpus(30)
    + odd_three_cuts(cycle_ghz(8))
    + [DENSE_EASY, DENSE_HARD]
)


def test_one_pass_reduced_graph_is_the_merged_and_filtered_edge_list():
    merged_v1 = cancelled_v1 = 0
    for g, cut in REDUCED_GRAPH_CASES:
        cls = classify_colours(g, cut)
        edges = reduced_edge_list(g, cut, cls)
        n = len(ghzgraphs.reduction._vertex_map(cut, cls))
        expected = drop_zero_edges(merge_parallel_edges(Multigraph(n, edges, g.colour_universe)))
        for check in (True, False):
            got = ghzgraphs.reduction._reduce(g, cut, cls, check, {})
            # same edges in the same order, exact weights of the same type
            assert got == expected, (g, cut)
            assert [weight_bits(e.weight) for e in got.edges] == \
                [weight_bits(e.weight) for e in expected.edges]
        # the cases hold parallel copied V1 edges, some of them summing to 0
        copied = sum(1 for e in g.edges if set(cut.v1) & {e.u, e.v}) if cls.c1 else 0
        merged = merge_parallel_edges(Multigraph(n, edges[:copied], g.colour_universe))
        merged_v1 += len(merged.edges) < copied
        cancelled_v1 += any(e.weight == g.zero for e in merged.edges)
    assert merged_v1 and cancelled_v1


def unlifted_colouring(g, cut, cls, reduced_table):
    """The first reduced colouring that neither the reduced table nor any
    lift into g's table has, with its lift painting V2 in the first colour."""
    universe = sorted(g.colour_universe)
    g_table = colouring_weight_table(g)
    vertex_map = ghzgraphs.reduction._vertex_map(cut, cls)
    pos = {x: r for r, orig in enumerate(vertex_map)
           for x in (orig if isinstance(orig, tuple) else (orig,))}
    for vc_r in itertools.product(universe, repeat=len(vertex_map)):
        lifts = [tuple(vc_r[pos[x]] if x in pos else c for x in range(g.n)) for c in universe]
        if vc_r not in reduced_table and not any(vc in g_table for vc in lifts):
            return vc_r, lifts[0]
    raise AssertionError("every reduced colouring is on some side")


IDENTITY_CASES = [
    (cycle_ghz(6), make_cut(cycle_ghz(6), (1, 3, 5), (0,), (2, 4))),
    hard_family_member(0),
    two_colours_in_c1(0),
]


@pytest.mark.parametrize("side", ["g", "reduced"])
@pytest.mark.parametrize("case", range(len(IDENTITY_CASES)))
def test_identity_check_reports_the_first_mismatch_of_the_enumeration(monkeypatch, case, side):
    """Perturb one table at a colouring only that side has: the check over
    table keys fails where the enumeration of every colouring did."""
    g, cut = IDENTITY_CASES[case]
    cls = classify_colours(g, cut)
    reduced, reduced_table = slow_reduce(g, cut, cls, None)
    vc_r, lift = unlifted_colouring(g, cut, cls, reduced_table)
    real = ghzgraphs.reduction.colouring_weight_table
    target, key = (g, lift) if side == "g" else (reduced, vc_r)

    def perturbed(h):
        table = dict(real(h))
        if h == target:
            table[key] = g.one
        return table

    monkeypatch.setattr(ghzgraphs.reduction, "colouring_weight_table", perturbed)
    with pytest.raises(InvariantViolation) as slow:
        slow_reduce(g, cut, cls, perturbed(g), perturbed)
    with pytest.raises(InvariantViolation) as fast:
        ghzgraphs.reduction._reduce(g, cut, cls, True, {})
    assert str(fast.value) == str(slow.value)
    assert f"identity failed at {vc_r}:" in str(fast.value)
    ghzgraphs.reduction._reduce(g, cut, cls, False, {})


@pytest.mark.parametrize("case", range(len(IDENTITY_CASES)))
def test_identity_check_names_the_smallest_of_several_planted_mismatches(monkeypatch, case):
    """Plant mismatches at several colourings, on both sides, inside and
    outside the tables: the check, which sorts nothing unless it fails,
    raises the message of the check over every colouring in sorted order,
    naming the smallest mismatching colouring."""
    g, cut = IDENTITY_CASES[case]
    cls = classify_colours(g, cut)
    reduced, reduced_table = slow_reduce(g, cut, cls, None)
    vertex_map = ghzgraphs.reduction._vertex_map(cut, cls)
    pos = {x: r for r, orig in enumerate(vertex_map)
           for x in (orig if isinstance(orig, tuple) else (orig,))}
    universe = sorted(g.colour_universe)
    colourings = list(itertools.product(universe, repeat=reduced.n))
    rng = random.Random(f"planted-mismatches-{case}")
    outside = [vc for vc in colourings if vc not in reduced_table]
    planted = rng.sample(sorted(reduced_table), 2) + rng.sample(outside, 4)
    on_reduced, on_g = planted[::2], planted[1::2]
    lifts = [tuple(vc_r[pos[x]] if x in pos else universe[0] for x in range(g.n)) for vc_r in on_g]
    real = ghzgraphs.reduction.colouring_weight_table

    def perturbed(h):
        table = dict(real(h))
        for key in on_reduced if h == reduced else lifts if h == g else ():
            table[key] = table.get(key, g.zero) + g.one
        return table

    monkeypatch.setattr(ghzgraphs.reduction, "colouring_weight_table", perturbed)
    with pytest.raises(InvariantViolation) as slow:
        slow_reduce(g, cut, cls, perturbed(g), perturbed)
    with pytest.raises(InvariantViolation) as fast:
        ghzgraphs.reduction._reduce(g, cut, cls, True, {})
    assert str(fast.value) == str(slow.value)
    assert f"identity failed at {min(planted)}:" in str(fast.value)


# ---------------------------------------------------------------------------
# the bound of reduce(all_cuts=True): each colour with a non-zero all-c
# colouring has a perfect matching of its own, coloured (c, c), so a graph
# of dimension k on n vertices has k * n / 2 edges once parallel edges are
# merged and zero ones dropped, as a reduced graph's are


def edges_and_bound(g):
    """2 * the merged non-zero edges of g, and its dimension times n."""
    h = drop_zero_edges(merge_parallel_edges(g))
    return 2 * len(h.edges), verify(g).dimension * g.n


BOUND_CORPUS = (
    random_corpus(100) + bogdanov_corpus(20) + enumeration_corpus() + cycle_cases()
    + [g for _, g in ghz_corpus() + scale_corpus()]
    + [g for g, _ in planted_cut_corpus(50) + hard_family()]
)


def test_corpus_graphs_have_at_least_dimension_times_n_over_2_edges():
    pairs = [edges_and_bound(g) for g in BOUND_CORPUS]
    assert all(edges >= bound for edges, bound in pairs)
    assert any(edges == bound > 0 for edges, bound in pairs)  # C6, for one: the bound is met


@st.composite
def multigraphs(draw):
    """Up to 6 vertices and 3 colours; weights -2..2, so zero edges and
    parallel edges that cancel are common."""
    n = draw(st.integers(min_value=0, max_value=6))
    d = draw(st.integers(min_value=1, max_value=3))
    vertex, colour = st.integers(0, max(n - 1, 0)), st.integers(0, d - 1)
    specs = draw(st.lists(st.tuples(vertex, vertex, colour, colour, st.integers(-2, 2)), max_size=18))
    return build_graph(n, [spec for spec in specs if spec[0] != spec[1]], colours=range(d))


@settings(max_examples=200, deadline=None)
@given(multigraphs())
def test_random_multigraphs_have_at_least_dimension_times_n_over_2_edges(g):
    edges, bound = edges_and_bound(g)
    assert edges >= bound


# ---------------------------------------------------------------------------
# the lazy cut scan in reduce(), against the list-then-filter scan it replaced


def list_then_filter_reduce(g, all_cuts=False, check=True):
    """reduce() as it was: list every 3-cut, keep the odd ones, reduce each
    through the public builders and report from the public verify and
    scale_to_ghz."""
    r = ghzgraphs.reduction
    if g.n <= 4:
        raise ValueError("reduction needs more than four vertices")
    if not g.is_exact:
        raise ValueError("reduction expects an exact-weighted graph")
    input_verdict = verify(g)
    kappa = r.vertex_connectivity(g)
    cuts = list(r.iter_cuts(g, 3))
    candidates = [cut for cut in cuts if cut.parity == "odd"]
    if not candidates:
        if cuts:
            raise ValueError("no size-3 cut admits an odd block; cannot reduce")
        raise IrreducibleError("irreducible: 4-connected (no vertex cut of size 3)")
    if not all_cuts:
        candidates = candidates[:1]
    best = None
    for cut in candidates:
        cls = classify_colours(g, cut)
        reduced = (reduce_hard if cls.c1 else reduce_easy)(g, cut, check)
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
        report = r.ReductionReport(
            case="hard" if cls.c1 else "easy",
            kappa=kappa,
            input_verdict=input_verdict,
            mu_bound=2 if kappa <= 2 else None,
            cut=cut,
            classification=cls,
            graph=reduced,
            scaled=scaled,
            vertex_map=r._vertex_map(cut, cls),
            output_verdict=output_verdict,
        )
        if best is None or (report.graph.n, len(report.graph.edges)) < (
            best.graph.n,
            len(best.graph.edges),
        ):
            best = report
    return best


def only_even_cuts():
    """A 7-vertex, 3-connected graph whose one 3-cut leaves two even blocks."""
    pairs = [(0, 2), (0, 3), (0, 4), (0, 6), (1, 2), (1, 3), (1, 5), (1, 6), (2, 3),
             (2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (3, 6), (4, 6), (5, 6)]
    return build_graph(7, [(u, v, 0, 0, 1) for u, v in pairs], colours=range(1))


def even_cut_first():
    """A 7-vertex graph whose first 3-cut is even and whose later ones are odd."""
    pairs = [(0, 1), (0, 2), (0, 3), (0, 5), (0, 6), (2, 4), (2, 6), (3, 5), (4, 5), (4, 6)]
    return build_graph(7, [(u, v, 0, 0, 1) for u, v in pairs], colours=range(1))


def c6_with_a_dead_chord():
    """C6 with a chord 0-2 coloured (0, 1), in no perfect matching, so the
    graph is g-GHZ of dimension 2 like C6.  Its first three odd cuts reduce
    to 4 vertices and 5 edges, and its fourth to 4 vertices and 4 edges,
    the least any cut can give."""
    specs = [(e.u, e.v, e.cu, e.cv, e.weight) for e in cycle_ghz(6).edges]
    return build_graph(6, specs + [(0, 2, 0, 1, 1)], colours=range(2))


def dimension_losing_cut():
    """A 6-vertex graph that is not g-GHZ, of dimension 1, whose cuts mostly
    reduce to 4 vertices and 2 or more edges.

    Colour 0 has one matching, {01, 23, 45}.  Painting 0 and 1 in colour 1
    and the rest in 0 gives {02, 13, 45} weight -1.  At the cut {2, 3, 4}
    with V1 = {5} and V2 = {0, 1} the reduced pair 2-3 sums both, 1 - 1, so
    its edge is dropped: 4 vertices, 1 edge and dimension 0.  A bound drawn
    from the input's dimension would stop the scan at the earlier
    (4, 2) of the cut {0, 2, 4}.
    """
    specs = [(4, 5, 0, 0, 1), (2, 3, 0, 0, 1), (0, 1, 0, 0, 1), (0, 2, 1, 0, -1), (1, 3, 1, 0, 1)]
    return build_graph(6, specs, colours=range(2))


def outcome(fn, g, all_cuts):
    # the identity check reads no cut list; it is left out where every cut is
    # reduced, which is where reduce() spends its time
    try:
        return fn(g, all_cuts=all_cuts, check=not all_cuts)
    except (ValueError, IrreducibleError) as exc:
        return type(exc), str(exc)


SCAN_CASES = (
    [g for g, _ in planted_cut_corpus(50)]
    + [g for g, _ in (hard_family_member(seed, seed % 3 == 2) for seed in range(12))]
    + [cycle_ghz(6), cycle_ghz_on(HARD_ORDER), octahedron(), only_even_cuts(), even_cut_first()]
    + [c6_with_a_dead_chord(), dimension_losing_cut()]
)


@pytest.mark.parametrize("all_cuts", [False, True])
@pytest.mark.parametrize("case", range(len(SCAN_CASES)))
def test_lazy_cut_scan_matches_the_listed_scan(case, all_cuts):
    g = SCAN_CASES[case]
    assert outcome(reduce, g, all_cuts) == outcome(list_then_filter_reduce, g, all_cuts)


def test_scan_cases_reach_every_outcome():
    kinds = {
        out.case if isinstance(out, ghzgraphs.reduction.ReductionReport) else out[0]
        for out in (outcome(reduce, g, False) for g in SCAN_CASES)
    }
    assert kinds == {"easy", "hard", ValueError, IrreducibleError}
    assert next(iter_cuts(even_cut_first(), 3)).parity == "even"


def test_each_odd_cut_of_c6_is_the_one_reduced_when_it_comes_first(monkeypatch):
    c6 = cycle_ghz(6)
    real = ghzgraphs.reduction.iter_cuts
    for first in [cut for cut in real(c6, 3) if cut.parity == "odd"]:
        monkeypatch.setattr(
            ghzgraphs.reduction, "iter_cuts",
            lambda g, size, first=first: itertools.chain([first], real(g, size)),
        )
        report = reduce(c6)
        assert report.cut == first
        assert report == list_then_filter_reduce(c6)


def test_scan_stops_at_the_first_odd_cut(monkeypatch):
    real = ghzgraphs.reduction.iter_cuts
    drawn = []

    def counting(g, size):
        for cut in real(g, size):
            drawn.append(cut)
            yield cut

    monkeypatch.setattr(ghzgraphs.reduction, "iter_cuts", counting)
    g = even_cut_first()
    report = reduce(g)
    assert drawn[-1] == report.cut and report.cut.parity == "odd"
    assert [cut.parity for cut in drawn[:-1]] == ["even"]
    assert len(drawn) < len(list(real(g, 3)))


# ---------------------------------------------------------------------------
# one table of g per reduce() call, one classification per cut


COMPUTE_ONCE_CASES = (
    [cycle_ghz(6), cycle_ghz_on(HARD_ORDER), hard_family_member(0)[0], even_cut_first()]
    + [g for g, _ in planted_cut_corpus(4)]
)


@pytest.mark.parametrize("all_cuts", [False, True])
@pytest.mark.parametrize("case", range(len(COMPUTE_ONCE_CASES)))
def test_reduce_builds_one_table_of_g_and_classifies_each_cut_once(monkeypatch, case, all_cuts):
    g = copy.copy(COMPUTE_ONCE_CASES[case])  # a copy carries no memoised table
    real_table = ghzgraphs.matchings._weight_table
    real_classify = ghzgraphs.reduction._classify  # classify_colours goes through it too
    tables_of_g, classified = [], []

    def counting_table(h):
        if h is g:
            tables_of_g.append(h)
        return real_table(h)

    def counting_classify(h, cut, blocks):
        classified.append(cut)
        return real_classify(h, cut, blocks)

    monkeypatch.setattr(ghzgraphs.matchings, "_weight_table", counting_table)
    monkeypatch.setattr(ghzgraphs.reduction, "_classify", counting_classify)
    report = reduce(g, all_cuts=all_cuts)
    odd = [cut for cut in iter_cuts(g, 3) if cut.parity == "odd"]
    assert len(tables_of_g) == 1
    assert classified == odd[:len(classified)] and report.cut in classified
    if not all_cuts:
        assert classified == odd[:1]
    elif classified != odd:  # a scan stops early only at the bound, on the cut that met it
        verdict = report.input_verdict
        k = verdict.dimension if verdict.is_g_ghz else 0
        assert report.cut == classified[-1]
        assert (report.graph.n, len(report.graph.edges)) == (4, 2 * k)


def counting_scan(monkeypatch):
    """The cuts ``reduce`` classifies and the cuts it reduces, in order."""
    real_classify, real_reduce = ghzgraphs.reduction._classify, ghzgraphs.reduction._reduce
    classified, reduced = [], []

    def counting_classify(h, cut, blocks):
        classified.append(cut)
        return real_classify(h, cut, blocks)

    def counting_reduce(h, cut, cls, check, blocks):
        reduced.append(cut)
        return real_reduce(h, cut, cls, check, blocks)

    monkeypatch.setattr(ghzgraphs.reduction, "_classify", counting_classify)
    monkeypatch.setattr(ghzgraphs.reduction, "_reduce", counting_reduce)
    return classified, reduced


def test_all_cuts_stops_at_a_first_cut_that_meets_the_bound(monkeypatch):
    """The hard family is g-GHZ of dimension 2, and its first odd cut is easy
    and reduces to 4 vertices and 4 edges: no cut can give less."""
    g, _ = hard_family_member(0)
    odd = [cut for cut in iter_cuts(g, 3) if cut.parity == "odd"]
    classified, reduced = counting_scan(monkeypatch)
    report = reduce(g, all_cuts=True)
    assert classified == reduced == odd[:1] and len(odd) == 80
    assert (report.graph.n, len(report.graph.edges), report.input_verdict.dimension) == (4, 4, 2)
    assert report == list_then_filter_reduce(g, all_cuts=True)


@pytest.mark.parametrize("all_cuts", [False, True])
def test_all_cuts_reduces_only_the_cuts_that_can_still_win(monkeypatch, all_cuts):
    """The hard family's 16 hard cuts, put first, each reduce to 6 vertices
    and 6 edges, the least a cut of 6 vertices can give at dimension 2.  So
    after the first only a cut of 4 vertices can still win: the other hard
    cuts, which could at best tie, are classified but never reduced, and the
    first easy cut is reduced, gives 4 vertices and 4 edges and stops the
    scan."""
    g, _ = hard_family_member(0)
    odd = [cut for cut in iter_cuts(g, 3) if cut.parity == "odd"]
    hard = [cut for cut in odd if classify_colours(g, cut).c1]
    easy = [cut for cut in odd if cut not in hard]
    assert (len(odd), len(hard)) == (80, 16)
    assert {(h.n, len(h.edges)) for h in (reduce_hard(g, cut) for cut in hard)} == {(6, 6)}
    monkeypatch.setattr(ghzgraphs.reduction, "iter_cuts", lambda h, size: iter(hard + easy))
    classified, reduced = counting_scan(monkeypatch)
    report = reduce(g, all_cuts=all_cuts)
    if all_cuts:
        assert classified == hard + easy[:1]
        assert reduced == [hard[0], easy[0]] and report.cut == easy[0]
    else:
        assert classified == reduced == hard[:1] and report.cut == hard[0]


def test_all_cuts_scans_past_a_first_cut_above_the_bound(monkeypatch):
    """C6 with a dead chord: the first three odd cuts give 4 vertices and 5
    edges, more than the bound of 4 at dimension 2, so each later cut can
    still win on edges and is reduced; the fourth meets the bound, wins and
    stops the scan."""
    g = c6_with_a_dead_chord()
    odd = [cut for cut in iter_cuts(g, 3) if cut.parity == "odd"]
    classified, reduced = counting_scan(monkeypatch)
    report = reduce(g, all_cuts=True)
    assert classified == reduced == odd[:4] and len(odd) > 4
    assert report.cut == odd[3]
    assert (report.input_verdict.is_g_ghz, report.input_verdict.dimension) == (True, 2)
    assert (report.graph.n, len(report.graph.edges)) == (4, 4)
    assert report == list_then_filter_reduce(g, all_cuts=True)
    assert reduce(g).cut == odd[0]


def test_a_graph_that_is_not_g_ghz_takes_no_bound_from_its_dimension():
    """Only a g-GHZ input's result must keep its dimension.  The dimension 1
    graph here reaches 4 vertices and 2 edges, the g-GHZ bound, at an earlier
    cut, and its winner, with 1 edge, is found only past it."""
    g = dimension_losing_cut()
    odd = [cut for cut in iter_cuts(g, 3) if cut.parity == "odd"]
    verdict = verify(g)
    assert (verdict.is_g_ghz, verdict.dimension) == (False, 1)
    report = reduce(g, all_cuts=True)
    assert report == list_then_filter_reduce(g, all_cuts=True)
    assert report.cut == CutSpec((2, 3, 4), (5,), (0, 1))
    assert (report.graph.n, len(report.graph.edges), report.output_verdict.dimension) == (4, 1, 0)
    first_at_bound = next(cut for cut in odd if len(reduce_easy(g, cut).edges) == 2)
    assert odd.index(first_at_bound) < odd.index(report.cut)


@pytest.mark.parametrize("all_cuts", [False, True])
@pytest.mark.parametrize("case", range(len(COMPUTE_ONCE_CASES)))
def test_reduce_scales_only_the_graph_it_returns(monkeypatch, case, all_cuts):
    g = COMPUTE_ONCE_CASES[case]
    real_scale = ghzgraphs.reduction.scale_to_ghz
    scaled = []

    def counting_scale(h, *args):
        scaled.append(h)
        return real_scale(h, *args)

    monkeypatch.setattr(ghzgraphs.reduction, "scale_to_ghz", counting_scale)
    report = reduce(g, all_cuts=all_cuts)
    if report.input_verdict.is_g_ghz:
        assert len(scaled) == 1 and scaled[0] is report.graph
        assert report.scaled is not None
    else:
        assert scaled == [] and report.scaled is None


@pytest.mark.parametrize("all_cuts", [False, True])
@pytest.mark.parametrize("case", range(len(COMPUTE_ONCE_CASES)))
def test_reduce_builds_one_table_of_the_graph_it_returns(monkeypatch, case, all_cuts):
    """The rescaling reads the table kept on the reduced graph, so no table
    of the returned graph, or of an equal copy such as the one without zero
    edges, is built twice."""
    g = COMPUTE_ONCE_CASES[case]
    real_table = ghzgraphs.matchings._weight_table
    seen = []

    def counting_table(h):
        seen.append(h)
        return real_table(h)

    monkeypatch.setattr(ghzgraphs.matchings, "_weight_table", counting_table)
    report = reduce(g, all_cuts=all_cuts)
    assert sum(h is report.graph for h in seen) == 1
    if not all_cuts:  # with all_cuts another cut may reduce to an equal graph
        assert sum(h == report.graph for h in seen) == 1


def test_reduce_computes_kappa_only_for_a_report(monkeypatch):
    real = ghzgraphs.reduction.vertex_connectivity
    seen = []

    def counting_connectivity(h):
        seen.append(h)
        return real(h)

    monkeypatch.setattr(ghzgraphs.reduction, "vertex_connectivity", counting_connectivity)
    with pytest.raises(IrreducibleError):
        reduce(octahedron())
    with pytest.raises(ValueError, match="no size-3 cut admits an odd block"):
        reduce(only_even_cuts())
    assert seen == []
    c8 = cycle_ghz(8)
    assert reduce(c8).kappa == 2 and seen == [c8]


# ---------------------------------------------------------------------------
# one block per vertex set per reduce() call, read on g in place, against
# block copies built per cut


def vertices_of(mask):
    """The vertices of a bit mask, in increasing order."""
    return [x for x in range(mask.bit_length()) if mask >> x & 1]


def slow_unshared_reduce(g, all_cuts=False, check=True):
    """reduce() as it was: every cut builds its own block copies and their tables."""
    def unshared(blocks, h, vertices, cut=0):
        sub, kept = slow_cut_block(h, vertices_of(vertices), vertices_of(cut))
        return kept, colouring_weight_table(sub)

    with mock.patch.object(ghzgraphs.reduction, "_block", unshared):
        return reduce(g, all_cuts=all_cuts, check=check)


def all_cuts_outcome(fn, g, check):
    try:
        return fn(g, all_cuts=True, check=check)
    except (GhzGraphError, ValueError) as exc:
        return type(exc), str(exc)


SHARED_BLOCK_CASES = (
    [g for g, _ in hard_family()]
    + [g for g, _ in planted_cut_corpus(50)]
    + [cycle_ghz(n) for n in range(6, 13, 2)]
    + [octahedron(), only_even_cuts()]
)


@pytest.mark.parametrize("check", [True, False])
@pytest.mark.parametrize("case", range(len(SHARED_BLOCK_CASES)))
def test_shared_blocks_match_the_blocks_built_per_cut(case, check):
    g = SHARED_BLOCK_CASES[case]
    assert all_cuts_outcome(reduce, g, check) == all_cuts_outcome(slow_unshared_reduce, g, check)


@pytest.mark.parametrize("all_cuts", [False, True])
@pytest.mark.parametrize("case", range(len(COMPUTE_ONCE_CASES)))
def test_reduce_builds_each_block_once(monkeypatch, case, all_cuts):
    """Every block is one masked kernel run on g itself, one per block key."""
    g = COMPUTE_ONCE_CASES[case]
    real_kernel, real_block = ghzgraphs.reduction._weight_table, ghzgraphs.reduction._block
    built, asked = [], []

    def counting_kernel(h, vertices=-1, cut=0):
        assert h is g
        built.append((vertices, vertices & cut))
        return real_kernel(h, vertices, cut)

    def counting_block(blocks, h, vertices, cut=0):
        asked.append((vertices, vertices & cut))
        return real_block(blocks, h, vertices, cut)

    monkeypatch.setattr(ghzgraphs.reduction, "_weight_table", counting_kernel)
    monkeypatch.setattr(ghzgraphs.reduction, "_block", counting_block)
    reduce(g, all_cuts=all_cuts)
    assert len(built) == len(set(built)) and set(built) == set(asked)


@pytest.mark.parametrize("g", [even_cut_first(), planted_cut_corpus(4)[3][0]])
def test_the_cuts_of_a_full_scan_share_their_blocks(monkeypatch, g):
    """Two scans that never meet the bound: every odd cut is classified, and
    blocks asked for by several cuts are built once."""
    real_kernel, real_block = ghzgraphs.reduction._weight_table, ghzgraphs.reduction._block
    built, asked = [], []

    def counting_kernel(h, vertices=-1, cut=0):
        built.append((vertices, vertices & cut))
        return real_kernel(h, vertices, cut)

    def counting_block(blocks, h, vertices, cut=0):
        asked.append((vertices, vertices & cut))
        return real_block(blocks, h, vertices, cut)

    monkeypatch.setattr(ghzgraphs.reduction, "_weight_table", counting_kernel)
    monkeypatch.setattr(ghzgraphs.reduction, "_block", counting_block)
    classified, _ = counting_scan(monkeypatch)
    reduce(g, all_cuts=True)
    assert classified == [cut for cut in iter_cuts(g, 3) if cut.parity == "odd"]
    assert len(built) == len(set(built)) and set(built) == set(asked)
    assert len(asked) > len(built)


# ---------------------------------------------------------------------------
# G[V2]'s monochromatic weights read from its block table, against one
# filtered copy and lookup per colour


def slow_classify(g, cut):
    """classify_colours as it was: block copies, and G[V2]'s all-c weights by
    ``colouring_weight`` on the copy, one filtered graph per colour."""
    zero = g.zero
    h0 = slow_cut_block(g, set(cut.v1) | set(cut.s), cut.s).graph
    has_type0 = any(w != zero for w in colouring_weight_table(h0).values())
    v2 = slow_cut_block(g, cut.v2).graph
    v2_weights = {c: colouring_weight(v2, (c,) * v2.n) for c in sorted(g.colour_universe)}
    c1 = frozenset(c for c, w in v2_weights.items() if w != zero) if has_type0 else frozenset()
    return ColourClassification(c1, frozenset(g.colour_universe) - c1, has_type0, v2_weights)


CLASSIFY_CASES = (
    [g for g, _ in hard_family()]
    + [g for g, _ in planted_cut_corpus(50)]
    + [cycle_ghz(n) for n in range(6, 13, 2)]
)


@pytest.mark.parametrize("case", range(len(CLASSIFY_CASES)))
def test_classification_matches_the_per_colour_lookups_on_block_copies(case):
    g = CLASSIFY_CASES[case]
    odd = [cut for cut in iter_cuts(g, 3) if cut.parity == "odd"]
    assert odd
    for cut in odd:
        fast, slow = classify_colours(g, cut), slow_classify(g, cut)
        assert fast == slow
        assert list(fast.v2_mono_weights.items()) == list(slow.v2_mono_weights.items())
        assert [type(w) for w in fast.v2_mono_weights.values()] == [
            type(w) for w in slow.v2_mono_weights.values()
        ]


def test_classify_cases_reach_both_cases():
    splits = {bool(classify_colours(g, cut).c1)
              for g in CLASSIFY_CASES for cut in iter_cuts(g, 3) if cut.parity == "odd"}
    assert splits == {False, True}


@pytest.mark.parametrize("all_cuts", [False, True])
def test_reduce_filters_no_graph(monkeypatch, all_cuts):
    filtered = []
    real = ghzgraphs.matchings.filter_graph

    def filter_graph(h, vc):
        filtered.append(h)
        return real(h, vc)

    monkeypatch.setattr(ghzgraphs.matchings, "filter_graph", filter_graph)
    for g in COMPUTE_ONCE_CASES:
        reduce(g, all_cuts=all_cuts)
    assert filtered == []
    g, cut = eight_vertex_ladder()
    type_weights(g, cut, (0,) * g.n)  # nor do the block lookups
    assert filtered == []
