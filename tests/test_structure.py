"""Matching cover, connectivity, cut enumeration and square decompositions."""

import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ghzgraphs.structure
from ghzgraphs import (
    CutSpec,
    Multigraph,
    build_graph,
    colouring_weight,
    colouring_weight_table,
    complete_ghz_k4,
    cycle_ghz,
    enumerate_perfect_matchings,
    find_cut,
    iter_cuts,
    make_cut,
    mcg,
    octahedron,
    parallel_ghz_k2,
    skeleton,
    square_decomposition_even,
    square_decomposition_odd,
    vertex_connectivity,
)

from conftest import (
    enumeration_corpus,
    oracle_connectivity,
    planted_matching_graph,
    small_rational,
)


# ---------------------------------------------------------------------------
# mcg


def test_mcg_drops_edges_outside_all_matchings():
    # path 0-1-2-3: the middle edge lies in no perfect matching
    g = build_graph(4, [(0, 1, 0, 0, 1), (1, 2, 0, 0, 1), (2, 3, 0, 0, 1)])
    kept = mcg(g)
    assert [(e.u, e.v) for e in kept.edges] == [(0, 1), (2, 3)]


def test_mcg_of_matchingless_graph_is_edgeless():
    g = build_graph(4, [(0, 1, 0, 0, 1), (0, 2, 0, 0, 1)])
    assert mcg(g).edges == ()


@pytest.mark.parametrize("seed", range(12))
def test_mcg_preserves_matchings_and_table(seed):
    g = planted_matching_graph(seed)
    kept = mcg(g)
    as_edge_sets = lambda graph: sorted(
        sorted((e.u, e.v, e.cu, e.cv, e.weight.re, e.weight.im) for i in m for e in [graph.edges[i]])
        for m in enumerate_perfect_matchings(graph)
    )
    assert as_edge_sets(kept) == as_edge_sets(g)
    assert colouring_weight_table(kept) == colouring_weight_table(g)
    assert mcg(kept) == kept  # fixpoint


def slow_mcg(g):
    """mcg by enumeration: keep the edges of every perfect matching."""
    used = set()
    for m in enumerate_perfect_matchings(g):
        used.update(m)
    return Multigraph(g.n, tuple(e for i, e in enumerate(g.edges) if i in used), g.colour_universe)


def test_mcg_matches_enumeration_on_the_corpus():
    # zero-weight edges and cancelling pairs count like any edge: weights play no role
    for g in enumeration_corpus():
        assert mcg(g) == slow_mcg(g)


# ---------------------------------------------------------------------------
# vertex connectivity


def test_connectivity_of_known_graphs():
    assert vertex_connectivity(cycle_ghz(6)) == 2
    assert vertex_connectivity(complete_ghz_k4()) == 3
    assert vertex_connectivity(octahedron()) == 4
    assert vertex_connectivity(parallel_ghz_k2(5)) == 1  # complete on 2 vertices
    path = build_graph(3, [(0, 1, 0, 0, 1), (1, 2, 0, 0, 1)])
    assert vertex_connectivity(path) == 1
    disconnected = build_graph(4, [(0, 1, 0, 0, 1), (2, 3, 0, 0, 1)])
    assert vertex_connectivity(disconnected) == 0
    assert vertex_connectivity(build_graph(1, [])) == 0


def simple_graphs(max_n=7, min_n=1, max_edges=18):
    def make(n, picks):
        pairs = list(itertools.combinations(range(n), 2))
        chosen = [pairs[i % len(pairs)] for i in picks] if pairs else []
        return build_graph(n, [(u, v, 0, 0, 1) for u, v in set(chosen)])
    return st.integers(min_value=min_n, max_value=max_n).flatmap(
        lambda n: st.builds(
            make, st.just(n), st.lists(st.integers(min_value=0, max_value=60), max_size=max_edges)
        )
    )


@settings(max_examples=200, deadline=None)
@given(simple_graphs(max_n=11, max_edges=45))
def test_connectivity_matches_brute_force(g):
    assert vertex_connectivity(g) == oracle_connectivity(g)


@pytest.mark.parametrize("seed", range(40))
def test_connectivity_of_dense_random_graphs(seed):
    # dense enough that kappa reaches 3 to 8, where the scan stops early
    rng = random.Random(f"kappa-{seed}")
    n = rng.randint(5, 11)
    p = rng.uniform(0.5, 0.95)
    pairs = [pair for pair in itertools.combinations(range(n), 2) if rng.random() < p]
    g = build_graph(n, [(u, v, 0, 0, 1) for u, v in pairs])
    assert vertex_connectivity(g) == oracle_connectivity(g)


def test_connectivity_of_a_long_cycle(monkeypatch):
    # Even's bound: flows start only from the first kappa + 1 vertices
    real = ghzgraphs.structure._local_connectivity
    sources = []

    def counting(adj, s, t):
        sources.append(s)
        return real(adj, s, t)

    monkeypatch.setattr(ghzgraphs.structure, "_local_connectivity", counting)
    assert vertex_connectivity(cycle_ghz(40)) == 2
    assert set(sources) == {0, 1, 2}


@settings(max_examples=150, deadline=None)
@given(simple_graphs(max_n=9, min_n=5))
def test_low_connectivity_leaves_an_odd_three_cut(g):
    # the lemma that lets reduce() do without a connectivity-bound branch
    assume(vertex_connectivity(g) <= 2)
    assert any(cut.parity == "odd" for cut in iter_cuts(g, 3))


def test_connectivity_ignores_parallel_edges():
    g = build_graph(3, [(0, 1, 0, 0, 1), (0, 1, 1, 1, 1), (1, 2, 0, 0, 1)], colours=range(2))
    assert vertex_connectivity(g) == 1


# ---------------------------------------------------------------------------
# cuts


def test_cutspec_sorts_its_blocks_and_reads_parity_from_v1():
    spec = CutSpec((1, 0), (4, 2), (3,))
    assert spec.s == (0, 1) and spec.v1 == (2, 4)  # sorted on construction
    assert spec.parity == "even" and CutSpec((0, 1), (2,), (3, 4)).parity == "odd"
    assert list(CutSpec._fields) == ["s", "v1", "v2"]
    assert repr(spec) == "CutSpec(s=(0, 1), v1=(2, 4), v2=(3,), parity='even')"
    with pytest.raises(AttributeError):
        spec.parity = "odd"


def test_make_cut_validations():
    c6 = cycle_ghz(6)
    cut = make_cut(c6, (1, 3, 5), (0,), (2, 4))
    assert cut.parity == "odd"
    with pytest.raises(ValueError):
        make_cut(c6, (1, 3), (0,), (2, 4))  # not a partition
    with pytest.raises(ValueError):
        make_cut(c6, (1, 3, 5), (0, 2, 4), ())  # empty side
    with pytest.raises(ValueError):
        make_cut(c6, (0, 1), (2, 3), (4, 5))  # edge 3-4 crosses the blocks


def test_find_cut_on_c6_is_deterministic():
    c6 = cycle_ghz(6)
    assert find_cut(c6, 2) == CutSpec((0, 2), (1,), (3, 4, 5))
    assert find_cut(c6, 3) == CutSpec((0, 1, 3), (2,), (4, 5))
    assert find_cut(octahedron(), 3) is None


@pytest.mark.parametrize("g", [cycle_ghz(6), parallel_ghz_k2(1)])
def test_cut_search_refuses_a_negative_size(g):
    with pytest.raises(ValueError, match="cut size must be at least 0, got -1"):
        find_cut(g, -1)
    with pytest.raises(ValueError, match="cut size"):
        list(iter_cuts(g, -2))


def test_iter_cuts_yields_only_valid_cuts():
    for g in (cycle_ghz(6), cycle_ghz(8), planted_matching_graph(1)):
        for cut in itertools.islice(iter_cuts(g, 3), 50):
            rebuilt = make_cut(g, cut.s, cut.v1, cut.v2)
            assert rebuilt == cut


def test_iter_cuts_finds_every_separating_set():
    # completeness against brute force: every 2-subset whose removal
    # disconnects the rest must appear among the yielded cuts
    g = cycle_ghz(8)
    adj = {x: set() for x in range(g.n)}
    for e in g.edges:
        adj[e.u].add(e.v)
        adj[e.v].add(e.u)
    expected = set()
    for s in itertools.combinations(range(g.n), 2):
        remaining = [v for v in range(g.n) if v not in s]
        seen = {remaining[0]}
        stack = [remaining[0]]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y in set(remaining) and y not in seen:
                    seen.add(y)
                    stack.append(y)
        if len(seen) < len(remaining):
            expected.add(s)
    assert {cut.s for cut in iter_cuts(g, 2)} == expected


def test_three_cut_enumeration_covers_odd_groupings():
    # removing {0, 1, 4} from C8 leaves components {2, 3} and {5, 6, 7}:
    # only one odd grouping, so exactly one cut for that S
    cuts = [c for c in iter_cuts(cycle_ghz(8), 3) if c.s == (0, 1, 4)]
    assert cuts == [CutSpec((0, 1, 4), (5, 6, 7), (2, 3))]
    # {0, 2, 4} leaves {1}, {3}, {5, 6, 7}: three proper odd groupings
    # (the union of all components is never a side -- v2 must be non-empty)
    cuts = [c for c in iter_cuts(cycle_ghz(8), 3) if c.s == (0, 2, 4)]
    assert [c.v1 for c in cuts] == [(1,), (3,), (5, 6, 7)]


# ---------------------------------------------------------------------------
# squares


def planted_two_cut(seed, odd):
    """[A | {u, v} | B] instance with no A-B edges; |A| odd or even."""
    rng = random.Random(f"two-cut-{seed}-{odd}")
    na = rng.choice([1, 3]) if odd else 2
    nb = rng.choice([1, 3]) if odd else rng.choice([2, 4])
    n = na + nb + 2
    a_side = list(range(na))
    u, v = na, na + 1
    b_side = list(range(na + 2, n))
    d = rng.randint(1, 2)
    specs = []
    for _ in range(rng.randint(4, 10)):
        x, y = rng.sample(a_side + [u, v], 2)
        specs.append((x, y, rng.randrange(d), rng.randrange(d), small_rational(rng)))
    for _ in range(rng.randint(4, 10)):
        x, y = rng.sample(b_side + [u, v], 2)
        specs.append((x, y, rng.randrange(d), rng.randrange(d), small_rational(rng)))
    g = build_graph(n, specs, colours=range(d))
    return g, u, v, a_side, b_side


@pytest.mark.parametrize("seed", range(15))
def test_odd_square_total_reproduces_the_colouring_weight(seed):
    g, u, v, a_side, b_side = planted_two_cut(seed, odd=True)
    universe = sorted(g.colour_universe)
    for colours in itertools.product(universe, repeat=4):
        sq = square_decomposition_odd(g, u, v, a_side, b_side, colours)
        i, j, k, l = colours
        vc = tuple(
            k if x == u else l if x == v else i if x in a_side else j
            for x in range(g.n)
        )
        assert sq.total == colouring_weight(g, vc)


@pytest.mark.parametrize("seed", range(15))
def test_even_square_total_reproduces_the_colouring_weight(seed):
    g, u, v, a_side, b_side = planted_two_cut(seed, odd=False)
    universe = sorted(g.colour_universe)
    for colours in itertools.product(universe, repeat=3):
        sq = square_decomposition_even(g, u, v, a_side, b_side, colours)
        i, j, k = colours
        vc = tuple(
            k if x in (u, v) else i if x in a_side else j
            for x in range(g.n)
        )
        assert sq.total == colouring_weight(g, vc)


def test_square_parity_checks():
    g, u, v, a_side, b_side = planted_two_cut(0, odd=True)
    with pytest.raises(ValueError):
        square_decomposition_even(g, u, v, a_side, b_side, (0, 0, 0))
    g, u, v, a_side, b_side = planted_two_cut(0, odd=False)
    with pytest.raises(ValueError):
        square_decomposition_odd(g, u, v, a_side, b_side, (0, 0, 0, 0))


SQUARE_DECOMPOSITIONS = (
    (square_decomposition_odd, (0, 0, 0, 0)),
    (square_decomposition_even, (0, 0, 0)),
)


def test_square_decompositions_reject_a_repeated_cut_vertex():
    # vertex 2 alone separates {0, 1} from {3, 4}; make_cut refuses it listed twice
    g = build_graph(5, [(0, 1, 0, 0, 1), (1, 2, 0, 0, 1), (2, 3, 0, 0, 1), (3, 4, 0, 0, 1)])
    assert make_cut(g, (2,), [0, 1], [3, 4]).s == (2,)
    with pytest.raises(ValueError, match="partition"):
        make_cut(g, (2, 2), [0, 1], [3, 4])
    for decomposition, colours in SQUARE_DECOMPOSITIONS:
        with pytest.raises(ValueError, match="distinct"):
            decomposition(g, 2, 2, [0, 1], [3, 4], colours)


@pytest.mark.parametrize("odd", [True, False])
def test_square_decompositions_reject_malformed_two_cuts(odd):
    g, u, v, a_side, b_side = planted_two_cut(0, odd)
    specs = [(e.u, e.v, e.cu, e.cv, e.weight) for e in g.edges]
    crossing = build_graph(g.n, specs + [(a_side[0], b_side[0], 0, 0, 1)], colours=g.colour_universe)
    cases = [
        (g, a_side + [u], b_side, "partition"),            # a cut vertex on a side
        (g, a_side, b_side[1:], "partition"),              # a vertex on no side
        (g, a_side + b_side[:1], b_side, "partition"),     # a vertex on both sides
        (g, [], a_side + b_side, "non-empty"),             # an empty side
        (crossing, a_side, b_side, "crosses"),             # an A-B edge
    ]
    for h, a, b, message in cases:
        for decomposition, colours in SQUARE_DECOMPOSITIONS:
            with pytest.raises(ValueError, match=message):
                decomposition(h, u, v, a, b, colours)


def test_square_frozen_values_on_c6():
    # cut {0, 2} of the 6-cycle, A = {1}, B = {3, 4, 5}.  The block G[{0, 1}]
    # is the single colour-0 edge 0-1, so V_left is 1 exactly when i = k = 0;
    # likewise H_bottom is G[{1, 2}] = the colour-1 edge 1-2.
    c6 = cycle_ghz(6)
    sq = square_decomposition_odd(c6, 0, 2, [1], [3, 4, 5], (0, 1, 0, 1))
    assert sq.v_left == 1
    assert sq.v_right == 0   # B + v wants l = j = 0
    assert sq.h_top == 0     # B + u wants j = k = 1
    assert sq.h_bottom == 0  # i = 1 and l = 1 needed
    sq_mono = square_decomposition_odd(c6, 0, 2, [1], [3, 4, 5], (0, 0, 0, 0))
    assert sq_mono.vertical == 1 and sq_mono.horizontal == 0
    assert sq_mono.total == colouring_weight(c6, (0,) * 6) == 1


def test_solidity_flag():
    g = build_graph(4, [
        (0, 1, 0, 0, 1), (1, 2, 0, 0, 1), (2, 3, 0, 0, 1), (0, 3, 0, 0, 1),
    ])
    sq = square_decomposition_odd(g, 0, 2, [1], [3], (0, 0, 0, 0))
    assert sq.is_solid
    assert sq.total == colouring_weight(g, (0, 0, 0, 0)) == 2
