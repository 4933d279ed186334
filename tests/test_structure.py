"""Matching cover, connectivity, cut enumeration and square decompositions."""

import itertools
import re
import random
from collections import deque

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ghzgraphs.structure
from ghzgraphs import (
    CutSpec,
    Multigraph,
    SquareDecomposition,
    adjacency_sets,
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
    as_float,
    cycle_cases,
    enumeration_corpus,
    hard_family,
    oracle_connectivity,
    planted_cut_corpus,
    planted_matching_graph,
    random_corpus,
    slow_block_weight,
    small_rational,
    weight_bits,
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
    assert_connectivity_matches(g)  # the oracle and Even's scan


@pytest.mark.parametrize("seed", range(40))
def test_connectivity_of_dense_random_graphs(seed):
    # dense enough that kappa reaches 3 to 8, where the flows are capped early
    rng = random.Random(f"kappa-{seed}")
    n = rng.randint(5, 11)
    p = rng.uniform(0.5, 0.95)
    pairs = [pair for pair in itertools.combinations(range(n), 2) if rng.random() < p]
    g = build_graph(n, [(u, v, 0, 0, 1) for u, v in pairs])
    assert_connectivity_matches(g)


def count_flows(monkeypatch):
    """Record the (s, t) of every local flow that vertex_connectivity runs."""
    real = ghzgraphs.structure._local_connectivity
    flows = []

    def counting(adj, s, t, cap):
        flows.append((s, t))
        return real(adj, s, t, cap)

    monkeypatch.setattr(ghzgraphs.structure, "_local_connectivity", counting)
    return flows


def test_connectivity_of_a_long_cycle(monkeypatch):
    # minimum degree 2: one depth-first search and no flow, where Even's scan
    # ran 110 flows and the Esfahanian-Hakimi pairs 38
    flows = count_flows(monkeypatch)
    assert vertex_connectivity(cycle_ghz(40)) == 2
    assert flows == []


def test_esfahanian_hakimi_pairs_on_a_circulant(monkeypatch):
    # flows start only at a minimum-degree vertex v or at a neighbour of v,
    # at most n - 1 - delta + (non-adjacent neighbour pairs) of them; C40(1, 2)
    # has delta = 4 and three non-adjacent pairs among each vertex's neighbours
    flows = count_flows(monkeypatch)
    g = circulant(40, (1, 2))
    assert vertex_connectivity(g) == 4
    adj = adjacency_sets(g)
    assert any(all(s == v or s in adj[v] for s, _ in flows) for v in range(g.n))
    assert 0 < len(flows) <= 40 - 1 - 4 + 3


def test_a_triangular_prism_runs_the_flows(monkeypatch):
    # minimum degree 3 is past the depth-first search, which would answer 2
    flows = count_flows(monkeypatch)
    g = prism(3)
    assert vertex_connectivity(g) == oracle_connectivity(g) == 3
    assert flows


def disjoint_complete(*sizes):
    starts = list(itertools.accumulate(sizes, initial=0))
    pairs = [(a + u, a + v) for a, k in zip(starts, sizes) for u, v in itertools.combinations(range(k), 2)]
    return plain_graph(starts[-1], pairs)


@pytest.mark.parametrize("sizes", [(4, 4), (4, 5), (5, 4), (4, 4, 4)], ids=["K4+K4", "K4+K5", "K5+K4", "3K4"])
def test_a_disconnected_graph_of_minimum_degree_three_runs_its_flows_to_zero(monkeypatch, sizes):
    # every vertex has degree 3 or more, so no depth-first search answers:
    # the flows find 0, and every pair after that is capped at 0
    flows = count_flows(monkeypatch)
    g = disjoint_complete(*sizes)
    assert vertex_connectivity(g) == oracle_connectivity(g) == 0
    assert flows


class Unreadable(list):
    """An adjacency list whose iteration raises: a flow that reads it fails."""

    def __iter__(self):
        raise AssertionError("the adjacency was read")


def test_a_flow_capped_at_0_reads_no_adjacency():
    # a cap of 0 leaves nothing to find: no residual graph is built
    adj = Unreadable([{2}, {2}, {0, 1}])
    assert ghzgraphs.structure._local_connectivity(adj, 0, 1, 0) == 0
    with pytest.raises(AssertionError, match="the adjacency was read"):
        ghzgraphs.structure._local_connectivity(adj, 0, 1, 1)


@settings(max_examples=150, deadline=None)
@given(simple_graphs(max_n=9, min_n=5))
def test_low_connectivity_leaves_an_odd_three_cut(g):
    # the lemma that lets reduce() do without a connectivity-bound branch
    assume(vertex_connectivity(g) <= 2)
    assert any(cut.parity == "odd" for cut in iter_cuts(g, 3))


def test_connectivity_ignores_parallel_edges():
    g = build_graph(3, [(0, 1, 0, 0, 1), (0, 1, 1, 1, 1), (1, 2, 0, 0, 1)], colours=range(2))
    assert vertex_connectivity(g) == 1


def slow_local_connectivity(adj: list[set[int]], s: int, t: int) -> int:
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


def plain_graph(n, pairs):
    return build_graph(n, [(u, v, 0, 0, 1) for u, v in pairs])


def shuffled_cycle(n):
    label = list(range(n))
    random.Random(f"labels-{n}").shuffle(label)
    return plain_graph(n, [(label[x], label[(x + 1) % n]) for x in range(n)])


def grid(rows, cols):
    at = lambda r, c: r * cols + c
    pairs = [(at(r, c), at(r, c + 1)) for r in range(rows) for c in range(cols - 1)]
    pairs += [(at(r, c), at(r + 1, c)) for r in range(rows - 1) for c in range(cols)]
    return plain_graph(rows * cols, pairs)


def complete_minus_matching(n):
    """K_n without the matching {0, 1}, {2, 3}, ... (perfect for even n): connectivity n - 2."""
    pairs = itertools.combinations(range(n), 2)
    return plain_graph(n, [(u, v) for u, v in pairs if v != u + 1 or u % 2])


def flow_corpus():
    yield from (skeleton(g) for g in random_corpus())
    yield from (shuffled_cycle(n) for n in range(4, 41))
    yield octahedron()
    yield from (grid(rows, cols) for rows, cols in [(2, 2), (2, 5), (3, 3), (3, 4), (4, 4), (6, 6)])
    yield from (complete_minus_matching(n) for n in range(6, 21))


def test_local_connectivity_matches_the_capacity_table_flow():
    local = ghzgraphs.structure._local_connectivity
    pairs = 0
    for g in flow_corpus():
        adj = adjacency_sets(g)
        for s, t in itertools.combinations(range(g.n), 2):
            if t in adj[s]:
                continue
            expected = slow_local_connectivity(adj, s, t)
            assert local(adj, s, t, g.n) == expected, (g, s, t)
            # a capped flow stops at its cap
            for cap in range(1, expected + 2):
                assert local(adj, s, t, cap) == min(cap, expected), (g, s, t, cap)
            pairs += 1
    assert pairs > 10_000


def brute_force_separator(adj: list[set[int]], s: int, t: int) -> int:
    """The fewest vertices other than s and t whose removal leaves no s-t
    path (s, t non-adjacent), by trying every vertex set in order of size:
    by Menger's theorem, the number of internally vertex-disjoint s-t paths."""
    others = [x for x in range(len(adj)) if x not in (s, t)]
    for size in range(len(others) + 1):
        for removed in itertools.combinations(others, size):
            seen = {s, *removed}
            stack = [s]
            while stack:
                x = stack.pop()
                for y in adj[x] - seen:
                    seen.add(y)
                    stack.append(y)
            if t not in seen:
                return size
    raise AssertionError("s and t are adjacent")


def dense_random_graph(seed):
    """The graph of ``test_connectivity_of_dense_random_graphs`` for seed."""
    rng = random.Random(f"kappa-{seed}")
    n = rng.randint(5, 11)
    p = rng.uniform(0.5, 0.95)
    return plain_graph(n, [pair for pair in itertools.combinations(range(n), 2) if rng.random() < p])


def test_local_connectivity_is_the_smallest_separator_of_each_pair():
    """Each capped flow of ``_local_connectivity`` against an oracle that
    shares nothing with a flow, on every non-adjacent pair of the random
    connectivity corpora up to 9 vertices, at every cap from 0 to past the
    answer."""
    local = ghzgraphs.structure._local_connectivity
    graphs = [skeleton(g) for g in random_corpus()] + [dense_random_graph(seed) for seed in range(40)]
    answers = set()
    for g in graphs:
        if g.n > 9:
            continue
        adj = adjacency_sets(g)
        for s, t in itertools.combinations(range(g.n), 2):
            if t in adj[s]:
                continue
            expected = brute_force_separator(adj, s, t)
            answers.add(expected)
            for cap in range(expected + 2):
                assert local(adj, s, t, cap) == min(cap, expected), (g, s, t, cap)
    assert answers >= set(range(6)), answers


def test_connectivity_of_flow_corpus_families():
    for n in range(6, 21):
        assert vertex_connectivity(complete_minus_matching(n)) == n - 2
    assert vertex_connectivity(grid(6, 6)) == 2
    assert vertex_connectivity(shuffled_cycle(40)) == 2


# ---------------------------------------------------------------------------
# Esfahanian-Hakimi pairs against Even's scan


def slow_vertex_connectivity(g):
    """vertex_connectivity as Even's scan (SIAM J. Comput. 4, 1975): flows
    from each s in 0..kappa to every higher non-neighbour, uncapped."""
    n = g.n
    if n <= 1:
        return 0
    adj = adjacency_sets(g)
    if all(len(adj[x]) == n - 1 for x in range(n)):
        return n - 1
    best = n - 2
    for s in range(n):
        if s > best:
            break
        for t in range(s + 1, n):
            if t not in adj[s]:
                best = min(best, slow_local_connectivity(adj, s, t))
    return best


def complete(n):
    return plain_graph(n, itertools.combinations(range(n), 2))


def circulant(n, steps):
    return plain_graph(n, [(x, (x + k) % n) for x in range(n) for k in steps])


def prism(k):
    """Two k-cycles 0..k-1 and k..2k-1 joined by the rungs x - (x + k): connectivity 3."""
    pairs = [(x, (x + 1) % k) for x in range(k)] + [(k + x, k + (x + 1) % k) for x in range(k)]
    return plain_graph(2 * k, pairs + [(x, x + k) for x in range(k)])


def complete_bipartite(k):
    return plain_graph(2 * k, [(u, k + v) for u in range(k) for v in range(k)])


def separator_through_the_minimum_degree_vertex(seed):
    """Two K6 joined by one edge and by a vertex of degree 4: every 2-cut
    holds that vertex, so only a flow between two of its neighbours sees kappa."""
    pairs = [(u, v) for block in (range(1, 7), range(7, 13)) for u, v in itertools.combinations(block, 2)]
    pairs += [(0, 1), (0, 2), (0, 7), (0, 8), (6, 12)]
    label = list(range(13))
    random.Random(f"through-v-{seed}").shuffle(label)
    return plain_graph(13, [(label[u], label[v]) for u, v in pairs])


def assert_connectivity_matches(g):
    expected = slow_vertex_connectivity(g)
    assert vertex_connectivity(g) == expected, g
    if g.n <= 12 or expected <= 2:  # the oracle enumerates every set of up to kappa vertices
        assert oracle_connectivity(g) == expected, g


EVENS_SCAN_CASES = (
    list(flow_corpus())
    + [build_graph(n, []) for n in range(3)]
    + [plain_graph(2, [(0, 1)])]
    + [plain_graph(5, [(0, 1), (1, 2), (2, 3), (0, 3)])]  # vertex 4 isolated
    + [plain_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])]  # two triangles
    + [complete(n) for n in range(1, 9)]
    # every neighbour pair of a vertex is non-adjacent: the most pairs
    + [complete_bipartite(k) for k in range(2, 7)]
    + [complete_minus_matching(n) for n in range(4, 13, 2)]
    + [separator_through_the_minimum_degree_vertex(seed) for seed in range(4)]
)


def test_connectivity_matches_evens_scan_on_families():
    for g in EVENS_SCAN_CASES:
        assert_connectivity_matches(g)
    assert {vertex_connectivity(g) for g in EVENS_SCAN_CASES} >= set(range(11))


def test_connectivity_of_named_families():
    for k in range(2, 7):
        assert vertex_connectivity(complete_bipartite(k)) == k
    assert vertex_connectivity(separator_through_the_minimum_degree_vertex(0)) == 2
    for n in range(1, 9):
        assert vertex_connectivity(complete(n)) == n - 1
    assert [vertex_connectivity(build_graph(n, [])) for n in range(3)] == [0, 0, 0]


# ---------------------------------------------------------------------------
# the depth-first search below minimum degree 3, against both oracles


def relabelled(g, seed):
    label = list(range(g.n))
    random.Random(f"relabel-{seed}").shuffle(label)
    return plain_graph(g.n, [(label[e.u], label[e.v]) for e in g.edges])


def all_simple_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for r in range(len(pairs) + 1):
        for chosen in itertools.combinations(pairs, r):
            yield plain_graph(n, chosen)


BOWTIE = plain_graph(5, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)])  # cut vertex 0, the root
CYCLES_AT_A_VERTEX = plain_graph(10, [(x, (x + 1) % 5) for x in range(5)]
                                 + [(4, 5), (5, 6), (6, 7), (7, 8), (8, 9), (9, 4)])
LOW_DEGREE_CASES = (
    [BOWTIE] + [relabelled(BOWTIE, seed) for seed in range(6)]
    + [CYCLES_AT_A_VERTEX] + [relabelled(CYCLES_AT_A_VERTEX, seed) for seed in range(6)]
    + [plain_graph(n, [(x, x + 1) for x in range(n - 1)]) for n in range(3, 9)]  # paths
    + [plain_graph(k + 1, [(0, x) for x in range(1, k + 1)]) for k in range(2, 7)]  # stars
    + [relabelled(plain_graph(6, [(0, x) for x in range(1, 6)]), seed) for seed in range(3)]
    + [grid(6, 6), grid(2, 5), shuffled_cycle(40)]
    + [plain_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])]  # vertex 5 isolated
    + [plain_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])]  # two triangles
    + [g for n in range(4) for g in all_simple_graphs(n)]
)


def test_connectivity_below_minimum_degree_three_matches_both_oracles(monkeypatch):
    flows = count_flows(monkeypatch)
    kappas = set()
    for g in LOW_DEGREE_CASES:
        adj = adjacency_sets(g)
        assert min(map(len, adj), default=0) <= 2, g
        kappa = oracle_connectivity(g)
        assert vertex_connectivity(g) == slow_vertex_connectivity(g) == kappa, g
        if g.n >= 3:
            # the search alone, where a minimum degree of 1 would hide it
            assert ghzgraphs.structure._biconnectivity(adj) == min(kappa, 2), g
        kappas.add(kappa)
    assert flows == []
    assert kappas == {0, 1, 2}
    assert vertex_connectivity(BOWTIE) == 1


def test_an_isolated_vertex_stops_every_flow_at_cap_zero(monkeypatch):
    flows = count_flows(monkeypatch)
    # vertex 5 is isolated; the other five form a 2-connected graph.  With
    # minimum degree 0 no flow runs at all, at cap zero or any other
    g = plain_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2)])
    assert vertex_connectivity(g) == 0
    assert flows == []


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


@pytest.mark.parametrize("s, v1, v2", [
    ((0.0, 2, 4), (1,), (3, 5)),
    ((False, 2, 4), (1,), (3, 5)),
    ((0, 2, 4), (True,), (3, 5)),
    ((0, 2, 4), (np.True_,), (3, 5)),
    ((0, 2, 4), (1,), (3.0, 5)),
    ((0, 2, 4), (1,), (3, np.float64(5))),
])
def test_make_cut_refuses_a_vertex_that_is_not_an_int(s, v1, v2):
    # each stand-in equals the vertex it replaces, so the partition check passes
    with pytest.raises(ValueError, match="vertex must be an int"):
        make_cut(cycle_ghz(6), s, v1, v2)


def test_make_cut_stores_numpy_vertices_as_ints():
    cut = make_cut(cycle_ghz(6), (np.int64(0), 2, np.int32(4)), (np.uint8(1),), [3, np.int64(5)])
    assert cut == CutSpec((0, 2, 4), (1,), (3, 5))
    assert all(x.__class__ is int for side in cut for x in side)


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


@pytest.mark.parametrize("size", [True, False, 2.0, 3.0, "3", None])
def test_cut_search_refuses_a_size_that_is_not_an_int(size):
    """True would search size-1 cuts, and 2.0 would fail inside itertools."""
    c6 = cycle_ghz(6)
    with pytest.raises(ValueError, match=re.escape(f"size must be an int, got {size!r}")):
        find_cut(c6, size)
    with pytest.raises(ValueError, match=re.escape(f"size must be an int, got {size!r}")):
        list(iter_cuts(c6, size))


@pytest.mark.parametrize("numpy_int", [np.int64, np.int32, np.uint8])
def test_cut_search_reads_a_numpy_size_as_an_int(numpy_int):
    c6 = cycle_ghz(6)
    assert find_cut(c6, numpy_int(2)) == find_cut(c6, 2)
    cuts = list(iter_cuts(c6, numpy_int(3)))
    assert cuts == list(iter_cuts(c6, 3)) and cuts


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


def slow_square_decomposition_odd(g, u, v, a_side, b_side, colours):
    """The odd square as it was before one square colouring served its four
    blocks: a colouring per block, each block read by ``slow_block_weight``."""
    a, b = set(a_side), set(b_side)
    i, j, k, l = colours

    def paint(side, side_colour, cut_colour):
        return lambda x: side_colour if x in side else cut_colour

    return SquareDecomposition(
        v_left=slow_block_weight(g, a | {u}, paint(a, i, k)),
        v_right=slow_block_weight(g, b | {v}, paint(b, j, l)),
        h_top=slow_block_weight(g, b | {u}, paint(b, j, k)),
        h_bottom=slow_block_weight(g, a | {v}, paint(a, i, l)),
    )


def slow_square_decomposition_even(g, u, v, a_side, b_side, colours):
    """The even square as it was, read as ``slow_square_decomposition_odd``."""
    a, b = set(a_side), set(b_side)
    i, j, k = colours
    cut = {u, v}

    def paint(side_colour):
        return lambda x: k if x in cut else side_colour

    return SquareDecomposition(
        v_left=slow_block_weight(g, a | cut, paint(i), cut),
        v_right=slow_block_weight(g, b, paint(j)),
        h_top=slow_block_weight(g, b | cut, paint(j)),
        h_bottom=slow_block_weight(g, a, paint(i)),
    )


# the planted two-cuts, the first 2-cut of each 3-cut corpus graph and every 2-cut of the cycles
SQUARE_CASES = [planted_two_cut(seed, odd) for seed in range(15) for odd in (True, False)] + [
    (g, *cut.s, cut.v1, cut.v2)
    for g, cuts in [(g, [find_cut(g, 2)]) for g, _ in hard_family() + planted_cut_corpus()]
    + [(g, iter_cuts(g, 2)) for g in cycle_cases()]
    for cut in cuts
]


@pytest.mark.parametrize("convert", [lambda g: g, as_float], ids=["exact", "float"])
def test_squares_are_the_per_block_reads(convert):
    for g, u, v, a_side, b_side in SQUARE_CASES:
        g = convert(g)
        if len(a_side) % 2:
            fast, slow, arity = square_decomposition_odd, slow_square_decomposition_odd, 4
        else:
            fast, slow, arity = square_decomposition_even, slow_square_decomposition_even, 3
        for colours in itertools.product(sorted(g.colour_universe), repeat=arity):
            assert list(map(weight_bits, fast(g, u, v, a_side, b_side, colours))) == list(
                map(weight_bits, slow(g, u, v, a_side, b_side, colours))
            )


def test_a_square_where_no_edge_agrees_is_the_graphs_zeros():
    # the square colouring (0, 1, 0, 1) of the alternately coloured 4-cycle
    # leaves no edge, so the filtered copy is exact: its zero is not g's
    g = as_float(cycle_ghz(4))
    sq = square_decomposition_odd(g, 0, 2, [1], [3], (1, 1, 0, 0))
    assert [(type(w), w) for w in sq] == [(complex, 0j)] * 4
    assert type(sq.total) is complex
    assert sq.total == colouring_weight(g, (0, 1, 0, 1))


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
        with pytest.raises(ValueError, match="partition"):
            decomposition(g, 2, 2, [0, 1], [3, 4], colours)


@pytest.mark.parametrize("odd", [True, False])
@pytest.mark.parametrize("stand_in", [float, np.float64])
def test_square_decompositions_refuse_a_cut_vertex_that_is_not_an_int(odd, stand_in):
    g, u, v, a_side, b_side = planted_two_cut(0, odd)
    decomposition, colours = SQUARE_DECOMPOSITIONS[not odd]
    for bad_u, bad_v in ((stand_in(u), v), (u, stand_in(v))):
        with pytest.raises(ValueError, match="vertex must be an int"):
            decomposition(g, bad_u, bad_v, a_side, b_side, colours)


@pytest.mark.parametrize("decomposition, args", [
    (square_decomposition_odd, (cycle_ghz(4), False, 2, (1,), (3,), (0, 0, 0, 0))),
    (square_decomposition_even, (cycle_ghz(6), False, 3, (1, 2), (4, 5), (0, 0, 0))),
])
def test_square_decompositions_refuse_a_bool_cut_vertex(decomposition, args):
    # False equals vertex 0, which the squares read in its place
    with pytest.raises(ValueError, match="vertex must be an int"):
        decomposition(*args)


def test_the_odd_square_reads_u_and_v_in_the_order_given():
    # swapping u and v with their colours k and l swaps the blocks pairwise;
    # the cut sorts u > v back, so the square must not read them from it
    asymmetric = 0
    for seed in range(3):
        g, u, v, a_side, b_side = planted_two_cut(seed, True)
        for i, j, k, l in itertools.product(sorted(g.colour_universe), repeat=4):
            sq = square_decomposition_odd(g, u, v, a_side, b_side, (i, j, k, l))
            swapped = square_decomposition_odd(g, v, u, a_side, b_side, (i, j, l, k))
            assert swapped == SquareDecomposition(sq.h_bottom, sq.h_top, sq.v_right, sq.v_left)
            asymmetric += sq.v_left != sq.h_bottom
    assert asymmetric


@pytest.mark.parametrize("odd", [True, False])
def test_square_decompositions_read_numpy_cut_vertices_as_ints(odd):
    g, u, v, a_side, b_side = planted_two_cut(0, odd)
    decomposition, colours = SQUARE_DECOMPOSITIONS[not odd]
    assert decomposition(g, np.int64(u), np.int32(v), a_side, b_side, colours) == decomposition(
        g, u, v, a_side, b_side, colours
    )


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
