"""Matching enumeration and the weight bookkeeping, against brute force."""

import gc
import itertools
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from operator import itemgetter

import numpy as np
import pytest

import ghzgraphs.matchings
from ghzgraphs import (
    GaussianRational,
    Multigraph,
    PerfectMatching,
    build_graph,
    cancelling_square,
    colouring_weight,
    colouring_weight_table,
    complete_ghz_k4,
    cycle_ghz,
    dimension,
    enumerate_perfect_matchings,
    filter_graph,
    find_bogdanov_witness,
    graph_weight,
    induced_colouring,
    induced_subgraph,
    is_feasible,
    iter_cuts,
    matching_weight,
    mono_weights,
    scale_to_ghz,
    square_decomposition_even,
    square_decomposition_odd,
    type_weights,
    verify,
)

from conftest import (
    as_float,
    bits,
    bogdanov_instance,
    cycle_cases,
    enumeration_corpus,
    hard_family,
    oracle_colouring_weight,
    oracle_graph_weight,
    planted_cut_corpus,
    random_corpus,
    random_multigraph,
    slow_block_weight,
    slow_colouring_weight,
    slow_cut_block,
    slow_filter_graph,
    slow_weight_table,
    small_rational,
    weight_bits,
)


def complete_graph(n):
    return build_graph(n, [(u, v, 0, 0, 1) for u in range(n) for v in range(u + 1, n)])


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_complete_graph_matching_counts(k):
    # (2k-1)!! perfect matchings on 2k vertices
    n = 2 * k
    expected = math.prod(range(1, n, 2))
    assert len(enumerate_perfect_matchings(complete_graph(n))) == expected


def test_enumeration_edge_cases():
    assert enumerate_perfect_matchings(build_graph(3, [(0, 1, 0, 0, 1)])) == []
    assert enumerate_perfect_matchings(build_graph(0, [])) == [()]
    # an isolated vertex kills every matching
    assert enumerate_perfect_matchings(build_graph(4, [(0, 1, 0, 0, 1)])) == []


def test_matchings_are_sorted_unique_and_valid():
    for seed in range(20):
        g = random_multigraph(seed)
        ms = enumerate_perfect_matchings(g)
        assert len(set(ms)) == len(ms)
        for m in ms:
            assert m == tuple(sorted(m))
            covered = sorted(x for i in m for x in (g.edges[i].u, g.edges[i].v))
            assert covered == list(range(g.n))


# ---------------------------------------------------------------------------
# the lazy search against the list-building search it replaced


def slow_enumerate_perfect_matchings(g: Multigraph) -> list[PerfectMatching]:
    """All perfect matchings, in deterministic search order.

    The search always branches on the lowest-index uncovered vertex, trying
    its incident edges in storage order.  Each returned matching is the
    sorted tuple of its edge indices.
    """
    if g.n % 2:
        return []
    if g.n == 0:
        return [()]
    incident: list[list[int]] = [[] for _ in range(g.n)]
    for i, e in enumerate(g.edges):
        incident[e.u].append(i)
        incident[e.v].append(i)
    if any(not lst for lst in incident):
        return []

    full = (1 << g.n) - 1
    edges = g.edges
    out: list[PerfectMatching] = []
    chosen: list[int] = []

    def extend(covered: int) -> None:
        if covered == full:
            out.append(tuple(sorted(chosen)))
            return
        v = (~covered & (covered + 1)).bit_length() - 1  # lowest uncovered vertex
        for i in incident[v]:
            e = edges[i]
            other = e.v if e.u == v else e.u
            if covered >> other & 1:
                continue
            chosen.append(i)
            extend(covered | 1 << v | 1 << other)
            chosen.pop()

    extend(0)
    return out


def test_enumeration_is_the_slow_enumeration_list_for_list():
    """enumeration_corpus holds the random and bogdanov corpora, n = 0, odd n
    and an isolated vertex; the dense graphs are K_n with every colour class."""
    for g in enumeration_corpus() + [dense_graph(n, d, 0) for n in range(9) for d in (1, 2)]:
        assert enumerate_perfect_matchings(g) == slow_enumerate_perfect_matchings(g)


def test_the_search_builds_each_matching_only_when_it_is_drawn(monkeypatch):
    built = []

    def counting_sorted(chosen):
        built.append(chosen)
        return sorted(chosen)

    monkeypatch.setattr(ghzgraphs.matchings, "sorted", counting_sorted, raising=False)
    search = ghzgraphs.matchings._iter_perfect_matchings(dense_graph(8, 3, 0))  # 688,905 matchings
    assert list(itertools.islice(search, 2)) == [(0, 117, 198, 243), (0, 117, 198, 244)]
    assert len(built) == 2


def test_matching_weight_is_the_product():
    g = build_graph(4, [
        (0, 1, 0, 0, GaussianRational(1, 1)),
        (2, 3, 0, 0, GaussianRational(1, -1)),
    ])
    (m,) = enumerate_perfect_matchings(g)
    assert matching_weight(g, m) == GaussianRational(2)  # (1+i)(1-i)


def test_matching_weight_rejects_garbage():
    g = build_graph(4, [(0, 1, 0, 0, 1), (2, 3, 0, 0, 1), (0, 2, 0, 0, 1)])
    with pytest.raises(ValueError):
        matching_weight(g, (0, 2))  # vertex 0 covered twice
    with pytest.raises(ValueError):
        matching_weight(g, (0,))  # vertices 2, 3 uncovered
    with pytest.raises(ValueError):
        matching_weight(g, (99,))
    # an edge index is an int: a bool or a float is refused, not read as one
    ring = cycle_ghz(4)
    for m in ((True, 3), (1.0, 3), (1, 3.0), (np.True_, 3), ("1", 3)):
        with pytest.raises(ValueError, match="edge index must be an int"):
            matching_weight(ring, m)
        with pytest.raises(ValueError, match="edge index must be an int"):
            induced_colouring(ring, m)
    assert matching_weight(ring, (np.int64(1), np.int32(3))) == matching_weight(ring, (1, 3))


def test_induced_colouring_reads_half_colours():
    g = build_graph(4, [(0, 1, 2, 0, 1), (2, 3, 1, 2, 1)])
    assert induced_colouring(g, (0, 1)) == (2, 0, 1, 2)


def test_filter_keeps_exactly_matching_edges():
    g = build_graph(2, [(0, 1, 0, 0, 1), (0, 1, 0, 1, 2), (0, 1, 1, 1, 3)])
    f = filter_graph(g, (0, 1))
    assert [e.weight for e in f.edges] == [GaussianRational(2)]
    with pytest.raises(ValueError):
        filter_graph(g, (0,))
    with pytest.raises(ValueError):
        filter_graph(g, (0, 9))
    # a colour is an int: a bool or a float is refused, not read as 0 or 1
    ring = cycle_ghz(6)
    for vc in ((True,) * 6, (1.0,) * 6, (0, 0, 0, 0, 0, False), (np.True_,) * 6, (0.0,) * 6):
        for query in (filter_graph, colouring_weight, is_feasible):
            with pytest.raises(ValueError, match="colour must be an int"):
                query(ring, vc)
    assert colouring_weight(ring, (np.int64(1),) * 6) == colouring_weight(ring, (1,) * 6) == 1
    assert is_feasible(ring, (np.int8(0),) * 6)
    assert filter_graph(ring, (np.int64(1),) * 6).edges == filter_graph(ring, (1,) * 6).edges


def test_graph_weight_against_pairing_oracle():
    for g in random_corpus(40):
        assert graph_weight(g) == oracle_graph_weight(g)


def test_colouring_weight_against_pairing_oracle():
    for seed in range(25):
        g = random_multigraph(seed)
        table = colouring_weight_table(g)
        for vc in list(table)[:6]:
            assert colouring_weight(g, vc) == oracle_colouring_weight(g, vc)


def test_table_partitions_the_graph_weight():
    for g in random_corpus(40):
        table = colouring_weight_table(g)
        assert sum(table.values(), g.zero) == graph_weight(g)


def test_table_agrees_with_filtering_per_colouring():
    for seed in range(15):
        g = random_multigraph(seed)
        table = colouring_weight_table(g)
        for vc, w in table.items():
            assert is_feasible(g, vc)
            assert colouring_weight(g, vc) == w
            # a colouring given as a list, as filter_graph and is_feasible take it
            assert is_feasible(g, list(vc)) and colouring_weight(g, list(vc)) == w


def test_infeasible_colourings_weigh_zero():
    g = build_graph(2, [(0, 1, 0, 0, 5)], colours=range(2))
    assert not is_feasible(g, (1, 1))
    assert colouring_weight(g, (1, 1)) == GaussianRational(0)
    assert (1, 1) not in colouring_weight_table(g)
    # a float graph's zero, though no edge survives the filter
    assert colouring_weight(as_float(g), (1, 1)) == 0j


def test_feasible_with_weight_zero_is_still_feasible():
    g = build_graph(2, [(0, 1, 0, 0, 2), (0, 1, 0, 0, -2)])
    assert is_feasible(g, (0, 0))
    assert colouring_weight(g, (0, 0)) == GaussianRational(0)
    assert colouring_weight_table(g) == {(0, 0): GaussianRational(0)}


def test_empty_product_conventions():
    empty = build_graph(0, [])
    assert graph_weight(empty) == GaussianRational(1)
    assert matching_weight(empty, ()) == GaussianRational(1)


# ---------------------------------------------------------------------------
# the subset-DP kernel against the enumerate-and-multiply loop it replaced


def slow_table(g):
    """Colouring-weight table by listing every perfect matching."""
    acc = {}
    for m in enumerate_perfect_matchings(g):
        w = g.one
        for i in m:
            w = w * g.edges[i].weight
        vc = induced_colouring(g, m)
        acc[vc] = acc[vc] + w if vc in acc else w
    return dict(sorted(acc.items()))


def dense_graph(n, d, seed, weight=small_rational):
    """K_n with one edge of every colour class on every vertex pair."""
    rng = random.Random(f"dense-{n}-{d}-{seed}")
    specs = [
        (u, v, a, b, weight(rng))
        for u in range(n)
        for v in range(u + 1, n)
        for a in range(d)
        for b in range(d)
    ]
    return build_graph(n, specs, colours=range(d))


def recoloured(g, colour_map):
    specs = [(e.u, e.v, colour_map[e.cu], colour_map[e.cv], e.weight) for e in g.edges]
    return build_graph(g.n, specs, colours=[colour_map[c] for c in g.colour_universe])


def differential_corpus():
    corpus = random_corpus(100)
    corpus += [g for g, _ in planted_cut_corpus(50)]
    corpus += [g for g, _ in hard_family(12)]
    corpus += [dense_graph(6, 2, 0), dense_graph(6, 3, 0)]
    # sparse, out-of-order colour labels: keys must still sort as tuples
    corpus += [recoloured(g, {0: 7, 1: 1, 2: 4}) for g in random_corpus(30)]
    return corpus


def rationalised(rng):
    """A float weight rounded as exactify rounds it: denominators up to 10**6."""
    re, im = rng.uniform(-2, 2), rng.uniform(-2, 2)
    return GaussianRational.from_float(re, im)


#: pairwise coprime, several of them far beyond a machine word once multiplied
COPRIME_DENOMINATORS = [2**31 - 1, 10**9 + 7, 998_244_353, 2**20, 3**13, 5**9, 7, 1]


def coprime_large(rng):
    return GaussianRational(
        Fraction(rng.randint(-10**12, 10**12), rng.choice(COPRIME_DENOMINATORS)),
        Fraction(rng.randint(-10**12, 10**12), rng.choice(COPRIME_DENOMINATORS)),
    )


def purely_imaginary(rng):
    return GaussianRational(0, Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4)))


def with_cancelling_parallels(g):
    """g with every third edge cancelled to 0 by a parallel -w, and every
    third by two parallel halves -w/2."""
    specs = [(e.u, e.v, e.cu, e.cv, e.weight) for e in g.edges]
    for k, e in enumerate(g.edges):
        if k % 3 == 0:
            specs.append((e.u, e.v, e.cu, e.cv, -e.weight))
        elif k % 3 == 1:
            half = e.weight / 2
            specs += [(e.u, e.v, e.cu, e.cv, -half), (e.u, e.v, e.cu, e.cv, -half)]
    return build_graph(g.n, specs, colours=g.colour_universe)


def exact_weight_cases():
    """Graphs whose weights exact mode must carry exactly, by name."""
    return {
        "rationalised K6 d=2": dense_graph(6, 2, 1, rationalised),
        "rationalised K6 d=3": dense_graph(6, 3, 1, rationalised),
        "coprime K6 d=2": dense_graph(6, 2, 2, coprime_large),
        "coprime K4 d=3": dense_graph(4, 3, 2, coprime_large),
        "imaginary K6 d=2": dense_graph(6, 2, 3, purely_imaginary),
        "cancelling K4 d=2": with_cancelling_parallels(dense_graph(4, 2, 4)),
        "cancelling K6 d=2": with_cancelling_parallels(dense_graph(6, 2, 4)),
        "cancelling rationalised K6 d=2": with_cancelling_parallels(
            dense_graph(6, 2, 5, rationalised)
        ),
        "n = 0": build_graph(0, []),
        "zero edge": build_graph(2, [(0, 1, 0, 0, 0)]),
        "path on 3": build_graph(3, [(0, 1, 0, 0, 1), (1, 2, 0, 0, 1)]),
        "K5": build_graph(
            5, [(u, v, 0, 0, GaussianRational("1/3", 2)) for u in range(5) for v in range(u + 1, 5)]
        ),
        "isolated vertex": build_graph(
            4, [(0, 1, 0, 0, GaussianRational("1/2")), (1, 2, 0, 0, 1), (0, 2, 0, 0, 1)]
        ),
    }


def kernel_corpus():
    return differential_corpus() + list(exact_weight_cases().values())


def test_exact_weight_cases_reach_what_they_are_named_for():
    tables = {name: colouring_weight_table(g) for name, g in exact_weight_cases().items()}
    assert max(w.re.denominator for w in tables["rationalised K6 d=3"].values()) > 10**18
    assert max(w.re.denominator for w in tables["coprime K6 d=2"].values()) > 2**64
    imaginary = tables["imaginary K6 d=2"].values()
    assert all(w.re == 0 or w.im == 0 for w in imaginary) and any(w.im for w in imaginary)
    for name in ("cancelling K4 d=2", "cancelling K6 d=2", "cancelling rationalised K6 d=2"):
        assert GaussianRational(0) in tables[name].values()
    assert tables["n = 0"] == {(): GaussianRational(1)}
    assert tables["zero edge"] == {(0, 0): GaussianRational(0)}
    assert tables["path on 3"] == tables["K5"] == tables["isolated vertex"] == {}


def test_kernel_table_is_the_enumeration_table_exactly():
    for g in kernel_corpus():
        fast = colouring_weight_table(g)
        assert list(fast.items()) == list(slow_table(g).items())
        assert all(type(w) is GaussianRational for w in fast.values())
        gf = as_float(g)
        float_table = colouring_weight_table(gf)
        assert all(type(w) is type(gf.one) for w in float_table.values())  # an edgeless graph is exact


def test_kernel_table_against_pairing_oracles():
    for g in differential_corpus():
        table = colouring_weight_table(g)
        assert graph_weight(g) == oracle_graph_weight(g) == sum(table.values(), g.zero)
        # every entry of the small graphs, an even sample of the dense ones
        for vc, w in list(table.items())[:: 1 + len(table) // 64]:
            assert w == oracle_colouring_weight(g, vc)
            assert colouring_weight(g, vc) == w
            assert is_feasible(g, vc)


def test_kernel_float_tables_agree_within_tolerance():
    for g in differential_corpus():
        gf = as_float(g)
        fast = colouring_weight_table(gf)
        slow = slow_table(gf)
        assert list(fast) == list(slow)
        for vc, w in fast.items():
            assert isinstance(w, complex)
            assert abs(w - slow[vc]) <= 1e-12 * max(1.0, abs(slow[vc]))
        total = sum(slow.values(), gf.zero)
        assert abs(graph_weight(gf) - total) <= 1e-12 * max(1.0, abs(total))


def test_parallel_edges_cancelling_to_zero_stay_feasible():
    g = build_graph(4, [
        (0, 1, 0, 1, 2),
        (0, 1, 0, 1, -2),
        (2, 3, 1, 1, 3),
        (0, 1, 0, 0, 1),
        (2, 3, 0, 0, 1),
    ])
    expected = {(0, 0, 0, 0): 1, (0, 0, 1, 1): 3, (0, 1, 0, 0): 0, (0, 1, 1, 1): 0}
    for graph, kind in ((g, GaussianRational), (as_float(g), complex)):
        table = colouring_weight_table(graph)
        assert list(table) == list(expected)
        assert table == slow_table(graph)
        for vc, w in expected.items():
            assert table[vc] == kind(w)
            assert is_feasible(graph, vc)
            assert colouring_weight(graph, vc) == kind(w)


def test_cancelling_square_keeps_its_zero_mono_entry():
    g = cancelling_square()
    table = colouring_weight_table(g)
    assert table == slow_table(g)
    assert table[(0, 0, 0, 0)] == GaussianRational(0)
    assert is_feasible(g, (0, 0, 0, 0))
    assert graph_weight(g) == GaussianRational(0)


def test_kernel_edge_cases():
    assert colouring_weight_table(build_graph(0, [])) == {(): GaussianRational(1)}
    odd = build_graph(3, [(0, 1, 0, 0, 1), (1, 2, 0, 0, 1)])
    assert colouring_weight_table(odd) == {}
    assert graph_weight(odd) == GaussianRational(0)
    isolated = build_graph(4, [(0, 1, 0, 0, 1), (1, 2, 0, 0, 1), (0, 2, 0, 0, 1)])
    assert colouring_weight_table(isolated) == {}
    assert graph_weight(isolated) == GaussianRational(0)
    assert not is_feasible(isolated, (0, 0, 0, 0))


def test_an_unmatchable_sparse_graph_builds_no_digit_places():
    """20,000 vertices and one edge: the isolated vertices are found before
    the kernel builds its n digit places, which would hold O(n^2) bits."""
    g = build_graph(20_000, [(0, 1, 1, 1, 1)], colours=range(2))
    tracemalloc.start()
    try:
        verdict = verify(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.is_ghz and verdict.dimension == 0
    assert peak < 5 * 2**20


# ---------------------------------------------------------------------------
# the kernel's vertex and cut masks, against the block copies they replaced


def block_cases(g, rng):
    """(subset, cut set) pairs: every vertex subset of a graph with up to 8
    vertices, 64 seeded ones of a larger graph.  Cut sets have 0 to 3
    vertices, drawn from the subset for every other subset and from the whole
    graph otherwise, so they lie inside it or partly outside it."""
    n = g.n
    if n <= 8:
        subsets = [s for r in range(n + 1) for s in itertools.combinations(range(n), r)]
    else:
        subsets = [tuple(sorted(rng.sample(range(n), rng.randint(0, n)))) for _ in range(64)]
    for k, subset in enumerate(subsets):
        pool = subset if k % 2 else range(n)
        yield subset, rng.sample(pool, min((k // 2) % 4, len(pool)))


def test_masked_kernel_is_the_kernel_on_the_block_copy():
    kernel = ghzgraphs.matchings._weight_table
    rng = random.Random("masked-kernel")
    reached = Counter()
    for g in kernel_corpus() + [cycle_ghz(10), cycle_ghz(12), dense_graph(10, 2, 0)]:
        whole = kernel(g)
        assert list(kernel(g, (1 << g.n) - 1).items()) == list(whole.items())
        assert list(kernel(slow_cut_block(g, range(g.n)).graph).items()) == list(whole.items())
        gf = as_float(g)
        for subset, cut in block_cases(g, rng):
            block = slow_cut_block(g, subset, cut).graph
            fast, slow = kernel(g, bits(subset), bits(cut)), kernel(block)
            assert list(fast.items()) == list(slow.items())
            assert [type(w) for w in fast.values()] == [type(w) for w in slow.values()]
            if subset:  # an empty copy has no edges, so it reads as exact
                float_slow = kernel(slow_cut_block(gf, subset, cut).graph)
                assert list(kernel(gf, bits(subset), bits(cut)).items()) == list(float_slow.items())
            inside = set(cut) & set(subset)
            degrees = Counter(x for e in block.edges for x in (e.u, e.v))
            reached.update({
                "empty": not subset,
                "odd": len(subset) % 2,
                "isolated vertex": len(subset) % 2 == 0 and len(degrees) < len(subset),
                "edges inside the cut dropped": len(block.edges) < len(induced_subgraph(g, subset).graph.edges),
                "cut partly outside": bool(inside) and len(inside) < len(cut),
                "non-empty table": bool(fast),
                "sampled subset": g.n > 8,
            })
    assert all(reached[name] for name in (
        "empty", "odd", "isolated vertex", "edges inside the cut dropped",
        "cut partly outside", "non-empty table", "sampled subset",
    )), reached


def test_keys_decoded_by_halves_are_the_per_digit_keys(monkeypatch):
    """The kernel decodes its keys in a base taken from the colour universe,
    a dense table's keys as two halves, each decoded once per call; the
    per-digit decode in the base of the edge colours it replaced gives the
    same keys in the same order, with the same values, for whole graphs and
    for masked blocks.  A table of two or more entries either takes its
    halves from one list of every half or decodes each key on its own, digit
    by digit; which one a call took is read from whether it built that list,
    not from the kernel's rule, and both run, exact and float, on keys whose
    halves have an odd number of digits, beside tables of exactly
    base ** half entries, the size the choice turns on."""
    kernel = ghzgraphs.matchings._weight_table
    lists_built = []

    def recording_product(*args, **kwargs):
        lists_built.append(kwargs)
        return itertools.product(*args, **kwargs)

    monkeypatch.setattr(ghzgraphs.matchings, "product", recording_product)
    rng = random.Random("halves")
    corpus = enumeration_corpus() + [
        cycle_ghz(12),
        dense_graph(10, 2, 0),
        recoloured(random_multigraph(3), {0: 7, 1: 1, 2: 4}),
    ]
    reached = Counter()
    for g in corpus:
        top = max((c for e in g.edges for c in (e.cu, e.cv)), default=0)
        masks = [(-1, 0)] + [
            (bits(rng.sample(range(g.n), rng.randint(0, g.n))), bits(rng.sample(range(g.n), min(g.n, 3))))
            for _ in range(3)
        ]
        for h in (g, as_float(g)):
            for vertices, cut in masks:
                lists_built.clear()
                fast, slow = kernel(h, vertices, cut), slow_weight_table(h, vertices, cut)
                assert list(fast.items()) == list(slow.items())
                assert [type(w) for w in fast.values()] == [type(w) for w in slow.values()]
                colours = {c for vc in fast for c in vc}
                base = 1 + max(g.colour_universe, default=0)
                half = (vertices & ((1 << g.n) - 1)).bit_count() // 2
                path = None if len(fast) < 2 else "list" if lists_built else "per-key"
                kind = "exact" if h.is_exact else "float"
                reached.update({
                    f"{path} read-out, {kind}": path is not None,
                    f"{path} read-out, odd half": path is not None and half % 2 == 1,
                    f"{kind} table of base ** half entries": path is not None and len(fast) == base**half,
                    "n = 0": g.n == 0 and bool(fast),
                    "one colour": colours == {0},
                    "base at least 3": max(colours, default=0) >= 2,
                    "vertex mask": bool(fast) and vertices not in (-1, (1 << g.n) - 1),
                    "cut mask": bool(fast) and (cut & vertices).bit_count() >= 2,
                    "1,024 entries": len(fast) >= 1024,
                    "universe above the edge colours": bool(fast) and max(g.colour_universe, default=0) > top,
                })
    assert all(reached[name] for name in (
        "n = 0", "one colour", "base at least 3", "vertex mask", "cut mask", "1,024 entries",
        "universe above the edge colours",
        "list read-out, exact", "list read-out, float", "per-key read-out, exact", "per-key read-out, float",
        "list read-out, odd half", "per-key read-out, odd half",
        "exact table of base ** half entries", "float table of base ** half entries",
    )), reached


def table_bits(table) -> list:
    """A table's keys in order, each with its value's type and exact parts."""
    return [(vc, weight_bits(w)) for vc, w in table.items()]


def has_isolated_vertex(g, vertices, cut) -> bool:
    """Whether a kept vertex has no kept edge once the cut's inner edges go."""
    kept = vertices & ((1 << g.n) - 1)
    touched = 0
    for e in g.edges:
        ends = 1 << e.u | 1 << e.v
        if ends & kept == ends and ends & cut != ends:
            touched |= ends
    return touched != kept


def test_masked_tables_of_every_size_are_the_slow_tables_bit_for_bit():
    """Masked kernel calls whose tables have no entry, one entry (read out
    with one decode, without the halves) or several give the keys, key order
    and value bits of ``slow_weight_table``, exact and float.  Each graph is
    read whole and through copies filtered by its colourings, where every
    table has at most one entry, under empty, whole, odd and seeded vertex
    masks, with cut masks inside and partly outside the block."""
    kernel = ghzgraphs.matchings._weight_table
    rng = random.Random("tables-of-every-size")
    reached = Counter()
    for g in kernel_corpus() + [cycle_ghz(10), dense_graph(10, 2, 0)]:
        whole = kernel(g)
        filtered = [filter_graph(g, vc) for vc in list(whole)[:: 1 + len(whole) // 2]]
        for h in [g] + filtered:
            cases = list(block_cases(h, rng))
            masks = [(-1, 0), (0, 0), (0, -1)] + [
                (bits(subset), bits(cut)) for subset, cut in rng.sample(cases, min(8, len(cases)))
            ]
            for k in (h, as_float(h)):
                for vertices, cut in masks:
                    fast = kernel(k, vertices, cut)
                    assert table_bits(fast) == table_bits(slow_weight_table(k, vertices, cut))
                    size = "no entry" if not fast else "one entry" if len(fast) == 1 else "several entries"
                    kept = vertices & ((1 << k.n) - 1)
                    reached.update({
                        (size, k.is_exact): True,
                        "empty vertex mask": kept == 0 and k.n > 0,
                        "odd vertex mask": kept.bit_count() % 2,
                        "isolated vertex": kept.bit_count() % 2 == 0 and has_isolated_vertex(k, kept, cut),
                        "one entry with a cut mask": len(fast) == 1 and (cut & kept).bit_count() >= 2,
                        "several entries with a cut mask": len(fast) > 1 and (cut & kept).bit_count() >= 2,
                        "one entry of a proper block": len(fast) == 1 and 0 < kept < (1 << k.n) - 1,
                    })
    assert all(reached[(size, exact)] for size in ("no entry", "one entry", "several entries")
               for exact in (True, False)), reached
    assert all(reached[name] for name in (
        "empty vertex mask", "odd vertex mask", "isolated vertex", "one entry with a cut mask",
        "several entries with a cut mask", "one entry of a proper block",
    )), reached


def test_the_kernel_leaves_no_garbage_for_the_cycle_collector():
    """Every object a kernel call makes is freed by reference counting when
    the call returns, so calls made in bulk, as ``reduce`` makes them, give
    the cyclic collector nothing to find."""
    kernel = ghzgraphs.matchings._weight_table
    graphs = [cycle_ghz(8), dense_graph(6, 2, 0), exact_weight_cases()["path on 3"]]
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for g in graphs + [as_float(g) for g in graphs]:
            for vertices, cut in ((-1, 0), (0b1111, 0b111), (0b110110, 0), (0, 0)):
                kernel(g, vertices, cut)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_the_matching_search_leaves_no_garbage_for_the_cycle_collector():
    """The lazy matching search frees its recursive helper by reference
    counting both when it runs out and when its caller stops early, as the
    Bogdanov witness does, so matchings listed or drawn in bulk give the
    cyclic collector nothing to find."""
    search = ghzgraphs.matchings._iter_perfect_matchings
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        assert len(enumerate_perfect_matchings(dense_graph(6, 2, 0))) == 960
        assert gc.collect() == 0
        assert next(search(dense_graph(8, 3, 0))) == (0, 117, 198, 243)  # 1 of 688,905
        assert gc.collect() == 0
        witnesses = [find_bogdanov_witness(bogdanov_instance(seed)) for seed in range(5)]
        assert all(witnesses) and gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_exact_tables_from_triples_are_the_operator_tables_bit_for_bit(monkeypatch):
    """The exact DP runs on (re, im, den) triples with GaussianRational's *
    and + written inline; the operator DP of ``slow_weight_table`` gives the
    same keys in the same order and values with the same unreduced parts,
    exact and float, for whole graphs, empty vertex masks and masked blocks.
    The triple loop takes its gcd/lcm branch exactly as often as the
    operator DP's sums meet two different denominators."""
    kernel = ghzgraphs.matchings._weight_table
    real_add, real_gcd = GaussianRational.__add__, math.gcd
    sums, lcms = [], []  # (denominators equal, sum is 0) per sum; one entry per gcd

    def add(x, y):
        total = real_add(x, y)
        sums.append((x._v[2] == y._v[2], not total))
        return total

    def gcd(x, y):
        lcms.append((x, y))
        return real_gcd(x, y)

    monkeypatch.setattr(GaussianRational, "__add__", add)
    monkeypatch.setattr(ghzgraphs.matchings, "gcd", gcd)
    rng = random.Random("triples")
    reached = Counter()
    for g in kernel_corpus():
        gf = as_float(g)
        masks = [(-1, 0), (0, 0)] + [
            (bits(rng.sample(range(g.n), rng.randint(0, g.n))), bits(rng.sample(range(g.n), min(g.n, 3))))
            for _ in range(3)
        ]
        for vertices, cut in masks:
            del sums[:], lcms[:]
            fast = kernel(g, vertices, cut)
            merges = sums[:]  # the kernel's own sums are its parallel-edge merges
            slow = slow_weight_table(g, vertices, cut)
            dp_sums = sums[2 * len(merges):]  # after the operator DP's same merges
            assert table_bits(fast) == table_bits(slow)
            assert len(lcms) == sum(not equal for equal, _ in dp_sums)
            assert table_bits(kernel(gf, vertices, cut)) == table_bits(slow_weight_table(gf, vertices, cut))
            reached.update({
                "equal denominators": sum(equal for equal, _ in dp_sums),
                "gcd/lcm": len(lcms),
                "n = 0": g.n == 0 and bool(fast),
                "vertex mask": bool(fast) and vertices not in (-1, 0, (1 << g.n) - 1),
                "cut mask": bool(fast) and (cut & vertices).bit_count() >= 2,
                "parallel edges cancelling to 0": bool(fast) and any(zero for _, zero in merges),
            })
        # an empty vertex mask, and a whole graph on no vertices, read one
        # GaussianRational 1 with the parts of g.one, never a raw triple
        one_bits = [((), weight_bits(GaussianRational(1)))]
        assert table_bits(kernel(g, 0)) == one_bits
        if g.n == 0:
            assert table_bits(kernel(g)) == one_bits
    assert all(reached[name] for name in (
        "equal denominators", "gcd/lcm", "n = 0", "vertex mask", "cut mask",
        "parallel edges cancelling to 0",
    )), reached
    del lcms[:]
    kernel(exact_weight_cases()["rationalised K6 d=2"])
    assert lcms


# ---------------------------------------------------------------------------
# one table per graph object


def counting_kernel(monkeypatch) -> list:
    """Record every graph the table kernel runs on from now on."""
    real = ghzgraphs.matchings._weight_table
    built = []

    def counting(h):
        built.append(h)
        return real(h)

    monkeypatch.setattr(ghzgraphs.matchings, "_weight_table", counting)
    return built


def test_the_table_is_memoised_per_graph_object_not_per_value(monkeypatch):
    built = counting_kernel(monkeypatch)
    g, twin = cancelling_square(), cancelling_square()
    assert g == twin and g is not twin
    table = colouring_weight_table(g)
    assert colouring_weight_table(g) is table
    assert len(built) == 1 and built[0] is g
    twin_table = colouring_weight_table(twin)
    assert twin_table is not table and twin_table == table
    assert len(built) == 2 and built[1] is twin


def test_the_returned_table_is_read_only():
    g = cancelling_square()
    table = colouring_weight_table(g)
    with pytest.raises(TypeError):
        table[(1, 1, 1, 1)] = GaussianRational(1)
    with pytest.raises(TypeError):
        del table[(0, 0, 0, 0)]
    assert colouring_weight_table(g) == slow_table(g)


@pytest.mark.parametrize("extra_colours", [0, 1])
def test_verdict_dimension_mono_weights_and_scaling_build_one_table(monkeypatch, extra_colours):
    """With an extra colour on no edge the scaling looks for live colours in
    the graph without zero edges, which is the graph itself."""
    k4 = complete_ghz_k4()
    specs = [(e.u, e.v, e.cu, e.cv, e.weight) for e in k4.edges]
    g = build_graph(4, specs, colours=range(3 + extra_colours))
    built = counting_kernel(monkeypatch)
    verify(g)
    dimension(g)
    mono_weights(g)
    scale_to_ghz(g)
    assert sum(h is g for h in built) == 1


def test_verdict_and_graph_weight_build_one_table(monkeypatch):
    g = complete_ghz_k4()
    built = counting_kernel(monkeypatch)
    verify(g)
    assert graph_weight(g) == sum(colouring_weight_table(g).values(), g.zero)
    assert len(built) == 1 and built[0] is g


def colouring_query_cases():
    """(graph, colourings) over the conftest corpora, exact and float: two
    feasible keys of each graph's table and two seeded colourings, with the
    alternating colouring of C6, which no edge of it agrees with."""
    rng = random.Random("colouring-queries")
    for g, extra in [(g, []) for g in enumeration_corpus()] + [(cycle_ghz(6), [(0, 1, 0, 1, 0, 1)])]:
        universe = sorted(g.colour_universe)
        keys = list(colouring_weight_table(g))
        colourings = keys[:1] + keys[-1:] + [tuple(rng.choice(universe) for _ in range(g.n)) for _ in range(2)]
        for h in (g, as_float(g)):
            yield h, colourings + extra


def test_colouring_queries_are_the_filter_then_kernel_reads():
    """``colouring_weight``, ``is_feasible``, ``type_weights`` and both square
    decompositions read g through the kernel's colouring mask; each equals
    the weight kernel on a copy of g filtered by its own test
    (``slow_colouring_weight``, ``slow_block_weight``), bit for bit."""
    agreeing_none = 0
    for g, colourings in colouring_query_cases():
        for vc in colourings:
            weight, feasible = slow_colouring_weight(g, vc)
            assert weight_bits(colouring_weight(g, vc)) == weight_bits(weight), (g, vc)
            assert is_feasible(g, vc) is feasible, (g, vc)
            agreeing_none += not slow_filter_graph(g, vc).edges and g.n > 0
    assert agreeing_none >= 10

    def assert_blocks(fast, g, vc, blocks):
        slow = [slow_block_weight(g, vertices, vc.__getitem__, cut) for vertices, cut in blocks]
        assert list(map(weight_bits, fast)) == list(map(weight_bits, slow)), (g, vc)

    rng = random.Random("colouring-query-blocks")
    for g, cut in hard_family() + planted_cut_corpus(20):
        universe = sorted(g.colour_universe)
        v1, v2, s = set(cut.v1), set(cut.v2), set(cut.s)
        blocks = [(v1 | s, s)] + [(v1 | {u}, ()) for u in cut.s]
        blocks += [(v2, ())] + [(v2 | (s - {u}), ()) for u in cut.s]
        for h in (g, as_float(g)):
            for vc in [(universe[0],) * g.n] + [tuple(rng.choice(universe) for _ in range(g.n)) for _ in range(3)]:
                tw = type_weights(h, cut, vc)
                assert_blocks(tw.v1_side + tw.v2_side, h, vc, blocks)
    squares = {True: 0, False: 0}
    for g in cycle_cases() + [g for g, _ in hard_family(6)]:
        universe = sorted(g.colour_universe)
        for cut in list(iter_cuts(g, 2))[:4]:
            (u, v), a, b = cut.s, set(cut.v1), set(cut.v2)
            odd = len(a) % 2 == 1
            squares[odd] += 1
            for h in (g, as_float(g)):
                for colours in itertools.islice(itertools.product(universe, repeat=4 if odd else 3), 0, None, 5):
                    if odd:
                        i, j, k, l = colours
                        vc = tuple(i if x in a else j if x in b else k if x == u else l for x in range(g.n))
                        fast = square_decomposition_odd(h, u, v, cut.v1, cut.v2, colours)
                        blocks = [(a | {u}, ()), (b | {v}, ()), (b | {u}, ()), (a | {v}, ())]
                    else:
                        i, j, k = colours
                        vc = tuple(i if x in a else j if x in b else k for x in range(g.n))
                        fast = square_decomposition_even(h, u, v, cut.v1, cut.v2, colours)
                        blocks = [(a | {u, v}, {u, v}), (b, ()), (b | {u, v}, ()), (a, ())]
                    assert_blocks(fast, h, vc, blocks)
    assert squares[True] >= 10 and squares[False] >= 10, squares


# ---------------------------------------------------------------------------
# identities of the weight kernel at sizes the pairing oracle cannot reach


def every_class_graph(n, d, pairs, seed):
    """n vertices, each pair joined by an edge of every colour class (p, q),
    each with its own seeded non-zero exact weight."""
    rng = random.Random(f"every-class-{seed}")
    specs = [(u, v, p, q, small_rational(rng)) for u, v in pairs for p in range(d) for q in range(d)]
    return build_graph(n, specs, colours=range(d))


def ladder_pairs(k):
    """The rungs x - (x + k) and both rails of the ladder on 2k vertices."""
    return [(x, x + k) for x in range(k)] + [(r + x, r + x + 1) for r in (0, k) for x in range(k - 1)]


#: dense K10 (1,024 entries) and the 16-vertex ladder (65,536), both at d = 2
IDENTITY_GRAPHS = {
    "K10": every_class_graph(10, 2, itertools.combinations(range(10), 2), "K10"),
    "L16": every_class_graph(16, 2, ladder_pairs(8), "L16"),
}
#: their float copies, whose tables are kept on them for both identities
FLOAT_IDENTITY_GRAPHS = {name: as_float(g) for name, g in IDENTITY_GRAPHS.items()}


def assert_close_tables(fast: dict, expected: dict):
    """Equal keys, and values within a relative 1e-9 of the table's largest."""
    assert fast.keys() == expected.keys()
    tol = 1e-9 * max(map(abs, expected.values()))
    assert all(abs(fast[vc] - w) <= tol for vc, w in expected.items())


@pytest.mark.parametrize("name", sorted(IDENTITY_GRAPHS))
def test_a_relabelled_graph_has_the_relabelled_table(name):
    """table(pi(G))[vc o pi^-1] = table(G)[vc] for a seeded vertex
    permutation pi; an edge whose ends swap order swaps its half-colours."""
    g = IDENTITY_GRAPHS[name]
    perm = list(range(g.n))
    random.Random(f"relabel-{name}").shuffle(perm)
    specs = []
    for e in g.edges:
        u, v, cu, cv = perm[e.u], perm[e.v], e.cu, e.cv
        specs.append((u, v, cu, cv, e.weight) if u < v else (v, u, cv, cu, e.weight))
    h = build_graph(g.n, specs, colours=g.colour_universe)
    moved = itemgetter(*sorted(range(g.n), key=perm.__getitem__))  # vc o pi^-1
    table, moved_table = colouring_weight_table(g), colouring_weight_table(h)
    assert len(moved_table) == len(table) == 2**g.n
    assert all(moved_table[moved(vc)] == w for vc, w in table.items())
    for vc in list(table)[:: len(table) // 5]:
        assert colouring_weight(h, moved(vc)) == table[vc] == colouring_weight(g, vc)
    float_table = colouring_weight_table(FLOAT_IDENTITY_GRAPHS[name])
    assert_close_tables(
        {vc: w for vc, w in zip(map(moved, float_table), float_table.values())},
        colouring_weight_table(as_float(h)),
    )


@pytest.mark.parametrize("name", sorted(IDENTITY_GRAPHS))
def test_a_gauged_graph_has_the_gauged_table(name):
    """Scaling every colour-c edge end at v by a non-zero lambda_{v,c}
    multiplies entry vc by the product over v of lambda_{v,vc_v}."""
    g = IDENTITY_GRAPHS[name]
    rng = random.Random(f"gauge-{name}")
    d = len(g.colour_universe)
    lam = {(v, c): small_rational(rng) for v in range(g.n) for c in range(d)}
    h = build_graph(
        g.n,
        [(e.u, e.v, e.cu, e.cv, e.weight * lam[e.u, e.cu] * lam[e.v, e.cv]) for e in g.edges],
        colours=g.colour_universe,
    )
    # the factor of vc is the product of the factors of its two halves
    half = g.n // 2
    factors = []
    for start in (0, half):
        factor = {}
        for key in itertools.product(range(d), repeat=half):
            f = GaussianRational(1)
            for v, c in enumerate(key, start):
                f = f * lam[v, c]
            factor[key] = f
        factors.append(factor)
    first, second = factors
    table, gauged_table = colouring_weight_table(g), colouring_weight_table(h)
    assert gauged_table.keys() == table.keys() and len(table) == 2**g.n
    assert all(gauged_table[vc] == w * first[vc[:half]] * second[vc[half:]] for vc, w in table.items())
    for vc in list(table)[:: len(table) // 5]:
        assert colouring_weight(h, vc) == gauged_table[vc]
    float_table = colouring_weight_table(FLOAT_IDENTITY_GRAPHS[name])
    assert_close_tables(
        colouring_weight_table(as_float(h)),
        {vc: w * complex(first[vc[:half]] * second[vc[half:]]) for vc, w in float_table.items()},
    )
