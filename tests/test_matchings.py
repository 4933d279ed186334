"""Matching enumeration and the weight bookkeeping, against brute force."""

import math
import random
from fractions import Fraction

import pytest

from ghzgraphs import (
    GaussianRational,
    build_graph,
    cancelling_square,
    colouring_weight,
    colouring_weight_table,
    enumerate_perfect_matchings,
    filter_graph,
    graph_weight,
    induced_colouring,
    is_feasible,
    matching_weight,
)

from conftest import (
    hard_family,
    oracle_colouring_weight,
    oracle_graph_weight,
    planted_cut_corpus,
    random_corpus,
    random_multigraph,
    small_rational,
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


def as_float(g):
    specs = [(e.u, e.v, e.cu, e.cv, complex(e.weight)) for e in g.edges]
    return build_graph(g.n, specs, colours=g.colour_universe)


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
