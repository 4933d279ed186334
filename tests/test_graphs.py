"""Graph construction, canonicalization and the structural helpers."""

from fractions import Fraction

import numpy as np
import pytest

from ghzgraphs import (
    Edge,
    GaussianRational,
    Multigraph,
    adjacency_sets,
    build_graph,
    colouring_weight_table,
    cycle_ghz,
    dimension,
    drop_zero_edges,
    induced_subgraph,
    merge_parallel_edges,
    mono_colouring,
    parallel_ghz_k2,
    parse_document,
    serialize_graph,
    skeleton,
)

from conftest import planted_matching_graph


def test_edge_canonicalizes_endpoints_with_halves():
    e = Edge(3, 1, 7, 2, 5)
    assert (e.u, e.v) == (1, 3)
    # the half-colours travel with their endpoints
    assert (e.cu, e.cv) == (2, 7)


def test_edge_rejects_self_loops_and_negatives():
    with pytest.raises(ValueError):
        Edge(2, 2, 0, 0, 1)
    with pytest.raises(ValueError):
        Edge(-1, 0, 0, 0, 1)
    with pytest.raises(ValueError):
        Edge(0, 1, -1, 0, 1)
    with pytest.raises(TypeError):
        Edge(0, 1, 0.5, 0, 1)


def test_numpy_vertex_indices_and_counts_become_ints():
    # 1 << np.int64(70) overflows to 0 in the weight kernel, which then lost
    # every matching of this graph
    g = Multigraph(
        np.int64(70),
        (Edge(np.int64(2 * k), np.int64(2 * k + 1), 0, 0, 1) for k in range(35)),
        frozenset({0}),
    )
    assert g.n.__class__ is int
    assert all(e.u.__class__ is int and e.v.__class__ is int for e in g.edges)
    assert dimension(g) == 1


@pytest.mark.parametrize("u, v", [(0.0, 1), (0, 1.0), (0.5, 1), (True, 2), (0, False)])
def test_edge_refuses_vertex_indices_that_are_not_ints(u, v):
    with pytest.raises(TypeError, match="vertex index must be an int"):
        Edge(u, v, 0, 0, 1)


@pytest.mark.parametrize("n", [2.0, True, "2"])
def test_multigraph_refuses_a_vertex_count_that_is_not_an_int(n):
    with pytest.raises(TypeError, match="vertex count must be an int"):
        Multigraph(n, (), frozenset({0}))


def test_bool_colours_are_refused():
    # a bool colour would serialise as true, which parse_document refuses
    with pytest.raises(TypeError):
        Edge(0, 1, True, 0, 1)
    with pytest.raises(TypeError):
        Edge(0, 1, 0, False, 1)
    with pytest.raises(ValueError):
        Multigraph(2, (), frozenset({True}))


@pytest.mark.parametrize("numpy_int", [np.int64, np.int32, np.uint8])
def test_numpy_colours_become_ints(numpy_int):
    # a numpy colour is converted as a numpy vertex index is, so a graph
    # holds plain ints and serialises
    e = Edge(1, 0, numpy_int(1), numpy_int(2), 1)
    assert (e.cu, e.cv) == (2, 1) and e.cu.__class__ is e.cv.__class__ is int
    g = build_graph(2, [(0, 1, numpy_int(0), 0, 1)])
    assert g.colour_universe == frozenset({0})
    assert all(c.__class__ is int for c in g.colour_universe)
    assert g.edges[0].cu.__class__ is int
    h = Multigraph(2, (Edge(0, 1, 0, 3, 1),), [numpy_int(0), numpy_int(3)])
    assert h.colour_universe == frozenset({0, 3})
    assert all(c.__class__ is int for c in h.colour_universe)
    assert parse_document(serialize_graph(h)) == h
    with pytest.raises(ValueError, match="colours must be non-negative"):
        Edge(0, 1, np.int64(-1), 0, 1)
    with pytest.raises(ValueError, match="is not a non-negative int"):
        Multigraph(2, (), [np.int64(-1)])


def test_weight_coercion():
    assert isinstance(Edge(0, 1, 0, 0, 3).weight, GaussianRational)
    assert Edge(0, 1, 0, 0, Fraction(6, -4)).weight._v == (-3, 0, 2)
    assert isinstance(Edge(0, 1, 0, 0, 0.5).weight, complex)
    assert Edge(0, 1, 0, 0, 0.5).weight == 0.5 + 0j
    for refused in ("nope", "1/2"):
        with pytest.raises(TypeError):
            Edge(0, 1, 0, 0, refused)


def test_multigraph_validation():
    e = Edge(0, 1, 0, 0, 1)
    with pytest.raises(ValueError):
        Multigraph(1, (e,), frozenset({0}))  # endpoint out of range
    with pytest.raises(ValueError):
        Multigraph(2, (e,), frozenset({1}))  # colour outside universe
    with pytest.raises(ValueError):
        Multigraph(2, (e, Edge(0, 1, 0, 0, 0.5)), frozenset({0}))  # mixed kinds


def test_exactness_flags():
    g = build_graph(2, [(0, 1, 0, 0, 1)])
    assert g.is_exact and g.one == GaussianRational(1)
    f = build_graph(2, [(0, 1, 0, 0, 1.0)])
    assert not f.is_exact and f.zero == 0j
    assert Multigraph(3, (), frozenset()).is_exact  # edgeless counts as exact


@pytest.mark.parametrize("entries", [[1, True], [0, 1, 1.0], [0, np.float64(0.0)]], ids=["bool", "float", "numpy-float"])
@pytest.mark.parametrize("reverse", [False, True], ids=["as-given", "reversed"])
def test_a_colour_universe_is_read_before_it_is_deduplicated(entries, reverse):
    """An entry equal to an int (True, 1.0) is refused whichever comes first,
    not dropped as a duplicate when the int comes first."""
    if reverse:
        entries = entries[::-1]
    with pytest.raises(ValueError, match="is not a non-negative int"):
        Multigraph(2, (), entries)
    with pytest.raises(ValueError, match="is not a non-negative int"):
        build_graph(2, [(0, 1, 0, 0, 1)], colours=entries)


def test_build_graph_universe_defaults_to_present_colours():
    g = build_graph(2, [(0, 1, 0, 2, 1)])
    assert g.colour_universe == frozenset({0, 2})
    pinned = build_graph(2, [(0, 1, 0, 0, 1)], colours=range(4))
    assert pinned.colour_universe == frozenset({0, 1, 2, 3})


def test_merge_parallel_edges_sums_and_orders():
    g = build_graph(2, [
        (0, 1, 0, 0, 2),
        (0, 1, 1, 1, 5),
        (0, 1, 0, 0, -2),
        (1, 0, 0, 0, 7),   # canonicalizes into the same class
    ])
    m = merge_parallel_edges(g)
    assert [(e.cu, e.cv, e.weight) for e in m.edges] == [
        (0, 0, GaussianRational(7)),
        (1, 1, GaussianRational(5)),
    ]
    assert merge_parallel_edges(m) == m  # idempotent


def test_merge_keeps_unmerged_edges_and_sums_left_to_right():
    e = Edge(0, 1, 0, 0, 0.1)
    f = Edge(0, 1, 1, 0, 0.2)
    g = Multigraph(2, (e, f, Edge(0, 1, 0, 0, 0.2), Edge(0, 1, 0, 0, 0.3)), frozenset({0, 1}))
    m = merge_parallel_edges(g)
    assert m.edges[1] is f  # a class without a sum keeps its edge
    # first to last: (0.1 + 0.2) + 0.3 differs from 0.1 + (0.2 + 0.3) in the last bit
    assert [e.weight for e in m.edges] == [(0.1 + 0.2) + 0.3, 0.2]
    assert (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)
    # one edge object listed twice is summed with itself
    assert merge_parallel_edges(Multigraph(2, (e, e), frozenset({0}))).edges[0].weight == 0.2


def test_merge_keeps_colouring_weights():
    for seed in range(8):
        g = planted_matching_graph(seed)
        assert colouring_weight_table(merge_parallel_edges(g)) == colouring_weight_table(g)


def test_drop_zero_edges():
    g = build_graph(2, [(0, 1, 0, 0, 0), (0, 1, 1, 1, 3)])
    no_zero = drop_zero_edges(g)
    assert [(e.cu, e.weight) for e in no_zero.edges] == [(1, GaussianRational(3))]
    assert drop_zero_edges(no_zero) is no_zero  # nothing to drop: the graph itself


def test_induced_subgraph_relabels_densely():
    g = build_graph(5, [(0, 3, 0, 1, 2), (3, 4, 0, 0, 1), (1, 2, 0, 0, 1)])
    sub, kept = induced_subgraph(g, {4, 0, 3})
    assert kept == (0, 3, 4)
    assert sub.n == 3
    assert [(e.u, e.v, e.cu, e.cv) for e in sub.edges] == [(0, 1, 0, 1), (1, 2, 0, 0)]
    with pytest.raises(ValueError):
        induced_subgraph(g, {5})


@pytest.mark.parametrize("vertices", [[True, 0], [1.0, 0], [0, 2.5], [np.True_, 0], [0, np.float64(1)]])
def test_induced_subgraph_refuses_a_vertex_that_is_not_an_int(vertices):
    # True and 1.0 would be kept as labels equal to vertex 1
    with pytest.raises(ValueError, match="vertex must be an int"):
        induced_subgraph(cycle_ghz(4), vertices)


def test_induced_subgraph_labels_numpy_vertices_with_ints():
    sub, kept = induced_subgraph(cycle_ghz(4), [np.int64(1), 0, np.int32(2)])
    assert kept == (0, 1, 2) and all(v.__class__ is int for v in kept)
    assert sub == induced_subgraph(cycle_ghz(4), [0, 1, 2]).graph


def test_induced_subgraph_of_everything_is_identity():
    g = planted_matching_graph(3)
    sub, kept = induced_subgraph(g, range(g.n))
    assert kept == tuple(range(g.n))
    assert sub == g


def test_skeleton_forgets_colours_weights_and_multiplicity():
    g = build_graph(3, [(0, 1, 0, 1, 5), (0, 1, 1, 0, -5), (1, 2, 2, 2, 1)], colours=range(3))
    s = skeleton(g)
    assert s.colour_universe == frozenset({0})
    assert [(e.u, e.v, e.weight) for e in s.edges] == [
        (0, 1, GaussianRational(1)),
        (1, 2, GaussianRational(1)),
    ]


def test_colouring_helpers():
    assert mono_colouring(3, 2) == (2, 2, 2)
    assert adjacency_sets(build_graph(3, [(0, 1, 0, 0, 1)])) == [{1}, {0}, set()]


@pytest.mark.parametrize("n, colour", [(3, 1.0), (3.0, 1), (True, 0), (3, False), (3, np.float64(1))],
                         ids=["float-colour", "float-n", "bool-n", "bool-colour", "numpy-float-colour"])
def test_mono_colouring_refuses_an_argument_that_is_not_an_int(n, colour):
    # (1.0, 1.0, 1.0) would be a colouring every query refuses
    with pytest.raises(ValueError, match="must be an int"):
        mono_colouring(n, colour)


def test_mono_colouring_reads_numpy_integers_as_ints():
    vc = mono_colouring(np.int64(3), np.int32(2))
    assert vc == (2, 2, 2) and all(c.__class__ is int for c in vc)


@pytest.mark.parametrize("build, size", [
    (cycle_ghz, 6.0), (cycle_ghz, True), (cycle_ghz, np.float64(6)), (parallel_ghz_k2, True), (parallel_ghz_k2, 2.0),
], ids=["cycle-float", "cycle-bool", "cycle-numpy-float", "k2-bool", "k2-float"])
def test_cycle_ghz_and_parallel_ghz_k2_refuse_a_size_that_is_not_an_int(build, size):
    # parallel_ghz_k2(True) would be the one-edge graph of parallel_ghz_k2(1)
    with pytest.raises(ValueError, match="must be an int"):
        build(size)
