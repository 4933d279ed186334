"""Verification, dimension, scaling and the non-mono witness."""

import cmath
import itertools
import math
import random
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import ghzgraphs.ghz
from ghzgraphs import (
    DEFAULT_EPSILON,
    BogdanovHypothesisError,
    GaussianRational,
    Edge,
    GhzGraphError,
    InvariantViolation,
    Multigraph,
    NotGhzError,
    UnscalableColourError,
    build_graph,
    cancelling_square,
    colouring_weight_table,
    complete_ghz_k4,
    cycle_ghz,
    dimension,
    drop_zero_edges,
    enumerate_perfect_matchings,
    find_bogdanov_witness,
    induced_colouring,
    matching_weight,
    mono_weights,
    parallel_ghz_k2,
    scale_to_ghz,
    verify,
)

from conftest import (
    as_float,
    bogdanov_corpus,
    brute_pairings,
    enumeration_corpus,
    ghz_corpus,
    scale_corpus,
    scaled_ghz_instance,
    slow_verify,
    small_rational,
    weighted_cycle,
)


def test_k4_is_ghz_of_dimension_three():
    v = verify(complete_ghz_k4())
    assert v.is_ghz and v.is_g_ghz
    assert v.dimension == 3
    assert v.violations == ()


def test_parallel_edges_give_dimension_t():
    for t in (1, 2, 5):
        v = verify(parallel_ghz_k2(t))
        assert v.is_ghz and v.dimension == t


def test_cycles_have_dimension_two():
    for g in (cycle_ghz(6), cycle_ghz(8), weighted_cycle(9, range(6))):
        v = verify(g)
        assert v.is_ghz and v.dimension == 2


def test_mono_weights_table():
    assert mono_weights(complete_ghz_k4()) == {
        0: GaussianRational(1),
        1: GaussianRational(1),
        2: GaussianRational(1),
    }
    # an unused universe colour shows up with weight 0
    g = build_graph(2, [(0, 1, 0, 0, 7)], colours=range(2))
    assert mono_weights(g) == {0: GaussianRational(7), 1: GaussianRational(0)}


def test_cancelling_mono_breaks_strict_but_not_generalized():
    v = verify(cancelling_square())
    assert not v.is_ghz
    assert v.is_g_ghz
    assert v.dimension == 0
    (viol,) = v.violations
    assert viol.kind == "mono_zero"
    assert viol.colouring == (0, 0, 0, 0)
    assert viol.weight == GaussianRational(0)


def test_non_mono_weight_fails_both_properties():
    g = build_graph(2, [(0, 1, 0, 1, 1)], colours=range(2))
    v = verify(g)
    assert not v.is_ghz and not v.is_g_ghz
    assert [x.kind for x in v.violations] == ["non_mono_nonzero"]
    with pytest.raises(NotGhzError):
        dimension(g)


def test_mono_not_one_is_g_ghz_only():
    g = build_graph(2, [(0, 1, 0, 0, 5)])
    v = verify(g)
    assert not v.is_ghz and v.is_g_ghz and v.dimension == 1
    assert [x.kind for x in v.violations] == ["mono_not_one"]
    assert dimension(g) == 1


def test_float_graphs_verify_within_epsilon():
    g = build_graph(2, [(0, 1, 0, 0, 1.0 + 1e-12j)])
    assert verify(g).is_ghz
    assert not verify(g, epsilon=1e-15).is_ghz


# a bool, numpy's scalar or 0-d array included, would pass as 0 or 1; None,
# str, complex, a decimal NaN and an array of two do not compare with 0 to
# one bool
@pytest.mark.parametrize("epsilon", [
    -1.0, -1e-12, float("nan"),
    True, False, None, "1e-9", 1j, 0.5 + 0j, Decimal("NaN"), np.array([0.1, 0.2]),
    np.True_, np.False_, np.array(True), np.array(False),
])
def test_out_of_range_epsilon_is_refused(epsilon):
    ghz = scale_to_ghz(cycle_ghz(6))
    assert verify(ghz).is_ghz and dimension(ghz) == 2
    for call in (verify, dimension):
        for g in (ghz, cycle_ghz(6)):
            with pytest.raises(ValueError, match="epsilon must be a non-negative number"):
                call(g, epsilon)
    with pytest.raises(ValueError, match="epsilon must be a non-negative number"):
        scale_to_ghz(cycle_ghz(6), epsilon)


@pytest.mark.parametrize("epsilon", [Fraction(1, 10**9), np.float64(1e-9), np.float32(1e-6), np.int64(0)])
def test_fraction_and_numpy_epsilons_are_accepted(epsilon):
    g = build_graph(2, [(0, 1, 0, 0, 1.0 + 1e-12j)])
    assert verify(g, epsilon).is_ghz == (epsilon > 1e-12)
    assert dimension(scale_to_ghz(cycle_ghz(6), epsilon), epsilon) == 2


def test_zero_epsilon_compares_floats_exactly():
    assert verify(build_graph(2, [(0, 1, 0, 0, 1.0)]), 0.0).is_ghz
    assert not verify(build_graph(2, [(0, 1, 0, 0, 1.0 + 1e-12j)]), 0.0).is_ghz


def test_verify_on_the_empty_graph():
    """n = 0 has one colouring, (), mono in every colour of the universe: GHZ
    of dimension 0 with no colour, of dimension 2 with two."""
    for g, dim in ((build_graph(0, []), 0), (Multigraph(0, (), frozenset({0, 1})), 2)):
        assert verify(g) == (True, True, dim, ())
        assert verify(g) == slow_verify(g)


VERIFY_EPSILONS = (0.0, 1e-12, DEFAULT_EPSILON, 1e-3, 0.5, 1.0, 4.0, math.inf)


def test_one_pass_verify_is_the_per_entry_verify():
    """The verdict, exact and float, at several epsilons, is the per-entry
    loop's: same flags, dimension and violations in the same order, each
    carrying the table's own weight object."""
    exact = (
        enumeration_corpus()
        + [g for _, g in ghz_corpus()]
        + [g for _, g in scale_corpus()]
        + [cancelling_square(), Multigraph(0, (), frozenset({0, 1})), build_graph(0, [])]
    )
    floats = [as_float(g) for g in exact] + [scale_to_ghz(g) for _, g in ghz_corpus()] + [
        build_graph(2, [(0, 1, 0, 1, 1e-3), (0, 1, 1, 1, 1.0)]),  # non-mono weight at epsilon 1e-3
        build_graph(2, [(0, 1, 0, 1, complex("nan")), (0, 1, 0, 0, complex("nan+1j"))]),
        build_graph(4, [(0, 1, 0, 0, 1.0), (2, 3, 0, 0, complex("inf")), (0, 1, 1, 0, 1.0)]),
    ]
    reached = Counter()
    for g in exact + floats:
        verdicts = set()
        for epsilon in VERIFY_EPSILONS:
            fast, slow = verify(g, epsilon), slow_verify(g, epsilon)
            assert fast == slow
            assert all(a.weight is b.weight for a, b in zip(fast.violations, slow.violations))
            verdicts.add(fast)
            reached.update(v.kind for v in fast.violations)
            reached["nan"] += any(w != w for w in colouring_weight_table(g).values())
        reached["epsilon moves the verdict"] += len(verdicts) > 1
    assert all(reached[name] for name in (
        ghzgraphs.ghz.NON_MONO_NONZERO, ghzgraphs.ghz.MONO_ZERO, ghzgraphs.ghz.MONO_NOT_ONE,
        "nan", "epsilon moves the verdict",
    )), reached


def test_scaling_a_ghz_graph_is_identity_like():
    scaled = scale_to_ghz(complete_ghz_k4())
    assert not scaled.is_exact
    v = verify(scaled)
    assert v.is_ghz and v.dimension == 3
    for e in scaled.edges:
        assert abs(e.weight - 1) < 1e-12


@pytest.mark.parametrize("seed", range(6))
def test_scaling_recovers_ghz_from_colour_multiples(seed):
    name, g = scaled_ghz_instance(seed)
    before = verify(g)
    scaled = scale_to_ghz(g)
    after = verify(scaled)
    assert after.is_ghz
    assert after.dimension == before.dimension
    for w in mono_weights(scaled).values():
        assert abs(w) < 1e-9 or abs(w - 1) < 1e-9


def test_scaling_tolerates_dead_colours():
    # widen the universe by a colour no edge carries: W = 0 there, scale = 1
    base = cycle_ghz(6)
    g = Multigraph(base.n, base.edges, base.colour_universe | {5})
    scaled = scale_to_ghz(g)
    assert verify(scaled).dimension == 2


def test_scaling_refuses_cancelled_colour_on_live_edges():
    with pytest.raises(UnscalableColourError):
        scale_to_ghz(cancelling_square())


def zero_mono_graph():
    """g-GHZ with colour 0 dead: every perfect matching has a zero-weight
    edge, so the all-0 colouring is feasible with weight 0."""
    return build_graph(4, [
        (0, 2, 0, 0, GaussianRational("1/3")),
        (1, 2, 0, 0, GaussianRational("-2/3", 1)),
        (0, 3, 0, 0, 0),
        (2, 3, 0, 0, 0),
        (1, 2, 0, 0, 0),
    ])


def test_scaling_refuses_a_dead_colour_with_a_feasible_mono_colouring():
    g = zero_mono_graph()
    v = verify(g)
    assert v.is_g_ghz and v.dimension == 0
    assert [x.kind for x in v.violations] == ["mono_zero"]
    with pytest.raises(UnscalableColourError, match="colour 0: its monochromatic colouring"):
        scale_to_ghz(g)


def test_scaling_rejects_non_g_ghz_and_floats():
    with pytest.raises(NotGhzError):
        scale_to_ghz(build_graph(2, [(0, 1, 0, 1, 1)], colours=range(2)))
    with pytest.raises(ValueError):
        scale_to_ghz(build_graph(2, [(0, 1, 0, 0, 1.0)]))


def test_witness_hypothesis_errors():
    with pytest.raises(BogdanovHypothesisError):
        find_bogdanov_witness(complete_ghz_k4())  # too few vertices
    with pytest.raises(BogdanovHypothesisError):
        find_bogdanov_witness(cycle_ghz(6))  # only two mono colours


def test_witness_on_a_hand_instance():
    # three edge-disjoint mono pairings of K6; these nine edges admit exactly
    # four perfect matchings: the pairings themselves plus one mixed one
    specs = []
    for colour, pairs in enumerate([
        [(0, 1), (2, 3), (4, 5)],
        [(0, 2), (1, 4), (3, 5)],
        [(0, 3), (1, 5), (2, 4)],
    ]):
        specs += [(u, v, colour, colour, 1) for u, v in pairs]
    g = build_graph(6, specs, colours=range(3))
    m = find_bogdanov_witness(g)
    assert m == (0, 5, 8)  # (0,1) colour 0, (3,5) colour 1, (2,4) colour 2
    assert induced_colouring(g, m) == (0, 0, 2, 1, 2, 1)


@pytest.mark.parametrize("seed", range(30))
def test_witness_is_a_valid_non_mono_matching(seed):
    g = bogdanov_corpus(seed + 1)[seed]
    m = find_bogdanov_witness(g)
    covered = sorted(x for i in m for x in (g.edges[i].u, g.edges[i].v))
    assert covered == list(range(g.n))
    assert len(set(induced_colouring(g, m))) > 1


def test_non_mono_matching_existence_by_brute_force():
    # independent of the library's search: some pairing must support a
    # non-mono edge selection whenever three mono pairings exist
    for seed in range(10):
        g = bogdanov_corpus(seed + 1)[seed]
        by_pair = {}
        for e in g.edges:
            by_pair.setdefault((e.u, e.v), []).append((e.cu, e.cv))
        found = False
        for pairing in brute_pairings(g.n):
            if not all(p in by_pair for p in pairing):
                continue
            for choice in itertools.product(*(by_pair[p] for p in pairing)):
                colours = set()
                for (cu, cv) in choice:
                    colours.update((cu, cv))
                if len(colours) > 1:
                    found = True
                    break
            if found:
                break
        assert found


def test_ghz_corpus_is_ghz():
    for name, g in ghz_corpus():
        v = verify(g)
        assert v.is_ghz, name


# ---------------------------------------------------------------------------
# the yes/no checks against the enumeration they replaced


def slow_live_colours(g):
    """Colours on the edges of the non-zero-weight perfect matchings, by enumeration."""
    live = set()
    for m in enumerate_perfect_matchings(g):
        if matching_weight(g, m) != g.zero:
            for i in m:
                live |= {g.edges[i].cu, g.edges[i].cv}
    return live


def slow_bogdanov_witness(g):
    """find_bogdanov_witness by enumeration: mono colours and witness in one pass."""
    if g.n <= 4:
        raise BogdanovHypothesisError("hypothesis needs more than four vertices")
    mono_colours = set()
    witness = None
    for m in enumerate_perfect_matchings(g):
        vc = induced_colouring(g, m)
        if len(set(vc)) <= 1:
            if vc:
                mono_colours.add(vc[0])
        elif witness is None:
            witness = m
    if len(mono_colours) < 3:
        raise BogdanovHypothesisError(
            f"hypothesis needs monochromatic perfect matchings of three distinct "
            f"colours, found {len(mono_colours)}"
        )
    if witness is None:
        raise InvariantViolation("no non-monochromatic perfect matching found")
    return witness


def outcome(f, g):
    """f(g), or the type and message of what it raised."""
    try:
        return f(g)
    except GhzGraphError as exc:
        return type(exc), str(exc)


def test_kernel_keys_carry_the_live_colours():
    for g in enumeration_corpus():
        keys = colouring_weight_table(drop_zero_edges(g))
        assert {c for vc in keys for c in vc} == slow_live_colours(g)


def dead_colour_variants(seed):
    """A scaled GHZ graph with an extra colour 9 nowhere, on zero-weight edges
    only (both scalable), and on a cancelling parallel pair across one of its
    edges (live, so unscalable)."""
    _, h = scaled_ghz_instance(seed)
    universe = h.colour_universe | {9}
    specs = [(e.u, e.v, e.cu, e.cv, e.weight) for e in h.edges]
    e = h.edges[seed % len(h.edges)]
    w = small_rational(random.Random(f"dead-colour-{seed}"))
    return [
        build_graph(h.n, specs, colours=universe),
        build_graph(
            h.n, specs + [(e.u, e.v, 9, e.cv, 0), (e.u, e.v, e.cu, 9, 0)], colours=universe
        ),
        build_graph(h.n, specs + [(e.u, e.v, 9, 9, w), (e.u, e.v, 9, 9, -w)], colours=universe),
    ]


def slow_scale_to_ghz(g):
    """scale_to_ghz with its live colours found by enumeration."""
    if not g.is_exact:
        raise ValueError("scaling expects an exact-weighted graph")
    verdict = verify(g)
    if not verdict.is_g_ghz:
        raise NotGhzError("not a g-GHZ graph; scaling is undefined")
    if g.n == 0:
        return Multigraph(0, (), g.colour_universe)
    weights = mono_weights(g)
    bad = sorted({c for c, w in weights.items() if w == g.zero} & slow_live_colours(g))
    if bad:
        raise UnscalableColourError(
            f"unscalable colour {bad[0]}: zero monochromatic weight but "
            f"present in a non-zero-weight perfect matching"
        )
    colourings = [induced_colouring(g, m) for m in enumerate_perfect_matchings(g)]
    mono_feasible = {vc[0] for vc in colourings if len(set(vc)) == 1}
    stuck = [c for c, w in weights.items() if w == g.zero and c in mono_feasible]
    if stuck:
        raise UnscalableColourError(
            f"unscalable colour {stuck[0]}: its monochromatic colouring is "
            f"feasible with weight 0, and no scaling makes that weight 1"
        )
    scale = {
        c: 1.0 + 0.0j if w == g.zero else cmath.exp(-cmath.log(complex(w)) / g.n)
        for c, w in weights.items()
    }
    edges = tuple(
        Edge(e.u, e.v, e.cu, e.cv, complex(e.weight) * scale[e.cu] * scale[e.cv])
        for e in g.edges
    )
    scaled = Multigraph(g.n, edges, g.colour_universe)
    check = verify(scaled)
    if not check.is_ghz:
        raise InvariantViolation(
            f"scaled graph failed the GHZ check at epsilon=1e-09: {check.violations[:3]}"
        )
    if check.dimension != verdict.dimension:
        raise InvariantViolation("scaling changed the dimension")
    return scaled


def test_scaling_matches_enumeration_on_dead_colours():
    graphs = [cancelling_square()] + [g for seed in range(20) for g in dead_colour_variants(seed)]
    graphs += enumeration_corpus()
    outcomes = [outcome(slow_scale_to_ghz, g) for g in graphs]
    assert [outcome(scale_to_ghz, g) for g in graphs] == outcomes
    # both branches of the dead-colour check run
    assert outcomes[0][0] is UnscalableColourError
    assert sum(isinstance(o, Multigraph) for o in outcomes[1:61]) == 40
    assert sum(isinstance(o, tuple) and o[0] is UnscalableColourError for o in outcomes[1:61]) == 20


def test_scaling_builds_the_table_without_zero_edges_only_when_there_are_some(monkeypatch):
    real_table = ghzgraphs.matchings._weight_table
    exact_tables = []

    def counting_table(h):
        if h.is_exact:
            exact_tables.append(h)
        return real_table(h)

    monkeypatch.setattr(ghzgraphs.matchings, "_weight_table", counting_table)
    for seed in range(5):
        nowhere, on_zero_edges, _ = dead_colour_variants(seed)
        exact_tables.clear()
        scale_to_ghz(nowhere)  # colour 9 is dead, and no edge weighs 0
        assert exact_tables == [nowhere]
        exact_tables.clear()
        scale_to_ghz(on_zero_edges)
        assert exact_tables == [on_zero_edges, drop_zero_edges(on_zero_edges)]


def test_witness_matches_enumeration_on_the_corpus():
    for g in enumeration_corpus():
        assert outcome(find_bogdanov_witness, g) == outcome(slow_bogdanov_witness, g)


def test_yes_no_checks_list_no_matchings(monkeypatch):
    def refuse(g):
        raise AssertionError("perfect matchings enumerated for a yes/no check")

    monkeypatch.setattr(ghzgraphs.ghz, "_iter_perfect_matchings", refuse)
    with pytest.raises(UnscalableColourError):
        scale_to_ghz(cancelling_square())
    base = cycle_ghz(6)
    scale_to_ghz(Multigraph(base.n, base.edges, base.colour_universe | {5}))
    with pytest.raises(BogdanovHypothesisError):
        find_bogdanov_witness(cycle_ghz(6))


def test_the_witness_stops_at_the_first_non_mono_matching(monkeypatch):
    """K8 with every colour class of three colours has 688,905 perfect
    matchings; the first is monochromatic and the second is the witness."""
    g = build_graph(8, [(u, v, a, b, 1) for u in range(8) for v in range(u + 1, 8)
                        for a in range(3) for b in range(3)], colours=range(3))
    real = ghzgraphs.ghz._iter_perfect_matchings
    drawn = []

    def counting(h):
        for m in real(h):
            drawn.append(m)
            yield m

    monkeypatch.setattr(ghzgraphs.ghz, "_iter_perfect_matchings", counting)
    assert find_bogdanov_witness(g) == (0, 117, 198, 244)
    assert len(drawn) <= 2


# ---------------------------------------------------------------------------
# weights a complex float cannot hold


def one_edge(weight):
    return build_graph(2, [(0, 1, 0, 0, weight)])


@pytest.mark.parametrize("weight", [
    GaussianRational(10**400),
    GaussianRational(0, -(10**400)),
    GaussianRational(Fraction(1, 10**400)),
])
def test_scaling_refuses_a_mono_weight_outside_the_float_range(weight):
    with pytest.raises(ValueError, match="monochromatic weight of colour 0"):
        scale_to_ghz(one_edge(weight))


def test_scaling_refuses_an_edge_weight_outside_the_float_range():
    """Two parallel edges whose sum, the mono weight, is 1."""
    huge = GaussianRational(10**400)
    g = build_graph(2, [(0, 1, 0, 0, huge), (0, 1, 0, 0, GaussianRational(1) - huge)])
    assert mono_weights(g) == {0: GaussianRational(1)}
    with pytest.raises(ValueError, match="weight of edge 0 "):
        scale_to_ghz(g)


def test_scaling_keeps_weights_that_only_partly_underflow():
    tiny = GaussianRational(Fraction(1, 10**400), 1)  # the real part underflows, i survives
    scaled = scale_to_ghz(one_edge(tiny))
    assert verify(scaled).is_ghz
